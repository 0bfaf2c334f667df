"""Cold start of autocal: ``import autocal`` plus one figure-of-merit evaluation.

    python3 perfbench/setup_probe.py <autocal-src-dir>

prints the seconds that took, measured inside this fresh interpreter.
"""

import sys
import time


def warm_up() -> None:
    """One state-transfer evaluation: fills the lazy MLE grid and the scipy imports."""
    from autocal.harness import params_from_relative
    from autocal.plant import SimPlant
    from autocal.qubit import PulseWaveform
    from autocal.tomography import state_transfer_fom

    params = params_from_relative(1.5, 0.2)
    state_transfer_fom(SimPlant(params), PulseWaveform.constant(1.0, 0.0, params.duration))


if __name__ == "__main__":
    start = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import autocal  # noqa: F401  (the import is what is timed)

    warm_up()
    print(time.perf_counter() - start)
