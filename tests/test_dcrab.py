import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import autocal.dcrab
import autocal.qubit
import autocal.tomography
from autocal.dcrab import (
    BasisTerm,
    DcrabConfig,
    DcrabLedger,
    NelderMeadResult,
    assemble_pulse,
    draw_basis,
    evaluate_pulse_open_loop,
    make_fom,
    nelder_mead,
    run_dcrab,
)
from autocal.plant import PreparationIndex, SimPlant, SimPlantConfig
from autocal.qubit import ContractError, PlantParams, PulseWaveform, clip_amplitudes
from autocal.tomography import FidelityEstimate, FitFailure


def make_plant(t_rel=1.5, det_rel=0.0):
    params = PlantParams(1.0, det_rel, t_rel * 0.5)
    return SimPlant(params, SimPlantConfig())


class TestConfig:
    def test_defaults_valid(self):
        cfg = DcrabConfig()
        assert cfg.n_components == 1
        assert cfg.superiterations == 6

    def test_budget_must_cover_simplex(self):
        with pytest.raises(ContractError):
            DcrabConfig(n_components=2, max_evals_per_superiteration=8)

    def test_target_range(self):
        with pytest.raises(ContractError):
            DcrabConfig(target_fidelity=0.0)
        with pytest.raises(ContractError):
            DcrabConfig(target_fidelity=1.5)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", -1),
            ("n_components", 0),
            ("superiterations", 0),
            ("n_t", 1),
        ],
    )
    def test_values_that_ruin_a_run_rejected(self, field, value):
        with pytest.raises(ContractError):
            DcrabConfig(**{field: value})


class TestDrawBasis:
    def test_single_component_band(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            term = draw_basis(1, 1.0, rng)
            assert abs(term.freqs_x[0]) < math.pi
            assert abs(term.freqs_y[0]) < math.pi

    def test_multi_component_disjoint_bands(self):
        rng = np.random.default_rng(1)
        duration = 2.0
        for _ in range(50):
            term = draw_basis(3, duration, rng)
            for freqs in (term.freqs_x, term.freqs_y):
                for n, w in enumerate(freqs):
                    lo = 2 * math.pi * (n - 0.5) / duration
                    hi = 2 * math.pi * (n + 0.5) / duration
                    assert lo < w < hi

    def test_seed_determinism(self):
        t1 = draw_basis(2, 1.5, np.random.default_rng(7))
        t2 = draw_basis(2, 1.5, np.random.default_rng(7))
        assert np.array_equal(t1.freqs_x, t2.freqs_x)
        assert np.array_equal(t1.freqs_y, t2.freqs_y)

    def test_zero_initial_coefficients(self):
        term = draw_basis(2, 1.0, np.random.default_rng(3))
        assert np.array_equal(term.coeffs, np.zeros(8))

    def test_coeff_length_checked(self):
        term = draw_basis(2, 1.0, np.random.default_rng(3))
        with pytest.raises(ContractError):
            term.with_coeffs(np.zeros(5))

    @pytest.mark.parametrize("duration", [0.0, -1.0])
    def test_non_positive_duration_rejected(self, duration):
        with pytest.raises(ContractError, match="duration must be positive"):
            draw_basis(1, duration, np.random.default_rng(0))

    def test_band_edge_redrawn(self):
        # uniform(-0.5, 0.5) can return -0.5 itself, which lies on the excluded band edge
        class StubGenerator:
            def __init__(self, draws):
                self.draws = iter(draws)

            def uniform(self, low, high, size):
                draw = np.array(next(self.draws), dtype=float)
                assert (low, high, size) == (-0.5, 0.5, draw.size)
                return draw

        rng = StubGenerator([[-0.5, 0.25], [0.125], [0.0, -0.25]])
        term = draw_basis(2, 2.0, rng)
        assert np.array_equal(term.freqs_x, 2.0 * math.pi * np.array([0.125, 1.25]) / 2.0)
        assert np.array_equal(term.freqs_y, 2.0 * math.pi * np.array([0.0, 0.75]) / 2.0)


class TestAssemblePulse:
    def ledger_with_zero_freq_term(self, n_t=200):
        ledger = DcrabLedger(duration=1.0, n_t=n_t)
        ledger.active = BasisTerm(
            freqs_x=np.array([0.0]), freqs_y=np.array([0.0]), coeffs=np.zeros(4)
        )
        return ledger

    def test_zero_coefficients_zero_waveform(self):
        ledger = self.ledger_with_zero_freq_term()
        pulse = assemble_pulse(ledger, np.zeros(4))
        assert np.all(pulse.x == 0.0)
        assert np.all(pulse.y == 0.0)

    def test_constant_term_yields_window(self):
        # b0 = 1 at frequency zero on X gives X(t) = sin(pi t / T)
        ledger = self.ledger_with_zero_freq_term()
        pulse = assemble_pulse(ledger, np.array([0.0, 1.0, 0.0, 0.0]))
        times = np.arange(200) / 200.0
        assert np.allclose(pulse.x, np.sin(math.pi * times), atol=1e-12)
        assert np.all(pulse.y == 0.0)
        assert pulse.x[0] == 0.0  # window vanishes at t = 0
        assert abs(np.max(pulse.x) - 1.0) < 1e-4  # peak ~1 at T/2

    def test_constraint_enforced_by_rescaling(self):
        ledger = self.ledger_with_zero_freq_term()
        pulse = assemble_pulse(ledger, np.array([0.0, 2.0, 0.0, 1.0]))
        assert np.max(np.abs(pulse.x + pulse.y)) <= 1.0 + 1e-12
        # below-constraint samples keep the raw 2:1 channel ratio
        small = np.abs(pulse.x + pulse.y) < 0.999
        assert np.allclose(pulse.x[small & (pulse.y != 0)], 2 * pulse.y[small & (pulse.y != 0)])

    def test_update_vanishes_at_boundaries(self):
        rng = np.random.default_rng(9)
        ledger = DcrabLedger(duration=1.0, n_t=500)
        ledger.active = draw_basis(2, 1.0, rng)
        pulse = assemble_pulse(ledger, rng.normal(size=8))
        assert pulse.x[0] == 0.0 and pulse.y[0] == 0.0

    def test_wrong_coeff_length(self):
        ledger = self.ledger_with_zero_freq_term(n_t=100)
        with pytest.raises(ContractError):
            assemble_pulse(ledger, np.zeros(6))

    def test_no_active_term_rejected(self):
        with pytest.raises(ContractError, match="no active term"):
            assemble_pulse(DcrabLedger(duration=1.0, n_t=100), np.zeros(4))

    @given(
        duration=st.floats(0.05, 5.0),
        n_t=st.integers(2, 400),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_run_evaluates_pulses_on_the_plant_grid(self, duration, n_t, seed):
        # the ledger is built from the plant's duration and config.n_t, so every evaluated
        # pulse has that duration and that many samples, and its update vanishes at t = 0
        pulses = []

        def spy(plant, pulse):
            pulses.append(pulse)
            return FidelityEstimate(0.5, 0.0)  # below the target, so every budget is spent

        plant = SimPlant(PlantParams(1.0, 0.0, duration), SimPlantConfig())
        config = DcrabConfig(n_components=1, superiterations=2, max_evals_per_superiteration=6, n_t=n_t, seed=seed)
        result = run_dcrab(plant, spy, config)
        assert len(pulses) == result.n_evaluations == 12
        for pulse in pulses:
            assert pulse.duration == duration and pulse.x.size == pulse.y.size == n_t
            assert pulse.x[0] == 0.0 and pulse.y[0] == 0.0

    @staticmethod
    def uncached_pulse(ledger, coeffs):
        """Every term's profile summed afresh, in ledger order, then windowed and clipped."""
        times = np.arange(ledger.n_t) * (ledger.duration / ledger.n_t)
        gx, gy = np.zeros_like(times), np.zeros_like(times)
        for term in [*ledger.frozen, ledger.active.with_coeffs(coeffs)]:
            tx, ty = term.channel_profiles(times)
            gx += tx
            gy += ty
        w = np.sin(math.pi * times / ledger.duration)
        return clip_amplitudes(w * gx, w * gy)

    def test_frozen_sums_match_uncached_profiles(self):
        rng = np.random.default_rng(21)
        duration = 0.75
        ledger = DcrabLedger(duration=duration, n_t=1000)

        def check(n_t, new_duration=duration):
            ledger.n_t, ledger.duration = n_t, new_duration
            coeffs = rng.normal(scale=0.5, size=8)
            pulse = assemble_pulse(ledger, coeffs)
            x, y = self.uncached_pulse(ledger, coeffs)
            assert pulse.duration == new_duration
            assert pulse.x.tobytes() == x.tobytes() and pulse.y.tobytes() == y.tobytes()

        for superiteration in range(6):
            ledger.active = draw_basis(2, duration, rng)
            for n_t in (1000, 5000, 1000, 200):
                for _ in range(3):
                    check(n_t)
            check(200, 0.8)  # same n_t, another duration: a new time grid of the same size
            check(200)
            ledger.frozen.append(ledger.active.with_coeffs(rng.normal(scale=0.5, size=8)))
        # a replaced set of frozen terms of the same length is summed afresh
        check(200)
        ledger.frozen = [draw_basis(2, duration, rng).with_coeffs(rng.normal(size=8)) for _ in range(6)]
        check(200)


class TestLedgerCache:
    """``update_profiles`` reuses the active term's basis; each result must equal the uncached sum."""

    @staticmethod
    def uncached_profiles(ledger, coeffs):
        """Every term's profile summed afresh, in ledger order, then windowed."""
        times = np.arange(ledger.n_t) * (ledger.duration / ledger.n_t)
        gx, gy = np.zeros_like(times), np.zeros_like(times)
        for term in [*ledger.frozen, ledger.active.with_coeffs(coeffs)]:
            tx, ty = term.channel_profiles(times)
            gx += tx
            gy += ty
        w = np.sin(math.pi * times / ledger.duration)
        return w * gx, w * gy

    @given(
        ops=st.lists(st.sampled_from(["eval", "swap", "redraw", "grid", "freeze", "copy"]), max_size=12),
        n_components=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_uncached_profiles_bitwise(self, ops, n_components, seed):
        rng = np.random.default_rng(seed)
        duration = 0.75
        ledger = DcrabLedger(duration=duration, n_t=300)
        ledger.active = draw_basis(n_components, duration, rng)
        for op in ["eval", *ops]:
            if op == "swap":
                ledger.active = draw_basis(n_components, duration, rng)
            elif op == "redraw":
                # the dropped term's memory is free before the next term is made, so
                # CPython may give the new term its id unless the cache holds the old term
                ledger.active = None
                ledger.active = draw_basis(n_components, duration, rng)
            elif op == "grid":
                # a new sample count, a new duration, or both: the cache must rebuild the grid
                change = rng.integers(3)
                if change != 1:
                    ledger.n_t = int(rng.choice([2, 300, 5000]))
                if change != 0:
                    ledger.duration = rng.uniform(0.5, 1.0) * duration
            elif op == "freeze":
                ledger.frozen.append(ledger.active.with_coeffs(rng.normal(size=4 * n_components)))
                ledger.active = None
                ledger.active = draw_basis(n_components, duration, rng)
            elif op == "copy":
                # value-equal copies are other terms: the cache is keyed on the terms themselves
                ledger.frozen = [term.with_coeffs(term.coeffs) for term in ledger.frozen]
            for _ in range(2):
                coeffs = rng.normal(scale=0.5, size=4 * n_components)
                gx, gy = ledger.update_profiles(coeffs)
                x, y = self.uncached_profiles(ledger, coeffs)
                assert gx.tobytes() == x.tobytes() and gy.tobytes() == y.tobytes()
                key_terms = ledger._cache[0][:-1]
                assert len(key_terms) == len(ledger.frozen) + 1
                assert all(a is b for a, b in zip(key_terms, [*ledger.frozen, ledger.active]))
        with pytest.raises(ContractError, match="length 4N"):
            ledger.update_profiles(np.zeros(4 * n_components + 1))

    def test_new_duration_rebuilds_the_window(self):
        # the window depends on the duration: the same grid under a new duration must not reuse the old one
        rng = np.random.default_rng(6)
        ledger = DcrabLedger(duration=0.75, n_t=300)
        ledger.active = draw_basis(2, 0.75, rng)
        coeffs = rng.normal(scale=0.5, size=8)
        ledger.update_profiles(coeffs)
        ledger.duration = 2.0
        fresh = DcrabLedger(duration=2.0, n_t=300, active=ledger.active)
        got, want = ledger.update_profiles(coeffs), fresh.update_profiles(coeffs)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    def test_channel_profiles_match_the_direct_formula(self):
        # the shared basis and weighing give the per-channel sums written out in full
        rng = np.random.default_rng(4)
        times = np.arange(500) * (0.75 / 500)
        term = draw_basis(3, 0.75, rng).with_coeffs(rng.normal(size=12))
        ax, bx, ay, by = term.coeffs.reshape(4, 3)
        phase_x, phase_y = np.outer(term.freqs_x, times), np.outer(term.freqs_y, times)
        gx, gy = term.channel_profiles(times)
        assert gx.tobytes() == (ax @ np.sin(phase_x) + bx @ np.cos(phase_x)).tobytes()
        assert gy.tobytes() == (ay @ np.sin(phase_y) + by @ np.cos(phase_y)).tobytes()


class TestNelderMead:
    def test_quadratic_bowl(self):
        objective = lambda v: -((v[0] - 1.0) ** 2 + (v[1] - 2.0) ** 2)
        res = nelder_mead(objective, np.zeros(2), 1.0, 200, 1e-8)
        assert len(res.trace) < 200
        assert np.allclose(res.best_x, [1.0, 2.0], atol=1e-4)

    def test_constant_objective_terminates_early(self):
        res = nelder_mead(lambda v: 0.5, np.zeros(3), 1.0, 500, 1e-6)
        assert res.best_value == 0.5
        assert len(res.trace) < 500

    def test_rosenbrock_running_best_monotone(self):
        objective = lambda v: -(
            100.0 * (v[1] - v[0] ** 2) ** 2
            + (1.0 - v[0]) ** 2
            + 100.0 * (v[3] - v[2] ** 2) ** 2
            + (1.0 - v[2]) ** 2
        )
        res = nelder_mead(objective, np.zeros(4), 1.0, 500, 1e-12)
        running = np.maximum.accumulate(res.trace)
        assert res.best_value == running[-1]
        assert res.best_value > res.trace[0]

    def test_nan_objective_scored_zero(self):
        calls = {"n": 0}

        def objective(v):
            calls["n"] += 1
            return math.nan if calls["n"] == 2 else float(-np.sum(v**2))

        res = nelder_mead(objective, np.zeros(2), 1.0, 50, 1e-8)
        assert res.trace[1] == 0.0

    def test_target_stops_search(self):
        res = nelder_mead(lambda v: 1.0, np.zeros(4), 1.0, 500, 1e-8, target=0.9)
        assert len(res.trace) == 1

    def test_budget_respected(self):
        objective = lambda v: float(np.sin(np.sum(v)))
        res = nelder_mead(objective, np.zeros(4), 1.0, 17, 1e-15)
        assert len(res.trace) <= 17

    def test_budget_below_simplex_rejected(self):
        with pytest.raises(ContractError, match="initial simplex"):
            nelder_mead(lambda v: 0.0, np.zeros(4), 1.0, 4, 1e-8)


def reference_nelder_mead(objective, x0, scale, max_evals, tol, target=None):
    """The search with nine scattered stop checks that the single-exit
    ``nelder_mead`` replaced, kept as the oracle for its evaluation sequence."""
    x0 = np.asarray(x0, dtype=float)
    dim = x0.size
    if max_evals < dim + 1:
        raise ContractError("max_evals must cover the initial simplex")

    trace = []

    def f(x):
        value = float(objective(x))
        if math.isnan(value):
            value = 0.0
        trace.append(value)
        return value

    vertices = [x0.copy()]
    for i in range(dim):
        v = x0.copy()
        v[i] += scale
        vertices.append(v)
    values = []
    done = False
    for v in vertices:
        values.append(f(v))
        if target is not None and values[-1] >= target:
            done = True
            break
    vertices = np.array(vertices[: len(values)])
    values = np.array(values)

    def result():
        i = int(np.argmax(values))
        return NelderMeadResult(vertices[i].copy(), float(values[i]), trace)

    if done or len(values) < dim + 1:
        return result()

    while len(trace) < max_evals:
        order = np.argsort(-values)
        vertices = vertices[order]
        values = values[order]
        if np.max(np.abs(vertices[1:] - vertices[0])) < tol:
            break
        centroid = vertices[:-1].mean(axis=0)
        worst = values[-1]

        def try_point(x):
            if len(trace) >= max_evals:
                return None
            return f(x)

        reflected = centroid + (centroid - vertices[-1])
        fr = try_point(reflected)
        if fr is None:
            break
        if target is not None and fr >= target:
            vertices[-1], values[-1] = reflected, fr
            break
        if fr > values[0]:
            expanded = centroid + 2.0 * (centroid - vertices[-1])
            fe = try_point(expanded)
            if fe is None:
                vertices[-1], values[-1] = reflected, fr
                break
            if target is not None and fe >= target:
                vertices[-1], values[-1] = expanded, fe
                break
            if fe > fr:
                vertices[-1], values[-1] = expanded, fe
            else:
                vertices[-1], values[-1] = reflected, fr
            continue
        if fr > values[-2]:
            vertices[-1], values[-1] = reflected, fr
            continue
        outside = fr > worst
        if outside:
            contracted = centroid + 0.5 * (reflected - centroid)
        else:
            contracted = centroid + 0.5 * (vertices[-1] - centroid)
        fc = try_point(contracted)
        if fc is None:
            break
        if target is not None and fc >= target:
            vertices[-1], values[-1] = contracted, fc
            break
        if (outside and fc >= fr) or (not outside and fc > worst):
            vertices[-1], values[-1] = contracted, fc
            continue
        stop = False
        for i in range(1, len(vertices)):
            vertices[i] = vertices[0] + 0.5 * (vertices[i] - vertices[0])
            fi = try_point(vertices[i])
            if fi is None:
                stop = True
                break
            values[i] = fi
            if target is not None and fi >= target:
                stop = True
                break
        if stop:
            break
    return result()


def landscape(kind, center, levels):
    """Deterministic objectives: smooth, tie-heavy, clipped, or NaN-returning."""

    def smooth(x):
        return 1.0 - float(np.sum((x - center) ** 2))

    if kind == "smooth":
        return smooth
    if kind == "ties":
        # np.round keeps the sign, so slightly negative values score -0.0
        return lambda x: float(np.round(smooth(x) * levels)) / levels
    if kind == "clipped":
        return lambda x: min(1.0, max(0.0, 2.0 * smooth(x)))
    if kind == "constant":
        return lambda x: 0.5
    return lambda x: math.nan if smooth(x) < 1.0 - levels / 8.0 else smooth(x)


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


class TestNelderMeadSingleExit:
    @given(
        dim=st.integers(1, 8),
        data=st.data(),
        kind=st.sampled_from(["smooth", "ties", "clipped", "constant", "nan"]),
        levels=st.integers(1, 8),
        scale=st.sampled_from([0.05, 0.5, 1.0, 2.0, -0.75]),
        extra_evals=st.integers(0, 80),
        tol=st.sampled_from([0.0, 1e-8, 1e-3, 0.1, 0.5]),
        target=st.one_of(
            st.none(),
            st.sampled_from([-0.5, 0.0, 0.5, 0.75, 0.9, 0.99, 1.0, 1.5]),
            st.floats(-2.0, 1.5),
        ),
    )
    @settings(max_examples=600, deadline=None)
    def test_matches_reference_bitwise(
        self, dim, data, kind, levels, scale, extra_evals, tol, target
    ):
        coordinate = st.sampled_from([0.0, -0.0, 0.25, -1.0, 0.5])
        x0 = np.array(data.draw(st.lists(coordinate, min_size=dim, max_size=dim)))
        center = np.array(data.draw(st.lists(coordinate, min_size=dim, max_size=dim)))
        objective = landscape(kind, center, levels)
        max_evals = dim + 1 + extra_evals
        runs = []
        for search in (nelder_mead, reference_nelder_mead):
            points = []

            def recorded(x):
                points.append(np.array(x, copy=True))
                return objective(x)

            runs.append((search(recorded, x0, scale, max_evals, tol, target), points))
        (got, got_points), (want, want_points) = runs
        assert [bits(p) for p in got_points] == [bits(p) for p in want_points]
        assert bits(got.trace) == bits(want.trace)
        assert bits(got.best_x) == bits(want.best_x)
        assert bits(got.best_value) == bits(want.best_value)
        assert len(got.trace) == len(want.trace)


class TestRunDcrab:
    def run_once(self, seed=0, **kwargs):
        config = DcrabConfig(seed=seed, **kwargs)
        return run_dcrab(make_plant(), "state-transfer", config)

    def test_running_best_non_decreasing(self):
        result = self.run_once()
        running = result.running_best_trace
        assert np.all(np.diff(running) >= 0.0)
        assert running[-1] == result.best_fidelity.value

    def test_superiteration_continuity(self):
        # with zero-initialized active coefficients, the first evaluation of
        # each super-iteration replays the previous one's best vertex exactly
        result = self.run_once(seed=5, target_fidelity=1.0, superiterations=3)
        by_si = {}
        for rec in result.records:
            by_si.setdefault(rec.superiteration, []).append(rec.value)
        for k in range(1, len(by_si)):
            assert by_si[k][0] == max(by_si[k - 1])

    def test_frozen_terms_match_recorded_best(self):
        result = self.run_once(seed=2, target_fidelity=1.0, superiterations=3)
        for k, term in enumerate(result.ledger.frozen):
            recs = [r for r in result.records if r.superiteration == k]
            best = max(recs, key=lambda r: r.value)
            assert np.array_equal(term.coeffs, best.coefficients)

    def test_best_pulse_satisfies_constraint(self):
        result = self.run_once(seed=3)
        pulse = result.best_pulse
        assert np.max(np.abs(pulse.x + pulse.y)) <= 1.0 + 1e-12

    def test_bit_exact_reproducibility(self):
        r1 = self.run_once(seed=11)
        r2 = self.run_once(seed=11)
        assert np.array_equal(r1.fom_trace, r2.fom_trace)
        assert np.array_equal(r1.best_pulse.x, r2.best_pulse.x)
        assert np.array_equal(r1.best_pulse.y, r2.best_pulse.y)
        assert r1.best_fidelity.value == r2.best_fidelity.value

    def test_early_exit_on_target(self):
        result = self.run_once(seed=1, target_fidelity=0.8)
        assert result.best_fidelity.value >= 0.8
        assert result.n_evaluations < 6 * 40

    def test_no_scored_evaluation_is_an_explicit_error(self, monkeypatch):
        # an optimizer that returns without evaluating leaves no best pulse;
        # the error must not depend on assert statements (python -O)
        def no_evaluation(objective, x0, scale, max_evals, tol, target=None):
            return NelderMeadResult(x0, -math.inf, [])

        monkeypatch.setattr(autocal.dcrab, "nelder_mead", no_evaluation)
        with pytest.raises(RuntimeError, match="no evaluation"):
            self.run_once(superiterations=1)

    def test_every_evaluation_failing_raises_the_first_failure(self):
        raised = []

        def failing_fom(plant, pulse):
            raised.append(FitFailure(0.2))
            raise raised[-1]

        config = DcrabConfig(seed=0, superiterations=2, max_evals_per_superiteration=12, n_t=200)
        with pytest.raises(FitFailure) as err:
            run_dcrab(make_plant(), failing_fom, config)
        assert len(raised) > 12
        assert err.value is raised[0]

    def test_some_evaluations_failing_score_zero(self):
        # every third evaluation fails; the run records it as a measured 0 and runs on as before
        def fom(fail):
            calls = []

            def evaluate(plant, pulse):
                calls.append(pulse)
                if len(calls) % 3 == 1:
                    if fail:
                        raise FitFailure(0.2)
                    return FidelityEstimate(0.0, 0.0)
                return evaluate_pulse_open_loop(pulse, plant.nominal)

            return evaluate

        config = DcrabConfig(seed=4, superiterations=2, max_evals_per_superiteration=12, n_t=200)
        failed, scored = (run_dcrab(make_plant(det_rel=0.3), fom(fail), config) for fail in (True, False))
        assert failed.records[0].value == 0.0 and failed.best_fidelity.value > 0.0
        assert failed.n_evaluations == scored.n_evaluations
        for a, b in zip(failed.records, scored.records):
            assert (a.superiteration, a.value, a.sigma, a.running_best) == (
                b.superiteration, b.value, b.sigma, b.running_best
            )
            assert np.array_equal(a.coefficients, b.coefficients)
        assert failed.best_fidelity == scored.best_fidelity
        assert np.array_equal(failed.best_pulse.x, scored.best_pulse.x)

    def test_nan_measurement_scores_zero(self):
        # a real plant may return a non-finite population: that evaluation
        # fails its fit and scores 0, and the loop runs on
        class FlakyPlant(SimPlant):
            def rabi_scan(self, axis, times):
                values = super().rabi_scan(axis, times)
                self.scans += 1
                if self.scans == 20 + 5:  # the x scan of the third evaluation, after the calibration's 20 scans
                    values = values.copy()
                    values[3] = math.nan
                return values

        plant = FlakyPlant(PlantParams(1.0, 0.0, 0.75), SimPlantConfig())
        plant.scans = 0
        config = DcrabConfig(seed=0, superiterations=1, max_evals_per_superiteration=12, n_t=200)
        result = run_dcrab(plant, "state-transfer", config)
        assert result.records[2].value == 0.0
        assert result.n_evaluations > 3
        assert result.best_fidelity.value > 0.0

    def test_nan_in_one_gate_preparation_scores_zero(self, caplog):
        # all eight scans of a gate evaluation run before its one batched fit;
        # a NaN in one preparation fails that evaluation, which names it
        class FlakyPlant(SimPlant):
            prepares = 0

            def prepare(self, idx):
                super().prepare(idx)
                self.prepares += 1
                self.prepared = idx

            def rabi_scan(self, axis, times):
                values = super().rabi_scan(axis, times)
                third_evaluation = (self.prepares - 1) // 4 == 2
                if third_evaluation and self.prepared is PreparationIndex.PSI_3 and axis == "y":
                    values = values.copy()
                    values[-1] = math.nan
                return values

        plant = FlakyPlant(PlantParams(1.0, 0.0, 0.75), SimPlantConfig(noiseless=False, seed=2))
        config = DcrabConfig(seed=0, superiterations=1, max_evals_per_superiteration=12, n_t=200)
        with caplog.at_level("WARNING", logger="autocal.dcrab"):
            result = run_dcrab(plant, "gate", config)
        assert result.records[2].value == 0.0
        assert result.n_evaluations > 3
        assert result.best_fidelity.value > 0.0
        failures = [r.getMessage() for r in caplog.records if "evaluation failed" in r.getMessage()]
        assert failures == [
            "evaluation failed (preparation PSI_3: bad measurement"
            " (non-finite Rabi scan sample)); scoring 0"
        ]

    def test_trap_escape_statistics(self, monkeypatch):
        # synthetic landscape needing two distinct frequencies on X: one
        # super-iteration (single component) plateaus, basis changes unlock it
        duration = 1.0
        times = np.arange(400) * (duration / 400)
        window = np.sin(math.pi * times / duration)
        tx = window * (
            0.45 * np.sin(2 * math.pi * 0.15 * times / duration + 0.4)
            + 0.35 * np.sin(2 * math.pi * 0.45 * times / duration + 1.9)
        )
        ty = window * (
            0.40 * np.sin(2 * math.pi * 0.35 * times / duration + 2.6)
            + 0.30 * np.sin(2 * math.pi * 0.05 * times / duration + 0.9)
        )

        def profile_fom(plant, pulse):
            err = float(np.mean((pulse.x - tx) ** 2) + np.mean((pulse.y - ty) ** 2))
            return FidelityEstimate(value=max(0.0, 1.0 - 5.0 * err), sigma=0.0)

        params = PlantParams(1.0, 0.0, duration)
        monkeypatch.setattr(autocal.dcrab, "SIMPLEX_TOL", 1e-3)
        escapes = 0
        for seed in range(50):
            config = DcrabConfig(
                seed=seed,
                superiterations=6,
                target_fidelity=1.0,
                n_t=400,
            )
            plant = SimPlant(params, SimPlantConfig())
            result = run_dcrab(plant, profile_fom, config)
            plateau = max(r.value for r in result.records if r.superiteration == 0)
            if result.best_fidelity.value > plateau + 1e-3:
                escapes += 1
        assert escapes >= 45


class ScanCountingPlant(SimPlant):
    """Counts scans; a scan drive at ``rate`` times the nominal Rabi frequency."""

    scans = 0
    rate = 1.0

    def rabi_scan(self, axis, times):
        self.scans += 1
        return super().rabi_scan(axis, times)

    def _rotation_rates(self, axis):
        hx, hy = super()._rotation_rates(axis)
        return self.rate * hx, self.rate * hy


class TestScanCalibration:
    CONFIG = DcrabConfig(seed=2, superiterations=2, max_evals_per_superiteration=12, n_t=200)

    @pytest.mark.parametrize("kind, name", [("state-transfer", "state_transfer_fom"), ("gate", "gate_fom")])
    def test_every_evaluation_reaches_the_module_fom_at_the_calibrated_omega(self, monkeypatch, kind, name):
        # the benchmark patches these module attributes and forwards *args, **kwargs;
        # the calibration's 20 scans come first and call no figure of merit
        calls = []
        original = getattr(autocal.tomography, name)

        def spy(*args, **kwargs):
            calls.append((plant.scans, kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(autocal.dcrab, name, spy)
        plant = ScanCountingPlant(PlantParams(1.0, 0.3, 0.75), SimPlantConfig(noiseless=False, seed=3))
        result = run_dcrab(plant, kind, self.CONFIG)
        assert len(calls) == result.n_evaluations
        assert calls[0][0] == 20
        assert all(kwargs == {"omega": result.calibration.omega} for _, kwargs in calls)

    def test_unknown_kind_fails_before_the_calibration(self):
        plant = ScanCountingPlant(PlantParams(1.0, 0.0, 0.75), SimPlantConfig(noiseless=False, seed=3))
        state = plant._rng.bit_generator.state
        with pytest.raises(ContractError, match="unknown figure-of-merit kind 'energy'"):
            run_dcrab(plant, "energy", self.CONFIG)
        assert plant.scans == 0
        assert plant._rng.bit_generator.state == state

    def test_callable_fom_runs_without_calibration(self):
        plant = ScanCountingPlant(PlantParams(1.0, 0.0, 0.75), SimPlantConfig())
        result = run_dcrab(plant, lambda plant, pulse: evaluate_pulse_open_loop(pulse, plant.nominal), self.CONFIG)
        assert result.calibration is None and plant.scans == 0

    def test_fast_scan_drive_is_measured_and_fitted_noiselessly(self):
        # a scan drive 1% fast: the calibration measures it, so the noiseless loop stays exact
        plant = ScanCountingPlant(PlantParams(1.0, 0.5, 0.75), SimPlantConfig())
        plant.rate = 1.01
        result = run_dcrab(plant, "state-transfer", self.CONFIG)
        assert abs(result.calibration.omega - 1.01) <= 1e-12
        exact = evaluate_pulse_open_loop(result.best_pulse, plant.nominal).value
        assert abs(result.best_fidelity.value - exact) <= 1e-9

    def test_failures_are_kept_in_order(self):
        raised = []

        def fom(plant, pulse):
            if len(raised) < 3:
                raised.append(FitFailure(0.2 + len(raised)))
                raise raised[-1]
            return evaluate_pulse_open_loop(pulse, plant.nominal)

        result = run_dcrab(make_plant(), fom, self.CONFIG)
        assert result.failures == raised and result.n_evaluations > 3


class TestOpenLoopEvaluation:
    def test_matches_closed_loop_best(self):
        config = DcrabConfig(seed=4)
        plant = make_plant()
        result = run_dcrab(plant, "state-transfer", config)
        reval = evaluate_pulse_open_loop(result.best_pulse, plant.nominal)
        assert abs(reval.value - result.best_fidelity.value) < 1e-9

    def test_amplitude_scale_overrotation(self):
        # half-amplitude pi-pulse scaled by 1.2 rotates by 1.2 pi
        pulse = PulseWaveform.constant(0.5, 0.0, 1.0)
        fom = evaluate_pulse_open_loop(
            pulse, PlantParams(1.0, 0.0, 1.0), amplitude_scale=1.2
        )
        assert fom.value == pytest.approx(math.sin(0.6 * math.pi) ** 2, abs=1e-9)

    def test_gate_kind(self):
        pulse = PulseWaveform.constant(1.0, 0.0, 0.25)
        fom = evaluate_pulse_open_loop(pulse, PlantParams(1.0, 0.0, 0.25), fom="gate")
        assert fom.value == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("fom, duration", [("state-transfer", 0.5), ("gate", 0.25)])
    def test_exact_pulse_scores_at_most_one(self, fom, duration):
        # at many n_t, rounding in the propagator puts the unclamped overlap a few ulps above 1
        for n_t in range(2, 300):
            pulse = PulseWaveform.constant(1.0, 0.0, duration, n_t)
            assert 0.999 < evaluate_pulse_open_loop(pulse, PlantParams(1.0, 0.0, duration), fom=fom).value <= 1.0

    @pytest.mark.parametrize("fom", ["state-transfer", "gate"])
    def test_duration_mismatch_rejected(self, fom):
        # as SimPlant.apply does: a pulse scored on another plant's grid would mislead
        pulse = PulseWaveform.constant(1.0, 0.0, 0.5)
        with pytest.raises(ContractError, match="pulse duration does not match plant duration"):
            evaluate_pulse_open_loop(pulse, PlantParams(1.0, 0.0, 0.75), fom=fom)

    @pytest.mark.parametrize("scale", [math.inf, math.nan, 0.0, -1.0])
    def test_amplitude_scale_rejected_unless_positive_and_finite(self, scale):
        # as SimPlantConfig does: an infinite gain would clip to inf / inf and score NaN
        pulse = PulseWaveform.constant(0.5, 0.0, 1.0)
        with pytest.raises(ContractError, match="amplitude_scale must be positive and finite"):
            evaluate_pulse_open_loop(pulse, PlantParams(1.0, 0.0, 1.0), amplitude_scale=scale)

    def test_unknown_kind_rejected(self):
        pulse = PulseWaveform.zero(1.0)
        with pytest.raises(ContractError):
            evaluate_pulse_open_loop(pulse, PlantParams(1.0, 0.0, 1.0), fom="energy")

    def test_unknown_closed_loop_kind_rejected(self):
        with pytest.raises(ContractError, match="unknown figure-of-merit kind 'energy'"):
            make_fom("energy")

    def test_model_and_plant_propagate_the_same_channels(self, monkeypatch):
        # clipping leaves some samples one ulp above |X + Y| = 1; at unit gain
        # the model must re-clip them exactly as the plant's drive chain does
        params = PlantParams(1.0, 0.3, 0.75)
        rng = np.random.default_rng(0)
        ledger = DcrabLedger(duration=params.duration, n_t=200)
        ledger.active = draw_basis(1, params.duration, rng)
        pulse = assemble_pulse(ledger, rng.uniform(-3.0, 3.0, 4))
        assert np.max(np.abs(pulse.x + pulse.y)) > 1.0
        propagated = []
        channel_propagator = autocal.qubit._channel_propagator

        def recording(waveform, plant_params, x, y):
            propagated.append((x, y))
            return channel_propagator(waveform, plant_params, x, y)

        # the drive chain of both hands its channels to one propagation
        monkeypatch.setattr(autocal.qubit, "_channel_propagator", recording)
        plant = SimPlant(params, SimPlantConfig())
        plant.prepare(PreparationIndex.PSI_1)
        plant.apply(pulse)
        evaluate_pulse_open_loop(pulse, plant.true_params)
        (driven_x, driven_y), (modelled_x, modelled_y) = propagated
        assert driven_x.tobytes() == modelled_x.tobytes()
        assert driven_y.tobytes() == modelled_y.tobytes()
