"""Closed-loop calibration of simulated spin-qubit pulses."""

__version__ = "0.1.0"
