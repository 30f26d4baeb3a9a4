"""Simulated wrist force-torque sensing.

The sensor draws its noise from the generator it is given; its sample
counter is the clock, one tick per ``sample`` call at the configured rate.
A tick reads one true wrench, given as (3,) torque and force arrays.
Noise defaults are tuned artifact choices, not measured hardware values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spatial import Wrench, _as_vec3


class InsufficientSamples(RuntimeError):
    """Averaging window too short to produce a single sample."""


@dataclass(frozen=True)
class SensorConfig:
    sample_rate: float = 25.0      # Hz
    noise_torque: float = 0.01     # N*m std per axis
    noise_force: float = 0.25      # N std per axis
    bias_torque: tuple = (0.0, 0.0, 0.0)
    bias_force: tuple = (0.0, 0.0, 0.0)
    drift_torque: tuple = (0.0, 0.0, 0.0)  # N*m per second
    drift_force: tuple = (0.0, 0.0, 0.0)   # N per second

    def __post_init__(self):
        if self.sample_rate <= 0.0:
            raise ValueError("sample_rate must be positive")
        if self.noise_torque < 0.0 or self.noise_force < 0.0:
            raise ValueError("noise stds must be non-negative")


@dataclass(frozen=True)
class ReadingWindow:
    settle_time: float = 0.1    # s discarded after a pose change
    average_time: float = 0.5   # s averaged into one reading

    def __post_init__(self):
        if self.settle_time < 0.0 or self.average_time < 0.0:
            raise ValueError("window times must be non-negative")


class ForceTorqueSensor:
    """Noisy, biased wrench readings, reproducible from (rng state, sample index)."""

    def __init__(self, config: SensorConfig, rng: np.random.Generator):
        self.config = config
        self._rng = rng
        self._bias_torque = _as_vec3(config.bias_torque, "bias_torque")
        self._bias_force = _as_vec3(config.bias_force, "bias_force")
        self._drift_torque = _as_vec3(config.drift_torque, "drift_torque")
        self._drift_force = _as_vec3(config.drift_force, "drift_force")
        self._samples = 0

    @property
    def time(self) -> float:
        return self._samples / self.config.sample_rate

    def sample(self, torque: np.ndarray, force: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One tick: the torque and force read for a true wrench's (3,) parts."""
        t = self.time
        # noise is drawn even at zero std so the stream advances identically
        n_tau = self._rng.normal(0.0, self.config.noise_torque, 3)
        n_f = self._rng.normal(0.0, self.config.noise_force, 3)
        self._samples += 1
        return (torque + self._bias_torque + self._drift_torque * t + n_tau,
                force + self._bias_force + self._drift_force * t + n_f)

    def settle_and_average(self, true_wrench: Wrench, window: ReadingWindow) -> Wrench:
        """Discard the settle span, then average the window into one reading
        of a constant (quasi-static) true wrench, one tick per sample."""
        n_settle = int(np.floor(window.settle_time * self.config.sample_rate))
        n_avg = int(np.floor(window.average_time * self.config.sample_rate))
        if n_avg < 1:
            raise InsufficientSamples(
                f"window of {window.average_time} s yields no samples at "
                f"{self.config.sample_rate} Hz"
            )
        for _ in range(n_settle):
            self.sample(true_wrench.torque, true_wrench.force)
        acc_tau = np.zeros(3)
        acc_f = np.zeros(3)
        for _ in range(n_avg):
            tau, f = self.sample(true_wrench.torque, true_wrench.force)
            acc_tau += tau
            acc_f += f
        return Wrench(acc_tau / n_avg, acc_f / n_avg, frame=true_wrench.frame)
