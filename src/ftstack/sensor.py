"""Simulated wrist force-torque sensing.

The sensor draws its noise from the generator it is given; its sample
counter is the clock, one tick per ``sample`` call at the configured rate.
A tick reads one true wrench, given as (3,) torque and force arrays.
``read_rows`` draws many ticks' noise at once, but still reads each row with
one ``sample`` call, so every tick stays visible to a subclass or a tracer.
Noise defaults are tuned artifact choices, not measured hardware values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spatial import _as_vec3


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
        # each range is a chained comparison, which a NaN or an infinity fails
        if not 0.0 < self.sample_rate < np.inf:
            raise ValueError(f"sample_rate must be positive and finite, got {self.sample_rate}")
        if not (0.0 <= self.noise_torque < np.inf and 0.0 <= self.noise_force < np.inf):
            raise ValueError("noise_torque and noise_force must be non-negative and finite, "
                             f"got {self.noise_torque} and {self.noise_force}")


@dataclass(frozen=True)
class ReadingWindow:
    settle_time: float = 0.1    # s discarded after a pose change
    average_time: float = 0.5   # s averaged into one reading

    def __post_init__(self):
        if not (0.0 <= self.settle_time < np.inf and 0.0 <= self.average_time < np.inf):
            raise ValueError("settle_time and average_time must be non-negative and finite, "
                             f"got {self.settle_time} and {self.average_time}")


class ForceTorqueSensor:
    """Noisy, biased wrench readings, reproducible from (rng state, sample index)."""

    def __init__(self, config: SensorConfig, rng: np.random.Generator):
        self.config = config
        self._rng = rng
        self._bias = [*_as_vec3(config.bias_torque, "bias_torque").tolist(),
                      *_as_vec3(config.bias_force, "bias_force").tolist()]
        self._drift = [*_as_vec3(config.drift_torque, "drift_torque").tolist(),
                       *_as_vec3(config.drift_force, "drift_force").tolist()]
        self._std = np.repeat([config.noise_torque, config.noise_force], 3)
        self._pending = iter(())  # noise rows drawn ahead by read_rows
        self._samples = 0

    @property
    def ticks(self) -> int:  # ticks read so far, so also the next one's index
        return self._samples

    @property
    def time(self) -> float:
        return self._samples / self.config.sample_rate

    def _noise(self, n: int) -> list:
        """n ticks' (torque, force) noise rows with the bits of per-tick ``normal(0, std, 3)``
        pairs: ``0.0 + z * std`` is NumPy's ``loc + scale * z`` (``z * std`` gives -0.0 at 0)."""
        return (0.0 + self._rng.standard_normal((n, 6)) * self._std).tolist()

    def sample(self, torque: np.ndarray, force: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One tick: the torque and force read for a true wrench's (3,) parts, each
        component ((true + bias) + drift * t) + noise on floats, with the noise
        row ``read_rows`` drew ahead, or one drawn here when none is pending."""
        t = self._samples / self.config.sample_rate
        self._samples += 1
        (v0, v1, v2), (v3, v4, v5) = torque.tolist(), force.tolist()
        (b0, b1, b2, b3, b4, b5), (d0, d1, d2, d3, d4, d5) = self._bias, self._drift
        n0, n1, n2, n3, n4, n5 = next(self._pending, None) or self._noise(1)[0]
        read = np.array([v0 + b0 + d0 * t + n0, v1 + b1 + d1 * t + n1, v2 + b2 + d2 * t + n2,
                         v3 + b3 + d3 * t + n3, v4 + b4 + d4 * t + n4, v5 + b5 + d5 * t + n5])
        return read[:3], read[3:]

    def read_rows(self, torque_rows, force_rows) -> tuple[np.ndarray, np.ndarray]:
        """Read N true torque and force rows, (3,) arrays each, one
        ``sample`` call per row, with the noise of all N ticks drawn at once;
        returns the (N, 3) torque and force read."""
        self._pending = iter(self._noise(len(torque_rows)))
        read = np.array([self.sample(tau, f) for tau, f in zip(torque_rows, force_rows)])
        read = read.reshape(-1, 2, 3)  # (0, 2, 3) for no rows
        return read[:, 0], read[:, 1]

    def settle_and_average(self, torque, force,
                           window: ReadingWindow) -> tuple[np.ndarray, np.ndarray]:
        """Discard the settle span, then average the window into one reading
        of a constant (quasi-static) true wrench, given as its (3,) torque and
        force, one tick per sample; returns the (3,) torque and force read."""
        n_settle = int(np.floor(window.settle_time * self.config.sample_rate))
        n_avg = int(np.floor(window.average_time * self.config.sample_rate))
        if n_avg < 1:
            raise InsufficientSamples(
                f"window of {window.average_time} s yields no samples at "
                f"{self.config.sample_rate} Hz"
            )
        n = n_settle + n_avg
        torque, force = _as_vec3(torque, "torque"), _as_vec3(force, "force")
        read = self.read_rows([torque] * n, [force] * n)
        # the kept rows summed in order from 0.0, as a per-tick += sums them
        return tuple(np.add.reduce(rows[n_settle:], axis=0, initial=0.0) / n_avg for rows in read)
