"""Simulated wrist force-torque sensing.

The sensor draws its noise from the generator it is given; its sample
counter is the clock, one tick per ``sample`` call at the configured rate.
A tick is arithmetic on Python floats: it reads one true wrench, given as
three torque and three force floats, and returns the six floats read.
``read_rows`` and ``settle_and_average`` draw many ticks' noise at once and
build their arrays once per call, but still read each row with one
``sample`` call, so every tick stays visible to a subclass or a tracer.
Noise defaults are tuned artifact choices, not measured hardware values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .spatial import _as_vec3
from .validate import _at_least_zero, _pos, _xyz, check_fields, checked


class InsufficientSamples(RuntimeError):
    """Averaging window too short to produce a single sample."""


@dataclass(frozen=True)
class SensorConfig:
    """Sensor rate, noise, bias and drift; checked at construction."""

    sample_rate: float = checked(25.0, _pos)                 # Hz
    noise_force: float = checked(0.25, _at_least_zero)       # N std per axis
    noise_torque: float = checked(0.01, _at_least_zero)      # N*m std per axis
    bias_force: tuple = checked((0.0, 0.0, 0.0), _xyz)
    bias_torque: tuple = checked((0.0, 0.0, 0.0), _xyz)
    drift_force: tuple = checked((0.0, 0.0, 0.0), _xyz)      # N per second
    drift_torque: tuple = checked((0.0, 0.0, 0.0), _xyz)     # N*m per second

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class ReadingWindow:
    settle_time: float = checked(0.1, _at_least_zero)  # s discarded after a pose change
    average_time: float = checked(0.5, _pos)           # s averaged into one reading

    def __post_init__(self):
        check_fields(self)


class ForceTorqueSensor:
    """Noisy, biased wrench readings, reproducible from (rng state, sample index).

    The config is valid by construction, so its bias and drift tuples of
    floats are taken as they are; the generator is the trial's own.
    """

    def __init__(self, config: SensorConfig, rng: np.random.Generator):
        self.config = config
        self._rng = rng
        self._bias = [*config.bias_torque, *config.bias_force]
        self._drift = [*config.drift_torque, *config.drift_force]
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

    def sample(self, torque, force) -> list:
        """One tick: the three torque and three force floats of a true wrench
        read as six floats, torque first, each ((true + bias) + drift * t) +
        noise, with the next noise row drawn ahead by ``_ticks``, or one drawn
        here when none is pending."""
        t = self._samples / self.config.sample_rate
        self._samples += 1
        (v0, v1, v2), (v3, v4, v5) = torque, force
        (b0, b1, b2, b3, b4, b5), (d0, d1, d2, d3, d4, d5) = self._bias, self._drift
        n0, n1, n2, n3, n4, n5 = next(self._pending, None) or self._noise(1)[0]
        return [v0 + b0 + d0 * t + n0, v1 + b1 + d1 * t + n1, v2 + b2 + d2 * t + n2,
                v3 + b3 + d3 * t + n3, v4 + b4 + d4 * t + n4, v5 + b5 + d5 * t + n5]

    def _ticks(self, torque_rows: list, force_rows: list) -> list:
        """Read each row pair with one ``sample`` call, the noise of all the
        rows drawn at once: the six floats read per row."""
        self._pending = iter(self._noise(len(torque_rows)))
        sample = self.sample
        return [sample(tau, f) for tau, f in zip(torque_rows, force_rows)]

    def read_rows(self, torque_rows, force_rows) -> tuple[np.ndarray, np.ndarray]:
        """Read N true torque and force rows, both (N, 3), one tick per row;
        returns the (N, 3) torque and force read. Rows of other shapes are
        refused before any tick or draw."""
        torque_rows = np.asarray(torque_rows, dtype=float)
        force_rows = np.asarray(force_rows, dtype=float)
        if torque_rows.shape[1:] != (3,) or force_rows.shape != torque_rows.shape:
            raise ValueError(f"torque and force rows must both be (N, 3), got "
                             f"{torque_rows.shape} and {force_rows.shape}")
        read = np.array(self._ticks(torque_rows.tolist(), force_rows.tolist()))
        read = read.reshape(-1, 6)  # (0, 6) for no rows
        return read[:, :3], read[:, 3:]

    def settle_and_average(self, torque, force,
                           window: ReadingWindow) -> tuple[np.ndarray, np.ndarray]:
        """Discard the settle span, then average the window into one reading
        of a constant (quasi-static) true wrench, given as its (3,) torque and
        force, one tick per sample; returns the (3,) torque and force read.
        The kept rows are summed on floats in order from 0.0, the bits
        ``np.add.reduce(rows, axis=0, initial=0.0)`` gives."""
        n_settle = int(np.floor(window.settle_time * self.config.sample_rate))
        n_avg = int(np.floor(window.average_time * self.config.sample_rate))
        if n_avg < 1:
            raise InsufficientSamples(
                f"window of {window.average_time} s yields no samples at "
                f"{self.config.sample_rate} Hz"
            )
        n = n_settle + n_avg
        torque = _as_vec3(torque, "torque").tolist()
        force = _as_vec3(force, "force").tolist()
        kept = self._ticks([torque] * n, [force] * n)[n_settle:]
        read = np.array([reduce(add, column, 0.0) / n_avg for column in zip(*kept)])
        return read[:3], read[3:]
