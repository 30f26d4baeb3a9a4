"""Sensor model: reproducibility, noise statistics, windows, calibration."""

import numpy as np
import pytest

from ftstack.policy import PolicyConfig, calibrate_for_held
from ftstack.sensor import (
    ForceTorqueSensor,
    InsufficientSamples,
    ReadingWindow,
    SensorConfig,
)
from ftstack.spatial import FrameId, Wrench
from ftstack.surfaces import FlatPlane
from ftstack.world import Footprint, HeldObject, World

HOVER = Wrench((0.0, 0.0, 0.0), (0.0, 0.0, -9.81), frame=FrameId.WRIST)


def read(sensor, wrench=HOVER):
    """One ``sample`` call on the wrench's floats, as (3,) torque and force arrays."""
    out = sensor.sample(wrench.torque.tolist(), wrench.force.tolist())
    return np.array(out[:3]), np.array(out[3:])


def all_floats(values, n) -> bool:
    return len(values) == n and all(type(v) is float for v in values)


def reference_sample(config, rng, true_torque, true_force, index):
    """One tick as the per-tick arithmetic: true + bias + drift * t + noise."""
    t = index / config.sample_rate
    n_tau = rng.normal(0.0, config.noise_torque, 3)
    n_f = rng.normal(0.0, config.noise_force, 3)
    return (true_torque + np.asarray(config.bias_torque, dtype=float)
            + np.asarray(config.drift_torque, dtype=float) * t + n_tau,
            true_force + np.asarray(config.bias_force, dtype=float)
            + np.asarray(config.drift_force, dtype=float) * t + n_f)


class TestSampling:
    def test_same_seed_same_stream(self):
        a = ForceTorqueSensor(SensorConfig(), np.random.default_rng(42))
        b = ForceTorqueSensor(SensorConfig(), np.random.default_rng(42))
        for _ in range(50):
            (ta, fa), (tb, fb) = read(a), read(b)
            np.testing.assert_array_equal(ta, tb)
            np.testing.assert_array_equal(fa, fb)

    def test_different_seed_differs(self):
        _, fa = read(ForceTorqueSensor(SensorConfig(), np.random.default_rng(1)))
        _, fb = read(ForceTorqueSensor(SensorConfig(), np.random.default_rng(2)))
        assert not np.array_equal(fa, fb)

    def test_zero_noise_is_exact_but_advances_stream(self):
        quiet = SensorConfig(noise_torque=0.0, noise_force=0.0)
        s = ForceTorqueSensor(quiet, np.random.default_rng(9))
        torque, force = read(s)
        np.testing.assert_array_equal(force, HOVER.force)
        np.testing.assert_array_equal(torque, HOVER.torque)
        assert s.time == pytest.approx(1 / 25.0)

    @pytest.mark.parametrize("noise", [{"noise_torque": 0.0, "noise_force": 0.0}, {}])
    def test_matches_the_per_tick_arithmetic_bit_for_bit(self, noise):
        cfg = SensorConfig(bias_torque=(0.02, -0.01, 0.0), bias_force=(0.5, -0.3, 1.2),
                           drift_torque=(0.001, 0.0, -0.002),
                           drift_force=(0.0, 0.1, -0.05), **noise)
        rng = np.random.default_rng(11)
        sensor = ForceTorqueSensor(cfg, np.random.default_rng(11))
        true = np.random.default_rng(5).normal(size=(30, 2, 3))
        true[0] = -0.0  # signed zeros pass through as the arithmetic leaves them
        for i, (tau, f) in enumerate(true):
            got = sensor.sample(tau.tolist(), f.tolist())
            assert all_floats(got, 6)
            want = reference_sample(cfg, rng, tau, f, i)
            for g, w in zip((np.array(got[:3]), np.array(got[3:])), want):
                assert g.shape == (3,)
                assert np.array_equal(g, w)
                assert np.array_equal(np.signbit(g), np.signbit(w))
        assert sensor.time == 30 / cfg.sample_rate
        assert sensor._rng.bit_generator.state == rng.bit_generator.state

    def test_noise_std_matches_config(self):
        # 4000 samples put the sample std within a few percent of sigma
        s = ForceTorqueSensor(SensorConfig(), np.random.default_rng(3))
        readings = np.array([read(s)[1] for _ in range(4000)])
        std = readings.std(axis=0)
        np.testing.assert_allclose(std, 0.25, rtol=0.05)

    def test_bias_and_drift_applied(self):
        cfg = SensorConfig(noise_torque=0.0, noise_force=0.0,
                           bias_force=(0.5, 0.0, 0.0),
                           drift_force=(0.0, 0.1, 0.0))
        s = ForceTorqueSensor(cfg, np.random.default_rng(0))
        _, first = read(s)
        assert first[0] == pytest.approx(0.5)
        assert first[1] == pytest.approx(0.0)  # t = 0 at the first draw
        for _ in range(24):
            read(s)
        _, later = read(s)  # sample index 25 -> t = 1 s
        assert later[1] == pytest.approx(0.1)

    def test_clock_is_index_over_rate(self):
        s = ForceTorqueSensor(SensorConfig(sample_rate=50.0), np.random.default_rng(0))
        for _ in range(10):
            read(s)
        assert s.time == pytest.approx(0.2)



BIASED = dict(bias_torque=(0.02, -0.01, 0.0), bias_force=(0.5, -0.3, 1.2),
              drift_torque=(0.001, 0.0, -0.002), drift_force=(0.0, 0.1, -0.05))
NOISES = [{"noise_torque": 0.0, "noise_force": 0.0}, {}]
# with -0.0 offsets a -0.0 true component stays -0.0 up to the noise, so the
# noise's own zero sign shows
SIGNED_ZEROS = dict(bias_torque=(-0.0,) * 3, bias_force=(-0.0,) * 3,
                    drift_torque=(-0.0,) * 3, drift_force=(-0.0,) * 3)


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestReadRows:
    """One noise draw for many ticks gives the per-tick draws' bits and stream."""

    @pytest.mark.parametrize("n", [0, 1, 14, 180])
    @pytest.mark.parametrize("noise", NOISES)
    @pytest.mark.parametrize("offsets", [BIASED, SIGNED_ZEROS], ids=["biased", "signed_zeros"])
    def test_matches_the_per_tick_reference_bit_for_bit(self, n, noise, offsets):
        cfg = SensorConfig(**offsets, **noise)
        rng = np.random.default_rng(12)
        sensor = ForceTorqueSensor(cfg, np.random.default_rng(12))
        for i in range(3):  # lone ticks first, so the rows start at tick 3
            got, want = read(sensor), reference_sample(cfg, rng, HOVER.torque, HOVER.force, i)
            for g, w in zip(got, want):
                assert_same_bits(g, w)
        true = np.random.default_rng(6).normal(size=(n, 2, 3))
        true[:1] = -0.0  # signed zeros pass through as the arithmetic leaves them
        torque, force = sensor.read_rows(true[:, 0], true[:, 1])
        want = [reference_sample(cfg, rng, tau, f, 3 + i) for i, (tau, f) in enumerate(true)]
        assert torque.shape == force.shape == (n, 3)
        assert_same_bits(torque, np.array([w[0] for w in want]).reshape(n, 3))
        assert_same_bits(force, np.array([w[1] for w in want]).reshape(n, 3))
        assert sensor.ticks == 3 + n
        assert sensor.time == (3 + n) / cfg.sample_rate
        assert sensor._rng.bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("noise", NOISES)
    def test_lone_ticks_after_rows_continue_the_stream(self, noise):
        cfg = SensorConfig(**BIASED, **noise)
        rng = np.random.default_rng(14)
        sensor = ForceTorqueSensor(cfg, np.random.default_rng(14))
        rows = np.tile(HOVER.torque, (5, 1)), np.tile(HOVER.force, (5, 1))
        sensor.read_rows(*rows)
        for i in range(5):
            reference_sample(cfg, rng, HOVER.torque, HOVER.force, i)
        for i in range(5, 9):
            for g, w in zip(read(sensor), reference_sample(cfg, rng, HOVER.torque,
                                                           HOVER.force, i)):
                assert_same_bits(g, w)
        assert sensor._rng.bit_generator.state == rng.bit_generator.state

    def test_each_row_is_one_sample_call(self):
        calls = []

        class Counting(ForceTorqueSensor):
            def sample(self, torque, force):
                calls.append((torque, force))
                return super().sample(torque, force)

        true = np.random.default_rng(7).normal(size=(2, 9, 3))
        Counting(SensorConfig(), np.random.default_rng(0)).read_rows(*true)
        assert len(calls) == 9
        for (tau, f), want_tau, want_f in zip(calls, *true):
            assert all_floats(tau, 3) and all_floats(f, 3)
            assert tau == want_tau.tolist() and f == want_f.tolist()

    @pytest.mark.parametrize("torque_shape, force_shape", [
        ((5, 3), (3, 3)), ((3, 3), (5, 3)), ((4,), (4,)), ((3,), (3,)), ((2, 6), (2, 6)),
        ((2, 3), (2, 6)), ((2, 3, 1), (2, 3, 1)), ((0,), (0, 3)),
    ])
    def test_refuses_rows_not_both_n_by_3_before_any_draw(self, torque_shape, force_shape):
        sensor = ForceTorqueSensor(SensorConfig(), np.random.default_rng(4))
        read(sensor)
        state = sensor._rng.bit_generator.state
        with pytest.raises(ValueError) as info:
            sensor.read_rows(np.zeros(torque_shape), np.zeros(force_shape))
        assert str(torque_shape) in str(info.value) and str(force_shape) in str(info.value)
        assert sensor.ticks == 1
        assert sensor._rng.bit_generator.state == state


def random_sensor(rng) -> ForceTorqueSensor:
    """A sensor with random rate, offsets with signed zeros, and zero or
    non-zero noise, on a generator of its own."""
    def offsets():
        return tuple(signed_rows(rng, 1, rng.choice([1e-3, 0.5]))[0].tolist())

    noise = [0.0 if rng.random() < 0.4 else float(rng.uniform(1e-3, 0.5)) for _ in range(2)]
    cfg = SensorConfig(sample_rate=float(rng.choice([7.5, 25.0, 100.0, 1000.0])),
                       noise_force=noise[0], noise_torque=noise[1],
                       bias_force=offsets(), bias_torque=offsets(),
                       drift_force=offsets(), drift_torque=offsets())
    return ForceTorqueSensor(cfg, np.random.default_rng(int(rng.integers(2**32))))


def signed_rows(rng, n, scale):
    """(n, 3) rows with a fifth of their components +0.0 and a fifth -0.0."""
    rows = rng.normal(0.0, scale, (n, 3))
    pick = rng.random((n, 3))
    rows[pick < 0.2] = 0.0
    rows[pick > 0.8] = -0.0
    return rows


def reference_rows(sensor, torque_rows, force_rows):
    """The per-tick reference on a copy of the sensor's generator: its
    ticks' torque and force (3,) arrays, and the copy."""
    rng = np.random.default_rng()
    rng.bit_generator.state = sensor._rng.bit_generator.state
    return [reference_sample(sensor.config, rng, tau, f, sensor.ticks + i)
            for i, (tau, f) in enumerate(zip(torque_rows, force_rows))], rng


class TestRandomSensors:
    """Float ticks against the per-tick array reference on 300 random
    sensors: signed zeros in rows, bias and drift, zero and non-zero noise,
    and 0 to 399 rows."""

    SENSORS = 300

    def sensors(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(self.SENSORS):
            sensor = random_sensor(rng)
            for _ in range(int(rng.integers(3))):  # lone ticks first, so t starts late
                read(sensor)
            yield rng, sensor

    def test_read_rows(self):
        for rng, sensor in self.sensors(31):
            n, start = int(rng.integers(400)), sensor.ticks
            torque_rows, force_rows = signed_rows(rng, n, 0.3), signed_rows(rng, n, 12.0)
            want, ref_rng = reference_rows(sensor, torque_rows, force_rows)
            torque, force = sensor.read_rows(torque_rows, force_rows)
            assert_same_bits(torque, np.array([w[0] for w in want]).reshape(n, 3))
            assert_same_bits(force, np.array([w[1] for w in want]).reshape(n, 3))
            assert sensor.ticks == start + n
            assert sensor._rng.bit_generator.state == ref_rng.bit_generator.state

    def test_settle_and_average(self):
        for rng, sensor in self.sensors(32):
            rate, start = sensor.config.sample_rate, sensor.ticks
            n_settle, n_avg = int(rng.integers(50)), int(rng.integers(1, 350))
            window = ReadingWindow((n_settle + 0.5) / rate, (n_avg + 0.5) / rate)
            n_settle = int(np.floor(window.settle_time * rate))
            n_avg = int(np.floor(window.average_time * rate))
            true_tau, true_f = signed_rows(rng, 1, 0.3)[0], signed_rows(rng, 1, 12.0)[0]
            want, ref_rng = reference_rows(sensor, [true_tau] * (n_settle + n_avg),
                                           [true_f] * (n_settle + n_avg))
            acc_tau, acc_f = np.zeros(3), np.zeros(3)
            for tau, f in want[n_settle:]:  # the per-tick += sum from zero
                acc_tau += tau
                acc_f += f
            torque, force = sensor.settle_and_average(true_tau, true_f, window)
            assert_same_bits(torque, acc_tau / n_avg)
            assert_same_bits(force, acc_f / n_avg)
            assert sensor.ticks == start + n_settle + n_avg
            assert sensor._rng.bit_generator.state == ref_rng.bit_generator.state

class TestWindows:
    def test_default_window_consumes_two_plus_twelve_samples(self):
        # 0.1 s settle -> floor(2.5) = 2 discarded; 0.5 s -> floor(12.5) = 12
        s = ForceTorqueSensor(SensorConfig(), np.random.default_rng(5))
        s.settle_and_average(HOVER.torque, HOVER.force, ReadingWindow())
        assert s._samples == 14

    def test_average_matches_the_per_tick_sum_bit_for_bit(self):
        cfg = SensorConfig(bias_force=(0.5, -0.3, 1.2), drift_torque=(0.001, 0.0, -0.002))
        rng = np.random.default_rng(8)
        s = ForceTorqueSensor(cfg, np.random.default_rng(8))
        torque, force = s.settle_and_average(HOVER.torque, HOVER.force, ReadingWindow())
        ticks = [reference_sample(cfg, rng, HOVER.torque, HOVER.force, i) for i in range(14)]
        acc_tau, acc_f = np.zeros(3), np.zeros(3)
        for tau, f in ticks[2:]:  # two settle ticks discarded
            acc_tau += tau
            acc_f += f
        assert torque.shape == force.shape == (3,)
        assert np.array_equal(torque, acc_tau / 12)
        assert np.array_equal(force, acc_f / 12)
        assert s._rng.bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("settle, average", [(0.0, 0.04), (0.2, 0.52), (0.0, 7.2)])
    @pytest.mark.parametrize("noise", NOISES)
    def test_any_window_matches_the_per_tick_sum(self, settle, average, noise):
        # 1, 13 and 180 kept rows, summed in order from zero as += sums them
        cfg = SensorConfig(**BIASED, **noise)
        rng = np.random.default_rng(9)
        s = ForceTorqueSensor(cfg, np.random.default_rng(9))
        press = Wrench((0.0, -0.2, 0.01), (0.3, 0.0, 0.19), frame=FrameId.WRIST)
        torque, force = s.settle_and_average(press.torque, press.force,
                                             ReadingWindow(settle, average))
        n_settle, n_avg = int(settle * 25.0), int(average * 25.0)
        acc_tau, acc_f = np.zeros(3), np.zeros(3)
        for i in range(n_settle + n_avg):
            tau, f = reference_sample(cfg, rng, press.torque, press.force, i)
            if i >= n_settle:
                acc_tau += tau
                acc_f += f
        assert_same_bits(torque, acc_tau / n_avg)
        assert_same_bits(force, acc_f / n_avg)
        assert s.ticks == n_settle + n_avg
        assert s._rng.bit_generator.state == rng.bit_generator.state

    def test_averaging_shrinks_noise(self):
        s = ForceTorqueSensor(SensorConfig(), np.random.default_rng(6))
        window = ReadingWindow(settle_time=0.0, average_time=0.48)  # 12 samples
        means = np.array(
            [s.settle_and_average(HOVER.torque, HOVER.force, window)[1] for _ in range(400)]
        )
        std = means.std(axis=0)
        np.testing.assert_allclose(std, 0.25 / np.sqrt(12), rtol=0.12)

    def test_empty_window_rejected(self):
        s = ForceTorqueSensor(SensorConfig(), np.random.default_rng(0))
        with pytest.raises(InsufficientSamples):
            s.settle_and_average(HOVER.torque, HOVER.force, ReadingWindow(average_time=0.01))

    def test_window_validation(self):
        with pytest.raises(ValueError):
            ReadingWindow(settle_time=-0.1)
        for name, value in [("settle_time", float("nan")), ("average_time", float("inf"))]:
            with pytest.raises(ValueError, match=name):
                ReadingWindow(**{name: value})

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SensorConfig(sample_rate=0.0)
        with pytest.raises(ValueError):
            SensorConfig(noise_torque=-0.01)
        # a NaN or an infinity is refused too, by an error that names the field
        for name, value in [("noise_force", float("nan")), ("sample_rate", float("nan")),
                            ("sample_rate", float("inf")), ("noise_torque", float("inf"))]:
            with pytest.raises(ValueError, match=name):
                SensorConfig(**{name: value})


class TestCalibration:
    def test_hover_rejects_weightless_reading(self, monkeypatch):
        # a 20 N upward bias outweighs the 1 kg load, so the hover reading
        # shows no hanging weight and calibration stops before the flat press
        world = World(FlatPlane(0.0))
        world.hold(HeldObject(mass=1.0, footprint=Footprint("disk", 0.05), thickness=0.02))
        sensor = ForceTorqueSensor(SensorConfig(noise_torque=0.0, noise_force=0.0,
                                                bias_force=(0.0, 0.0, 20.0)),
                                   np.random.default_rng(0))

        def no_descent(*args, **kwargs):
            raise AssertionError("the flat press ran before the hover check")

        monkeypatch.setattr(World, "descend_until_contact", no_descent)
        with pytest.raises(ValueError, match=r"no hanging weight \(fz = 10\.2 N\)"):
            calibrate_for_held(world, sensor, PolicyConfig(), ReadingWindow(),
                               (0.15, -0.15), 0.1)
        # one window: 0.1 s settle and 0.5 s average at 25 Hz, 2 + 12 samples
        assert sensor.time == pytest.approx((2 + 12) / 25.0)

    def test_constant_bias_cancels_in_differences(self):
        # the same bias rides every reading, so hover-subtracted quantities
        # match the bias-free sensor exactly when noise is off
        biased = SensorConfig(noise_torque=0.0, noise_force=0.0,
                              bias_torque=(0.02, -0.01, 0.03),
                              bias_force=(1.0, -2.0, 0.5))
        clean = SensorConfig(noise_torque=0.0, noise_force=0.0)
        press = Wrench((0.0, 0.2, 0.0), (0.0, 0.0, 0.19), frame=FrameId.WRIST)
        window = ReadingWindow()

        def differenced(cfg):
            s = ForceTorqueSensor(cfg, np.random.default_rng(0))
            hover_tau, hover_f = s.settle_and_average(HOVER.torque, HOVER.force, window)
            tau, f = s.settle_and_average(press.torque, press.force, window)
            return tau - hover_tau, f - hover_f

        tau_b, f_b = differenced(biased)
        tau_c, f_c = differenced(clean)
        np.testing.assert_allclose(tau_b, tau_c, atol=1e-12)
        np.testing.assert_allclose(f_b, f_c, atol=1e-12)
