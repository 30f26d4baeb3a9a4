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


class TestSampling:
    def test_same_seed_same_stream(self):
        a = ForceTorqueSensor(SensorConfig(seed=42))
        b = ForceTorqueSensor(SensorConfig(seed=42))
        for _ in range(50):
            ra, rb = a.sample(HOVER), b.sample(HOVER)
            np.testing.assert_array_equal(ra.torque, rb.torque)
            np.testing.assert_array_equal(ra.force, rb.force)

    def test_different_seed_differs(self):
        a = ForceTorqueSensor(SensorConfig(seed=1)).sample(HOVER)
        b = ForceTorqueSensor(SensorConfig(seed=2)).sample(HOVER)
        assert not np.array_equal(a.force, b.force)

    def test_zero_noise_is_exact_but_advances_stream(self):
        quiet = SensorConfig(noise_torque=0.0, noise_force=0.0, seed=9)
        s = ForceTorqueSensor(quiet)
        r = s.sample(HOVER)
        np.testing.assert_array_equal(r.force, HOVER.force)
        np.testing.assert_array_equal(r.torque, HOVER.torque)
        assert s.time == pytest.approx(1 / 25.0)

    def test_noise_std_matches_config(self):
        # 4000 samples put the sample std within a few percent of sigma
        s = ForceTorqueSensor(SensorConfig(seed=3))
        readings = np.array([s.sample(HOVER).force for _ in range(4000)])
        std = readings.std(axis=0)
        np.testing.assert_allclose(std, 0.25, rtol=0.05)

    def test_bias_and_drift_applied(self):
        cfg = SensorConfig(noise_torque=0.0, noise_force=0.0,
                           bias_force=(0.5, 0.0, 0.0),
                           drift_force=(0.0, 0.1, 0.0), seed=0)
        s = ForceTorqueSensor(cfg)
        first = s.sample(HOVER)
        assert first.force[0] == pytest.approx(0.5)
        assert first.force[1] == pytest.approx(0.0)  # t = 0 at the first draw
        for _ in range(24):
            s.sample(HOVER)
        later = s.sample(HOVER)  # sample index 25 -> t = 1 s
        assert later.force[1] == pytest.approx(0.1)

    def test_clock_is_index_over_rate(self):
        s = ForceTorqueSensor(SensorConfig(sample_rate=50.0))
        for _ in range(10):
            s.sample(HOVER)
        assert s.time == pytest.approx(0.2)


class TestWindows:
    def test_default_window_consumes_two_plus_twelve_samples(self):
        # 0.1 s settle -> floor(2.5) = 2 discarded; 0.5 s -> floor(12.5) = 12
        s = ForceTorqueSensor(SensorConfig(seed=5))
        s.settle_and_average(HOVER, ReadingWindow())
        assert s._samples == 14

    def test_averaging_shrinks_noise(self):
        cfg = SensorConfig(seed=6)
        s = ForceTorqueSensor(cfg)
        window = ReadingWindow(settle_time=0.0, average_time=0.48)  # 12 samples
        means = np.array(
            [s.settle_and_average(HOVER, window).force for _ in range(400)]
        )
        std = means.std(axis=0)
        np.testing.assert_allclose(std, 0.25 / np.sqrt(12), rtol=0.12)

    def test_empty_window_rejected(self):
        s = ForceTorqueSensor(SensorConfig())
        with pytest.raises(InsufficientSamples):
            s.settle_and_average(HOVER, ReadingWindow(average_time=0.01))

    def test_window_validation(self):
        with pytest.raises(ValueError):
            ReadingWindow(settle_time=-0.1)


class TestCalibration:
    def test_hover_rejects_weightless_reading(self, monkeypatch):
        # a 20 N upward bias outweighs the 1 kg load, so the hover reading
        # shows no hanging weight and calibration stops before the flat press
        world = World(FlatPlane(0.0))
        world.hold(HeldObject(mass=1.0, footprint=Footprint("disk", 0.05), thickness=0.02))
        sensor = ForceTorqueSensor(SensorConfig(noise_torque=0.0, noise_force=0.0,
                                                bias_force=(0.0, 0.0, 20.0)))

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
                              bias_force=(1.0, -2.0, 0.5), seed=0)
        clean = SensorConfig(noise_torque=0.0, noise_force=0.0, seed=0)
        press = Wrench((0.0, 0.2, 0.0), (0.0, 0.0, 0.19), frame=FrameId.WRIST)
        window = ReadingWindow()

        def differenced(cfg):
            s = ForceTorqueSensor(cfg)
            hover = s.settle_and_average(HOVER, window)
            read = s.settle_and_average(press, window)
            return read.torque - hover.torque, read.force - hover.force

        tau_b, f_b = differenced(biased)
        tau_c, f_c = differenced(clean)
        np.testing.assert_allclose(tau_b, tau_c, atol=1e-12)
        np.testing.assert_allclose(f_b, f_c, atol=1e-12)
