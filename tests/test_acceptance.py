"""Acceptance gate: eleven go/no-go criteria, one test (and one line) each.

Each test prints a single summary line; run with -rP (or -s) to see them
alongside the pass/fail verdict that pytest -v already gives per criterion.
A last test, one case per shipped scenario, requires every scenario's
embedded expectations to pass; it reuses the reports the criteria ran.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from ftstack.estimation import flat_direction, recover_contact_offset
from ftstack.harness import run_scenario
from ftstack.spatial import (
    RigidTransform,
    Wrench,
    compose,
    tangent_projection,
    transform_twist,
    transform_wrench,
)
from ftstack.surfaces import FlatPlane
from ftstack.world import ContactResult, Footprint, World

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

_REPORT_CACHE: dict = {}


def run_shipped(name: str, **kwargs) -> dict:
    if name not in _REPORT_CACHE:
        _REPORT_CACHE[name] = run_scenario(SCENARIO_DIR / f"{name}.yaml", **kwargs)
    return _REPORT_CACHE[name]


def random_rotation(rng) -> np.ndarray:
    m = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(m)
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 2] = -q[:, 2]
    return q


def random_transform(rng) -> RigidTransform:
    return RigidTransform(random_rotation(rng), rng.uniform(-1.0, 1.0, 3))


def test_criterion_01_zero_offset_detection():
    t0 = time.monotonic()
    clean = run_shipped("zero_offset_noiseless")
    noisy = run_shipped("zero_offset_noisy")
    elapsed = time.monotonic() - t0

    clean_body = clean["results"]
    assert clean_body["outcomes"]["released_stable"] == 16
    assert all(t["iterations"] == 1 for t in clean_body["per_trial"])
    noisy_successes = noisy["results"]["outcomes"]["released_stable"]
    assert noisy_successes >= 15
    assert clean["passed"] and noisy["passed"]
    assert elapsed < 5.0
    print(f"criterion 01: 16/16 noiseless one-iteration releases, "
          f"{noisy_successes}/16 under default noise, {elapsed:.2f}s")


def test_criterion_02_contact_offset_round_trip():
    rng = np.random.default_rng(12021)
    cases = []
    for _ in range(10_000):
        r = rng.uniform(-0.2, 0.2, 3)
        f = rng.uniform(-40.0, 40.0, 3)
        norm = np.linalg.norm(f)
        if norm < 1.0:
            f = f / max(norm, 1e-9) * rng.uniform(1.0, 40.0)
        cases.append((r, f))

    t0 = time.monotonic()
    worst = 0.0
    for r, f in cases:
        tau = np.cross(r, f)
        recovered = recover_contact_offset(f, tau, force_floor=0.99)
        expected = tangent_projection(r, f / np.linalg.norm(f))
        scale = max(np.linalg.norm(expected), 1e-12)
        worst = max(worst, float(np.linalg.norm(recovered - expected)) / scale)
    elapsed = time.monotonic() - t0
    assert worst < 1e-10
    assert elapsed < 1.0
    print(f"criterion 02: 10000 round-trips, worst relative error {worst:.2e}, "
          f"{elapsed:.2f}s")


def test_criterion_03_wrench_transform_consistency():
    rng = np.random.default_rng(12031)
    worst_wrench = 0.0
    worst_power = 0.0
    for _ in range(1000):
        g_ab = random_transform(rng)
        g_bc = random_transform(rng)
        w_a = Wrench(rng.uniform(-5, 5, 3), rng.uniform(-50, 50, 3))

        direct = transform_wrench(compose(g_ab, g_bc), w_a)
        stepped = transform_wrench(g_bc, transform_wrench(g_ab, w_a))
        worst_wrench = max(
            worst_wrench,
            float(np.max(np.abs(direct.as_vector() - stepped.as_vector()))),
        )

        omega_a = rng.uniform(-3, 3, 3)
        v_a = rng.uniform(-3, 3, 3)
        w_b = transform_wrench(g_ab, w_a)
        omega_b, v_b = transform_twist(g_ab, omega_a, v_a)
        power_a = float(w_a.torque @ omega_a + w_a.force @ v_a)
        power_b = float(w_b.torque @ omega_b + w_b.force @ v_b)
        worst_power = max(worst_power, abs(power_a - power_b))
    assert worst_wrench < 1e-12
    assert worst_power < 1e-12
    print(f"criterion 03: 1000 transform pairs, composed-vs-sequential "
          f"{worst_wrench:.2e}, power mismatch {worst_power:.2e}")


def test_criterion_04_flat_direction_identity_and_optimality():
    rng = np.random.default_rng(12041)
    z = np.array([0.0, 0.0, 1.0])
    normals = rng.normal(size=(1000, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    normals[normals[:, 2] < 0.0] *= -1.0

    worst_identity = 0.0
    for n in normals:
        d = flat_direction(n)
        reference = z - (n @ z) * n
        worst_identity = max(worst_identity, float(np.max(np.abs(d - reference))))
    assert worst_identity < 1e-15

    # dense tangent-plane search for the direction of steepest rise
    theta = np.linspace(0.0, 2.0 * np.pi, 8000, endpoint=False)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    worst_angle = 0.0
    checked = 0
    for n in normals:
        d = flat_direction(n)
        nd = np.linalg.norm(d)
        if nd < 1e-6:  # nearly vertical normal: every direction ties
            continue
        seed = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        e1 = seed - (seed @ n) * n
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(n, e1)
        heights = e1[2] * cos_t + e2[2] * sin_t
        best = cos_t[np.argmax(heights)] * e1 + sin_t[np.argmax(heights)] * e2
        cosang = np.clip(float((d / nd) @ best), -1.0, 1.0)
        worst_angle = max(worst_angle, float(np.arccos(cosang)))
        checked += 1
    assert checked >= 999
    assert worst_angle < 1e-3
    print(f"criterion 04: identity error {worst_identity:.2e}, dense-search "
          f"direction gap {worst_angle:.2e} rad over {checked} normals")


def test_criterion_05_one_iteration_shift_quality():
    report = run_shipped("offset_recovery_oneshot")
    body = report["results"]
    errors = [t["oneshot_com_error"] for t in body["per_trial"]]
    assert len(errors) == 50
    assert all(e is not None and e <= 0.01 for e in errors)
    assert report["checks"]["oneshot_tolerance"]["passed"]
    print(f"criterion 05: 50/50 first proposals within 1 cm "
          f"(worst {max(errors):.4f} m)")


def test_criterion_06_ramp_refusal():
    report = run_shipped("ramp")
    body = report["results"]
    assert body["outcomes"]["released_stable"] == 0
    assert body["outcomes"]["max_iterations"] == 10
    assert report["checks"]["all_outcome"]["passed"]
    print("criterion 06: 10/10 ramp trials ran out of iterations, none released")


def test_criterion_07_six_square_stack():
    report = run_shipped("multi_stack_6")
    body = report["results"]
    assert body["min_placed"] == 6
    assert body["success_rate"] == 1.0
    for trial in body["per_trial"]:
        assert trial["placed"] == 6
        assert all(o["outcome"] == "released_stable" for o in trial["objects"])
    print(f"criterion 07: {len(body['per_trial'])}x6 squares stacked, "
          "every placement released stable")


def test_criterion_08_synthetic_press_directions():
    report = run_shipped("finger_press")
    body = report["results"]
    assert body["n_valid"] == 100
    assert body["degenerate"] == 0
    assert body["max_angle_error_deg"] <= 5.0
    assert report["passed"]
    print(f"criterion 08: 100/100 press directions within 5 deg "
          f"(worst {body['max_angle_error_deg']:.3f} deg)")


def test_criterion_09_noise_sensitivity_curve():
    report = run_shipped("noise_sweep")
    body = report["results"]
    meds = {g["magnitude"]: g["median_deg"] for g in body["by_magnitude"]}
    assert all(meds[m] < 15.0 for m in meds if m >= 0.02)
    assert all(meds[m] > 60.0 for m in meds if m <= 0.002)
    assert report["checks"]["monotone_slack_deg"]["passed"]
    assert report["passed"]
    crossover = body["crossover_magnitude_below_60_deg"]
    curve = ", ".join(f"{m * 1000:g}mm={meds[m]:.1f}" for m in sorted(meds))
    print(f"criterion 09: medians [{curve}] deg; "
          f"crossover below 60 deg at {crossover} m (reported, not pinned)")


def test_criterion_10_stability_oracle_equivalence():
    rng = np.random.default_rng(12101)
    world = World(FlatPlane(0.0))
    margin = world.params.stability_margin
    theta = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    directions = np.column_stack([np.cos(theta), np.sin(theta)])

    agreements = 0
    stable_seen = 0
    for _ in range(500):
        kind = "disk" if rng.uniform() < 0.5 else "square"
        size = rng.uniform(0.02, 0.06)
        fp = Footprint(kind, size)
        center = rng.uniform(-0.05, 0.05, 2)
        pts = fp.sample_offsets(2e-3).T + center
        patch = np.column_stack([pts, np.zeros(len(pts))])
        contact = ContactResult(
            contact_point=np.array([center[0], center[1], 0.0]),
            surface_normal=np.array([0.0, 0.0, 1.0]),
            penetration=1e-4,
            normal_force_magnitude=10.0,
            contact_patch=patch,
            touch_height=0.0,
        )
        com = center + rng.uniform(-(size + 0.01), size + 0.01, 2)

        oracle = world.stable_if_released(com, contact)
        support = (pts - com) @ directions.T  # (N, 720)
        brute = bool(np.min(np.max(support, axis=0)) >= margin)

        agreements += oracle == brute
        stable_seen += brute
    assert agreements == 500
    assert 0 < stable_seen < 500  # both verdicts exercised
    print(f"criterion 10: 500/500 agreement with the dense support check "
          f"({stable_seen} stable, {500 - stable_seen} not)")


def test_criterion_11_byte_identical_reports(tmp_path, pooled):
    pairs = []
    for name, jobs_b in (("zero_offset_noiseless", 2), ("finger_press", 1)):
        a_dir = tmp_path / f"{name}_a"
        b_dir = tmp_path / f"{name}_b"
        run_scenario(SCENARIO_DIR / f"{name}.yaml", out_dir=a_dir, jobs=1)
        run_scenario(SCENARIO_DIR / f"{name}.yaml", out_dir=b_dir, jobs=jobs_b)
        files_a = sorted(p.name for p in a_dir.iterdir())
        files_b = sorted(p.name for p in b_dir.iterdir())
        assert files_a == files_b
        for f in files_a:
            assert (a_dir / f).read_bytes() == (b_dir / f).read_bytes()
        pairs.append((name, len(files_a)))
    assert pooled == [2]  # zero_offset_noiseless's second run had a pool of two
    detail = ", ".join(f"{name}: {n} files" for name, n in pairs)
    print(f"criterion 11: byte-identical artifacts across re-runs ({detail})")


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.yaml")), ids=lambda p: p.stem)
def test_every_shipped_scenario_meets_its_expectations(path):
    report = run_shipped(path.stem)
    failed = sorted(key for key, check in report["checks"].items() if not check["passed"])
    assert report["checks"] and report["passed"], f"{path.stem}: failed checks {failed}"
