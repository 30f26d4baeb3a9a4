"""Seeded request generators for the benchmark workloads.

Every request is a scenario document in the repository's YAML schema; the
program under test receives nothing else. A workload is a pool of requests
cut into blocks: each block has the same make-up (the same request kinds in
the same proportions, with geometry drawn from stratified ranges), so a run
that stops on a block boundary has the same mix whatever its seed and length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FLAT = {"kind": "flat", "height": 0.0}
PUCK = {"kind": "puck", "center": [0.0, 0.0], "radius": 0.05, "top_height": 0.04}
RAMP = {"kind": "ramp", "x_range": [-0.25, 0.25], "y_range": [-0.05, 0.25],
        "slope_deg": 15.0, "azimuth_deg": 90.0, "base_height": 0.02}
ZERO_NOISE = {"noise_force": 0.0, "noise_torque": 0.0}
CALIBRATION_XY = [0.15, -0.15]
HOVER_TIP_Z = 0.1

# puck placement: a 5 cm disk guessed 1-4 cm off a 5 cm puck, COM up to 1 cm off the tip
PLACE_DISK = {"mass": 1.0, "footprint": {"kind": "disk", "size": 0.05}, "thickness": 0.02}
GUESS_RANGE = (0.01, 0.04)
COM_OFFSET_MAX = 0.01
PUCKS_PER_BLOCK = 7          # plus one ramp: one request in eight must be refused
PLACE_BLOCKS = 8

STACK_HEIGHTS = tuple(range(6, 13))
STACK_KINDS = ("square", "disk")
STACK_SIZE = 0.05
STACK_THICKNESS = 0.006
STACK_PERTURBATION = 0.01
STACK_BLOCKS = 2

# noise_sweep geometry: the 4.5 cm disk overhangs the 5 cm puck once the offset passes 5 mm
SWEEP_DISK = {"mass": 1.0, "footprint": {"kind": "disk", "size": 0.045}, "thickness": 0.02}
SWEEP_RANGE = (0.006, 0.03)
SWEEP_DIRECTIONS = 8
SWEEPS_PER_BLOCK = 3         # plus one finger-press batch, so the median is a sweep
FINGER_TRIALS = 20
FINGER_RADIUS_RANGE = (0.05, 0.15)
ESTIMATE_BLOCKS = 16

WORKLOADS = ("place_adjust", "stack_tower", "estimate_sweep")


@dataclass(frozen=True)
class Request:
    """One generated scenario and how the benchmark submits it."""

    kind: str    # puck, ramp, stack, sweep or finger
    doc: dict    # scenario document, schema_version 1

    @property
    def name(self) -> str:
        return self.doc["name"]


def _scenario(name: str, family: str, seed: int, trials: int, **sections) -> dict:
    doc = {"schema_version": 1, "name": name, "family": family,
           "seed": int(seed), "trials": int(trials)}
    doc.update(sections)
    return doc


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _stratified(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """n values in [lo, hi), one per equal-width stratum, in random order."""
    strata = rng.permutation(n) + rng.uniform(0.0, 1.0, n)
    return lo + (hi - lo) * strata / n


def _polar(mag: float, theta: float) -> list:
    return [float(mag * np.cos(theta)), float(mag * np.sin(theta))]


def _puck_request(name: str, rng, guess: float, com: float) -> Request:
    start = _polar(guess, rng.uniform(0.0, 2.0 * np.pi))
    offset = _polar(com, rng.uniform(0.0, 2.0 * np.pi)) + [0.0]
    return Request("puck", _scenario(
        name, "offset_recovery", _seed(rng), 1,
        world={"surfaces": [FLAT, PUCK]},
        object=dict(PLACE_DISK, com_offset=offset),
        sensor=ZERO_NOISE,
        placement={"start_xy": start, "hover_tip_z": HOVER_TIP_Z,
                   "calibration_xy": CALIBRATION_XY, "stable_xy": [0.0, 0.0]},
        expect={"min_success_rate": 1.0},
    ))


def _ramp_request(name: str, rng) -> Request:
    # sliding the start across the slope (along x) leaves the refusal's work
    # unchanged, so every ramp request costs the same whatever the seed
    start = [float(rng.uniform(-0.05, 0.05)), 0.1]
    return Request("ramp", _scenario(
        name, "ramp", _seed(rng), 1,
        world={"surfaces": [FLAT, RAMP]},
        object=dict(PLACE_DISK, com_offset=[0.0, 0.0, 0.0]),
        sensor=ZERO_NOISE,
        placement={"start_xy": start, "hover_tip_z": HOVER_TIP_Z,
                   "calibration_xy": CALIBRATION_XY},
        expect={"all_outcome": "max_iterations"},
    ))


def place_adjust(rng) -> list[list[Request]]:
    blocks = []
    for b in range(PLACE_BLOCKS):
        guesses = _stratified(rng, PUCKS_PER_BLOCK, *GUESS_RANGE)
        coms = _stratified(rng, PUCKS_PER_BLOCK, 0.0, COM_OFFSET_MAX)
        block = [_puck_request(f"place_{b:02d}_{j}", rng, g, c)
                 for j, (g, c) in enumerate(zip(guesses, coms))]
        block.insert(int(rng.integers(0, len(block) + 1)),
                     _ramp_request(f"place_{b:02d}_ramp", rng))
        blocks.append(block)
    return blocks


def stack_tower(rng) -> list[list[Request]]:
    blocks = []
    for b in range(STACK_BLOCKS):
        combos = [(h, k) for h in STACK_HEIGHTS for k in STACK_KINDS]
        block = []
        for i in rng.permutation(len(combos)):
            height, kind = combos[i]
            block.append(Request("stack", _scenario(
                f"stack_{b:02d}_{kind}{height:02d}", "multi_stack", _seed(rng), 1,
                world={"surfaces": [FLAT]},
                object={"mass": 1.0, "footprint": {"kind": kind, "size": STACK_SIZE},
                        "thickness": STACK_THICKNESS, "com_offset": [0.0, 0.0, 0.0]},
                sensor=ZERO_NOISE,
                stack={"count": height, "perturbation_limit": STACK_PERTURBATION,
                       "target_xy": [0.0, 0.0], "calibration_xy": CALIBRATION_XY,
                       "hover_tip_z": HOVER_TIP_Z, "approach_clearance": 0.01},
                expect={"min_placed": height, "min_success_rate": 1.0},
            )))
        blocks.append(block)
    return blocks


def _sweep_request(name: str, rng, magnitude: float) -> Request:
    return Request("sweep", _scenario(
        name, "noise_sweep", _seed(rng), SWEEP_DIRECTIONS,
        world={"surfaces": [FLAT, PUCK]},
        object=dict(SWEEP_DISK, com_offset=[0.0, 0.0, 0.0]),
        sensor=ZERO_NOISE,
        sweep={"center": [0.0, 0.0], "magnitudes": [float(magnitude)],
               "directions": SWEEP_DIRECTIONS, "repeats": 1,
               "hover_tip_z": HOVER_TIP_Z, "calibration_xy": CALIBRATION_XY},
        expect={"median_below_deg": 1.0},
    ))


def _finger_request(name: str, rng) -> Request:
    # default sensor noise: finger presses check the estimator under noise
    return Request("finger", _scenario(
        name, "finger_press", _seed(rng), FINGER_TRIALS,
        press={"mass": 1.0, "offset_radius": float(rng.uniform(*FINGER_RADIUS_RANGE)),
               "gravity": 9.81,
               "torques": {"min": 1.0, "max": 30.0, "spacing": "linear"}},
        expect={"max_direction_error_deg": 5.0},
    ))


def estimate_sweep(rng) -> list[list[Request]]:
    mags = _stratified(rng, ESTIMATE_BLOCKS * SWEEPS_PER_BLOCK, *SWEEP_RANGE)
    blocks = []
    for b in range(ESTIMATE_BLOCKS):
        block = [_sweep_request(f"sweep_{b:02d}_{j}", rng, mags[b * SWEEPS_PER_BLOCK + j])
                 for j in range(SWEEPS_PER_BLOCK)]
        block.insert(int(rng.integers(0, len(block) + 1)),
                     _finger_request(f"finger_{b:02d}", rng))
        blocks.append(block)
    return blocks


def generate(workload: str, seed: int) -> list[list[Request]]:
    """The workload's request pool, as blocks of equal make-up."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, WORKLOADS.index(workload)]))
    return {"place_adjust": place_adjust, "stack_tower": stack_tower,
            "estimate_sweep": estimate_sweep}[workload](rng)
