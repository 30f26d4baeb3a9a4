"""Each output check passes on real outputs and fails on a corrupted copy.

    python3 -m pytest bench/test_checks.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
import yaml

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import DESCEND, SAMPLE, Summary, Tracer  # noqa: E402

from ftstack import harness  # noqa: E402
from ftstack.scenario import Scenario  # noqa: E402

KINDS = {
    "puck": "place_adjust",
    "ramp": "place_adjust",
    "stack": "stack_tower",
    "sweep": "estimate_sweep",
    "finger": "estimate_sweep",
}


def _request(kind: str) -> workloads.Request:
    for block in workloads.generate(KINDS[kind], 0):
        for request in block:
            if request.kind == kind and (kind != "stack" or request.doc["stack"]["count"] == 6):
                return request
    raise AssertionError(f"no {kind} request generated")


def _run(request, out_dir) -> dict:
    harness.run_scenario(Scenario.from_dict(request.doc), out_dir=out_dir)
    return checks.read_artifacts(out_dir)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = {}
    for kind in KINDS:
        request = _request(kind)
        out[kind] = (request, _run(request, tmp_path_factory.mktemp(kind)))
    return out


def _edit_report(artifacts: dict, edit) -> dict:
    report = yaml.safe_load(artifacts["report.yaml"])
    edit(report)
    return dict(artifacts, **{"report.yaml": yaml.safe_dump(report, sort_keys=False).encode()})


def _edit_first_iteration(artifacts: dict, column: int, value: str) -> dict:
    name = next(n for n in sorted(artifacts) if n.endswith(".trace"))
    lines = artifacts[name].decode().splitlines()
    at = lines.index("# section: iterations") + 2
    cols = lines[at].split()
    cols[column] = value
    lines[at] = " ".join(cols)
    return dict(artifacts, **{name: ("\n".join(lines) + "\n").encode()})


def _failures(kind, request, artifacts):
    return checks.check_request(kind, request.doc, artifacts).failures


@pytest.mark.parametrize("kind", list(KINDS))
def test_real_outputs_pass(outputs, kind):
    request, artifacts = outputs[kind]
    outcome = checks.check_request(kind, request.doc, artifacts)
    assert outcome.failures == [] and not outcome.errored
    assert outcome.trials == request.doc["trials"]
    assert outcome.presses > 0


@pytest.mark.parametrize("kind", ["puck", "ramp", "stack"])
def test_force_balance(outputs, kind):
    request, artifacts = outputs[kind]
    bad = _edit_first_iteration(artifacts, 5, "9.75")
    assert any("press force" in f for f in _failures(kind, request, bad))


def test_sweep_force_balance(outputs):
    request, artifacts = outputs["sweep"]
    bad = _edit_report(artifacts, lambda r: r["results"]["per_trial"][0].update(press_force=9.75))
    assert any("press force" in f for f in _failures("sweep", request, bad))


def test_puck_rest_height(outputs):
    request, artifacts = outputs["puck"]
    bad = _edit_report(artifacts,
                       lambda r: r["results"]["per_trial"][0]["final_com"].__setitem__(2, 0.051))
    assert any("height" in f for f in _failures("puck", request, bad))


def test_puck_com_over_top(outputs):
    request, artifacts = outputs["puck"]
    bad = _edit_report(artifacts,
                       lambda r: r["results"]["per_trial"][0]["final_com"].__setitem__(0, 0.06))
    assert any("off the puck top" in f for f in _failures("puck", request, bad))


def test_ramp_never_releases(outputs):
    request, artifacts = outputs["ramp"]
    bad = _edit_first_iteration(artifacts, 6, "1")
    assert any("ramp placement released" in f for f in _failures("ramp", request, bad))


def _move_object(report, index, axis, delta):
    report["results"]["per_trial"][0]["objects"][index]["final_com"][axis] += delta


def test_stack_rest_heights(outputs):
    request, artifacts = outputs["stack"]
    thickness = request.doc["object"]["thickness"]
    bad = _edit_report(artifacts, lambda r: _move_object(r, 3, 2, thickness))
    assert any("object 3: rests at" in f for f in _failures("stack", request, bad))


def test_stack_com_over_object_below(outputs):
    request, artifacts = outputs["stack"]
    bad = _edit_report(artifacts, lambda r: _move_object(r, 5, 0, 0.12))
    assert any("object 5: COM" in f for f in _failures("stack", request, bad))


def test_sweep_points_at_center(outputs):
    request, artifacts = outputs["sweep"]
    bad = _edit_report(artifacts,
                       lambda r: r["results"]["per_trial"][2].update(angle_error_deg=0.75))
    assert any("misses the puck center" in f for f in _failures("sweep", request, bad))


def test_finger_directions(outputs):
    request, artifacts = outputs["finger"]
    bad = _edit_report(artifacts,
                       lambda r: r["results"]["per_trial"][4].update(angle_error_deg=5.5))
    assert any("press direction" in f for f in _failures("finger", request, bad))


def test_embedded_checks_and_trial_errors_fail_the_request(outputs):
    request, artifacts = outputs["puck"]
    failed = checks.check_request("puck", request.doc,
                                  _edit_report(artifacts, lambda r: r.update(passed=False)))
    assert failed.errored
    raised = checks.check_request(
        "puck", request.doc, _edit_report(artifacts, lambda r: r["results"].update(errors=1)))
    assert raised.errored


def test_digest_sees_one_byte(outputs):
    _, artifacts = outputs["stack"]
    name = next(n for n in sorted(artifacts) if n.endswith(".trace"))
    changed = dict(artifacts, **{name: artifacts[name][:-2] + b"0\n"})
    assert checks.digest(changed) != checks.digest(artifacts)
    assert checks.digest(dict(artifacts)) == checks.digest(artifacts)


@pytest.mark.parametrize("kind", list(KINDS))
def test_traced_counts_match_outputs(outputs, tmp_path, kind):
    request, artifacts = outputs[kind]
    tracer = Tracer()
    tracer.install()
    try:
        tracer.request = 0
        traced = _run(request, tmp_path)
    finally:
        tracer.uninstall()
    assert checks.digest(traced) == checks.digest(artifacts)
    assert harness.run_scenario.__name__ == "run_scenario" and not hasattr(
        harness.run_scenario, "__wrapped__")

    outcome = checks.check_request(kind, request.doc, traced)
    summary = Summary(tracer.spans, 1)
    descends = summary.count(DESCEND)
    samples = summary.count(SAMPLE)
    assert checks.cross_check(request.doc, outcome, descends, samples) == []
    assert checks.cross_check(request.doc, outcome, descends + 1, samples)
    assert checks.cross_check(request.doc, outcome, descends, samples - 1)
