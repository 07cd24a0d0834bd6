"""Golden oracle for the analytic cost model: exact values from a fixed commit.

``golden_evaluations.json`` holds :func:`~repro.dse.objectives.evaluate_design`
results (every metric as ``repr(float)`` plus the config summary) and
:func:`~repro.serve.cluster.estimate_service_cycles` values, captured at
commit 6912e1f, when the scalar and batched evaluators were still two
separate implementations that agreed bitwise.  Both entry points now share
one formula, so comparing them with each other proves nothing; comparing
each with this file, with ``==``, does.

The file is an oracle, not a snapshot: rewrite it only for a deliberate
change to the cost model, and say so where the change is recorded.
``PYTHONPATH=src python tests/dse/test_golden_evaluations.py --write``
regenerates it from the code on the path.
"""

import json
import random
import sys
from pathlib import Path

import pytest

from repro.dse import (
    COMPONENTS_KEY,
    Axis,
    EvaluationSpec,
    conv_workload,
    evaluate_design,
    evaluate_design_batch,
    gemmini_space,
    mix_space,
    model_workload,
    point_to_config,
)
from repro.serve import TenantSpec, TrafficProfile
from repro.serve.cluster import estimate_service_cycles

GOLDEN = Path(__file__).with_name("golden_evaluations.json")


# ---------------------------------------------------------------------- #
# The captured sample (rebuilt identically at capture and at test time)   #
# ---------------------------------------------------------------------- #


def _workload(name):
    if name == "conv3x3":
        return conv_workload()
    if name == "resnet50":
        return model_workload("resnet50", input_hw=224)
    if name == "bert":
        return model_workload("bert", seq=128)
    if name == "squeezenet":
        return model_workload("squeezenet", input_hw=32)
    raise ValueError(name)


def _traffic():
    tenant = TenantSpec(
        name="t", model="squeezenet", input_hw=32,
        rate_qps=300.0, num_requests=2, slo_ms=5.0,
    )
    return TrafficProfile(tenants=(tenant,), num_tiles=1, seed=0)


def make_spec(desc):
    kwargs = {"workload": _workload(desc["workload"]), "cpu": desc["cpu"]}
    if desc.get("fidelity"):
        kwargs["fidelity"] = desc["fidelity"]
    if desc.get("traffic"):
        kwargs["traffic"] = _traffic()
        kwargs["objectives"] = ("p99_latency_ms", "area_mm2")
    return EvaluationSpec(**kwargs)


def _plain_points():
    space = gemmini_space(max_dim=32)
    rng = random.Random(15)
    points = [space.sample(rng) for __ in range(40)]
    # Partial points default like GemminiConfig(); clock_ghz passes through.
    return points + [{}, {"dim": 8}, {"dataflow": "BOTH"}, {"dim": 8, "clock_ghz": 0.5}]


def _mix_points():
    shared = (Axis("dataflow", ("WS", "OS")),)
    points = list(mix_space(("big", "little"), max_tiles=3).points())
    points += list(mix_space(("big", "little"), max_tiles=2, extra_axes=shared).points())
    return points


def _cases():
    """(case name, spec descriptor, points) in capture order."""
    plain = _plain_points()
    mixes = _mix_points()
    cases = []
    for workload in ("conv3x3", "resnet50", "bert"):
        for cpu in ("rocket", "boom"):
            cases.append((f"{workload}/{cpu}", {"workload": workload, "cpu": cpu}, plain))
    cases.append(("mix/conv3x3/rocket", {"workload": "conv3x3", "cpu": "rocket"}, mixes))
    cases.append(("mix/resnet50/none", {"workload": "resnet50", "cpu": "none"}, mixes))
    soc = {"workload": "squeezenet", "cpu": "none", "fidelity": "soc"}
    cases.append(("soc/squeezenet", soc, plain[:2] + mixes[:1]))
    served = {"workload": "conv3x3", "cpu": "none", "traffic": True}
    cases.append(("traffic/conv3x3", served, plain[:2] + mixes[:1]))
    return cases


def _service_pairs():
    """(tenant, config point) pairs for estimate_service_cycles."""
    def tenant(model, **kw):
        return TenantSpec(name=model, model=model, **kw)

    return [
        (tenant("squeezenet", input_hw=64), {}),
        (tenant("mobilenetv2", input_hw=64), {"dim": 32, "tile": 1, "sp_kb": 512,
                                              "acc_kb": 128, "dataflow": "OS"}),
        (tenant("resnet50", input_hw=224), {"dim": 8, "tile": 2, "dataflow": "WS"}),
        (tenant("bert", seq=32), {"dim": 16, "tile": 4, "dataflow": "OS"}),
    ]


# ---------------------------------------------------------------------- #
# JSON <-> points                                                         #
# ---------------------------------------------------------------------- #


def _to_json_point(point):
    out = dict(point)
    if COMPONENTS_KEY in out:
        out[COMPONENTS_KEY] = [list(pair) for pair in out[COMPONENTS_KEY]]
    return out


def _from_json_point(point):
    out = dict(point)
    if COMPONENTS_KEY in out:
        out[COMPONENTS_KEY] = tuple(tuple(pair) for pair in out[COMPONENTS_KEY])
    return out


def _record(evaluation):
    return {
        "config_summary": evaluation.config_summary,
        "metrics": {name: repr(value) for name, value in evaluation.metrics},
    }


def capture() -> dict:
    cases = []
    for name, desc, points in _cases():
        spec = make_spec(desc)
        cases.append({
            "name": name,
            "spec": desc,
            "points": [_to_json_point(p) for p in points],
            "expected": [_record(evaluate_design(p, spec)) for p in points],
        })
    service = [
        {
            "tenant": {"model": t.model, "input_hw": t.input_hw, "seq": t.seq},
            "point": point,
            "cycles": repr(estimate_service_cycles(t, point_to_config(point))),
        }
        for t, point in _service_pairs()
    ]
    return {"cases": cases, "service_cycles": service}


# ---------------------------------------------------------------------- #
# Tests                                                                   #
# ---------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def _case_ids():
    return [name for name, __, __ in _cases()]


def _assert_matches(evaluations, case):
    assert len(evaluations) == len(case["expected"])
    for evaluation, expected in zip(evaluations, case["expected"]):
        assert evaluation.config_summary == expected["config_summary"]
        got = {name: repr(value) for name, value in evaluation.metrics}
        assert got == expected["metrics"], evaluation.point
        for __, value in evaluation.metrics:
            assert type(value) is float


@pytest.mark.parametrize("case_name", _case_ids())
def test_evaluate_design_matches_golden(golden, case_name):
    [case] = [c for c in golden["cases"] if c["name"] == case_name]
    spec = make_spec(case["spec"])
    points = [_from_json_point(p) for p in case["points"]]
    _assert_matches([evaluate_design(p, spec) for p in points], case)


@pytest.mark.parametrize("case_name", _case_ids())
def test_evaluate_design_batch_matches_golden(golden, case_name):
    [case] = [c for c in golden["cases"] if c["name"] == case_name]
    spec = make_spec(case["spec"])
    points = [_from_json_point(p) for p in case["points"]]
    _assert_matches(evaluate_design_batch(points, spec), case)


def test_sample_is_the_captured_sample(golden):
    """The rebuilt sample equals the stored one (a changed sampler would
    silently compare different points)."""
    for (name, desc, points), case in zip(_cases(), golden["cases"]):
        assert case["name"] == name and case["spec"] == desc
        assert case["points"] == [_to_json_point(p) for p in points]


def test_estimate_service_cycles_matches_golden(golden):
    from repro.serve.cluster import _SERVICE_CYCLES_MEMO

    _SERVICE_CYCLES_MEMO.clear()
    for entry in golden["service_cycles"]:
        tenant = TenantSpec(name=entry["tenant"]["model"], **entry["tenant"])
        cycles = estimate_service_cycles(tenant, point_to_config(entry["point"]))
        assert type(cycles) is float
        assert repr(cycles) == entry["cycles"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/dse/test_golden_evaluations.py --write")
    GOLDEN.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
