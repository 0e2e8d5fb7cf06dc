"""Every output check must be able to fail: each test feeds a check a
correct answer, which passes, and a corrupted one, which is rejected.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import copy
import dataclasses
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# Single checks
# ---------------------------------------------------------------------------


def test_bound_shifted_past_truth_is_rejected():
    assert checks.check_bound(0.89, 0.91, 0.9, 1e-6) == []
    assert checks.check_bound(0.90 + 2e-6, 0.91, 0.9, 1e-6)
    assert checks.check_bound(0.88, 0.9 - 2e-6, 0.9, 1e-6)


def test_infinite_bound_needs_a_certificate():
    cert = {"ray": [1.0, 0.0]}
    assert checks.check_bound(0.5, "+inf", 0.9, 0.0, None, cert) == []
    assert checks.check_bound(0.5, "+inf", 0.9, 0.0, None, None)
    assert checks.check_bound(-math.inf, 1.0, 0.9, 0.0, {"y": [1, 2]}, None)


def test_out_of_cone_upper_must_be_infinite():
    cert = {"ray": [0.0, 1.0]}
    assert checks.check_out_of_cone(0.1, math.inf, 0.5, cert) == []
    assert checks.check_out_of_cone(0.1, 10.0, 0.5, cert)


def test_single_ray_type_must_be_doubly_unbounded():
    cert = {"ray": [0.0, 1.0]}
    assert checks.check_doubly_unbounded(-math.inf, math.inf, cert, cert) == []
    assert checks.check_doubly_unbounded(-math.inf, 3.0, cert, cert)


def test_profit_table_off_by_two_percent_is_rejected():
    truth = {(0, 1): 1.0, (0, 2): 2.0, (1, 2): 2.5}
    assert checks.check_recovery(dict(truth), truth) == []
    off = {k: v * 1.02 for k, v in truth.items()}
    assert checks.check_recovery(off, truth)
    missing = dict(truth)
    missing.pop((1, 2))
    assert checks.check_recovery(missing, truth)


def test_small_profit_is_judged_by_its_sampling_error():
    truth = {(0, 1): 0.114, (0, 2): 2.5}
    se = {(0, 1): 7e-4, (0, 2): 7e-4}
    near = {(0, 1): 0.114 + 2 * 7e-4, (0, 2): 2.5}        # 1.2% but 2 errors
    assert checks.check_recovery(near, truth)
    assert checks.check_recovery(near, truth, sampling_err=se) == []
    far = {(0, 1): 0.114 + 5 * 7e-4, (0, 2): 2.5}
    assert checks.check_recovery(far, truth, sampling_err=se)
    off = {k: v * 1.02 for k, v in truth.items()}
    assert checks.check_recovery(off, truth, sampling_err=se)


def test_proxy_map_off_by_two_percent_is_rejected():
    grid = np.linspace(0.6, 1.4, 9)
    assert checks.check_proxy_map(grid, grid ** 2 + 1.0) == []
    assert checks.check_proxy_map(grid, 1.02 * (grid ** 2 + 1.0))


def test_flipped_verdicts_are_rejected():
    doc = {"verdict": "equality", "eta": 0.01, "oracle_d_h": 0.0101}
    assert checks.check_convex_duality(doc, 0.01, oracle=True) == []
    assert checks.check_convex_duality(dict(doc, verdict="equality-violated"),
                                       0.01, oracle=True)
    assert checks.check_verdict("feasible", "infeasible")


def test_convex_duality_needs_the_independent_oracle():
    doc = {"verdict": "equality", "eta": 0.01, "oracle_d_h": 0.02}
    assert checks.check_convex_duality(doc, 0.01, oracle=True)
    assert checks.check_convex_duality(dict(doc, eta=0.011), 0.01, oracle=False)


def test_nonconvex_bound_violation_is_rejected():
    eta, big_r, small_r = 0.01, 2.0, 1.0
    bound = checks.inflation_bound(eta, big_r, small_r)
    doc = {"verdict": "bound-holds", "bound": bound, "d_h": 0.5 * bound,
           "oracle_d_h": None}
    assert checks.check_nonconvex_duality(doc, eta, big_r, small_r) == []
    assert checks.check_nonconvex_duality(dict(doc, d_h=1.1 * bound),
                                          eta, big_r, small_r)
    assert checks.check_nonconvex_duality(dict(doc, bound=2 * bound),
                                          eta, big_r, small_r)
    assert checks.check_nonconvex_duality(dict(doc, verdict="bound-violated"),
                                          eta, big_r, small_r)


def test_fit_off_the_truth_is_rejected():
    truth = np.array([[[1.0, -0.2], [-0.2, 1.1]]])
    assert checks.check_fit(truth + 0.006, truth) == []
    assert checks.check_fit(truth + 0.15, truth)


def test_demo_checks():
    demo = {"extended_duality": {"verdict": "equality", "d_h": 0.1},
            "truncated_window_table": [{"directed_distance": 1.0},
                                       {"directed_distance": 11.0}]}
    assert checks.check_demo(demo) == []
    flipped = copy.deepcopy(demo)
    flipped["extended_duality"]["verdict"] = "equality-violated"
    assert checks.check_demo(flipped)
    flat = copy.deepcopy(demo)
    flat["truncated_window_table"][1]["directed_distance"] = 5.0
    assert checks.check_demo(flat)


# ---------------------------------------------------------------------------
# Real answers from the workloads, then corrupted
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def counterfactual():
    inputs = workloads.build_counterfactual_k(7, None)
    inputs["sizes"] = inputs["sizes"][:1]                       # k = 40 only
    sw = inputs["sweep"]
    sw["grid"] = sw["grid"][::8]                                # 90 rays
    star = sw["grid"][len(sw["grid"]) // 2]
    b = sw["b"]
    sw["ybar"] = float(workloads.diewert_supply(b, star)[0])
    sw["truth"] = float(workloads.diewert_value(b, star[None])[0])
    result = workloads.run_counterfactual_k(inputs, None)
    return inputs, result


def _check(check, inputs, result):
    outcome = workloads.Outcome()
    check(inputs, result, outcome)
    return outcome


def test_counterfactual_answers_pass(counterfactual):
    outcome = _check(workloads.check_counterfactual_k, *counterfactual)
    assert outcome.correct and outcome.failed == 0 and outcome.attempted == 6


def test_counterfactual_bound_shifted_past_truth(counterfactual):
    inputs, result = counterfactual
    bad = copy.deepcopy(result)
    pb = bad["sizes"][0]["pb_in"]
    gap = inputs["sizes"][0]["truth_in"] - pb.lower
    bad["sizes"][0]["pb_in"] = dataclasses.replace(
        pb, lower=pb.lower + gap + 1e-3, upper=max(pb.upper, pb.lower + gap + 1e-3))
    assert not _check(workloads.check_counterfactual_k, inputs, bad).correct


def test_counterfactual_flipped_wapm_verdict(counterfactual):
    inputs, result = counterfactual
    bad = copy.deepcopy(result)
    bad["sizes"][0]["wapm_cut"] = (True, None)
    assert not _check(workloads.check_counterfactual_k, inputs, bad).correct


def test_sweep_with_wrong_feasible_count(counterfactual):
    inputs, result = counterfactual
    bad = copy.deepcopy(result)
    meta = dict(bad["sweep"].grid_metadata, n_feasible=bad["sweep"].grid_metadata["n_feasible"] + 3)
    bad["sweep"] = dataclasses.replace(bad["sweep"], grid_metadata=meta)
    assert not _check(workloads.check_counterfactual_k, inputs, bad).correct


def test_identified_profits_off_by_two_percent():
    inputs = workloads.build_identify_200k(7, None)
    inputs["configs"] = inputs["configs"][:1]
    result = workloads.run_identify_200k(inputs, None)
    assert _check(workloads.check_identify_200k, inputs, result).correct
    bad = copy.deepcopy(result)
    for cell in bad["per_seed"][0]["table"].cells:
        cell.values = {e: 1.02 * v for e, v in cell.values.items()}
    outcome = _check(workloads.check_identify_200k, inputs, bad)
    assert not outcome.correct and outcome.failed == 1


def test_duality_flipped_verdict():
    inputs = workloads.build_duality_grid(7, None)
    cases = [inputs["cases"][0], inputs["cases"][workloads.DUALITY_CALLS]]
    reports = [workloads.duality_check(c["pi"], c["pi_hat"], c["price_set"],
                                       convex_flag=c["convex"],
                                       geometric_oracle=(c["d"] == 2),
                                       n_boundary=c["n_boundary"])
               for c in cases]
    for case, rep in zip(cases, reports):
        doc = rep.to_json_dict()
        if case["convex"]:
            assert checks.check_convex_duality(doc, case["eta"], True) == []
            doc["verdict"] = "equality-violated"
            assert checks.check_convex_duality(doc, case["eta"], True)
        else:
            args = (case["eta"], case["big_r"], case["small_r"])
            assert checks.check_nonconvex_duality(doc, *args) == []
            doc["verdict"] = "bound-violated"
            assert checks.check_nonconvex_duality(doc, *args)


def test_benchmark_json_lists_every_traced_metric():
    import json
    from tracing import PER_LAYER_METRICS
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER_METRICS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    with open(os.path.join(HERE, "layers.json")) as fh:
        layers = json.load(fh)
    for layer in layers["layers"]:
        for name in layer["metrics"]:
            for size in ("k40", "k120", "k200", "d3k120"):
                assert name.replace("<size>", size) in PER_LAYER_METRICS
