"""Each benchmark check accepts the library's real output and rejects a
deliberately wrong value.

    python3 -m pytest bench/test_checks.py -q
"""
from __future__ import annotations

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from adasub import engine, instances, policies, verifiers  # noqa: E402
from run import Clock, Loop  # noqa: E402


@pytest.fixture(scope="module")
def cover():
    inst = instances.build_stochastic_cover(6, 10, 2, 3)
    return inst, instances.instance_to_doc(inst)


# --- semi-cover -------------------------------------------------------------------


def test_semi_trajectory_check(cover):
    inst, doc = cover
    marginals, covers = doc["prior"]["marginals"], doc["utility"]["covers"]
    phi = ref.draw_realization(marginals, np.random.default_rng(5))
    tr = engine.run_policy(policies.semi_adaptive_greedy_max(6, 0.2), inst, phi, seed=1)
    first = ref.first_pick(marginals, covers)
    assert wl.check_semi_trajectory(tr, phi, covers, 6, first) == []
    wrong = [
        dataclasses.replace(tr, value=tr.value + 1.0),
        dataclasses.replace(tr, selected=tr.selected[:-1] + tr.selected[:1]),
        dataclasses.replace(tr, rounds=0),
        dataclasses.replace(tr, rounds=7),
    ]
    for bad in wrong:
        assert wl.check_semi_trajectory(bad, phi, covers, 6, first)
    assert wl.check_semi_trajectory(tr, phi, covers, 6, (first + 1) % 6)


class _ZeroRng:
    def random(self):
        return 0.0


def test_reference_draw_skips_zero_mass_outcomes():
    assert ref.draw_realization([[0.0, 1.0], [0.5, 0.5]], _ZeroRng()) == (1, 0)


# --- exact-cover ------------------------------------------------------------------


def test_exact_report_check(cover):
    inst, doc = cover
    marginals, covers = doc["prior"]["marginals"], doc["utility"]["covers"]
    q, n = doc["coverage"]["quota"], doc["elements"]
    reports = {
        "greedy": engine.evaluate_exact(policies.greedy_max(3), inst),
        "greedy-cov": engine.evaluate_exact(policies.greedy_coverage(), inst),
        "semi": engine.evaluate_exact(policies.semi_adaptive_greedy_max(3, 0.2), inst),
        "semi-cov": engine.evaluate_exact(policies.semi_adaptive_greedy_coverage(eps=0.2), inst),
    }
    wants = {
        "greedy": ref.reference_greedy(marginals, covers, q, 3),
        "greedy-cov": ref.reference_greedy(marginals, covers, q, None),
    }
    c_star = lambda: ref.optimal_coverage_cost(marginals, covers, q)  # noqa: E731
    for kind, rep in reports.items():
        assert wl.check_exact_report(rep, kind, n, q, 3, wants.get(kind), c_star) == [], kind

    g = reports["greedy"]
    assert wl.check_exact_report(dataclasses.replace(g, f_avg=g.f_avg + 1e-6),
                                 "greedy", n, q, 3, wants["greedy"])
    assert wl.check_exact_report(dataclasses.replace(g, expected_rounds=g.c_avg - 0.5),
                                 "greedy", n, q, 3, None)
    gc = reports["greedy-cov"]
    assert wl.check_exact_report(dataclasses.replace(gc, f_avg=q - 0.5),
                                 "greedy-cov", n, q, 3, None, c_star)
    assert wl.check_exact_report(dataclasses.replace(gc, c_avg=1e6, expected_rounds=1e6),
                                 "greedy-cov", n, q, 3, None, c_star)
    s = reports["semi"]
    assert wl.check_exact_report(dataclasses.replace(s, c_avg=2.0), "semi", n, q, 3)
    assert wl.check_exact_report(dataclasses.replace(s, expected_rounds=0.0), "semi", n, q, 3)
    sc = reports["semi-cov"]
    assert wl.check_exact_report(dataclasses.replace(sc, f_avg=q - 1.0), "semi-cov", n, q, 3)


def test_reference_coverage_optimum_matches_dp(cover):
    inst, doc = cover
    got = ref.optimal_coverage_cost(doc["prior"]["marginals"], doc["utility"]["covers"],
                                    doc["coverage"]["quota"])
    assert got == pytest.approx(policies.optimal_coverage_cost(inst), abs=1e-9)


def test_coverage_bound_uses_exact_optimum_when_needed():
    calls = []

    def c_star():
        calls.append(1)
        return 3.0

    assert ref.coverage_bound_holds(5.0, 8, 16.0, 1.0, c_star) and not calls
    bound = 4.0 * math.log(8 * 16.0) + 1.0
    assert ref.coverage_bound_holds(bound - 0.1, 8, 16.0, 1.0, c_star) and calls
    assert not ref.coverage_bound_holds(bound + 0.1, 8, 16.0, 1.0, c_star)


# --- certify-tabular --------------------------------------------------------------


@pytest.fixture(scope="module")
def tab():
    inst = instances.build_random_tabular(4, 6, 11)
    return inst, ref.table_model_from_doc(instances.instance_to_doc(inst))


def test_certificate_check(tab):
    inst, mref = tab
    for row in (verifiers.check_adaptive_submodular(inst), verifiers.check_adaptive_monotone(inst)):
        assert wl.check_certificate(row, mref, True) == []
        assert wl.check_certificate(dataclasses.replace(row, lhs=row.lhs + 0.25), mref, True)
        assert wl.check_certificate(dataclasses.replace(row, satisfied=False), mref, True)


def test_truncation_pair_checks():
    f_inst, g_inst = instances.build_truncation_pair()
    f_ref = ref.table_model_from_doc(instances.instance_to_doc(f_inst))
    g_ref = ref.table_model_from_doc(instances.instance_to_doc(g_inst))
    f_row = verifiers.check_adaptive_submodular(f_inst)
    g_row = verifiers.check_adaptive_submodular(g_inst)
    assert wl.check_certificate(f_row, f_ref, True) == []
    assert wl.check_certificate(g_row, g_ref, False) == []
    assert wl.check_certificate(dataclasses.replace(g_row, satisfied=True), g_ref, False)
    assert wl.check_certificate(dataclasses.replace(g_row, witness=None), g_ref, False)
    # A pair that is no violation, claimed as the refuting witness.
    fake = dataclasses.replace(g_row, witness=f_row.witness, lhs=1.0, rhs=1.0)
    assert wl.check_certificate(fake, g_ref, False)


def test_bound_row_and_optimum_checks(tab):
    inst, mref = tab
    row = verifiers.verify_lemma1(inst, policies.optimal_policy_dp(3), 2)
    assert wl.check_bound_row(row) == []
    assert wl.check_bound_row(dataclasses.replace(row, satisfied=False))
    assert wl.check_bound_row(dataclasses.replace(row, witness="skipped: calibration infeasible"))

    values = [policies.optimal_value(inst, k) for k in (1, 2, 3)]
    trees = [mref.tree_best(k) for k in (1, 2, 3)]
    assert wl.check_optimal_values(values, trees) == []
    assert wl.check_optimal_values([values[0], values[1] + 0.5, values[2]], trees)
    assert wl.check_optimal_values([values[1], values[0], values[2]], [None] * 3)


def test_calibration_check(tab):
    inst, _ = tab
    cal = policies.calibrate_tau(inst, 2)
    assert wl.check_calibration(cal, 2) == []
    assert wl.check_calibration(dataclasses.replace(cal, coin_p=1.5), 2)
    assert wl.check_calibration(dataclasses.replace(cal, alpha=2.5, beta=3.0), 2)
    assert wl.check_calibration(dataclasses.replace(cal, alpha=1.0, beta=3.0, coin_p=0.25), 2)


# --- cli ---------------------------------------------------------------------------


def test_cli_output_check():
    good = (wl.EVAL_HEADER + "\n"
            "greedy(k=3),bags-k3,exact,3.0000000000000004,3.0,3.0,0,0.0,0.0,\n").encode()
    assert wl.check_cli_output((0, good), wl.EVAL_HEADER, wl._f_avg_is(3.0)) == []
    assert wl.check_cli_output((1, good), wl.EVAL_HEADER, wl._f_avg_is(3.0))
    assert wl.check_cli_output((0, good), wl.VERIFY_HEADER, wl._f_avg_is(3.0))
    assert wl.check_cli_output((0, good.replace(b"3.0000000000000004", b"2.9")),
                               wl.EVAL_HEADER, wl._f_avg_is(3.0))
    rows = (wl.VERIFY_HEADER + "\nlemma1,x,1.0,2.0,-1.0,false,\n").encode()
    assert wl.check_cli_output((0, rows), wl.VERIFY_HEADER, wl._all_satisfied("true"))


def test_import_time_parser():
    report = (b"import time: self [us] | cumulative | imported package\n"
              b"import time:        50 |         50 |   _io\n"
              b"import time:       100 |        150 | encodings\n"
              b"import time:       300 |     200000 |   numpy\n"
              b"import time:       400 |     210000 | adasub\n")
    assert wl._import_seconds(report) == pytest.approx(0.21015)


def test_loop_flags_an_output_that_changes_between_rounds():
    outputs = iter([1, 2])
    loop = Loop(Clock(scaled=True))
    op = wl.Op("flaky", lambda: next(outputs), lambda _r: [])
    loop.round([op])
    loop.round([op])
    assert loop.problems and loop.failed == 0
    assert len(loop.clock.raw) == len(loop.clock.calibration) == 2


# --- tracing -----------------------------------------------------------------------


def test_traced_counts_repeat_and_bindings_restore(cover):
    _, doc = cover
    before = engine.evaluate_exact

    def traced_counts():
        tr, uninstall = tracing.install()
        try:
            tr.active = True
            inst = instances.instance_from_doc(doc)
            rep = engine.evaluate_exact(policies.greedy_coverage(), inst)
        finally:
            uninstall()
        summary = tr.summary()
        return rep, {k: v["value"] for k, v in summary.items() if k.endswith(".calls")}, summary

    rep1, counts1, summary = traced_counts()
    rep2, counts2, _ = traced_counts()
    assert engine.evaluate_exact is before
    assert rep1 == rep2 == engine.evaluate_exact(policies.greedy_coverage(),
                                                 instances.instance_from_doc(doc))
    assert counts1 == counts2
    assert counts1["engine.evaluate_exact.calls"] == 1
    assert counts1["instances.build.calls"] == 1
    assert counts1["instances.scorer.calls"] > 0 and counts1["policies.decide.calls"] > 0
    assert 0.0 < summary["instances.scorer.unique_ratio"]["value"] <= 1.0
    assert all(v["value"] >= -1e-3 for k, v in summary.items() if k.endswith(".self_ms"))
