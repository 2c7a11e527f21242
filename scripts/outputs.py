"""Print every library output over a fixed list of inputs, one `repr` per line.

Run it on two trees and diff the results to see exactly which outputs a change
moves:

    diff <(PYTHONPATH=<parent>/src python3 scripts/outputs.py) \
         <(PYTHONPATH=src python3 scripts/outputs.py)

Covered: exact reports of every policy constructor, MC reports, run_policy
traces (with round views), threshold calibrations in both modes, DP values,
batch scores and gap ratios, on bags-k3, the truncation pair, covers with
n=5..8 and 2 or 3 outcomes, one weighted cover, 12 corpus tabular instances,
the criterion-8 cover (semi, batch and threshold "sav" traces, and one dead
batch past a branch cap of 3), and runs with the branch cap forced down to 3
so that every sampled fallback fires, in MC and in exact reports.  Also the
exact reports, MC reports, traces and expected selection counts of concat,
truncate and limit_rounds, every verifier on small inputs, a policy that
yields an unknown action, bare and inside each combinator, and the exact
report of a policy whose picks follow a counter kept across runs instead of
its replies.  Bags-k4 and bags-k5 add batch scores, sav-mode calibrations and
(bags-k4) MC reports, none of which enumerates the support.  Three cap cases:
DP values under a lowered state cap, fresh and after another budget on the
same instance; the submodularity and monotonicity checks under a state cap
that the marginal cache outgrows; and, under a lowered support cap, an exact
bags report and the bags submodularity check.  Coverage optima and exact opt-cov-dp reports under a
non-unit cost vector on the instance, for three quotas up to the best
full-observation value on covers, bags-k3, the truncation pair and four
tabular instances.  Takes about a minute on 2 CPUs.
"""
from __future__ import annotations

import contextlib
import dataclasses
import itertools
import os
import sys

import numpy as np

from adasub import (
    CoverageSpec,
    Instance,
    PartialRealization,
    Policy,
    PolicyContext,
    QUERY,
    STOP,
    Select,
    SemiAdaptiveState,
    build_bags,
    build_random_tabular,
    build_stochastic_cover,
    build_truncation_pair,
    calibrate_tau,
    check_adaptive_monotone,
    check_adaptive_submodular,
    concat,
    evaluate_exact,
    evaluate_mc,
    expected_selection_count,
    fixed_batch_greedy,
    fixed_sequence_policy,
    greedy_coverage,
    greedy_max,
    information_gap,
    instance_from_doc,
    instance_to_doc,
    limit_rounds,
    measure_superround_decay,
    optimal_coverage_cost,
    optimal_coverage_dp,
    optimal_policy_dp,
    optimal_value,
    restricted_information_gap,
    run_policy,
    sav_values,
    semi_adaptive_greedy_coverage,
    semi_adaptive_greedy_max,
    threshold_policy,
    truncate,
    verify_batch_lemma8,
    verify_corollary_delta,
    verify_coverage_bound,
    verify_eq_main,
    verify_eta,
    verify_hardness,
    verify_lemma1,
    verify_round_complexity,
    verify_semi_max_bound,
)
from adasub.errors import AdasubError
from adasub.policies import _sav_and_denom


def emit(*parts) -> None:
    sys.stdout.write(repr(parts) + "\n")


def attempt(label, fn, *args) -> None:
    """Print fn(*args), or the error it raises, under label."""
    try:
        emit(label, fn(*args))
    except AdasubError as exc:
        emit(label, "error", type(exc).__name__, str(exc))


def policies(inst, k: int) -> list:
    out = [
        greedy_max(k),
        semi_adaptive_greedy_max(k, 0.1),
        semi_adaptive_greedy_max(k, 0.2, "rig"),
        fixed_batch_greedy(2, k),
        fixed_batch_greedy(k, k),
    ]
    if inst.coverage is not None:
        out += [
            greedy_coverage(),
            semi_adaptive_greedy_coverage(eps=0.2),
            semi_adaptive_greedy_coverage(eps=0.1, gap="ig"),
        ]
    return out


def exact_reports(inst, k: int) -> None:
    for pol in policies(inst, k):
        attempt(("exact", inst.name, pol.name), evaluate_exact, pol, inst)
    for mode in ("marginal", "sav"):
        for i in (1, 1.5, k):
            cal = ("calibrate", inst.name, mode, i)
            attempt(cal, calibrate_tau, inst, i, mode)
            try:
                c = calibrate_tau(inst, i, mode)
                pol = threshold_policy(c.tau_i, c.coin_p, mode)
            except AdasubError:
                continue
            attempt(("exact", inst.name, pol.name), evaluate_exact, pol, inst)


def batch_scores(inst, seed: int) -> None:
    """sav_values for every cap and both gap ratios on random states."""
    rng = np.random.default_rng(seed)
    caps = [None, 2.0] + ([inst.coverage.quota] if inst.coverage is not None else [])
    for _ in range(4):
        order = [int(e) for e in rng.permutation(inst.n)]
        cut = int(rng.integers(0, inst.n // 2 + 1))
        phi = inst.prior.sample(rng)
        psi = PartialRealization([(e, phi[e]) for e in order[:cut]])
        pending = order[cut: cut + int(rng.integers(0, min(4, inst.n - cut - 1) + 1))]
        state = SemiAdaptiveState.make(psi, list(psi.domain) + pending)
        for cap in caps:
            attempt(("sav", inst.name, psi.pairs, tuple(pending), cap),
                    sav_values, inst, psi, pending, None, None, cap)
        attempt(("ig", inst.name, psi.pairs, tuple(pending)), information_gap, inst, state)
        attempt(("rig", inst.name, psi.pairs, tuple(pending)),
                restricted_information_gap, inst, state)


def traces(inst, pols, count: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(count):
        phi = inst.prior.sample(rng)
        s = int(rng.integers(0, 2**31 - 1))
        for pol in pols:
            attempt(("trace", inst.name, pol.name, phi, s),
                    lambda: run_policy(pol, inst, phi, s, collect_rounds=True))


def combinators(inst, k: int, seed: int) -> None:
    """Exact and MC reports, selection counts and traces of wrapped policies."""
    inner = [greedy_max(k), semi_adaptive_greedy_max(k, 0.2), fixed_batch_greedy(2, k),
             threshold_policy(0.5, 0.25), optimal_policy_dp(k)]
    pols = [truncate(p, j) for p in inner for j in (0, 1, 2)]
    pols += [limit_rounds(p, j) for p in inner for j in (0, 1, 2)]
    pols += [concat(a, b) for a in inner[2:4] for b in (inner[0], inner[3], inner[4])]
    pols.append(concat(truncate(inner[1], 1), limit_rounds(inner[2], 1)))
    for pol in pols:
        attempt(("exact", inst.name, pol.name), evaluate_exact, pol, inst)
        attempt(("count", inst.name, pol.name), expected_selection_count, pol, inst)
        attempt(("mc", inst.name, pol.name), evaluate_mc, pol, inst, 20, seed)
    traces(inst, pols, 2, seed)


def verifiers(inst, k: int) -> None:
    """Every instance verifier; the coverage ones only with a coverage goal."""
    opt = optimal_policy_dp(k)
    attempt(("submodular", inst.name), check_adaptive_submodular, inst)
    attempt(("monotone", inst.name), check_adaptive_monotone, inst)
    for ell in (1, 2):
        attempt(("lemma1", inst.name, ell), verify_lemma1, inst, opt, ell)
        attempt(("lemma8", inst.name, ell), verify_batch_lemma8, inst, opt, ell, 0.1)
        attempt(("semi-max", inst.name, ell), verify_semi_max_bound, inst, opt, ell, 0.1, k)
    for i in (0, 1, 2):
        attempt(("eq-main", inst.name, i), verify_eq_main, inst, opt, i)
    for t in (0, 1):
        attempt(("decay", inst.name, t), measure_superround_decay, inst, 0.2, 0.1, 20, 3, None, t)
    if inst.coverage is not None:
        attempt(("eta", inst.name), verify_eta, inst)
        attempt(("eta", inst.name, "spec"), verify_eta,
                dataclasses.replace(inst, coverage=CoverageSpec(quota=2.0, eta=1.5)))
        attempt(("coverage-bound", inst.name), verify_coverage_bound, inst, optimal_coverage_dp())
        attempt(("corollary-delta", inst.name), verify_corollary_delta, inst,
                optimal_coverage_dp())


def unknown_action(inst) -> None:
    """A policy yielding something that is not an action, bare and wrapped."""

    def play(inst, ctx):
        yield Select(0)
        yield QUERY
        yield "bogus"
        yield Select(1)
        yield QUERY
        yield STOP

    bad = Policy(name="bad", play=play)
    seq = fixed_sequence_policy([2])
    for pol in (bad, truncate(bad, 3), limit_rounds(bad, 3), concat(bad, seq), concat(seq, bad)):
        attempt(("unknown-action", pol.name),
                lambda: run_policy(pol, inst, (0,) * inst.n, collect_rounds=True))


def replay_guard(inst) -> None:
    """An exact report of a policy that picks by a counter kept across runs."""
    ticks = itertools.count()

    def play(inst, ctx):
        for _ in range(2):
            yield Select(next(ticks) % inst.n)
            yield QUERY

    attempt(("replay-guard", inst.name), evaluate_exact, Policy(name="ticking", play=play), inst)


@contextlib.contextmanager
def env(**caps):
    """Set ADASUB_* variables for the duration of the block."""
    os.environ.update({"ADASUB_" + k.upper(): str(v) for k, v in caps.items()})
    try:
        yield
    finally:
        for k in caps:
            del os.environ["ADASUB_" + k.upper()]


def scored_state(inst, psi, pending) -> tuple:
    """Scores, reference term and flags of one decision state."""
    cands = [e for e in range(inst.n) if e not in psi and e not in pending]
    ctx = PolicyContext(seed=0)
    scores, ref = _sav_and_denom(inst, psi, pending, cands, ctx)
    return scores, ref, tuple(sorted(ctx.flags))


def weighted_cover(n: int, universe: int, seed: int):
    doc = instance_to_doc(build_stochastic_cover(n, universe, 2, seed=seed))
    weights = [round(0.25 + 0.5 * ((u * 7 + seed) % 5), 2) for u in range(universe)]
    doc["utility"]["weights"] = weights
    doc["coverage"] = {"quota": sum(weights), "eta": 0.25}
    doc["name"] += "-weighted"
    return instance_from_doc(doc)


def costed_coverage(inst) -> None:
    """Coverage optima and exact opt-cov-dp reports under a non-unit cost
    vector, given as the instance's own goal."""
    costs = tuple(0.5 + 0.375 * ((3 * e + 1) % 4) for e in range(inst.n))
    top = max(inst.utility(PartialRealization.project(phi, range(inst.n)))
              for phi, _w in inst.prior.support())
    for quota in (0.4 * top, 0.7 * top, top):
        spec = CoverageSpec(quota=quota, costs=costs)
        costed = dataclasses.replace(inst, name=f"{inst.name}-q{quota}-costed", coverage=spec)
        attempt(("opt-cov", costed.name), optimal_coverage_cost, costed)
        attempt(("exact", costed.name, "opt-cov-dp"), evaluate_exact, optimal_coverage_dp(), costed)


def main() -> None:
    bags = build_bags(3)
    exact_reports(bags, 3)
    batch_scores(bags, 0)
    attempt(("opt", bags.name), optimal_value, bags, 3)
    attempt(("opt-cov", bags.name), optimal_coverage_cost, bags)
    traces(bags, policies(bags, 3), 3, 1)
    attempt(("mc", bags.name), evaluate_mc, semi_adaptive_greedy_max(4, 0.2), build_bags(4), 50, 3)
    for k in (4, 5):
        inst = build_bags(k)
        batch_scores(inst, k)
        for i in (1, 1.5, k):
            attempt(("calibrate", inst.name, "sav", i), calibrate_tau, inst, i, "sav")
        if k == 4:
            for pol in policies(inst, 3):
                attempt(("mc", inst.name, pol.name), evaluate_mc, pol, inst, 20, k)

    with env(max_states=121):
        inst = build_random_tabular(5, 12, 3)
        attempt(("opt-cap", inst.name, "fresh", 3), optimal_value, inst, 3)
        inst = build_random_tabular(5, 12, 3)
        for k in (2, 3):
            attempt(("opt-cap", inst.name, "after-2", k), optimal_value, inst, k)
    with env(max_states=200):
        # 181 reachable states and 352 (state, element) marginals: the
        # marginal cache clears while the certificates read it.
        inst = build_random_tabular(5, 12, 3)
        attempt(("state-cap", inst.name, "submodular"), check_adaptive_submodular, inst)
        attempt(("state-cap", inst.name, "monotone"), check_adaptive_monotone, inst)
    with env(max_support=50):
        attempt(("support-cap", bags.name, None), evaluate_exact, greedy_max(1), bags)
        attempt(("support-cap", bags.name, "submodular"), check_adaptive_submodular, bags)

    for inst in build_truncation_pair():
        exact_reports(inst, 2)
        batch_scores(inst, 1)
        for k in (1, 2, 3):
            attempt(("opt", inst.name, k), optimal_value, inst, k)

    covers = [build_stochastic_cover(n, 2 * n, m, seed=10 * n + m)
              for n in (5, 6, 7, 8) for m in (2, 3) if n <= 7 or m == 2]
    covers.append(weighted_cover(6, 12, 3))
    for inst in covers:
        exact_reports(inst, 3)
        batch_scores(inst, inst.n)
        if inst.n <= 6:
            attempt(("opt", inst.name), optimal_value, inst, 2)
            attempt(("opt-cov", inst.name), optimal_coverage_cost, inst)
        traces(inst, policies(inst, 3), 2, inst.n)

    for inst in covers[:2] + [bags] + list(build_truncation_pair()):
        combinators(inst, 2, inst.n)
        verifiers(inst, 2)
    unknown_action(covers[0])
    replay_guard(covers[0])
    for inst in covers[:3] + [covers[-1], bags] + list(build_truncation_pair()):
        costed_coverage(inst)
    for k, r in ((3, 2), (4, 4)):
        attempt(("hardness", k, r), verify_hardness, k, r, 12, 5)
    attempt(("rounds",), verify_round_complexity, covers[:4], 0.2, None, 6, 2)

    for s in range(12):
        inst = build_random_tabular(3 + s % 4, 5 + s % 4, s)
        if s < 4:
            combinators(inst, 2, s)
            verifiers(inst, 2)
            costed_coverage(inst)
        exact_reports(inst, 2)
        batch_scores(inst, s)
        for k in (1, 2, 3):
            attempt(("opt", inst.name, k), optimal_value, inst, k)
        attempt(("mc", inst.name), evaluate_mc, semi_adaptive_greedy_max(2, 0.1), inst, 40, s)

    big = build_stochastic_cover(32, 64, 2, seed=0)
    traces(big, [semi_adaptive_greedy_max(32, 0.2)], 24, 8)
    traces(big, [fixed_batch_greedy(32, 32), threshold_policy(0.0, 0.0, "sav")], 1, 0)
    mid = build_stochastic_cover(16, 32, 2, seed=0)
    traces(mid, [semi_adaptive_greedy_max(8, 0.2), semi_adaptive_greedy_coverage(eps=0.2)], 4, 16)

    with env(branch_cap=3):
        # Dead batch: after the first round of a criterion-8 trajectory, these
        # four pending elements leave no item that an open element reaches.
        psi = PartialRealization([(3, 1), (4, 1), (13, 0), (14, 1)])
        attempt(("dead-batch", big.name, psi.pairs, (15, 18, 2, 8)),
                scored_state, big, psi, [15, 18, 2, 8])
    with env(branch_cap=3, mc_fallback=200):
        # The constructor sets no scorer hook, whatever hook fields Instance has.
        targets = [t for inst in covers[:3] + [covers[-1], bags]
                   for t in (inst, Instance(inst.name + "-plain", inst.n, inst.num_outcomes,
                                            inst.prior, inst.utility, inst.coverage, inst.reveal))]
        for target in targets:
            batch_scores(target, 5)
            for pol in policies(target, 3):
                attempt(("mc", target.name, pol.name), evaluate_mc, pol, target, 20, 5)
            attempt(("calibrate", target.name, "sav", 2), calibrate_tau, target, 2, "sav")
        # Exact reports whose scorer calls draw from ctx.rng.
        for target in targets:
            for pol in policies(target, 3) + [threshold_policy(0.05, 0.5, "sav")]:
                attempt(("exact", target.name, pol.name), evaluate_exact, pol, target)
    emit("done")


if __name__ == "__main__":
    main()
