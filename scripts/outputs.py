"""Print every library output over a fixed list of inputs, one `repr` per line.

Run it on two trees and diff the results to see exactly which outputs a change
moves:

    diff <(PYTHONPATH=<parent>/src python3 scripts/outputs.py) \
         <(PYTHONPATH=src python3 scripts/outputs.py)

Covered: exact reports of every policy constructor, MC reports, run_policy
traces (with round views), threshold calibrations in both modes, DP values,
batch scores and gap ratios, on bags-k3, the truncation pair, covers with
n=5..8 and 2 or 3 outcomes, one weighted cover, 12 corpus tabular instances,
the criterion-8 cover (sampled batch scores), and runs with the branch cap
forced down to 3 so that every sampled fallback fires.  Takes under a
minute on 2 CPUs.
"""
from __future__ import annotations

import dataclasses
import os
import sys

import numpy as np

from adasub import (
    PartialRealization,
    SemiAdaptiveState,
    build_bags,
    build_random_tabular,
    build_stochastic_cover,
    build_truncation_pair,
    calibrate_tau,
    evaluate_exact,
    evaluate_mc,
    fixed_batch_greedy,
    greedy_coverage,
    greedy_max,
    information_gap,
    instance_from_doc,
    instance_to_doc,
    optimal_coverage_cost,
    optimal_value,
    restricted_information_gap,
    run_policy,
    sav_values,
    semi_adaptive_greedy_coverage,
    semi_adaptive_greedy_max,
)
from adasub.errors import AdasubError


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
                pol = calibrate_tau(inst, i, mode).policy(mode)
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
                    run_policy, pol, inst, phi, s, None, True)


def weighted_cover(n: int, universe: int, seed: int):
    doc = instance_to_doc(build_stochastic_cover(n, universe, 2, seed=seed))
    weights = [round(0.25 + 0.5 * ((u * 7 + seed) % 5), 2) for u in range(universe)]
    doc["utility"]["weights"] = weights
    doc["coverage"] = {"quota": sum(weights), "eta": 0.25}
    doc["name"] += "-weighted"
    return instance_from_doc(doc)


def main() -> None:
    bags = build_bags(3)
    exact_reports(bags, 3)
    batch_scores(bags, 0)
    attempt(("opt", bags.name), optimal_value, bags, 3)
    attempt(("opt-cov", bags.name), optimal_coverage_cost, bags)
    traces(bags, policies(bags, 3), 3, 1)
    attempt(("mc", bags.name), evaluate_mc, semi_adaptive_greedy_max(4, 0.2), build_bags(4), 50, 3)

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

    for s in range(12):
        inst = build_random_tabular(3 + s % 4, 5 + s % 4, s)
        exact_reports(inst, 2)
        batch_scores(inst, s)
        for k in (1, 2, 3):
            attempt(("opt", inst.name, k), optimal_value, inst, k)
        attempt(("mc", inst.name), evaluate_mc, semi_adaptive_greedy_max(2, 0.1), inst, 40, s)

    big = build_stochastic_cover(32, 64, 2, seed=0)
    traces(big, [semi_adaptive_greedy_max(32, 0.2)], 24, 8)
    mid = build_stochastic_cover(16, 32, 2, seed=0)
    traces(mid, [semi_adaptive_greedy_max(8, 0.2), semi_adaptive_greedy_coverage(eps=0.2)], 4, 16)

    os.environ["ADASUB_BRANCH_CAP"] = "3"
    os.environ["ADASUB_MC_FALLBACK"] = "200"
    try:
        for inst in covers[:3] + [covers[-1], bags]:
            plain = dataclasses.replace(inst, name=inst.name + "-plain",
                                        fast_marginals=None, fast_sav=None)
            for target in (inst, plain):
                batch_scores(target, 5)
                for pol in policies(target, 3):
                    attempt(("mc", target.name, pol.name), evaluate_mc, pol, target, 20, 5)
                attempt(("calibrate", target.name, "sav", 2), calibrate_tau, target, 2, "sav")
    finally:
        del os.environ["ADASUB_BRANCH_CAP"], os.environ["ADASUB_MC_FALLBACK"]
    emit("done")


if __name__ == "__main__":
    main()
