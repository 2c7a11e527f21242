"""Greedy, threshold, semi-adaptive, batched, and DP-optimal policies."""
import collections
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adasub import policies
from adasub.engine import (
    EXACT_SEED,
    Policy,
    c_avg_exact,
    evaluate_exact,
    f_avg_exact,
    run_policy,
)
from adasub.errors import AlreadyObservedError, InfeasibleError, MalformedInputError, TooLargeError
from adasub.instances import (
    CoverUtility,
    ModularUtility,
    build_bags,
    build_random_tabular,
    build_stochastic_cover,
    build_truncation_pair,
)
from adasub.model import (
    EMPTY,
    CoverageSpec,
    Instance,
    PartialRealization,
    TablePrior,
)
from adasub.policies import (
    SemiAdaptiveState,
    ThresholdCalibration,
    calibrate_tau,
    covered,
    fixed_batch_greedy,
    fixed_sequence_policy,
    greedy_coverage,
    greedy_max,
    information_gap,
    optimal_coverage_cost,
    optimal_coverage_dp,
    optimal_policy_dp,
    optimal_value,
    restricted_information_gap,
    semi_adaptive_greedy_coverage,
    semi_adaptive_greedy_max,
    semi_adaptive_value,
    threshold_policy,
)

# --- fully adaptive greedy ----------------------------------------------------


def test_greedy_trajectories(anti_inst):
    tr = run_policy(greedy_max(2), anti_inst, (0, 1))
    assert tr.selected == (0, 1) and tr.value == 1.0
    tr2 = run_policy(greedy_max(2), anti_inst, (1, 0))
    assert tr2.selected == (0, 1) and tr2.value == 1.0


def test_greedy_budget_guard(anti_inst):
    with pytest.raises(MalformedInputError):
        run_policy(greedy_max(5), anti_inst, (0, 1))
    with pytest.raises(MalformedInputError):
        run_policy(semi_adaptive_greedy_max(5, 0.1), anti_inst, (0, 1))


def test_greedy_coverage_stops_at_quota(tiny_cover):
    tr = run_policy(greedy_coverage(), tiny_cover, (0, 0, 0))
    assert tr.selected == (0, 1)
    assert covered(tiny_cover, tr.final_psi)
    assert "uncovered" not in tr.flags
    assert c_avg_exact(greedy_coverage(), tiny_cover) == 2.0


def test_greedy_coverage_needs_spec(anti_inst):
    with pytest.raises(MalformedInputError):
        run_policy(greedy_coverage(), anti_inst, (0, 1))


def test_greedy_coverage_uncovered_flag(tiny_cover):
    spec = CoverageSpec(quota=3.0)  # only 2 items coverable
    tr = run_policy(greedy_coverage(), dataclasses.replace(tiny_cover, coverage=spec), (0, 0, 0))
    assert "uncovered" in tr.flags
    assert tr.selected == (0, 1)  # zero-gain element 2 is never bought


def test_greedy_coverage_cost_ratio(tiny_cover):
    # element 1 becomes 4x cheaper: per-cost gain now prefers it first
    spec = CoverageSpec(quota=2.0, costs=(1.0, 0.25, 1.0))
    costed = dataclasses.replace(tiny_cover, coverage=spec)
    tr = run_policy(greedy_coverage(), costed, (0, 0, 0))
    assert tr.selected == (1, 0)
    semi = semi_adaptive_greedy_coverage(0.1)
    assert run_policy(semi, costed, (0, 0, 0)).selected == (1, 0)
    # without costs the batching variant picks in id order
    plain = semi_adaptive_greedy_coverage(eps=0.1)
    assert run_policy(plain, tiny_cover, (0, 0, 0)).selected == (0, 1)


# --- threshold policies and calibration ------------------------------------------


def test_threshold_boundary_modes(anti_inst):
    inclusive = threshold_policy(0.5, coin_p=1.0)
    strict = threshold_policy(0.5, coin_p=0.0)
    assert math.isclose(c_avg_exact(inclusive, anti_inst), 1.5)
    assert c_avg_exact(strict, anti_inst) == 0.0
    # tau below every score: both modes run to exhaustion
    assert c_avg_exact(threshold_policy(-1.0, coin_p=0.0), anti_inst) == 2.0


def test_calibration_oracle(anti_inst):
    cal = calibrate_tau(anti_inst, 1)
    assert isinstance(cal, ThresholdCalibration)
    assert cal.tau_i == 0.5
    assert cal.alpha == 0.0 and cal.beta == 1.5
    assert math.isclose(cal.coin_p, 2.0 / 3.0)
    assert math.isclose(c_avg_exact(cal.policy(), anti_inst), 1.0, abs_tol=1e-9)


def test_calibration_scores_each_state_once():
    base = build_stochastic_cover(8, 16, 2, seed=0)
    calls = collections.Counter()

    def fast_sav(inst, psi, pending, cands, ctx, cap=None):
        calls[psi.pairs, tuple(pending), tuple(cands), cap] += 1
        return base.fast_sav(inst, psi, pending, cands, ctx, cap)

    inst = dataclasses.replace(base, fast_sav=fast_sav)
    cals = {}
    for mode in ("marginal", "sav"):
        calls.clear()
        cals[mode] = calibrate_tau(inst, 2, mode)
        assert calls and set(calls.values()) == {1}, mode
        assert cals[mode] == calibrate_tau(base, 2, mode)


def test_calibration_extremes(anti_inst):
    zero = calibrate_tau(anti_inst, 0)
    assert c_avg_exact(zero.policy(), anti_inst) == 0.0
    full = calibrate_tau(anti_inst, 2)
    assert math.isclose(c_avg_exact(full.policy(), anti_inst), 2.0, abs_tol=1e-9)
    with pytest.raises(InfeasibleError):
        calibrate_tau(anti_inst, 3)


def test_calibration_brackets_target(anti_inst):
    for i in (0, 1, 2):
        cal = calibrate_tau(anti_inst, i)
        assert cal.alpha - 1e-9 <= i <= cal.beta + 1e-9
        assert 0.0 <= cal.coin_p <= 1.0


def test_calibration_sav_mode(anti_inst):
    cal = calibrate_tau(anti_inst, 1, mode="sav")
    assert cal.tau_i == 0.5 and math.isclose(cal.coin_p, 0.5)
    assert math.isclose(c_avg_exact(cal.policy(), anti_inst), 1.0, abs_tol=1e-9)


@pytest.mark.parametrize("mode, suffix", [("marginal", ")"), ("sav", ",sav)")])
def test_calibration_policy_keeps_its_mode(mode, suffix):
    # policy() thresholds the score the calibration ranked by; the mode stays
    # out of the printed repr.
    inst = build_random_tabular(3, 4, seed=1)
    for i in range(1, inst.n + 1):
        cal = calibrate_tau(inst, i, mode)
        pol = cal.policy()
        assert pol.name == threshold_policy(cal.tau_i, cal.coin_p, mode).name
        assert pol.name.endswith(suffix)
        assert c_avg_exact(pol, inst) == i
        assert cal.mode == mode and "mode" not in repr(cal)


@pytest.mark.parametrize("seed", [0, 1, 2, "bags", "hidden"])
@pytest.mark.parametrize("mode", ["marginal", "sav"])
def test_calibration_exactness_random(seed, mode):
    # bags-k3 is the one reveal-on-select instance; "hidden" has a reveal
    # hook that hides the queried element when its successor's outcome is 0
    if seed == "bags":
        inst = build_bags(3)
    elif seed == "hidden":
        inst = dataclasses.replace(build_random_tabular(3, 4, seed=0),
                                   reveal=lambda phi, e: [(e, phi[e])] if phi[(e + 1) % 3] else [])
    else:
        inst = build_random_tabular(3, 4, seed=seed)
    for i in range(inst.n + 1):
        cal = calibrate_tau(inst, i, mode=mode)
        c = c_avg_exact(cal.policy(), inst)
        assert abs(c - i) <= 1e-9, (seed, mode, i, c)


def test_threshold_policy_name_round_trips():
    p = threshold_policy(0.5, coin_p=2.0 / 3.0)
    assert p.name == "threshold(tau=0.5,p=0.666666666667)"
    assert len(p.seed_space) == 2
    assert math.isclose(math.fsum(pr for _, pr in p.seed_space), 1.0)


# --- semi-adaptive values and gaps --------------------------------------------------


def test_sav_oracles_on_plain_pair():
    f_inst, _ = build_truncation_pair()
    st0 = SemiAdaptiveState.make(EMPTY, (0,))
    assert semi_adaptive_value(f_inst, st0, 1) == 0.0  # pair completion nets zero
    assert semi_adaptive_value(f_inst, st0, 2) == 1.0  # the solo element always adds 1
    assert information_gap(f_inst, st0) == 1.0
    assert restricted_information_gap(f_inst, SemiAdaptiveState.make(EMPTY, ())) == 1.0


def test_sav_guards(anti_inst):
    st0 = SemiAdaptiveState.make(EMPTY, (0,))
    with pytest.raises(AlreadyObservedError):
        semi_adaptive_value(anti_inst, st0, 0)
    with pytest.raises(MalformedInputError):
        SemiAdaptiveState(psi=PartialRealization([(0, 1)]), selected=(0,), pending=(0,))
    with pytest.raises(MalformedInputError):
        SemiAdaptiveState(psi=EMPTY, selected=(0, 0), pending=(0, 0))


def test_sav_equals_marginal_with_no_pending(anti_inst):
    st0 = SemiAdaptiveState.make(EMPTY, ())
    assert semi_adaptive_value(anti_inst, st0, 0) == 0.5


def test_rig_at_least_one_on_certified_instances():
    """Diminishing returns force the restricted gap's numerator to dominate."""
    for seed in range(3):
        inst = build_random_tabular(4, 5, seed=seed)
        st0 = SemiAdaptiveState.make(EMPTY, (0, 1))
        assert restricted_information_gap(inst, st0) >= 1.0 - 1e-9


def test_bags_sav_closed_form(bags2):
    st0 = SemiAdaptiveState.make(EMPTY, (0,))
    assert math.isclose(semi_adaptive_value(bags2, st0, 1), 2.0 / 3.0, abs_tol=1e-12)
    assert math.isclose(information_gap(bags2, st0), 1.0, abs_tol=1e-12)


def _correlated_table() -> Instance:
    # Not adaptive submodular: observing one element tells which others pay,
    # so both gaps drop to 0.5 on the first batch and later batches follow.
    prior = TablePrior([((0, 1, 0, 1), 0.5), ((1, 0, 1, 0), 0.5)])
    return Instance(name="corr", n=4, num_outcomes=2, prior=prior,
                    utility=ModularUtility([[0.0, 1.0]] * 4))


@pytest.mark.parametrize("build", [lambda: build_stochastic_cover(8, 16, 2, seed=0),
                                   lambda: build_bags(3), _correlated_table],
                         ids=["cover", "bags", "correlated"])
@pytest.mark.parametrize("gap, public", [("ig", information_gap),
                                         ("rig", restricted_information_gap)])
def test_kernel_gap_decisions_equal_the_public_gaps(monkeypatch, build, gap, public):
    # The kernel's "rig" compares against the reference term kept from the
    # batch's first decision; the public gap scores the same state afresh.
    inst = build()
    base = semi_adaptive_greedy_max(4, 0.05, gap)
    kernels, seen = [], []
    ratio = policies._gap_ratio

    def play(inst, ctx):
        kernels.append(base.play(inst, ctx))
        return kernels[-1]

    def recorded(top, denom):
        k = kernels[-1]
        seen.append((ratio(top, denom),
                     SemiAdaptiveState(k.psi, tuple(k.selected), tuple(k.pending))))
        return seen[-1][0]

    with monkeypatch.context() as m:
        m.setattr(policies, "_gap_ratio", recorded)
        for phi, _w in inst.prior.support():
            run_policy(Policy(name=base.name, play=play), inst, phi)
    assert seen
    for got, state in seen:
        assert got == public(inst, state), state


# --- semi-adaptive policies ----------------------------------------------------------


def test_semi_max_single_round_on_independent_value(anti_inst):
    tr = run_policy(semi_adaptive_greedy_max(2, 0.1), anti_inst, (0, 1))
    assert tr.selected == (0, 1)
    assert tr.rounds == 1  # the gap never drops below 1


def test_semi_policies_collapse_on_deterministic(tiny_cover):
    greedy_order = run_policy(greedy_max(2), tiny_cover, (0, 0, 0)).selected
    tr_max = run_policy(semi_adaptive_greedy_max(2, 0.1), tiny_cover, (0, 0, 0))
    assert tr_max.rounds == 1 and tr_max.selected == greedy_order
    tr_cov = run_policy(semi_adaptive_greedy_coverage(eps=0.1), tiny_cover, (0, 0, 0))
    assert tr_cov.rounds == 1 and tr_cov.selected == greedy_order
    assert covered(tiny_cover, tr_cov.final_psi)


def test_semi_cov_uncovered_flag(tiny_cover):
    spec = CoverageSpec(quota=3.0)
    inst = dataclasses.replace(tiny_cover, coverage=spec)
    tr = run_policy(semi_adaptive_greedy_coverage(eps=0.1), inst, (0, 0, 0))
    assert "uncovered" in tr.flags


def test_semi_policy_names():
    assert semi_adaptive_greedy_max(3, 0.25).name == "semi(k=3,eps=0.25,ig)"
    assert semi_adaptive_greedy_coverage(eps=0.1).name == "semi-cov(eps=0.1,rig)"


# --- batched greedy -------------------------------------------------------------------


def test_fixed_batch_matches_greedy_at_r1(anti_inst, bags2):
    f_inst, g_inst = build_truncation_pair()
    cases = [(anti_inst, 2), (bags2, 3), (f_inst, 3), (g_inst, 2)]
    for inst, k in cases:
        batch = fixed_batch_greedy(1, k)
        greedy = greedy_max(k)
        for phi, _w in inst.prior.support():
            for seed in (0, 1, 7):
                a = run_policy(batch, inst, phi, seed=seed)
                b = run_policy(greedy, inst, phi, seed=seed)
                assert a.selected == b.selected, (inst.name, phi)
                assert a.rounds == b.rounds
                assert a.value == b.value


def test_fixed_batch_full_is_one_round(bags2):
    tr = run_policy(fixed_batch_greedy(3, 3), bags2, (0, 1, 1))
    assert tr.rounds == 1
    assert tr.selected == (0, 1, 2)


def test_fixed_batch_intermediate(anti_inst):
    # r=2, k=2 on two elements: one batch of two, single flush round
    tr = run_policy(fixed_batch_greedy(2, 2), anti_inst, (0, 1))
    assert tr.selected == (0, 1) and tr.rounds == 1


def test_criterion8_cover_batches_unflagged():
    """On the criterion-8 cover every batch past the branch cap leaves no
    reachable item uncovered, so no policy samples or is flagged."""
    inst = build_stochastic_cover(32, 64, 2, seed=0)
    phi = inst.prior.sample(np.random.default_rng(0))
    head = (14, 3, 4, 13)
    batch = head + (15, 11, 23, 1, 8, 2, 29, 5, 25, 10)
    expected = [
        (semi_adaptive_greedy_max(32, 0.2),
         head + (8, 31, 2, 7, 0, 1, 5, 6, 9, 10, 11, 12) + tuple(range(15, 31)), 2),
        (fixed_batch_greedy(32, 32),
         batch + (0, 6, 7, 9, 12, 16, 17, 18, 19, 20, 21, 22, 24, 26, 27, 28, 30, 31), 1),
        (threshold_policy(0.0, 0.0, "sav"), batch, 1),
    ]
    for pol, selected, rounds in expected:
        tr = run_policy(pol, inst, phi)
        assert (tr.selected, tr.value, tr.rounds, tr.flags) == (selected, 64.0, rounds, ()), pol.name


def test_fixed_batch_budget_clamps(bags2):
    tr = run_policy(fixed_batch_greedy(2, 9), bags2, (0, 1, 1))
    assert len(tr.selected) == 3  # budget larger than the ground set selects it all


def test_bags_batch_oracle(bags2):
    assert math.isclose(f_avg_exact(fixed_batch_greedy(2, 2), bags2), 5.0 / 3.0, abs_tol=1e-12)
    assert f_avg_exact(greedy_max(2), bags2) == 2.0


# --- DP optimal policies ----------------------------------------------------------------


def _best_tree_value(inst, psi, remaining, budget):
    """Independent exhaustive policy-tree enumeration (no memoization):
    the best adaptive tree picks an element, recurses on every outcome."""
    base = inst.utility(psi)
    if budget == 0 or not remaining:
        return base
    best = base
    for e in remaining:
        rest = [x for x in remaining if x != e]
        total = 0.0
        for o, p in inst.prior.outcome_dist(e, psi):
            total += p * _best_tree_value(inst, psi.extend(e, o), rest, budget - 1)
        best = max(best, total)
    return best


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_dp_equals_exhaustive_tree(seed, k):
    inst = build_random_tabular(3, 4, seed=seed)
    brute = _best_tree_value(inst, EMPTY, list(range(inst.n)), k)
    assert math.isclose(optimal_value(inst, k), brute, abs_tol=1e-12)


def test_dp_oracle_values(anti_inst):
    assert optimal_value(anti_inst, 1) == 0.5
    assert optimal_value(anti_inst, 2) == 1.0
    assert math.isclose(f_avg_exact(optimal_policy_dp(2), anti_inst), 1.0)


def test_dp_state_cap_ignores_other_budgets(monkeypatch):
    # The budget-3 tree memoizes 120 states, and the cap is checked before
    # each non-final one; states of a budget-2 call on the same instance must
    # not count against it.
    monkeypatch.setenv("ADASUB_MAX_STATES", "121")
    assert optimal_value(build_random_tabular(5, 12, 3), 3) == 8.0
    inst = build_random_tabular(5, 12, 3)
    assert optimal_value(inst, 2) == 6.0
    assert optimal_value(inst, 3) == 8.0
    monkeypatch.setenv("ADASUB_MAX_STATES", "118")
    with pytest.raises(TooLargeError):
        optimal_value(build_random_tabular(5, 12, 3), 3)


def test_dp_value_starts_a_fresh_memo_per_call(monkeypatch):
    # a call that hit the cap leaves nothing behind, so a retry fails the same way
    monkeypatch.setenv("ADASUB_MAX_STATES", "118")
    inst = build_random_tabular(5, 12, 3)
    for _ in range(2):
        with pytest.raises(TooLargeError, match="^budget-2 optimum exceeds the state cap"):
            optimal_value(inst, 3)


def test_dp_dominates_other_policies(anti_inst):
    f_inst, _ = build_truncation_pair()
    for inst in (anti_inst, f_inst):
        for k in (1, 2):
            star = optimal_value(inst, k)
            for pol in (greedy_max(k), fixed_batch_greedy(k, k),
                        semi_adaptive_greedy_max(k, 0.1)):
                assert star >= f_avg_exact(pol, inst) - 1e-9


def test_coverage_dp(tiny_cover):
    assert optimal_coverage_cost(tiny_cover) == 2.0
    tr = run_policy(optimal_coverage_dp(), tiny_cover, (0, 0, 0))
    assert covered(tiny_cover, tr.final_psi)
    assert c_avg_exact(optimal_coverage_dp(), tiny_cover) == 2.0


def test_coverage_dp_infeasible(tiny_cover):
    spec = CoverageSpec(quota=5.0)
    with pytest.raises(InfeasibleError):
        optimal_coverage_cost(dataclasses.replace(tiny_cover, coverage=spec))


def test_coverage_dp_beats_or_ties_greedy_on_corpus():
    for seed in range(3):
        inst = build_random_tabular(4, 4, seed=seed)
        quota = max(
            inst.utility(PartialRealization.project(phi, range(inst.n)))
            for phi, _ in inst.prior.support()
        )
        if quota <= 0:
            continue
        inst = dataclasses.replace(inst, coverage=CoverageSpec(quota=min(2.0, quota)))
        star = optimal_coverage_cost(inst)
        greedy_cost = c_avg_exact(greedy_coverage(), inst)
        assert star <= greedy_cost + 1e-9


def _cheapest_tree_cost(inst, psi, remaining, spec):
    """Independent exhaustive min-cost tree (no memoization): zero once the
    quota is reached, else the cheapest pick plus its expected continuation."""
    if inst.utility(psi) >= spec.quota - 1e-9:
        return 0.0
    best = math.inf
    for e in remaining:
        rest = [x for x in remaining if x != e]
        total = spec.costs[e]
        for o, p in inst.prior.outcome_dist(e, psi):
            total += p * _cheapest_tree_cost(inst, psi.extend(e, o), rest, spec)
        best = min(best, total)
    return best


def _reachable_quota_spec(inst, scale):
    """Non-unit costs and a quota that every realization reaches once all of
    its elements are observed."""
    full = min(inst.utility(PartialRealization.project(phi, range(inst.n)))
               for phi, _ in inst.prior.support())
    costs = tuple(0.5 + ((3 * e + 1) % 4) * 0.375 for e in range(inst.n))
    return CoverageSpec(quota=scale * full, costs=costs)


@pytest.mark.parametrize("inst", [
    *(build_random_tabular(4, 6, seed=s) for s in range(4)),
    *(build_stochastic_cover(4, 6, 2, seed=s) for s in range(3)),
], ids=lambda inst: inst.name)
@pytest.mark.parametrize("scale", [0.5, 1.0])
def test_coverage_dp_equals_exhaustive_tree(inst, scale):
    spec = _reachable_quota_spec(inst, scale)
    assert spec.quota > 0
    brute = _cheapest_tree_cost(inst, EMPTY, list(range(inst.n)), spec)
    costed = dataclasses.replace(inst, coverage=spec)
    assert math.isclose(optimal_coverage_cost(costed), brute, abs_tol=1e-12)
    rep = evaluate_exact(optimal_coverage_dp(), costed)
    assert math.isclose(rep.c_avg, brute, abs_tol=1e-12)
    assert rep.flags == ()
    for k in (1, 2, 3):
        pol = optimal_policy_dp(k)
        assert math.isclose(f_avg_exact(pol, inst), optimal_value(inst, k), abs_tol=1e-12)


# --- fixed sequences --------------------------------------------------------------------


def test_fixed_sequence_policy(anti_inst):
    tr = run_policy(fixed_sequence_policy([1, 0]), anti_inst, (0, 1))
    assert tr.selected == (1, 0) and tr.rounds == 2
    with pytest.raises(MalformedInputError):
        fixed_sequence_policy([0, 0])


# --- calibrated thresholds against DP (chain sanity) -------------------------------------


@given(seed=st.integers(0, 30))
@settings(max_examples=12, deadline=None)
def test_threshold_value_between_zero_and_opt(seed):
    inst = build_random_tabular(3, 3, seed=seed)
    cal = calibrate_tau(inst, 2)
    val = f_avg_exact(cal.policy(), inst)
    assert -1e-9 <= val <= optimal_value(inst, inst.n) + 1e-9
