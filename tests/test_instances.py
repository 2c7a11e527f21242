"""Instance families, observation hooks, and (de)serialization."""
import dataclasses
import gc
import json
import math
import os
import weakref
from pathlib import Path

import numpy as np
import pytest

from adasub.engine import EXACT_SEED, PolicyContext, evaluate_exact, marginals_for
from adasub.errors import (
    InconsistentObservationError,
    MalformedInputError,
    TooLargeError,
)
from adasub.instances import (
    _COVER_TABLES,
    BagsPrior,
    CoverUtility,
    ModularUtility,
    _CoverTables,
    _hooks,
    build_bags,
    build_random_tabular,
    build_stochastic_cover,
    build_truncation_pair,
    instance_from_doc,
    instance_to_doc,
    load_instance,
    save_instance,
)
from adasub.model import (
    EMPTY,
    AlreadyObservedError,
    CoverageSpec,
    PartialRealization,
    ProductPrior,
)
from adasub.policies import (
    SemiAdaptiveState,
    _sav_and_denom,
    greedy_coverage,
    greedy_max,
    information_gap,
    optimal_coverage_cost,
    restricted_information_gap,
    sav_values,
    semi_adaptive_greedy_coverage,
    semi_adaptive_greedy_max,
    semi_adaptive_value,
)
from adasub.verifiers import verify_eta

GOLDEN = Path(__file__).parent / "golden"


# --- bags family ------------------------------------------------------------------


def test_bags_shape(bags3):
    assert bags3.n == 7 and bags3.num_outcomes == 3
    assert isinstance(bags3.prior, BagsPrior)
    assert bags3.prior.sizes == (1, 2, 4)
    assert bags3.prior.support_size() == math.factorial(7) // (
        math.factorial(1) * math.factorial(2) * math.factorial(4)
    )
    assert bags3.coverage is not None and bags3.coverage.quota == 3.0


@pytest.mark.parametrize("e", [-1, 3])
@pytest.mark.parametrize("method", ["mass", "condition", "joint_dist"])
def test_table_prior_rejects_element_outside_ground_set(method, e):
    prior = build_random_tabular(3, 4, 0).prior
    args = ([1], 10) if method == "joint_dist" else ()
    with pytest.raises(MalformedInputError, match=f"^element {e} outside ground set of size 3$"):
        getattr(prior, method)(PartialRealization({e: 0}), *args)


@pytest.mark.parametrize("e", [-1, 99])
@pytest.mark.parametrize("method", ["mass", "condition", "outcome_dist", "outcome_dist(e)"])
def test_bags_prior_rejects_element_outside_ground_set(method, e):
    # with an in-range element beside it, so either end of the sorted pairs is checked
    prior = build_bags(3).prior
    args = (0,) if method == "outcome_dist" else ()
    psi = PartialRealization({e: 2, 3: 2})
    if method == "outcome_dist(e)":  # the queried element itself
        method, args, psi = "outcome_dist", (e,), PartialRealization({3: 2})
    with pytest.raises(MalformedInputError, match=f"^element {e} outside ground set of size 7$"):
        getattr(prior, method)(*args, psi)


def test_bags_param_guards():
    with pytest.raises(MalformedInputError):
        build_bags(0)
    with pytest.raises(TooLargeError):
        build_bags(13)
    b1 = build_bags(1)
    assert b1.n == 1 and list(b1.prior.support()) == [((0,), 1.0)]


def test_bags_support_uniform(bags2):
    rows = list(bags2.prior.support())
    assert len(rows) == 3
    for _phi, w in rows:
        assert math.isclose(w, 1.0 / 3.0)
    # every decomposition uses bag 0 once and bag 1 twice
    for phi, _w in rows:
        assert sorted(phi) == [0, 1, 1]


def test_bags_outcome_dist_free_slots(bags2):
    assert bags2.prior.outcome_dist(0, EMPTY) == ((0, 1.0 / 3.0), (1, 2.0 / 3.0))
    psi = PartialRealization([(1, 0)])  # bag 0 taken by element 1
    assert bags2.prior.outcome_dist(0, psi) == ((1, 1.0),)


def test_bags_capacity_consistency(bags2):
    with pytest.raises(InconsistentObservationError):
        # bag 0 holds one element; two claims are inconsistent
        bags2.prior.mass(PartialRealization([(0, 0), (1, 0)])) or bags2.prior.condition(
            PartialRealization([(0, 0), (1, 0)])
        )


def test_bags_mass_matches_support(bags3):
    rows = list(bags3.prior.support())
    for psi in (EMPTY, PartialRealization([(0, 2)]), PartialRealization([(1, 1), (2, 2)])):
        brute = math.fsum(
            w for phi, w in rows if all(phi[e] == o for e, o in psi.pairs)
        )
        assert math.isclose(bags3.prior.mass(psi), brute, abs_tol=1e-12)


def _sequential_bags_mass(sizes, base: PartialRealization, psi: PartialRealization) -> float:
    """P(psi | base) on bags, written from the definition: 0 when psi disagrees
    with base or the merged view leaves a bag id range or overfills a bag; else
    the product of free-slot draws over psi's new pairs in element order."""
    merged = dict(base.pairs)
    for e, o in psi.pairs:
        if merged.setdefault(e, o) != o:
            return 0.0
    labels = list(merged.values())
    if any(not 0 <= o < len(sizes) or labels.count(o) > sizes[o] for o in labels):
        return 0.0
    free = [c - sum(1 for _e, o in base.pairs if o == j) for j, c in enumerate(sizes)]
    left = sum(sizes) - len(base)
    p = 1.0
    for e, o in psi.pairs:
        if e in base:
            continue
        p *= free[o] / left
        free[o] -= 1
        left -= 1
    return p


@pytest.mark.parametrize("k", [3, 4])
def test_bags_mass_equals_the_sequential_definition(k):
    """mass is bit-identical to the definition on random full and partial
    views, consistent or not, with and without a conditioned base."""
    rng = np.random.default_rng(k)
    prior = build_bags(k).prior
    n = prior.n
    seen = {"positive": 0, "zero": 0}
    for trial in range(300):
        phi = prior.sample(rng)
        base = EMPTY
        if trial % 2:
            picked = rng.choice(n, size=int(rng.integers(1, 4)), replace=False)
            base = PartialRealization.project(phi, picked)
        if trial % 3 == 0:
            # Random labels, some past the last bag: mostly inconsistent views.
            labels = [int(o) for o in rng.integers(-1, k + 1, size=n)]
        else:
            labels = list(phi if trial % 5 else prior.sample(rng))
        size = n if trial % 4 == 0 else int(rng.integers(0, n + 1))
        elements = sorted(int(e) for e in rng.choice(n, size=size, replace=False))
        psi = PartialRealization((e, labels[e]) for e in elements)
        want = _sequential_bags_mass(prior.sizes, base, psi)
        assert (prior.condition(base) if len(base) else prior).mass(psi) == want, (base, psi)
        seen["positive" if want > 0 else "zero"] += 1
    assert min(seen.values()) > 20, seen


def test_bags_reveal_returns_bag_mates(bags2):
    phi = (1, 0, 1)  # elements 0 and 2 share the size-two bag
    assert bags2.observe(phi, 0) == [(0, 1), (2, 1)]
    assert bags2.observe(phi, 1) == [(1, 0)]


def test_bags_sampling_chi_square(bags3):
    """Uniformity over all 105 decompositions, fixed seed, 10^4 draws."""
    rng = np.random.default_rng(12345)
    support = [phi for phi, _ in bags3.prior.support()]
    index = {phi: i for i, phi in enumerate(support)}
    counts = np.zeros(len(support))
    trials = 10_000
    for _ in range(trials):
        counts[index[bags3.prior.sample(rng)]] += 1
    expected = trials / len(support)
    stat = float(((counts - expected) ** 2 / expected).sum())
    # df = 104: mean 104, sd ~14.4; 160 is a > 3.8 sigma ceiling
    assert stat < 160.0, stat


def test_bags_conditional_sampling(bags2):
    rng = np.random.default_rng(0)
    cond = bags2.prior.condition(PartialRealization([(2, 1)]))
    seen = {cond.sample(rng) for _ in range(200)}
    assert seen == {(0, 1, 1), (1, 0, 1)}


def test_bags_fast_hooks_match_generic(bags3):
    plain = dataclasses.replace(bags3, fast_sav=None)
    states = [
        SemiAdaptiveState.make(EMPTY, ()),
        SemiAdaptiveState.make(EMPTY, (0, 3)),
        SemiAdaptiveState.make(PartialRealization([(0, 2), (1, 2)]), (0, 1, 4)),
    ]
    for state in states:
        cands = [e for e in range(bags3.n) if e not in state.psi and e not in state.pending]
        ctx = PolicyContext(theta=None, seed=EXACT_SEED)
        fast = sav_values(bags3, state.psi, list(state.pending), cands, ctx)
        slow = sav_values(plain, state.psi, list(state.pending), cands, ctx)
        assert np.allclose(fast, slow, atol=1e-9), (state, fast, slow)
        fm = marginals_for(bags3, state.psi, cands)
        sm = marginals_for(plain, state.psi, cands)
        assert np.allclose(fm, sm, atol=1e-9)
    # Random states: a non-empty psi from a sampled realization and 0-3
    # pending elements.
    for k in (3, 4):
        inst = build_bags(k)
        plain = dataclasses.replace(inst, fast_sav=None)
        rng = np.random.default_rng(k)
        for _ in range(30):
            order = [int(e) for e in rng.permutation(inst.n)]
            cut = int(rng.integers(1, inst.n - 3))
            phi = inst.prior.sample(rng)
            psi = PartialRealization([(e, phi[e]) for e in order[:cut]])
            pending = order[cut: cut + int(rng.integers(0, 4))]
            cands = [e for e in range(inst.n) if e not in psi and e not in pending]
            # Quotas below the bag count cap the utility (1.5 and 2.0 on both sizes).
            for cap in (None, 1.5, 2.0, inst.coverage.quota):
                ctx = PolicyContext(seed=EXACT_SEED)
                fast, fast_ref = _sav_and_denom(inst, psi, pending, cands, ctx, cap)
                slow, slow_ref = _sav_and_denom(plain, psi, pending, cands, ctx, cap)
                assert np.allclose(fast, slow, rtol=0, atol=1e-12), (psi, pending, cap)
                assert abs(fast_ref - slow_ref) <= 1e-12, (psi, pending, cap)
                assert not ctx.flags


def test_bags_hooks_apply_quota_cap():
    # A quota below the bag count caps the count utility; the hooks must score
    # min(f, quota) as the hook-free path does.
    inst = dataclasses.replace(build_bags(3), coverage=CoverageSpec(quota=2.0, eta=1.0))
    plain = dataclasses.replace(inst, fast_sav=None)
    for pol in (semi_adaptive_greedy_coverage(0.1), semi_adaptive_greedy_coverage(0.2, "ig"),
                greedy_coverage()):
        fast, slow = evaluate_exact(pol, inst), evaluate_exact(pol, plain)
        assert fast.flags == slow.flags == ()
        assert [fast.f_avg, fast.c_avg, fast.expected_rounds] == pytest.approx(
            [slow.f_avg, slow.c_avg, slow.expected_rounds], rel=0, abs=1e-12), pol.name
    rep = evaluate_exact(semi_adaptive_greedy_coverage(0.1), inst)
    assert rep.f_avg == pytest.approx(8 / 3) and rep.c_avg == pytest.approx(5.0)


# --- truncation pair --------------------------------------------------------------


def test_truncation_pair_realizations(trunc_pair):
    f_inst, g_inst = trunc_pair
    rows = list(f_inst.prior.support())
    assert len(rows) == 4
    for _phi, w in rows:
        assert math.isclose(w, 0.25)
    f = f_inst.utility
    assert f(PartialRealization([(0, 1), (1, 1)])) == 2.0
    assert f(PartialRealization([(0, 1), (1, 0)])) == 0.0
    assert f(PartialRealization([(0, 1)])) == 1.0
    assert f(PartialRealization([(2, 0)])) == 1.0
    g = g_inst.utility
    assert g(PartialRealization([(0, 1), (1, 1), (2, 0)])) == 1.0
    assert g(EMPTY) == 0.0


# --- stochastic cover family -------------------------------------------------------


def test_stochastic_cover_shape_and_eta():
    inst = build_stochastic_cover(5, 8, 2, seed=4)
    assert inst.n == 5 and inst.num_outcomes == 2
    assert inst.coverage is not None and inst.coverage.quota == 8.0
    assert verify_eta(inst).satisfied
    # universal anchors make full coverage reachable in every realization
    assert optimal_coverage_cost(inst) <= 5.0


def test_stochastic_cover_integer_values():
    inst = build_stochastic_cover(4, 6, 2, seed=9)
    for phi, _w in inst.prior.support():
        v = inst.utility(PartialRealization.project(phi, range(inst.n)))
        assert v == int(v)


def test_stochastic_cover_deterministic_generation():
    a = instance_to_doc(build_stochastic_cover(4, 6, 2, seed=3))
    b = instance_to_doc(build_stochastic_cover(4, 6, 2, seed=3))
    assert a == b
    c = instance_to_doc(build_stochastic_cover(4, 6, 2, seed=4))
    assert c != a


def test_cover_hooks_match_generic():
    inst = build_stochastic_cover(5, 8, 2, seed=1)
    plain = dataclasses.replace(inst, fast_sav=None)
    states = [
        SemiAdaptiveState.make(EMPTY, ()),
        SemiAdaptiveState.make(EMPTY, (1, 3)),
        SemiAdaptiveState.make(PartialRealization([(0, 1)]), (0, 2)),
    ]
    for state in states:
        cands = [e for e in range(inst.n) if e not in state.psi and e not in state.pending]
        ctx = PolicyContext(theta=None, seed=EXACT_SEED)
        fast = sav_values(inst, state.psi, list(state.pending), cands, ctx)
        slow = sav_values(plain, state.psi, list(state.pending), cands, ctx)
        assert np.allclose(fast, slow, atol=1e-9)
        for cap in (None, inst.coverage.quota, 2.0):
            fm = marginals_for(inst, state.psi, cands, cap)
            sm = marginals_for(plain, state.psi, cands, cap)
            assert np.allclose(fm, sm, atol=1e-9), (state, cap)


def test_cover_sav_mc_fallback_flags(monkeypatch):
    monkeypatch.setenv("ADASUB_BRANCH_CAP", "2")
    monkeypatch.setenv("ADASUB_MC_FALLBACK", "500")
    inst = build_stochastic_cover(5, 8, 2, seed=1)
    ctx = PolicyContext(theta=None, seed=7)
    sav_values(inst, EMPTY, [0, 1, 2], [3, 4], ctx)
    assert "sav-mc" in ctx.flags


def _weighted_cover(n, universe, m, seed):
    """A cover with unequal item weights (one of them zero) and one element
    with a zero-mass outcome."""
    doc = instance_to_doc(build_stochastic_cover(n, universe, m, seed=seed))
    doc["utility"]["weights"] = [0.0] + [0.5 + 0.25 * (u % 4) for u in range(1, universe)]
    doc["prior"]["marginals"][0] = [0.0] + [1.0 / (m - 1)] * (m - 1)
    doc["coverage"]["quota"] = sum(doc["utility"]["weights"])
    return instance_from_doc(doc)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
def test_cover_hooks_match_generic_random_states(m, weighted):
    n, universe = 8, 12
    build = _weighted_cover if weighted else build_stochastic_cover
    inst = build(n, universe, m, seed=20 + m)
    plain = dataclasses.replace(inst, fast_sav=None)
    rng = np.random.default_rng([m, weighted])
    sub_rng = np.random.default_rng([m, weighted, 1])
    for _ in range(6):
        order = [int(e) for e in rng.permutation(n)]
        cut = int(rng.integers(0, n - 1))
        phi = inst.prior.sample(rng)
        psi = PartialRealization([(e, phi[e]) for e in order[:cut]])
        pending = order[cut: cut + int(rng.integers(0, min(6, n - cut - 1) + 1))]
        cands = [e for e in range(n) if e not in psi and e not in pending]
        # The reference term ranges over every unblocked element, so a strict
        # subset of candidates must leave it unchanged.
        subset = sorted(int(e) for e in sub_rng.choice(
            cands, size=int(sub_rng.integers(0, len(cands))), replace=False))
        for cs in (cands, subset):
            for cap in (None, inst.coverage.quota, 2.0):
                ctx = PolicyContext(seed=EXACT_SEED)
                fast, fast_ref = _sav_and_denom(inst, psi, pending, cs, ctx, cap)
                slow, slow_ref = _sav_and_denom(plain, psi, pending, cs, ctx, cap)
                assert np.allclose(fast, slow, rtol=0, atol=1e-12), (psi, pending, cs, cap)
                assert abs(fast_ref - slow_ref) <= 1e-12, (psi, pending, cs, cap)
                assert not ctx.flags
    # Every element observed or pending: zero scores and a zero reference term.
    psi = PartialRealization([(e, phi[e]) for e in order[:-2]])
    for target in (inst, plain):
        for cs in ([], order[-2:] + order[:1]):
            scores, ref = _sav_and_denom(target, psi, order[-2:], cs, PolicyContext(seed=0))
            assert scores == [0.0] * len(cs) and ref == 0.0


def test_cover_uncapped_scores_exact_past_branch_cap(monkeypatch):
    inst = build_stochastic_cover(5, 8, 2, seed=1)
    batch, cands, quota = [0, 1, 2], [3, 4], inst.coverage.quota
    exact = sav_values(inst, EMPTY, batch, cands, PolicyContext(seed=7))
    exact_ref = _sav_and_denom(inst, EMPTY, batch, cands, PolicyContext(seed=7))[1]
    exact_capped = sav_values(inst, EMPTY, batch, cands, PolicyContext(seed=7), quota)
    # A cover whose batch outcomes matter to the reference term.
    wide = build_stochastic_cover(8, 16, 3, seed=5)
    wide_args = (wide, EMPTY, [0, 1, 2, 3, 4], [5, 6, 7])
    wide_ref = _sav_and_denom(*wide_args, PolicyContext(seed=7))[1]
    monkeypatch.setenv("ADASUB_BRANCH_CAP", "2")
    monkeypatch.setenv("ADASUB_MC_FALLBACK", "500")
    assert np.allclose(sav_values(inst, EMPTY, batch, cands, PolicyContext(seed=7)), exact,
                       rtol=0, atol=1e-12)
    ctx = PolicyContext(seed=7)
    sampled_ref = _sav_and_denom(inst, EMPTY, batch, cands, ctx)[1]
    assert sampled_ref != exact_ref and "sav-mc" in ctx.flags
    # The samples follow the prior: 500 draws land within 10% (3.2% here).
    assert abs(_sav_and_denom(*wide_args, PolicyContext(seed=7))[1] - wide_ref) < 0.1 * wide_ref
    ctx = PolicyContext(seed=7)
    information_gap(inst, SemiAdaptiveState.make(EMPTY, batch), ctx)
    assert "sav-mc" in ctx.flags
    ctx = PolicyContext(seed=7)
    assert sav_values(inst, EMPTY, batch, cands, ctx, quota) != exact_capped
    assert "sav-mc" in ctx.flags


def _live_items(inst, psi, pending):
    """Items an allowed element can still gain on once the batch resolves:
    uncovered by psi, of positive weight, missed with positive mass by every
    pending element and covered with positive mass by an allowed element."""
    covers, weights = inst.utility.covers, inst.utility.weights
    marg = inst.prior.marginals

    def outcomes(e):
        return [covers[e][o] for o, q in enumerate(marg[e]) if q > 0]

    covered = set().union(*(covers[e][o] for e, o in psi.pairs))
    allowed = [e for e in range(inst.n) if e not in psi and e not in pending]
    return {
        u for u in range(inst.utility.universe)
        if u not in covered and (weights is None or weights[u] > 0)
        and all(any(u not in s for s in outcomes(p)) for p in pending)
        and any(u in s for e in allowed for s in outcomes(e))
    }


def _grown_batches(inst, rng, count):
    """count random states (psi, pending, live items): psi a random prefix of
    a random order, pending grown along the rest until no item is live, with
    at least one element left outside both."""
    for _ in range(count):
        order = [int(e) for e in rng.permutation(inst.n)]
        cut = int(rng.integers(0, inst.n - 1))
        phi = inst.prior.sample(rng)
        psi = PartialRealization([(e, phi[e]) for e in order[:cut]])
        for j in range(cut, inst.n):
            live = _live_items(inst, psi, order[cut:j])
            yield psi, order[cut:j], live
            if not live:
                break


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
def test_cover_dead_batches_settle_without_branches(m, weighted, monkeypatch):
    n, universe = 8, 12
    build = _weighted_cover if weighted else build_stochastic_cover
    inst = build(n, universe, m, seed=20 + m)
    plain = dataclasses.replace(inst, fast_sav=None)
    dead = [(psi, pending) for psi, pending, live in
            _grown_batches(inst, np.random.default_rng([m, weighted, 2]), 40) if not live]
    assert len(dead) >= 6 and any(len(p) >= 3 for _psi, p in dead)
    cases = []
    for psi, pending in dead:
        cands = [e for e in range(n) if e not in psi and e not in pending]
        for cap in (None, inst.coverage.quota, 2.0):
            slow, slow_ref = _sav_and_denom(plain, psi, pending, cands, PolicyContext(seed=0), cap)
            cases.append((psi, pending, cands, cap, slow, slow_ref))
    # Past the branch cap too, a dead batch is neither sampled nor flagged.
    for branch_cap in (None, "2"):
        if branch_cap is not None:
            monkeypatch.setenv("ADASUB_BRANCH_CAP", branch_cap)
        for psi, pending, cands, cap, slow, slow_ref in cases:
            ctx = PolicyContext(seed=0)
            fast, fast_ref = _sav_and_denom(inst, psi, pending, cands, ctx, cap)
            assert np.allclose(fast, slow, rtol=0, atol=1e-12), (psi, pending, cap)
            assert abs(fast_ref - slow_ref) <= 1e-12 and fast_ref == 0.0
            assert not ctx.flags and ctx._rng is None, (psi, pending, cap, branch_cap)


def test_cover_one_live_item_still_branches(monkeypatch):
    inst = build_stochastic_cover(8, 12, 2, seed=22)
    plain = dataclasses.replace(inst, fast_sav=None)
    psi, pending = next(
        (psi, pending) for psi, pending, live in
        _grown_batches(inst, np.random.default_rng(3), 40)
        if len(live) == 1 and len(pending) >= 2
    )
    cands = [e for e in range(inst.n) if e not in psi and e not in pending]
    ctx = PolicyContext(seed=0)
    fast, fast_ref = _sav_and_denom(inst, psi, pending, cands, ctx)
    slow, slow_ref = _sav_and_denom(plain, psi, pending, cands, PolicyContext(seed=0))
    assert np.allclose(fast, slow, rtol=0, atol=1e-12) and abs(fast_ref - slow_ref) <= 1e-12
    assert fast_ref > 0.0 and not ctx.flags
    monkeypatch.setenv("ADASUB_BRANCH_CAP", "2")
    ctx = PolicyContext(seed=0)
    _sav_and_denom(inst, psi, pending, cands, ctx)
    assert "sav-mc" in ctx.flags and ctx._rng is not None


@pytest.mark.parametrize("U", [10, 64, 70])
@pytest.mark.parametrize("weighted", [False, True], ids=["unit", "zero-weights"])
def test_cover_tables_item_words_match_packed_grid(U, weighted):
    # The reference is the definition: (e, o) covers item u when u is in its
    # cover set and u has positive weight; packed into little-endian words.
    rng = np.random.default_rng(U)
    n, m = 6, 3
    covers = [[[u for u in range(U) if rng.random() < 0.3] for _o in range(m - e % 2)]
              for e in range(n)]
    weights = [float(w) for w in rng.integers(0, 3, size=U)] if weighted else None
    utility = CoverUtility(U, covers, weights)
    prior = ProductPrior([[0.5, 0.5, 0.0] if e == 0 else [1 / 3] * 3 for e in range(n)])
    t = _CoverTables(prior, utility)
    grid = np.zeros((n, m, U), dtype=bool)
    for e, per_element in enumerate(covers):
        for o, items in enumerate(per_element):
            for u in items:
                grid[e, o, u] = weights is None or weights[u] > 0
    if weighted:
        assert 0.0 in weights and grid.any()
        assert any(weights[u] == 0.0 for per_element in covers for s in per_element for u in s)
    assert t.cover.dtype == bool and np.array_equal(t.cover, grid)
    assert t.mask.dtype == float and np.array_equal(t.mask, grid.astype(float))
    padded = np.pad(grid, ((0, 0), (0, 0), (0, -U % 64)))
    words = np.packbits(padded, axis=2, bitorder="little").view(np.uint64)
    reach, leave = [0] * n, [0] * n
    for e, o in zip(*np.nonzero(t.marg > 0)):
        bits = int.from_bytes(words[e, o].tobytes(), "little")
        reach[e] |= bits
        leave[e] |= ~bits & ((1 << U) - 1)
    assert t.words.dtype == words.dtype and t.words.shape == words.shape
    assert np.array_equal(t.words, words)
    assert (t.reach, t.leave) == (reach, leave)


# --- random tabular family -----------------------------------------------------------


def test_tabular_certified_first_draw():
    # The builder no longer certifies its draws; this keeps the guard over the
    # whole acceptance corpus.
    from adasub.verifiers import check_adaptive_monotone, check_adaptive_submodular

    for s in range(100):
        inst = build_random_tabular(3 + s % 4, 5 + s % 4, s)
        assert check_adaptive_submodular(inst).satisfied, inst.name
        assert check_adaptive_monotone(inst).satisfied, inst.name


def test_tabular_m1_is_deterministic():
    inst = build_random_tabular(3, 1, seed=2)
    assert inst.prior.support_size() == 1


def test_tabular_param_guards():
    with pytest.raises(MalformedInputError):
        build_random_tabular(0, 1)
    with pytest.raises(MalformedInputError):
        build_random_tabular(3, 9)  # m > 2^n


def test_tabular_uniform_weights_allowed():
    inst = build_random_tabular(3, 4, seed=1)
    total = math.fsum(w for _, w in inst.prior.support())
    assert math.isclose(total, 1.0, abs_tol=1e-9)


# --- serialization ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "fname", ["bags-k3.json", "trunc-f.json", "trunc-g.json", "tab-n3-m4-s5.json"]
)
def test_golden_round_trip_bit_exact(fname, tmp_path):
    src = GOLDEN / fname
    inst = load_instance(str(src))
    out = tmp_path / fname
    save_instance(inst, str(out))
    assert out.read_bytes() == src.read_bytes()


def test_golden_files_match_builders(tmp_path):
    built = {
        "bags-k3.json": build_bags(3),
        "trunc-f.json": build_truncation_pair()[0],
        "trunc-g.json": build_truncation_pair()[1],
        "tab-n3-m4-s5.json": build_random_tabular(3, 4, seed=5),
    }
    for fname, inst in built.items():
        out = tmp_path / fname
        save_instance(inst, str(out))
        assert out.read_bytes() == (GOLDEN / fname).read_bytes(), fname


def _replaced(case):
    """An instance whose prior or utility dataclasses.replace swapped."""
    cover, bags = build_stochastic_cover(6, 10, 2, seed=1), build_bags(3)
    u = cover.utility
    if case == "cover-prior":
        return dataclasses.replace(cover, prior=ProductPrior([[0.9, 0.1]] * 6))
    if case == "cover-weights":
        weights = [0.5 + 0.25 * (i % 7) for i in range(u.universe)]
        return dataclasses.replace(cover, utility=CoverUtility(u.universe, u.covers, weights))
    return dataclasses.replace(bags, utility=ModularUtility([[e, 0, 0] for e in range(7)]))


@pytest.mark.parametrize("case", ["cover-prior", "cover-weights", "bags-modular"])
def test_replaced_prior_or_utility_scores_the_new_model(case):
    inst = _replaced(case)
    plain = dataclasses.replace(inst, fast_sav=None)
    # The hooks a fresh build of the new pair gets, bound to no earlier model.
    fresh = dataclasses.replace(inst, **_hooks(inst.prior, inst.utility))
    if case == "cover-prior":  # the definition's figures; the stale hook read 3.904, 2.749, 7.519
        assert marginals_for(inst, EMPTY, [2, 3, 4]) == pytest.approx([4.8, 2.2, 7.8], abs=1e-12)
    rng = np.random.default_rng(27)
    for _ in range(20):
        phi = inst.prior.sample(rng)
        order = [int(e) for e in rng.permutation(inst.n)]
        cut = int(rng.integers(0, inst.n - 1))
        psi = PartialRealization([(e, phi[e]) for e in order[:cut]])
        pending = order[cut: cut + int(rng.integers(0, 3))]
        cands = order[cut:]
        for cap in (None, 2.0):
            got = [marginals_for(x, psi, cands, cap) for x in (inst, fresh, plain)]
            got += [sav_values(x, psi, pending, None, PolicyContext(seed=EXACT_SEED), cap)
                    for x in (inst, fresh, plain)]
            for hooked, same, definition in (got[:3], got[3:]):
                assert hooked == same, (psi, pending, cap)
                assert hooked == pytest.approx(definition, rel=0, abs=1e-12), (psi, pending, cap)
    for pol in (greedy_max(1), greedy_max(3), semi_adaptive_greedy_max(3, 0.2)):
        assert evaluate_exact(pol, inst) == evaluate_exact(pol, plain), pol.name


def test_cover_tables_go_with_their_instance():
    inst = build_stochastic_cover(6, 10, 2, seed=1)
    marginals_for(inst, EMPTY, [0])
    held, tables = weakref.ref(inst), weakref.ref(_COVER_TABLES[inst])
    del inst
    gc.collect()
    assert held() is None and tables() is None


@pytest.mark.parametrize("e", [-1, "n"])
@pytest.mark.parametrize("hooked", [True, False], ids=["hooked", "plain"])
@pytest.mark.parametrize("family", ["cover", "bags"])
def test_scoring_entry_points_reject_elements_outside_ground_set(family, hooked, e):
    inst = build_stochastic_cover(6, 10, 2, seed=1) if family == "cover" else build_bags(3)
    if not hooked:
        inst = dataclasses.replace(inst, fast_sav=None)
    e = inst.n if e == "n" else e
    state, pending_e = SemiAdaptiveState.make(EMPTY, [0]), SemiAdaptiveState.make(EMPTY, [e])
    for score in (lambda: marginals_for(inst, EMPTY, [1, e]),
                  lambda: sav_values(inst, EMPTY, [0], [e]),
                  lambda: sav_values(inst, EMPTY, [e], [1]),  # a pending element too
                  lambda: semi_adaptive_value(inst, state, e),
                  lambda: semi_adaptive_value(inst, pending_e, 1)):
        with pytest.raises(MalformedInputError,
                           match=f"^element {e} outside ground set of size {inst.n}$"):
            score()


@pytest.mark.parametrize("pair", ["-1", "n", "m"])
@pytest.mark.parametrize("hooked", [True, False], ids=["hooked", "plain"])
@pytest.mark.parametrize("family", ["cover", "bags"])
def test_scoring_entry_points_reject_psi_out_of_range(family, hooked, pair):
    inst = build_stochastic_cover(6, 10, 2, seed=1) if family == "cover" else build_bags(3)
    if not hooked:
        inst = dataclasses.replace(inst, fast_sav=None)
    e, o = {"-1": (-1, 0), "n": (inst.n, 0), "m": (0, inst.num_outcomes)}[pair]
    psi = PartialRealization({e: o})
    message = (f"^outcome {o} outside label range of size {o}$" if pair == "m"
               else f"^element {e} outside ground set of size {inst.n}$")
    for score in (lambda: marginals_for(inst, psi, [1, 2]),
                  lambda: sav_values(inst, psi, [], [1]),
                  lambda: sav_values(inst, psi, [1], [2]),
                  lambda: semi_adaptive_value(inst, SemiAdaptiveState.make(psi, [1]), 2)):
        with pytest.raises(MalformedInputError, match=message):
            score()


@pytest.mark.parametrize("case", ["psi-1", "psi-n", "psi-m", "pending-1", "pending-n"])
@pytest.mark.parametrize("hooked", [True, False], ids=["hooked", "plain"])
@pytest.mark.parametrize("family", ["cover", "bags"])
def test_gap_ratios_reject_states_out_of_range(family, hooked, case):
    inst = build_stochastic_cover(6, 10, 2, seed=1) if family == "cover" else build_bags(3)
    if not hooked:
        inst = dataclasses.replace(inst, fast_sav=None)
    n, m = inst.n, inst.num_outcomes
    psi, pending, message = {
        "psi-1": ({-1: 0}, [1], f"^element -1 outside ground set of size {n}$"),
        "psi-n": ({n: 0}, [1], f"^element {n} outside ground set of size {n}$"),
        "psi-m": ({0: m}, [1], f"^outcome {m} outside label range of size {m}$"),
        "pending-1": ({0: 0}, [-1], f"^element -1 outside ground set of size {n}$"),
        "pending-n": ({0: 0}, [n], f"^element {n} outside ground set of size {n}$"),
    }[case]
    state = SemiAdaptiveState.make(PartialRealization(psi), pending)
    for gap in (information_gap, restricted_information_gap):
        with pytest.raises(MalformedInputError, match=message):
            gap(inst, state)


def test_conditioned_bags_prior_is_scored_by_the_definition(bags3):
    # The hook models an unconditioned prior, so it declines this one: the
    # free elements score 0.75 (3 of 4 open slots lie in unseen bags), and
    # elements 0 and 1, observed by the prior, are no candidates.
    cond = dataclasses.replace(bags3, prior=bags3.prior.condition(PartialRealization({0: 2, 1: 2})))
    psi = PartialRealization({2: 2})
    for inst in (cond, dataclasses.replace(cond, fast_sav=None)):
        assert marginals_for(inst, psi, [3, 4, 5, 6]) == [0.75] * 4
        with pytest.raises(AlreadyObservedError, match="^element 0 already observed$"):
            sav_values(inst, psi, [])


def test_loaded_instances_keep_hooks(tmp_path):
    src = GOLDEN / "bags-k3.json"
    inst = load_instance(str(src))
    assert inst.reveal is not None and inst.fast_sav is not None
    cover = build_stochastic_cover(4, 6, 2, seed=0)
    p = tmp_path / "c.json"
    save_instance(cover, str(p))
    loaded = load_instance(str(p))
    assert loaded.fast_sav is not None
    assert marginals_for(loaded, EMPTY, [0, 1]) == marginals_for(cover, EMPTY, [0, 1])


def test_doc_round_trip_semantics():
    inst = build_stochastic_cover(4, 6, 2, seed=7)
    doc = instance_to_doc(inst)
    again = instance_from_doc(doc)
    assert instance_to_doc(again) == doc


def test_loader_diagnostics(tmp_path):
    def write(doc):
        p = tmp_path / "x.json"
        p.write_text(json.dumps(doc))
        return str(p)

    base = json.loads((GOLDEN / "tab-n3-m4-s5.json").read_text())

    missing = dict(base)
    del missing["prior"]
    with pytest.raises(MalformedInputError, match="prior"):
        load_instance(write(missing))

    bad_label = json.loads(json.dumps(base))
    bad_label["prior"]["rows"][0]["outcomes"][0] = 7
    with pytest.raises(MalformedInputError, match=r"prior\.rows\[0\]"):
        load_instance(write(bad_label))

    bad_sum = json.loads(json.dumps(base))
    for row in bad_sum["prior"]["rows"]:
        row["weight"] = 0.1
    with pytest.raises(MalformedInputError, match="sum"):
        load_instance(write(bad_sum))

    bad_family = json.loads(json.dumps(base))
    bad_family["utility"] = {"family": "nope"}
    with pytest.raises(MalformedInputError, match="family"):
        load_instance(write(bad_family))

    with pytest.raises(MalformedInputError):
        load_instance(str(tmp_path / "missing.json"))

    syntactically_bad = tmp_path / "bad.json"
    syntactically_bad.write_text("{not json")
    with pytest.raises(MalformedInputError, match="invalid syntax"):
        load_instance(str(syntactically_bad))


def test_weight_sum_tolerance(tmp_path):
    base = json.loads((GOLDEN / "tab-n3-m4-s5.json").read_text())
    total = sum(r["weight"] for r in base["prior"]["rows"])
    assert math.isclose(total, 1.0, abs_tol=1e-6)
    # nudge inside the documented 1e-6 input tolerance: accepted and renormalized
    base["prior"]["rows"][0]["weight"] += 5e-7
    p = tmp_path / "x.json"
    p.write_text(json.dumps(base))
    inst = load_instance(str(p))
    assert math.isclose(math.fsum(w for _, w in inst.prior.support()), 1.0, abs_tol=1e-12)


def test_cover_utility_weighted_grid():
    u = CoverUtility(3, [[[0, 2], [1]], [[], [0]]], weights=[1.0, 2.0, 4.0])
    assert u(PartialRealization([(0, 0)])) == 5.0
    assert u(PartialRealization([(0, 1), (1, 1)])) == 3.0
