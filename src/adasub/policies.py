"""Policy constructors: greedy, threshold, semi-adaptive, batch, and DP-optimal.

Every constructor returns an engine.Policy whose play() generator follows the
Select/Query/Stop protocol.  Policies keep their own view of observations
(accumulated Query responses); the runner owns the global trace.

The greedy, coverage, threshold, semi-adaptive and fixed-batch policies are
one generator, _greedy, run with different budgets, observe rules and accept
rules, with or without the instance's coverage goal; it scores every decision
state, gap tests included, through _sav_and_denom.  calibrate_tau walks it
over the support with engine._walk to read off score paths.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable
from weakref import WeakKeyDictionary

from .engine import (
    EXACT_SEED,
    QUERY,
    Policy,
    PolicyContext,
    Select,
    _checked_support,
    _walk,
    argmax_pairs,
    cap_value,
    marginals_for,
)
from .errors import InfeasibleError, MalformedInputError, TooLargeError
from .model import (
    EMPTY,
    AlreadyObservedError,
    CoverageSpec,
    Instance,
    PartialRealization,
)

# Tolerance for score-versus-threshold equality.  Thresholds are produced by
# the same arithmetic that produces scores, so exact ties are the common case
# and this only absorbs last-bit noise.
_EQ_TOL = 1e-12

# Value-versus-quota tolerance for coverage stopping.  The precision
# parameter eta of a coverage instance is assumed to exceed this, which
# verify_eta checks explicitly.
_COVER_TOL = 1e-9


def _goal(inst: Instance) -> CoverageSpec:
    if inst.coverage is None:
        raise MalformedInputError(f"instance {inst.name} has no coverage goal")
    return inst.coverage


def covered(inst: Instance, psi: PartialRealization) -> bool:
    return inst.utility(psi) >= _goal(inst).quota - _COVER_TOL


# --- the greedy kernel, shared by every marginal-driven policy ---------------


def _greedy(
    inst: Instance,
    ctx: PolicyContext,
    budget: int,
    *,
    every: int,
    eps: float | None = None,
    gap: str = "ig",
    cover: bool = False,
    accept: Callable[[float], bool] | None = None,
):
    """The greedy loop behind every marginal-driven policy.

    Each step picks the unselected element with the best score, ties to the
    smallest id, until `budget` elements are selected.  Every decision scores
    expected marginals after the pending batch resolves through
    _sav_and_denom; with nothing pending that is the sequential greedy score.

    Observation happens after every `every` picks (policies that observe only
    at the end pass their budget) and, with eps given, whenever the gap ratio
    of a non-empty batch drops below 1 - eps.  With cover, the instance's
    coverage goal caps scores at its quota, ranks them per unit of inst.cost
    and stops the run once the quota is reached; when nothing left helps in
    expectation the batch is resolved first, and with no batch outstanding
    the run ends flagged "uncovered".
    accept sees each best score before its pick; False observes the batch and
    ends the run.
    """
    cap = _goal(inst).quota if cover else None
    view: dict[int, int] = {}
    selected: set[int] = set()
    pending: list[int] = []
    while True:
        psi = PartialRealization(view)
        if cover and covered(inst, psi):
            return
        stuck = len(selected) >= budget
        if not stuck:
            cands = [e for e in range(inst.n) if e not in selected]
            scores, denom = _sav_and_denom(inst, psi, pending, cands, ctx, cap)
            if not cover:
                e, best = argmax_pairs(zip(cands, scores))
            else:
                e, best = argmax_pairs((c, s / inst.cost(c)) for c, s in zip(cands, scores))
                # Nothing left helps in expectation, either because the batch
                # already reaches the quota on every branch or because the
                # quota is out of reach.
                stuck = best <= _EQ_TOL
        if stuck and not pending:
            if cover:
                ctx.flags.add("uncovered")
            return
        observe = stuck  # with a batch outstanding, resolve it and look again
        if not stuck and eps is not None and pending:
            observe = _gap_ratio(inst, psi, scores, denom, gap, ctx, cap) < 1.0 - eps - _EQ_TOL
        if not observe:
            if accept is not None and not accept(best):
                if pending:
                    yield QUERY
                return
            selected.add(e)
            pending.append(e)
            yield Select(e)
            observe = len(pending) >= every
        if observe:
            resp = yield QUERY
            view.update(resp)
            pending.clear()


def greedy_max(k: int) -> Policy:
    """Fully adaptive greedy: k rounds of select-best-marginal then observe."""
    if k < 0:
        raise MalformedInputError("budget must be >= 0")

    def play(inst: Instance, ctx: PolicyContext):
        if k > inst.n:
            raise MalformedInputError(f"budget {k} exceeds ground set size {inst.n}")
        yield from _greedy(inst, ctx, k, every=1)

    return Policy(name=f"greedy(k={k})", play=play)


def greedy_coverage() -> Policy:
    """Fully adaptive cost-benefit greedy, run until the quota is reached.

    Scores are quota-capped (gains past the quota do not count), so the ratio
    rule optimizes exactly the remaining coverage headroom.  The coverage goal
    is the instance's own.
    """

    def play(inst: Instance, ctx: PolicyContext):
        yield from _greedy(inst, ctx, inst.n, every=1, cover=True)

    return Policy(name="greedy-cov", play=play)


# --- threshold policies and their calibration -------------------------------


def _passes(score: float, tau: float, inclusive: bool) -> bool:
    if inclusive:
        return score >= tau - _EQ_TOL
    return score > tau + _EQ_TOL


def threshold_policy(tau: float, coin_p: float = 0.0, mode: str = "marginal") -> Policy:
    """Greedy that stops at the threshold tau.

    One coin is flipped per run: with probability coin_p scores equal to tau
    keep the policy going (inclusive rule), otherwise they stop it (strict
    rule).  A single coin makes the expected selection count exactly linear
    in coin_p, which is what calibration relies on; per-tie coins would break
    that linearity whenever a trajectory hits the threshold more than once.
    mode "marginal" re-scores adaptively after each observation; mode "sav"
    selects a single batch scored by expected marginals over the still
    unobserved batch, then observes once.
    """
    if not 0.0 <= coin_p <= 1.0:
        raise MalformedInputError("coin_p must lie in [0, 1]")
    if mode not in ("marginal", "sav"):
        raise MalformedInputError(f"unknown threshold mode {mode!r}")

    def play(inst: Instance, ctx: PolicyContext):
        inclusive = bool(ctx.theta)
        yield from _greedy(
            inst, ctx, inst.n, every=1 if mode == "marginal" else inst.n,
            accept=lambda score: _passes(score, tau, inclusive),
        )

    name = f"threshold(tau={tau:.12g},p={coin_p:.12g}"
    name += ")" if mode == "marginal" else ",sav)"
    space = ((True, coin_p), (False, 1.0 - coin_p))
    return Policy(name=name, play=play, seed_space=space)


def _score_paths(inst: Instance, mode: str) -> list[tuple[float, list[float]]]:
    """(weight, best-score path) of the threshold kernel run to exhaustion,
    one per support row, from the leaves of its engine._walk.  Each run keeps
    its scores under its own context, and every run starts at the root, so a
    leaf's context names its whole path.  Mode "sav" observes nothing before
    its last pick, so it walks the first row alone, with weight 1, and
    checks no support cap."""
    runs: dict[PolicyContext, list[float]] = {}

    def play(inst: Instance, ctx: PolicyContext):
        scores = runs[ctx] = []
        return _greedy(inst, ctx, inst.n, every=1 if mode == "marginal" else inst.n,
                       accept=lambda score: scores.append(score) or True)

    if mode == "marginal":
        rows = _checked_support(inst, 1)
    else:
        rows = [(0, next(iter(inst.prior.support()))[0], 1.0)]
    paths = []
    for group, *_, ctx in _walk(Policy(name="threshold kernel", play=play), inst, rows, None, {}):
        scores = runs.pop(ctx)
        paths.extend((w, scores) for _j, _phi, w in group)
    return paths


def _count_until_fail(scores: list[float], tau: float, inclusive: bool) -> int:
    for t, s in enumerate(scores):
        if not _passes(s, tau, inclusive):
            return t
    return len(scores)


@dataclass(frozen=True)
class ThresholdCalibration:
    """Threshold level and coin bias realizing a target expected selection count.

    alpha and beta are the expected counts under the strict (>) and inclusive
    (>=) acceptance rules at tau_i; the coin interpolates between them, so
    alpha <= i <= beta and the calibrated policy's exact expected count is i.
    """

    tau_i: float
    i: float
    alpha: float
    beta: float
    coin_p: float

    def policy(self, mode: str = "marginal") -> Policy:
        return threshold_policy(self.tau_i, self.coin_p, mode)


def calibrate_tau(inst: Instance, i: float, mode: str = "marginal") -> ThresholdCalibration:
    """Threshold and coin bias making the stopped greedy select i elements on average.

    Scans candidate thresholds (the observed score levels, descending) for the
    first whose inclusive stop count reaches i, then interpolates between the
    strict and inclusive rules with the coin.
    """
    return _calibrations(inst, [i], mode)[0]


def _calibrations(inst: Instance, targets: list[float], mode: str = "marginal"):
    """calibrate_tau for each target, checked first, from one kernel replay."""
    if mode not in ("marginal", "sav"):
        raise MalformedInputError(f"unknown threshold mode {mode!r}")
    for i in targets:
        if i < 0 or i > inst.n:
            raise InfeasibleError(f"target count {i} outside [0, {inst.n}]")
    trajs = _score_paths(inst, mode)

    levels = sorted({s for _w, scores in trajs for s in scores}, reverse=True)
    if not levels:
        raise InfeasibleError("instance has no selectable elements")

    def scan(i: float) -> ThresholdCalibration:
        for v in levels:
            beta = math.fsum(w * _count_until_fail(scores, v, True) for w, scores in trajs)
            if beta >= i - 1e-9:
                alpha = math.fsum(w * _count_until_fail(scores, v, False) for w, scores in trajs)
                if beta - alpha <= 1e-12:
                    return ThresholdCalibration(tau_i=v, i=i, alpha=alpha, beta=beta, coin_p=0.0)
                p = min(1.0, max(0.0, (i - alpha) / (beta - alpha)))
                return ThresholdCalibration(tau_i=v, i=i, alpha=alpha, beta=beta, coin_p=p)
        raise InfeasibleError(f"no threshold reaches an average of {i} selections")

    return [scan(i) for i in targets]


# --- expected batch marginals (scores for semi-adaptive selection) ----------


def _sav_and_denom(
    inst: Instance,
    psi: PartialRealization,
    pending: list[int],
    cands: list[int],
    ctx: PolicyContext,
    cap: float | None = None,
) -> tuple[list[float], float]:
    """Batch scores and the adaptive reference term of a decision state, in
    one pass; policies score every state through here.

    Score of e: expected marginal of e after the pending batch resolves,
    E_b[ marginal(e | psi + b) ].  Reference term: E_b[ max_e marginal ] over
    every element outside psi and the batch, whatever the candidates: the
    per-branch best the fully adaptive policy would see (0.0, with zero
    scores, when no such element is left).  cap=Q scores against min(f, Q).
    The instance's fast_sav hook answers first.  Otherwise an empty batch is
    one marginals_for call, and a non-empty one is exact when its joint
    enumerates under the branch cap, else a seeded Monte Carlo fallback
    flagged "sav-mc".  The cover hook on product priors scores uncapped and
    dead batches (no reachable item left uncovered) exactly, without branches,
    so there "sav-mc" means a sample entered a nonzero reference term or score.

    Within one exact evaluation or calibration (ctx._memo set) a state is
    scored once: a call that did not read ctx.rng is kept, and later calls
    on the same state get a copy of its scores.  So a scorer that adds a flag
    must read ctx.rng in that call, or a kept call would drop it from later runs.
    """
    memo = ctx._memo
    if memo is None:
        return _score_state(inst, psi, pending, cands, ctx, cap)
    key = (psi.pairs, tuple(pending), tuple(cands), cap)
    hit = memo.get(key)
    if hit is not None:
        return list(hit[0]), hit[1]
    draws = ctx._draws
    scores, denom = _score_state(inst, psi, pending, cands, ctx, cap)
    if ctx._draws == draws:
        memo[key] = (tuple(scores), denom)
    return scores, denom


def _score_state(
    inst: Instance,
    psi: PartialRealization,
    pending: list[int],
    cands: list[int],
    ctx: PolicyContext,
    cap: float | None,
) -> tuple[list[float], float]:
    """_sav_and_denom without the memo."""
    if inst.fast_sav is not None:
        return inst.fast_sav(inst, psi, pending, cands, ctx, cap)
    blocked = set(psi.domain) | set(pending)
    free = [e for e in range(inst.n) if e not in blocked]
    if not free:
        return [0.0 for _ in cands], 0.0
    if not pending:
        savs = marginals_for(inst, psi, free, cap)
        denom = max(savs)
    else:
        try:
            branches = inst.prior.joint_dist(psi, pending, cap=cap_value("branch_cap"))
        except TooLargeError:
            ctx.flags.add("sav-mc")
            samples = cap_value("mc_fallback")
            post = inst.prior.condition(psi)
            rng = ctx.rng  # read even for zero samples, so the call counts as drawing
            branches = (
                (tuple(phi[e] for e in pending), 1.0 / samples)
                for phi in (post.sample(rng) for _ in range(samples))
            )
        savs = [0.0] * len(free)
        denom = 0.0
        for assign, p in branches:
            psi_b = psi.union(PartialRealization(dict(zip(pending, assign))))
            margs = marginals_for(inst, psi_b, free, cap)
            for j, m in enumerate(margs):
                savs[j] += p * m
            denom += p * max(margs)
    by_elem = dict(zip(free, savs))
    return [by_elem.get(e, 0.0) for e in cands], denom


def sav_values(
    inst: Instance,
    psi: PartialRealization,
    pending: Iterable[int],
    cands: Iterable[int] | None = None,
    ctx: PolicyContext | None = None,
    cap: float | None = None,
) -> list[float]:
    pend = list(pending)
    blocked = set(psi.domain) | set(pend)
    cl = list(cands) if cands is not None else [e for e in range(inst.n) if e not in blocked]
    ctx = ctx or PolicyContext(seed=0)
    savs, _ = _sav_and_denom(inst, psi, pend, cl, ctx, cap)
    return savs


@dataclass(frozen=True)
class SemiAdaptiveState:
    """Decision state of a batching policy: queried observations psi, the
    selected set, and the selected-but-unqueried batch."""

    psi: PartialRealization
    selected: tuple[int, ...]
    pending: tuple[int, ...]

    def __post_init__(self):
        if any(e in self.psi for e in self.pending):
            raise MalformedInputError("pending elements must be unobserved")
        if len(set(self.pending)) != len(self.pending):
            raise MalformedInputError("pending repeats an element")

    @classmethod
    def make(cls, psi: PartialRealization, selected: Iterable[int]) -> "SemiAdaptiveState":
        sel = tuple(selected)
        return cls(
            psi=psi,
            selected=sel,
            pending=tuple(e for e in sel if e not in psi),
        )


def semi_adaptive_value(
    inst: Instance,
    state: SemiAdaptiveState,
    e: int,
    ctx: PolicyContext | None = None,
) -> float:
    """Expected marginal of e once the pending batch resolves, given psi."""
    if e in state.psi or e in state.pending:
        raise AlreadyObservedError(f"element {e} is already in the decision state")
    ctx = ctx or PolicyContext(seed=EXACT_SEED)
    savs, _ = _sav_and_denom(inst, state.psi, list(state.pending), [e], ctx)
    return savs[0]


def _gap_ratio(
    inst: Instance,
    psi: PartialRealization,
    scores: list[float],
    denom: float,
    gap: str,
    ctx: PolicyContext,
    cap: float | None,
) -> float:
    """Best batch score ("ig"), or best marginal on psi alone with pending
    elements as candidates ("rig"), over the reference term denom; 1.0 when
    denom vanishes.  "rig" scores its best marginal as the reference term of
    an empty batch."""
    if gap == "ig":
        top = max(scores, default=0.0)
    else:
        top = _sav_and_denom(inst, psi, [], [e for e in range(inst.n) if e not in psi], ctx, cap)[1]
    return 1.0 if denom <= 0.0 else top / denom


def _gap(inst: Instance, state: SemiAdaptiveState, ctx: PolicyContext | None, gap: str) -> float:
    """Gap ratio of a decision state; 1.0 when no candidate is left."""
    ctx = ctx or PolicyContext(seed=EXACT_SEED)
    pending = list(state.pending)
    blocked = set(state.psi.domain) | set(pending)
    cands = [e for e in range(inst.n) if e not in blocked]
    savs, denom = _sav_and_denom(inst, state.psi, pending, cands, ctx)
    return _gap_ratio(inst, state.psi, savs, denom, gap, ctx, None)


def information_gap(
    inst: Instance,
    state: SemiAdaptiveState,
    ctx: PolicyContext | None = None,
) -> float:
    """Best batch score over the expected adaptive best; 1.0 when the batch is
    empty or the reference term vanishes."""
    return _gap(inst, state, ctx, "ig")


def restricted_information_gap(
    inst: Instance,
    state: SemiAdaptiveState,
    ctx: PolicyContext | None = None,
) -> float:
    """Best pre-batch marginal (pending elements count as candidates) over the
    expected adaptive best; shares its denominator with information_gap."""
    return _gap(inst, state, ctx, "rig")


# --- semi-adaptive policies --------------------------------------------------


def semi_adaptive_greedy_max(k: int, eps: float, gap: str = "ig") -> Policy:
    """Budgeted greedy that keeps extending the current batch while the gap
    ratio stays above 1 - eps, observing only when it drops below."""
    if k < 0:
        raise MalformedInputError("budget must be >= 0")
    if eps < 0:
        raise MalformedInputError("eps must be >= 0")
    if gap not in ("ig", "rig"):
        raise MalformedInputError(f"unknown gap kind {gap!r}")

    def play(inst: Instance, ctx: PolicyContext):
        if k > inst.n:
            raise MalformedInputError(f"budget {k} exceeds ground set size {inst.n}")
        yield from _greedy(inst, ctx, k, every=k, eps=eps, gap=gap)

    return Policy(name=f"semi(k={k},eps={eps:.6g},{gap})", play=play)


def semi_adaptive_greedy_coverage(eps: float = 0.1, gap: str = "rig") -> Policy:
    """Coverage greedy with batched observation, guarded by the gap ratio.

    Extends the batch while the ratio holds and quota-capped batch scores stay
    positive; otherwise observes and re-checks the quota.  Stops with flag
    "uncovered" if the quota is unreachable with what remains.
    """
    if eps < 0:
        raise MalformedInputError("eps must be >= 0")
    if gap not in ("ig", "rig"):
        raise MalformedInputError(f"unknown gap kind {gap!r}")

    def play(inst: Instance, ctx: PolicyContext):
        yield from _greedy(inst, ctx, inst.n, every=inst.n, eps=eps, gap=gap, cover=True)

    return Policy(name=f"semi-cov(eps={eps:.6g},{gap})", play=play)


def fixed_batch_greedy(r: int, k: int) -> Policy:
    """Budgeted greedy that observes only after every r-th selection.

    Within a batch, each pick maximizes the expected marginal over the still
    unresolved batch outcomes.  r=1 reproduces the fully sequential greedy;
    r=k selects everything in one shot.
    """
    if r < 1:
        raise MalformedInputError("batch size must be >= 1")
    if k < 0:
        raise MalformedInputError("budget must be >= 0")

    def play(inst: Instance, ctx: PolicyContext):
        yield from _greedy(inst, ctx, min(k, inst.n), every=r)

    return Policy(name=f"batch(r={r},k={k})", play=play)


def fixed_sequence_policy(seq: Iterable[int]) -> Policy:
    """Select a fixed element sequence, observing after each selection."""
    elems = tuple(seq)
    if len(set(elems)) != len(elems):
        raise MalformedInputError("fixed sequence repeats an element")

    def play(inst: Instance, ctx: PolicyContext):
        for e in elems:
            yield Select(e)
            yield QUERY

    return Policy(name=f"seq{list(elems)}", play=play)


# --- exact optima by dynamic programming ------------------------------------


def _dp(
    inst: Instance, psi: PartialRealization, memo: dict, left: int, cover: bool
) -> tuple[float, int | None]:
    """Exact optimum from psi and the first pick attaining it (smallest id on
    ties; None at a final state): without cover the best expected value with
    `left` picks left, else the least expected inst.cost of reaching the
    instance's quota.  memo serves one objective and, for values, one budget,
    so |psi| + left is constant within it."""
    hit = memo.get(psi.pairs)
    if hit is not None:
        return hit
    if not cover and (left == 0 or len(psi) == inst.n):
        best = (inst.utility(psi), None)
    elif cover and covered(inst, psi):
        best = (0.0, None)
    elif len(psi) == inst.n:  # an uncovered full view
        raise InfeasibleError(f"realization {psi!r} cannot reach the quota on {inst.name}")
    else:
        if len(memo) >= cap_value("max_states"):
            what = "coverage optimum" if cover else f"budget-{left} optimum"
            raise TooLargeError(f"{what} exceeds the state cap on {inst.name}")
        best = (math.inf if cover else -math.inf, None)
        for e in range(inst.n):
            if e in psi:
                continue
            ev = math.fsum(
                p * _dp(inst, psi.extend(e, o), memo, left - 1, cover)[0]
                for o, p in inst.prior.outcome_dist(e, psi)
            )
            if cover:
                ev += inst.cost(e)
            if (ev < best[0]) if cover else (ev > best[0]):
                best = (ev, e)
    memo[psi.pairs] = best
    return best


def optimal_value(inst: Instance, k: int) -> float:
    """Expected value of the best k-selection policy (exact, memoized)."""
    return _dp(inst, EMPTY, {}, min(k, inst.n), False)[0]


def optimal_coverage_cost(inst: Instance) -> float:
    """Expected cost of the cheapest quota-reaching policy (exact, memoized)."""
    return _dp(inst, EMPTY, {}, inst.n, True)[0]


def _dp_policy(name: str, k: int | None) -> Policy:
    """Policy playing _dp's first pick at each state: the budget-k optimum, or
    with k None the coverage optimum.  Its memo lives as long as the policy
    and the instance, so support rows and combinator phases share it.  An
    uncovered state with nothing left to pick ends the run flagged
    "uncovered"."""
    memos: "WeakKeyDictionary[Instance, dict]" = WeakKeyDictionary()
    cover = k is None

    def play(inst: Instance, ctx: PolicyContext):
        left = inst.n if cover else min(k, inst.n)
        memo = memos.setdefault(inst, {})
        psi = EMPTY
        while True:
            if cover and len(psi) == inst.n and not covered(inst, psi):
                ctx.flags.add("uncovered")
                return
            e = _dp(inst, psi, memo, left, cover)[1]
            if e is None:
                return
            yield Select(e)
            resp = yield QUERY
            psi = psi.extend(e, resp[e]) if e in resp else psi
            left -= 1

    return Policy(name=name, play=play)


def optimal_policy_dp(k: int) -> Policy:
    """Policy realizing the exact budget-k optimum.

    Decisions condition on selected elements only, so extra observations an
    instance reveals for free are ignored by design.
    """
    if k < 0:
        raise MalformedInputError("budget must be >= 0")
    return _dp_policy(f"opt-dp(k={k})", k)


def optimal_coverage_dp() -> Policy:
    """Policy realizing the exact minimum expected coverage cost."""
    return _dp_policy("opt-cov-dp", None)
