"""Policy constructors: greedy, threshold, semi-adaptive, batch, and DP-optimal.

Every constructor returns an engine.Policy whose play() generator follows the
Select/Query/Stop protocol.  Policies keep their own view of observations
(accumulated Query responses); the runner owns the global trace.

The greedy, coverage, threshold, semi-adaptive and fixed-batch constructors
are bare configurations of one kernel: their play returns a _Greedy with a
budget, observe and accept rules, with or without the instance's coverage
goal.  It scores every decision state, gap tests included, through
_sav_and_denom.  It is a generator with fork, so engine._walk forks it at
each split by copying its state; the walk forks the plain generators here
by a fresh start fed their log.  calibrate_tau walks it over the support
with engine._walk to read off the score trail of each leaf.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable
from weakref import WeakKeyDictionary

from .engine import (
    EXACT_SEED,
    QUERY,
    Policy,
    PolicyContext,
    Select,
    _check_elements,
    _checked_support,
    _walk,
    marginals_for,
)
from .errors import InfeasibleError, MalformedInputError, TooLargeError
from .model import (
    EMPTY,
    AlreadyObservedError,
    CoverageSpec,
    Instance,
    PartialRealization,
    cap_value,
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


class _Greedy:
    """The greedy loop behind every marginal-driven policy.

    Each step picks the unselected element with the best score (the first
    maximum over ascending ids, so a tie goes to the smallest) until `budget`
    (at most n) elements are selected.  Every decision scores expected
    marginals after the pending batch resolves through _sav_and_denom; with
    nothing pending that is the sequential greedy score.

    Observation happens after every `every` picks (policies that observe only
    at the end pass their budget) and, with eps given, whenever the gap ratio
    of a non-empty batch drops below 1 - eps.  With cover, the instance's
    coverage goal caps scores at its quota, ranks them per unit of inst.cost
    and stops the run once the quota is reached; when nothing left helps in
    expectation the batch is resolved first, and with no batch outstanding
    the run ends flagged "uncovered".
    accept sees each best score before its pick, which `trail` records; False
    observes the batch and ends the run.

    It is a generator written out (iter, next and send), so its state is
    plain data: psi (built once per reply), the selected set, the pending
    batch, the trail, ref and done.  psi holds through a batch, so the
    batch's first decision settles the quota check and scores ref, the
    reference term that "rig" gaps compare against; done ends the run at the
    next resume.  fork(ctx) copies that state onto another context, which lets
    engine._walk go on from a split without replaying the steps before it.
    """

    def __init__(self, inst: Instance, ctx: PolicyContext, budget: int, *, every: int,
                 eps: float | None = None, gap: str = "ig", cover: bool = False,
                 accept: Callable[[float], bool] | None = None):
        if budget > inst.n:
            raise MalformedInputError(f"budget {budget} exceeds ground set size {inst.n}")
        self.inst, self.ctx, self.budget, self.every = inst, ctx, budget, every
        self.eps, self.gap, self.cover, self.accept = eps, gap, cover, accept
        self.cap = _goal(inst).quota if cover else None
        self.psi = EMPTY
        self.selected: set[int] = set()
        self.pending: list[int] = []
        self.trail: list[float] = []
        self.ref = 0.0
        self.done = False

    def fork(self, ctx: PolicyContext) -> "_Greedy":
        kid = _Greedy.__new__(_Greedy)
        kid.__dict__.update(self.__dict__)
        kid.ctx, kid.selected = ctx, set(self.selected)
        kid.pending, kid.trail = list(self.pending), list(self.trail)
        return kid

    def __iter__(self) -> "_Greedy":
        return self

    def __next__(self):
        return self.send(None)

    def send(self, reply: dict[int, int] | None):
        if self.done:
            raise StopIteration
        if reply is not None:  # a QUERY's answer: the protocol answers a Select with None
            self.psi = self.psi.union(PartialRealization(reply))
            self.pending.clear()
        action = self._decide()
        if action is None:
            self.done = True
            raise StopIteration
        return action

    def _decide(self):
        """The action at the top of the loop: a Select, a QUERY, or None to
        end the run."""
        inst, ctx, pending, selected, cover = self.inst, self.ctx, self.pending, self.selected, self.cover
        if len(pending) >= self.every > 0:
            return QUERY
        if not pending and cover and covered(inst, self.psi):
            return None
        stuck = len(selected) >= self.budget
        if not stuck:
            cands = [e for e in range(inst.n) if e not in selected]
            scores, denom = _sav_and_denom(inst, self.psi, pending, cands, ctx, self.cap)
            if not pending:
                self.ref = denom
            ranked = [s / inst.cost(c) for c, s in zip(cands, scores)] if cover else scores
            best = max(ranked)
            e = cands[ranked.index(best)]
            if cover:
                # Nothing left helps in expectation, either because the batch
                # already reaches the quota on every branch or because the
                # quota is out of reach.
                stuck = best <= _EQ_TOL
        if stuck and not pending:
            if cover:
                ctx.flags.add("uncovered")
            return None
        observe = stuck  # with a batch outstanding, resolve it and look again
        if not stuck and self.eps is not None and pending:
            top = max(scores) if self.gap == "ig" else self.ref
            observe = _gap_ratio(top, denom) < 1.0 - self.eps - _EQ_TOL
        if observe:
            return QUERY
        if self.accept is not None:
            self.trail.append(best)
            if not self.accept(best):
                if not pending:
                    return None
                self.done = True
                return QUERY
        selected.add(e)
        pending.append(e)
        return Select(e)


def greedy_max(k: int) -> Policy:
    """Fully adaptive greedy: k rounds of select-best-marginal then observe."""
    if k < 0:
        raise MalformedInputError("budget must be >= 0")
    return Policy(name=f"greedy(k={k})", play=lambda inst, ctx: _Greedy(inst, ctx, k, every=1))


def greedy_coverage() -> Policy:
    """Fully adaptive cost-benefit greedy, run until the quota is reached.

    Scores are quota-capped (gains past the quota do not count), so the ratio
    rule optimizes exactly the remaining coverage headroom.  The coverage goal
    is the instance's own.
    """
    return Policy(name="greedy-cov",
                  play=lambda inst, ctx: _Greedy(inst, ctx, inst.n, every=1, cover=True))


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
        return _Greedy(inst, ctx, inst.n, every=1 if mode == "marginal" else inst.n,
                       accept=lambda score: _passes(score, tau, inclusive))

    name = f"threshold(tau={tau:.12g},p={coin_p:.12g}"
    name += ")" if mode == "marginal" else ",sav)"
    space = ((True, coin_p), (False, 1.0 - coin_p))
    return Policy(name=name, play=play, seed_space=space)


def _score_paths(inst: Instance, mode: str) -> list[tuple[float, list[float]]]:
    """(weight, best-score path) of the threshold kernel run to exhaustion,
    one per support row: the trail of the kernel at each leaf of its
    engine._walk, which a fork inherits, so it names the leaf's whole path.
    Mode "sav" observes nothing before its last pick, so it walks the first
    row alone, with weight 1, and checks no support cap."""
    every = 1 if mode == "marginal" else inst.n
    kernel = Policy(name="threshold kernel", play=lambda inst, ctx: _Greedy(
        inst, ctx, inst.n, every=every, accept=lambda _score: True))
    if mode == "marginal":
        rows = _checked_support(inst, 1)
    else:
        rows = [(0, next(iter(inst.prior.support()))[0], 1.0)]
    paths = []
    for group, *_, gen in _walk(kernel, inst, rows, None):
        paths.extend((w, gen.trail) for _j, _phi, w in group)
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
    mode is the score the calibration ranked by, and policy() thresholds it.
    """

    tau_i: float
    i: float
    alpha: float
    beta: float
    coin_p: float
    mode: str = field(repr=False)

    def policy(self) -> Policy:
        return threshold_policy(self.tau_i, self.coin_p, self.mode)


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
                    return ThresholdCalibration(v, i, alpha, beta, 0.0, mode)
                p = min(1.0, max(0.0, (i - alpha) / (beta - alpha)))
                return ThresholdCalibration(v, i, alpha, beta, p, mode)
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
    The instance's fast_sav hook answers first; where it returns None (the
    instance's prior and utility are not its family), an empty batch is
    one marginals_for call, and a non-empty one is exact when its joint
    enumerates under the branch cap, else a seeded Monte Carlo fallback
    flagged "sav-mc".  The cover hook on product priors scores uncapped and
    dead batches (no reachable item left uncovered) exactly, without branches,
    so there "sav-mc" means a sample entered a nonzero reference term or score.
    """
    out = inst.fast_sav and inst.fast_sav(inst, psi, pending, cands, ctx, cap)
    if out is not None:
        return out
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
            branches = (
                (tuple(phi[e] for e in pending), 1.0 / samples)
                for phi in (post.sample(ctx.rng) for _ in range(samples))
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
    _check_elements(inst, pend + cl)
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
    _check_elements(inst, [e, *state.pending])
    if e in state.psi or e in state.pending:
        raise AlreadyObservedError(f"element {e} is already in the decision state")
    ctx = ctx or PolicyContext(seed=EXACT_SEED)
    savs, _ = _sav_and_denom(inst, state.psi, list(state.pending), [e], ctx)
    return savs[0]


def _gap_ratio(top: float, denom: float) -> float:
    """top over the reference term denom; 1.0 when denom vanishes."""
    return 1.0 if denom <= 0.0 else top / denom


def _gap(inst: Instance, state: SemiAdaptiveState, ctx: PolicyContext | None, gap: str) -> float:
    """Gap ratio of a decision state; 1.0 when no candidate is left.  "rig"
    scores its top term as the reference term of an empty batch."""
    ctx = ctx or PolicyContext(seed=EXACT_SEED)
    pending = list(state.pending)
    blocked = set(state.psi.domain) | set(pending)
    cands = [e for e in range(inst.n) if e not in blocked]
    savs, denom = _sav_and_denom(inst, state.psi, pending, cands, ctx)
    if gap == "ig":
        return _gap_ratio(max(savs, default=0.0), denom)
    rest = [e for e in range(inst.n) if e not in state.psi]
    return _gap_ratio(_sav_and_denom(inst, state.psi, [], rest, ctx)[1], denom)


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
    return Policy(name=f"semi(k={k},eps={eps:.6g},{gap})",
                  play=lambda inst, ctx: _Greedy(inst, ctx, k, every=k, eps=eps, gap=gap))


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
    return Policy(name=f"semi-cov(eps={eps:.6g},{gap})", play=lambda inst, ctx: _Greedy(
        inst, ctx, inst.n, every=inst.n, eps=eps, gap=gap, cover=True))


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
    return Policy(name=f"batch(r={r},k={k})",
                  play=lambda inst, ctx: _Greedy(inst, ctx, min(k, inst.n), every=r))


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
    inst: Instance, psi: PartialRealization, memo: dict, left: int, cover: bool,
    limit: Callable[[], int],
) -> tuple[float, int | None]:
    """Exact optimum from psi and the first pick attaining it (smallest id on
    ties; None at a final state): without cover the best expected value with
    `left` picks left, else the least expected inst.cost of reaching the
    instance's quota.  memo serves one objective and, for values, one budget,
    so |psi| + left is constant within it.  limit() is the state cap, from
    _state_cap."""
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
        if len(memo) >= limit():
            what = "coverage optimum" if cover else f"budget-{left} optimum"
            raise TooLargeError(f"{what} exceeds the state cap on {inst.name}")
        best = (math.inf if cover else -math.inf, None)
        for e in range(inst.n):
            if e in psi:
                continue
            ev = math.fsum(
                p * _dp(inst, psi.extend(e, o), memo, left - 1, cover, limit)[0]
                for o, p in inst.prior.outcome_dist(e, psi)
            )
            if cover:
                ev += inst.cost(e)
            if (ev < best[0]) if cover else (ev > best[0]):
                best = (ev, e)
    memo[psi.pairs] = best
    return best


def _state_cap() -> Callable[[], int]:
    """max_states, read from the environment on the first call only: one
    read per top-level DP call, and none by a call that expands no state."""
    return functools.cache(lambda: cap_value("max_states"))


def optimal_value(inst: Instance, k: int) -> float:
    """Expected value of the best k-selection policy (exact, memoized)."""
    return _dp(inst, EMPTY, {}, min(k, inst.n), False, _state_cap())[0]


def optimal_coverage_cost(inst: Instance) -> float:
    """Expected cost of the cheapest quota-reaching policy (exact, memoized)."""
    return _dp(inst, EMPTY, {}, inst.n, True, _state_cap())[0]


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
        limit = _state_cap()
        psi = EMPTY
        while True:
            if cover and len(psi) == inst.n and not covered(inst, psi):
                ctx.flags.add("uncovered")
                return
            e = _dp(inst, psi, memo, left, cover, limit)[1]
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
