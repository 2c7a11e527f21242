"""Policy execution and expectation engine.

A policy is an interactive procedure written as a generator function.  It
yields Select(e) and QUERY actions; each QUERY is answered with the dict of
outcomes it revealed, each Select with None.  A run ends when the generator
returns or yields STOP, and any other action is a PolicyBugError, inside
combinators too.  _Run drives every policy, and every combinator's inner
policies, through this protocol.

Expectations are computed exactly by enumerating the prior support times the
policy's seed space, capped at max_support, or by Monte Carlo sampling with a
seeded generator.  Exact evaluation walks the policy tree: one run starts
with every support row, at each QUERY the rows split by reply, and each part
but the first restarts the policy on the replies recorded on its path.
Threshold calibration walks the same tree, and every QUERY, in a walk or in
a plain run, is answered by _reply.  So in exact mode a policy's actions must
depend only on theta, ctx.rng and the replies; one that yields other actions
when restarted raises PolicyBugError.
Within one exact evaluation each decision state is scored once; a scorer
call that drew from ctx.rng is recomputed on every run, so sampled scores
and their flags stay those of a plain run.
"""
from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence
from weakref import WeakKeyDictionary

import numpy as np

from .errors import PolicyBugError, TooLargeError, MalformedInputError
from .model import (
    EMPTY,
    AlreadyObservedError,
    Instance,
    PartialRealization,
    Prior,
    Realization,
    UtilityFunction,
)

# Enumeration caps; each can be overridden by the matching ADASUB_* env var.
# Documented in the CLI help and README.
CAP_DEFAULTS = {
    "max_support": 10**6,   # prior support size x policy seed branches
    "max_states": 10**5,    # memoized DP states; marginal cache entries per instance
    "branch_cap": 10**4,    # exact joint pending-outcome branches
    "mc_fallback": 10**4,   # samples used when the branch cap is exceeded
}


def cap_value(name: str) -> int:
    env = os.environ.get("ADASUB_" + name.upper())
    if env is not None:
        try:
            value = int(env)
        except ValueError as exc:
            raise MalformedInputError(f"ADASUB_{name.upper()}={env!r} is not an integer") from exc
        if value < 1:
            raise MalformedInputError(f"ADASUB_{name.upper()}={env!r} must be at least 1")
        return value
    return CAP_DEFAULTS[name]


@dataclass(frozen=True)
class Select:
    element: int


class _Singleton:
    def __init__(self, label: str):
        self._label = label

    def __repr__(self) -> str:
        return self._label


QUERY = _Singleton("Query")
STOP = _Singleton("Stop")

Action = Any  # Select | QUERY | STOP


@dataclass(eq=False)
class PolicyContext:
    """Per-run context handed to a policy generator; it hashes by identity.

    theta is the resolved seed-space value for randomized policies; rng is a
    lazily created deterministic generator for internal sampling fallbacks.
    flags collect notes (for example "sav-mc") that surface in reports.
    Exact evaluation and threshold calibration set _memo, the scores of the
    decision states met so far in one call; _draws counts the reads of rng,
    so the scorer can tell whether a call drew from it.
    """

    theta: Any = None
    seed: int = 0
    flags: set[str] = field(default_factory=set)
    _rng: np.random.Generator | None = None
    _memo: dict | None = field(default=None, init=False, repr=False)
    _draws: int = field(default=0, init=False, repr=False)

    @property
    def rng(self) -> np.random.Generator:
        self._draws += 1
        if self._rng is None:
            self._rng = np.random.default_rng(self.seed)
        return self._rng

    def child(self, theta: Any, salt: int) -> "PolicyContext":
        # Children share the flag set so fallback notes propagate to the
        # trace, and the memo so inner policies reuse the scores.
        kid = PolicyContext(theta=theta, seed=(self.seed * 1000003 + salt) & 0x7FFFFFFF, flags=self.flags)
        kid._memo = self._memo
        return kid


@dataclass(frozen=True, eq=False)
class Policy:
    """Named interactive policy with an explicit finite seed space.

    play(instance, ctx) returns a generator yielding actions.  seed_space
    lists (theta, probability) branches; deterministic policies keep the
    default single branch.
    """

    name: str
    play: Callable[[Instance, PolicyContext], Iterator[Action]]
    seed_space: tuple[tuple[Any, float], ...] = ((None, 1.0),)


@dataclass(frozen=True)
class PolicyTrace:
    """One deterministic run of a policy against a fixed realization."""

    selected: tuple[int, ...]
    final_psi: PartialRealization
    observed: PartialRealization
    value: float
    cost: float
    rounds: int
    gains: tuple[float, ...]
    flags: tuple[str, ...]
    round_views: tuple[PartialRealization, ...] | None = None


class _Run:
    """Iterator over the Select and QUERY actions of one policy generator.

    A reply stored in `reply` is sent back on the next resume.  Iteration ends
    when the generator returns or yields STOP; any other action raises
    PolicyBugError naming the policy.
    """

    def __init__(self, gen: Iterator[Action], name: str):
        self._gen = gen
        self._name = name
        self.reply: dict[int, int] | None = None

    def __iter__(self) -> "_Run":
        return self

    def __next__(self) -> Action:
        reply, self.reply = self.reply, None
        action = self._gen.send(reply)  # a return raises StopIteration here
        if action is STOP:
            raise StopIteration
        if action is not QUERY and not isinstance(action, Select):
            raise PolicyBugError(f"{self._name} yielded unknown action {action!r}")
        return action


def _reply(inst: Instance, phi: Realization, pending: list[int], observed: dict[int, int]):
    """The reply to a QUERY of the pending batch under phi, as sorted items,
    and the outcomes it reveals that were not observed before.  The reply
    repeats the queried outcomes even when a reveal hook exposed them earlier;
    a round is counted only if something genuinely new came back."""
    reply, newly = {}, {}
    for p in pending:
        reply[p] = phi[p]
        for e2, o2 in inst.observe(phi, p):
            reply[e2] = o2
            if e2 not in observed:
                newly[e2] = o2
    return tuple(sorted(reply.items())), newly


def _check_select(name: str, inst: Instance, e: int, selected: list[int]) -> None:
    """PolicyBugError unless e is an element of the ground set not yet selected."""
    if not (0 <= e < inst.n):
        raise PolicyBugError(f"{name} selected element {e} outside ground set")
    if e in selected:
        raise PolicyBugError(f"{name} selected element {e} twice")


def _execute(
    policy: Policy,
    inst: Instance,
    phi: Realization,
    theta: Any,
    rng_seed: int,
    collect_rounds: bool = False,
) -> PolicyTrace:
    ctx = PolicyContext(theta=theta, seed=rng_seed)
    f = inst.utility
    selected: list[int] = []
    observed: dict[int, int] = {}
    pending: list[int] = []
    rounds = 0
    gains: list[float] = []
    cost = 0.0
    last_val = f(EMPTY)
    round_views: list[PartialRealization] = [] if collect_rounds else None  # type: ignore

    run = _Run(policy.play(inst, ctx), policy.name)
    for action in run:
        if isinstance(action, Select):
            e = action.element
            _check_select(policy.name, inst, e, selected)
            selected.append(e)
            pending.append(e)
            cost += inst.cost(e)
            val = f(PartialRealization.project(phi, selected))
            gains.append(val - last_val)
            last_val = val
            continue
        reply, newly = _reply(inst, phi, pending, observed)
        pending.clear()
        if newly:
            rounds += 1
            observed.update(newly)
            if collect_rounds:
                round_views.append(PartialRealization(observed))
        run.reply = dict(reply)

    return PolicyTrace(
        selected=tuple(selected),
        final_psi=PartialRealization.project(phi, selected),
        observed=PartialRealization(observed),
        value=last_val,
        cost=cost,
        rounds=rounds,
        gains=tuple(gains),
        flags=tuple(sorted(ctx.flags)),
        round_views=tuple(round_views) if collect_rounds else None,
    )


EXACT_SEED = 0x5EED  # fixed internal seed so exact mode stays deterministic


def run_policy(
    policy: Policy,
    inst: Instance,
    phi: Realization,
    seed: int = 0,
    collect_rounds: bool = False,
) -> PolicyTrace:
    """Run a policy against one realization; deterministic given (policy, phi, seed)."""
    if len(policy.seed_space) == 1:
        theta = policy.seed_space[0][0]
    else:
        theta = _draw_theta(policy, float(np.random.default_rng(seed).random()))
    return _execute(policy, inst, phi, theta, rng_seed=seed, collect_rounds=collect_rounds)


# --- marginals -------------------------------------------------------------

_MARGINAL_CACHE: "WeakKeyDictionary[Instance, dict]" = WeakKeyDictionary()


def marginal(
    f: UtilityFunction,
    prior: Prior,
    psi: PartialRealization,
    e: int,
    cap: float | None = None,
    base: float | None = None,
) -> float:
    """Expected gain of observing element e on top of psi.

    Strict contract version: e must not be in dom(psi).  Policies use
    marginals_for, which returns 0 for already-observed elements instead.
    With cap=Q the utility is replaced by min(f, Q).  base, when given, is
    f(psi), so a caller scoring many elements evaluates it once.
    """
    if e in psi:
        raise AlreadyObservedError(f"element {e} already observed")
    if base is None:
        base = f(psi)
    dist = prior.outcome_dist(e, psi)
    if cap is None:
        return math.fsum(p * (f(psi.extend(e, o)) - base) for o, p in dist)
    base = min(base, cap)
    return math.fsum(p * (min(f(psi.extend(e, o)), cap) - base) for o, p in dist)


def marginals_for(
    inst: Instance,
    psi: PartialRealization,
    cands: list[int],
    cap: float | None = None,
) -> list[float]:
    """Marginal of every candidate; observed candidates score 0.  Values are
    cached per instance, and the cache is cleared when it holds max_states.

    With cap=Q the utility is replaced by min(f, Q), so gains past the quota
    do not count.  Coverage policies score with the cap; budget policies
    score with the raw utility.
    """
    if inst.fast_marginals is not None:
        return inst.fast_marginals(inst, psi, cands, cap)
    cache = _MARGINAL_CACHE.setdefault(inst, {})
    key_base = psi.pairs
    out = []
    base = None
    for e in cands:
        if e in psi:
            out.append(0.0)
            continue
        key = (key_base, e, cap)
        v = cache.get(key)
        if v is None:
            if base is None:
                base = inst.utility(psi)
            if len(cache) >= cap_value("max_states"):
                cache.clear()
            v = cache[key] = marginal(inst.utility, inst.prior, psi, e, cap, base)
        out.append(v)
    return out


def argmax_pairs(pairs) -> tuple[int, float]:
    """(element, score) with the highest score; ties keep the earliest pair,
    so callers that list candidates in ascending id order get the smallest id."""
    best_e = None
    best = -math.inf
    for e, s in pairs:
        if s > best:
            best_e, best = e, s
    if best_e is None:
        raise PolicyBugError("argmax over an empty candidate set")
    return best_e, best


# --- reports ---------------------------------------------------------------

EVAL_COLUMNS = (
    "policy",
    "instance",
    "mode",
    "f_avg",
    "c_avg",
    "expected_rounds",
    "samples",
    "stderr",
    "wall_ms",
    "flags",
)


def _csv(columns: Sequence[str], rows: Iterable[dict[str, str]]) -> str:
    """CSV text: a header of `columns`, then one line per row ("" where a row
    has no value for a column)."""
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    w.writeheader()
    w.writerows(rows)
    return buf.getvalue()


@dataclass(frozen=True)
class EvalReport:
    """Flat evaluation record; one row per (policy, instance, mode)."""

    policy: str
    instance: str
    mode: str
    f_avg: float
    c_avg: float
    expected_rounds: float
    samples: int = 0
    stderr: float = 0.0
    wall_ms: float = 0.0
    flags: tuple[str, ...] = ()

    def to_row(self) -> dict[str, str]:
        return {
            "policy": self.policy,
            "instance": self.instance,
            "mode": self.mode,
            "f_avg": repr(self.f_avg),
            "c_avg": repr(self.c_avg),
            "expected_rounds": repr(self.expected_rounds),
            "samples": str(self.samples),
            "stderr": repr(self.stderr),
            "wall_ms": repr(self.wall_ms),
            "flags": ";".join(self.flags),
        }


def _checked_support(inst: Instance, branches: int) -> list[tuple[int, Realization, float]]:
    """The prior support as _walk rows (index, phi, weight), once support
    size x `branches` is within max_support."""
    cap = cap_value("max_support")
    size = inst.prior.support_size() * branches
    if size > cap:
        raise TooLargeError(
            f"exact evaluation needs {size} traces (support x seed branches), cap {cap}"
        )
    return [(j, phi, w) for j, (phi, w) in enumerate(inst.prior.support())]


def _walk(policy: Policy, inst: Instance, rows: list, theta: Any, memo: dict):
    """Leaves of the policy tree on coin theta over support rows (index, phi,
    weight): each leaf's rows, with the selections, cost, rounds and
    observations they share and the context of the run that ended there.  A
    run starts with every row; at each QUERY its rows split by reply (and by
    what it newly reveals), the first part goes on and each other part waits
    with the selections made before each QUERY on its path, one tuple shared
    by the parts of a split.  A waiting part restarts the policy on a fresh
    context (so ctx.rng draws as in a plain run; draw-free scores come from
    memo), fed its rows' replies, and raises PolicyBugError if the policy
    yields other actions.  Every QUERY is answered by _reply, as in _execute;
    exact evaluation and threshold calibration both walk through here.
    """
    stack = [(rows, ())]
    while stack:
        group, recorded = stack.pop()
        ctx = PolicyContext(theta=theta, seed=EXACT_SEED)
        ctx._memo = memo
        selected, pending, observed, path = [], [], {}, ()
        cost, rounds = 0.0, 0
        run = _Run(policy.play(inst, ctx), policy.name)
        for action in run:
            if isinstance(action, Select):
                _check_select(policy.name, inst, action.element, selected)
                selected.append(action.element)
                pending.append(action.element)
                cost += inst.cost(action.element)
                continue
            path += (tuple(pending),)
            if len(path) > len(recorded):
                if len(group) > 1:  # a single row has one reply, so it never splits
                    parts: dict = {}
                    for row in group:
                        reply, newly = _reply(inst, row[1], pending, observed)
                        parts.setdefault((reply, tuple(newly)), []).append(row)
                    group, *rest = parts.values()
                    stack.extend((part, path) for part in rest)
            elif path[-1] != recorded[len(path) - 1]:
                break
            reply, newly = _reply(inst, group[0][1], pending, observed)
            pending.clear()
            if newly:
                rounds += 1
                observed.update(newly)
            run.reply = dict(reply)
        if path[:len(recorded)] != recorded:
            raise PolicyBugError(
                f"{policy.name} changed its actions on replayed replies; exact "
                "evaluation needs actions that depend only on theta, ctx.rng and the replies"
            )
        yield group, selected, cost, rounds, observed, ctx


def _exact_traces(
    policy: Policy, inst: Instance
) -> Iterator[tuple[tuple[int, int], float, PolicyTrace]]:
    """((support row, seed branch), weight, trace) over prior support x policy
    seed branches at EXACT_SEED, streamed leaf by leaf of each branch's _walk.
    Value and gains are computed once per outcome tuple on a leaf's selections.
    All runs share one scorer memo, so a state met again on a restart is not
    scored again."""
    rows = _checked_support(inst, len(policy.seed_space))
    empty = inst.utility(EMPTY)
    memo: dict = {}
    branches = [(b, theta, pt) for b, (theta, pt) in enumerate(policy.seed_space) if pt > 0]
    for b, theta, pt in branches:
        for group, selected, cost, rounds, observed, ctx in _walk(policy, inst, rows, theta, memo):
            shared = dict(selected=tuple(selected), observed=PartialRealization(observed),
                          cost=cost, rounds=rounds, flags=tuple(sorted(ctx.flags)))
            traces: dict[tuple[int, ...], PolicyTrace] = {}
            for j, phi, w in group:
                outs = tuple(phi[e] for e in selected)
                tr = traces.get(outs)
                if tr is None:
                    psis = [PartialRealization.project(phi, selected[:i])
                            for i in range(len(selected) + 1)]
                    vals = [empty] + [inst.utility(psi) for psi in psis[1:]]
                    tr = traces[outs] = PolicyTrace(
                        final_psi=psis[-1], value=vals[-1],
                        gains=tuple(v - u for u, v in zip(vals, vals[1:])), **shared)
                yield (j, b), w * pt, tr


def evaluate_exact(policy: Policy, inst: Instance) -> EvalReport:
    """Exact expectations by enumerating prior support x policy seed branches."""
    f_terms: list[float] = []
    c_terms: list[float] = []
    r_terms: list[float] = []
    flags: set[str] = set()
    for _row, w, tr in _exact_traces(policy, inst):
        f_terms.append(w * tr.value)
        c_terms.append(w * tr.cost)
        r_terms.append(w * tr.rounds)
        flags.update(tr.flags)
    return EvalReport(
        policy=policy.name,
        instance=inst.name,
        mode="exact",
        f_avg=math.fsum(f_terms),
        c_avg=math.fsum(c_terms),
        expected_rounds=math.fsum(r_terms),
        flags=tuple(sorted(flags)),
    )


def f_avg_exact(policy: Policy, inst: Instance) -> float:
    return evaluate_exact(policy, inst).f_avg


def c_avg_exact(policy: Policy, inst: Instance) -> float:
    return evaluate_exact(policy, inst).c_avg


def _draw_theta(policy: Policy, u: float) -> Any:
    acc = 0.0
    for t, p in policy.seed_space:
        acc += p
        if u < acc:
            return t
    return policy.seed_space[-1][0]


def evaluate_mc(policy: Policy, inst: Instance, samples: int, seed: int) -> EvalReport:
    """Monte Carlo expectations; deterministic given the seed."""
    if samples < 1:
        raise MalformedInputError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    vals = np.empty(samples)
    costs = np.empty(samples)
    rounds = np.empty(samples)
    flags: set[str] = set()
    randomized = len(policy.seed_space) > 1
    for i in range(samples):
        phi = inst.prior.sample(rng)
        theta = _draw_theta(policy, float(rng.random())) if randomized else policy.seed_space[0][0]
        child_seed = int(rng.integers(0, 2**31 - 1))
        tr = _execute(policy, inst, phi, theta, rng_seed=child_seed)
        vals[i] = tr.value
        costs[i] = tr.cost
        rounds[i] = tr.rounds
        flags.update(tr.flags)
    stderr = float(vals.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return EvalReport(
        policy=policy.name,
        instance=inst.name,
        mode="mc",
        f_avg=float(vals.mean()),
        c_avg=float(costs.mean()),
        expected_rounds=float(rounds.mean()),
        samples=samples,
        stderr=stderr,
        flags=tuple(sorted(flags)),
    )


# --- combinators -----------------------------------------------------------


def _product_seed_space(a: Policy, b: Policy) -> tuple[tuple[Any, float], ...]:
    return tuple(
        ((t1, t2), p1 * p2)
        for t1, p1 in a.seed_space
        for t2, p2 in b.seed_space
        if p1 * p2 > 0
    )


def concat(first: Policy, second: Policy) -> Policy:
    """Run `first` to completion, then `second` from a fresh information state.

    The second policy sees only its own observations at decision time; its
    re-selections of elements the first already took are absorbed here (no
    second cost, no duplicate in the trace) and answered from known outcomes.
    """

    def play(inst: Instance, ctx: PolicyContext):
        t1, t2 = ctx.theta
        known: dict[int, int] = {}
        sel_first: set[int] = set()

        run = _Run(first.play(inst, ctx.child(t1, 1)), first.name)
        for action in run:
            if action is QUERY:
                run.reply = yield QUERY
                known.update(run.reply)
            else:
                sel_first.add(action.element)
                yield action

        run = _Run(second.play(inst, ctx.child(t2, 2)), second.name)
        absorbed: list[int] = []
        for action in run:
            if action is not QUERY:
                if action.element in sel_first:
                    absorbed.append(action.element)  # already selected in phase one
                else:
                    yield action
                continue
            revealed = yield QUERY
            known.update(revealed)
            merged = dict(revealed)
            merged.update((e, known[e]) for e in absorbed if e in known)
            absorbed.clear()
            run.reply = dict(sorted(merged.items()))

    return Policy(
        name=f"{first.name}@{second.name}",
        play=play,
        seed_space=_product_seed_space(first, second),
    )


def truncate(policy: Policy, limit: int) -> Policy:
    """Stop the policy after `limit` selections (pending batch still queried)."""
    if limit < 0:
        raise MalformedInputError("truncation limit must be >= 0")

    def play(inst: Instance, ctx: PolicyContext):
        if limit == 0:
            return
        run = _Run(policy.play(inst, ctx.child(ctx.theta, 3)), policy.name)
        n_sel = 0
        for action in run:
            if action is QUERY:
                run.reply = yield QUERY
                continue
            yield action
            n_sel += 1
            if n_sel >= limit:
                yield QUERY
                return

    return Policy(name=f"{policy.name}[{limit}]", play=play, seed_space=policy.seed_space)


def limit_rounds(policy: Policy, max_rounds: int) -> Policy:
    """Stop the policy after its `max_rounds`-th Query completes.

    Selections are buffered until their Query goes through, so selections
    whose query would exceed the limit never happen at all; a limit of 0
    yields the empty policy.
    """
    if max_rounds < 0:
        raise MalformedInputError("round limit must be >= 0")

    def play(inst: Instance, ctx: PolicyContext):
        run = _Run(policy.play(inst, ctx.child(ctx.theta, 4)), policy.name)
        used = 0
        buffered: list[Select] = []
        for action in run:
            if action is not QUERY:
                buffered.append(action)
                continue
            if used >= max_rounds:
                return
            for sel in buffered:
                yield sel
            buffered.clear()
            used += 1
            run.reply = yield QUERY
        # A trailing unqueried batch is dropped: it would need one more round.

    return Policy(name=f"{policy.name}^{max_rounds}", play=play, seed_space=policy.seed_space)
