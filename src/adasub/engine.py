"""Policy execution and expectation engine.

A policy is an interactive procedure written as a generator function.  It
yields Select(e) and QUERY actions; each QUERY is answered with the dict of
outcomes it revealed, each Select with None.  A run ends when the generator
returns or yields STOP, and any other action is a PolicyBugError, inside
combinators too.  _Run checks the actions of every policy, and of every
combinator's inner policies.

One driver, _walk, runs every policy.  It walks the policy tree: one run
starts with a list of realization rows, at each QUERY the rows split by reply,
and every part goes on from a live run forked at the split.  Without a reveal
hook a reply is the rows' outcomes on the pending batch, so the rows split by
those and _reply builds one reply per part; under a hook _reply answers each
row.  A generator with fork(ctx) (the greedy kernel behind every
marginal-driven policy) is forked onto a fork of its context that carries the
rng state and flags; any other generator (the combinators, a fixed sequence,
the DP policies, user code) logs each reply it was sent with the action it
yielded, and its fork is a fresh start fed that log.  A plain run (run_policy,
evaluate_mc, the Monte Carlo verifiers) is the walk over one row, on the
caller's seed.  Exact evaluation and threshold calibration walk the prior
support (times the seed space, capped at max_support) at a fixed seed; exact
evaluation takes each leaf's rows as one batch, valued by one utility call per
outcome tuple.  So in exact mode a policy's actions must depend only on theta,
ctx.rng and the replies; one that yields other actions when fed its log raises
PolicyBugError.  A forked kernel meets each decision state once; a replayed
generator scores its states again, and a fork goes on from the rng state at
its split, so scores and their flags stay those of a plain run.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Sequence
from weakref import WeakKeyDictionary

from .errors import PolicyBugError, TooLargeError, MalformedInputError
from .model import (
    EMPTY,
    AlreadyObservedError,
    Instance,
    PartialRealization,
    Prior,
    Realization,
    UtilityFunction,
    _validate_psi_range,
    cap_value,
    check_elements,
)


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


@dataclass
class PolicyContext:
    """Per-run context handed to a policy generator.

    theta is the resolved seed-space value for randomized policies; rng is a
    lazily created deterministic generator for internal sampling fallbacks.
    flags collect notes (for example "sav-mc") that surface in reports.
    """

    theta: Any = None
    seed: int = 0
    flags: set[str] = field(default_factory=set)
    _rng: np.random.Generator | None = None

    @property
    def rng(self) -> np.random.Generator:
        if self._rng is None:
            import numpy as np
            self._rng = np.random.default_rng(self.seed)
        return self._rng

    def child(self, theta: Any, salt: int) -> "PolicyContext":
        # Children share the flag set so fallback notes propagate to the trace.
        return PolicyContext(theta=theta, seed=(self.seed * 1000003 + salt) & 0x7FFFFFFF, flags=self.flags)

    def fork(self) -> "PolicyContext":
        """A context that goes on from this one's state: the same theta, seed
        and rng state, and a copy of the flags."""
        kid = PolicyContext(theta=self.theta, seed=self.seed, flags=set(self.flags))
        if self._rng is not None:
            import numpy as np
            kid._rng = np.random.default_rng(self.seed)
            kid._rng.bit_generator.state = self._rng.bit_generator.state
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
    PolicyBugError naming the policy.  When `log` is a list (_walk sets one
    for a generator without fork), each (reply sent, action) is appended.
    """

    def __init__(self, gen: Iterator[Action], name: str):
        self.gen = gen
        self._name = name
        self.reply: dict[int, int] | None = None
        self.log: list[tuple[dict[int, int] | None, Action]] | None = None

    def __iter__(self) -> "_Run":
        return self

    def __next__(self) -> Action:
        reply, self.reply = self.reply, None
        action = self.gen.send(reply)  # a return raises StopIteration here
        if action is STOP:
            raise StopIteration
        if action is not QUERY and not isinstance(action, Select):
            raise PolicyBugError(f"{self._name} yielded unknown action {action!r}")
        if self.log is not None:
            self.log.append((reply, action))
        return action


def _reply(inst: Instance, phi: Realization, pending: list[int], observed: dict[int, int]):
    """The reply to a QUERY of the pending batch under phi (sorted items), and
    the items it reveals that were not observed before.  The reply repeats the
    queried outcomes even when a reveal hook exposed them earlier; a round is
    counted only if something genuinely new came back."""
    reply, newly = {}, {}
    for p in pending:
        reply[p] = phi[p]
        for e2, o2 in inst.observe(phi, p):
            reply[e2] = o2
            if e2 not in observed:
                newly[e2] = o2
    return tuple(sorted(reply.items())), tuple(newly.items())


def _execute(policy: Policy, inst: Instance, phi: Realization, theta: Any, rng_seed: int,
             collect_rounds: bool = False) -> PolicyTrace:
    """One plain run against phi: the _walk over the single row phi, on the
    caller's seed.  A single row never splits."""
    (leaf,) = _walk(policy, inst, [(0, phi, 1.0)], theta, rng_seed)
    return _trace(inst, phi, leaf, collect_rounds)


EXACT_SEED = 0x5EED  # fixed internal seed so exact mode stays deterministic


def run_policy(policy: Policy, inst: Instance, phi: Realization, seed: int = 0,
               collect_rounds: bool = False) -> PolicyTrace:
    """Run a policy against one realization; deterministic given (policy, phi, seed).
    phi must be n labels in range (else MalformedInputError) with prior mass
    (else InconsistentObservationError)."""
    if len(phi) != inst.n or not all(0 <= o < inst.num_outcomes for o in phi):
        raise MalformedInputError(f"{phi!r} is not {inst.n} outcomes in range({inst.num_outcomes})")
    psi = PartialRealization(dict(enumerate(phi)))
    if not inst.prior.mass(psi) > 0:
        inst.prior.condition(psi)  # raises on zero mass; a long product's mass can underflow
    if len(policy.seed_space) == 1:
        theta = policy.seed_space[0][0]
    else:
        import numpy as np
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

    Strict contract version: e must not be in dom(psi).  marginals_for and
    the policies' scores give 0 for already-observed elements instead.
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
    """Marginal of every candidate; observed candidates score 0, and a
    candidate or a psi pair out of range raises MalformedInputError.  The
    instance's fast_sav hook answers first, with an empty batch; where it
    returns None (the instance's prior and utility are not its family),
    _cached_marginals does.

    With cap=Q the utility is replaced by min(f, Q), so gains past the quota
    do not count.  Coverage policies score with the cap; budget policies
    score with the raw utility.
    """
    check_elements(cands, inst.n)
    _validate_psi_range(psi, inst.n, inst.num_outcomes)
    out = inst.fast_sav and inst.fast_sav(inst, psi, [], cands, None, cap)
    return _cached_marginals(inst, psi, cands, cap) if out is None else out[0]


def _cached_marginals(inst: Instance, psi: PartialRealization, cands: list[int],
                      cap: float | None = None) -> list[float]:
    """marginals_for by the definition, hooks bypassed: the only cached read
    of marginal.  Values are cached per instance, the cache is cleared when
    it holds max_states, and f(psi) and the cap are read at most once per call."""
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
                base, limit = inst.utility(psi), cap_value("max_states")
            if len(cache) >= limit:
                cache.clear()
            v = cache[key] = marginal(inst.utility, inst.prior, psi, e, cap, base)
        out.append(v)
    return out


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
        raise TooLargeError(f"exact evaluation needs {size} traces (support x seed branches),"
                            f" cap {cap}")
    return [(j, phi, w) for j, (phi, w) in enumerate(inst.prior.support())]


def _walk(policy: Policy, inst: Instance, rows: list, theta: Any, seed: int = EXACT_SEED):
    """Leaves of the policy tree on coin theta over rows (index, phi, weight):
    each leaf's rows, with the selections, cost, round marks and observations
    they share, and the context and generator of the run that ended there.  A
    run starts with every row; at each QUERY its rows split by reply (and by
    what it newly reveals): with no reveal hook by their outcomes on the
    pending batch, one _reply per part, else by each row's _reply.  Each part
    goes on, with copies of the bookkeeping and its own reply, from a live run
    forked at the split: a generator with fork(ctx) forks onto ctx.fork(); any
    other logs (reply sent, action) as it runs and forks by starting again on a
    fresh context (so ctx.rng draws and flags accrue as in a plain run) fed
    that log, raising PolicyBugError if the policy then yields other actions
    or ends.  A round is a QUERY that revealed something new, marked by
    len(observed) after it, so the observations up to each round are a prefix
    of the insertion-ordered observed.
    """
    def start():
        ctx = PolicyContext(theta=theta, seed=seed)
        run = _Run(policy.play(inst, ctx), policy.name)
        if not hasattr(run.gen, "fork"):
            run.log = []
        return run, ctx

    def fork(run, ctx):
        if run.log is None:
            kid = ctx.fork()
            return _Run(run.gen.fork(kid), policy.name), kid
        kid_run, kid = start()
        for reply, action in run.log:
            kid_run.reply = reply
            if next(kid_run, None) != action:
                raise PolicyBugError(f"{policy.name} changed its actions on replayed replies; exact"
                                     " evaluation needs actions that depend only on theta, ctx.rng"
                                     " and the replies")
        return kid_run, kid

    stack = [(rows, *start(), [], {}, [], 0.0, None)]
    while stack:
        group, run, ctx, selected, observed, marks, cost, key = stack.pop()
        if key is not None:
            reply, newly = key
            if newly:
                observed.update(newly)
                marks.append(len(observed))
            run.reply = dict(reply)
        pending = []
        for action in run:
            if isinstance(action, Select):
                e = action.element
                if not (0 <= e < inst.n):
                    raise PolicyBugError(f"{policy.name} selected element {e} outside ground set")
                if e in selected:
                    raise PolicyBugError(f"{policy.name} selected element {e} twice")
                selected.append(e)
                pending.append(e)
                cost += inst.cost(e)
                continue
            parts: dict = {}
            if inst.reveal is None:  # a reply is the pending outcomes: one _reply per part
                outcomes = _outcomes(pending)
                for row in group:
                    parts.setdefault(outcomes(row[1]), []).append(row)
                parts = {_reply(inst, part[0][1], pending, observed): part
                         for part in parts.values()}
            else:
                for row in group:
                    parts.setdefault(_reply(inst, row[1], pending, observed), []).append(row)
            (key, group), *rest = parts.items()
            for k, part in rest:
                stack.append((part, *fork(run, ctx), list(selected), dict(observed),
                              list(marks), cost, k))
            stack.append((group, run, ctx, selected, observed, marks, cost, key))
            break
        else:
            yield group, selected, cost, marks, observed, ctx, run.gen


def _trace(inst: Instance, phi: Realization, leaf: tuple,
           collect_rounds: bool = False) -> PolicyTrace:
    """The trace of a _walk leaf against its row phi; value and gains come
    from the utility of each selection prefix."""
    _group, selected, cost, marks, observed, ctx, _gen = leaf
    psi, vals = EMPTY, [inst.utility(EMPTY)]
    for e in selected:
        psi = psi.extend(e, phi[e])
        vals.append(inst.utility(psi))
    views = None
    if collect_rounds:
        items = list(observed.items())
        views = tuple(PartialRealization(items[:m]) for m in marks)
    return PolicyTrace(
        selected=tuple(selected),
        final_psi=psi,
        observed=PartialRealization(observed),
        value=vals[-1],
        cost=cost,
        rounds=len(marks),
        gains=tuple(v - u for u, v in zip(vals, vals[1:])),
        flags=tuple(sorted(ctx.flags)),
        round_views=views,
    )


def _outcomes(items: list[int]) -> Callable[[Realization], Any]:
    """phi -> its outcomes on items as a key: itemgetter's (a scalar for one item), () for none."""
    return itemgetter(*items) if items else lambda phi: ()


def _exact_rows(policy: Policy, inst: Instance) -> Iterator[tuple]:
    """(seed branch, [(w * pt, value)] per row of the leaf's group, _walk leaf)
    for each leaf of the walks over prior support x policy seed branches at
    EXACT_SEED.  A row's value is f of its outcomes on the leaf's selections,
    one utility call per outcome tuple of the leaf."""
    rows = _checked_support(inst, len(policy.seed_space))
    for b, (theta, pt) in enumerate(policy.seed_space):
        if pt <= 0:
            continue
        for leaf in _walk(policy, inst, rows, theta):
            group, selected = leaf[0], leaf[1]
            outcomes, values, batch = _outcomes(selected), {}, []
            for _j, phi, w in group:
                o = outcomes(phi)
                if (v := values.get(o)) is None:
                    v = values[o] = inst.utility(PartialRealization.project(phi, selected))
                batch.append((w * pt, v))
            yield b, batch, leaf


def evaluate_exact(policy: Policy, inst: Instance) -> EvalReport:
    """Exact expectations by enumerating prior support x policy seed branches."""
    f_terms, c_terms, r_terms = [], [], []
    flags: set[str] = set()
    for _b, batch, (_group, _sel, cost, marks, _obs, ctx, _gen) in _exact_rows(policy, inst):
        for w, v in batch:
            f_terms.append(w * v)
            c_terms.append(w * cost)
            r_terms.append(w * len(marks))
        flags.update(ctx.flags)
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
    import numpy as np
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
