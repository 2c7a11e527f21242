"""Numerical verification of structural properties and performance bounds.

Every check returns a BoundCheckResult row; a list of rows serializes to CSV.
Checks are exhaustive where the state space enumerates (property checks,
exact bound comparisons) and seeded Monte Carlo where it does not (decay
frequency, hardness trends).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .engine import (
    Policy,
    _csv,
    _exact_traces,
    cap_value,
    concat,
    f_avg_exact,
    c_avg_exact,
    marginal,
    marginals_for,
    run_policy,
    truncate,
)
from .errors import InfeasibleError, MalformedInputError, TooLargeError
from .instances import build_bags
from .model import EMPTY, Instance, PartialRealization
from .policies import (
    _calibrations,
    _goal,
    calibrate_tau,
    fixed_batch_greedy,
    greedy_coverage,
    greedy_max,
    semi_adaptive_greedy_max,
)

VERIFY_COLUMNS = ("verifier", "instance", "lhs", "rhs", "slack", "satisfied", "witness")

_TOL = 1e-9


@dataclass(frozen=True)
class MarginalPairWitness:
    """The (state, superstate, element) triple behind a diminishing-returns check."""

    e: int
    psi: PartialRealization
    sup: PartialRealization

    def __str__(self) -> str:
        return f"e={self.e} psi={self.psi!r} sup={self.sup!r}"


@dataclass(frozen=True)
class BoundCheckResult:
    """One verified inequality: satisfied iff lhs >= rhs - 1e-9."""

    name: str
    instance: str
    lhs: float
    rhs: float
    slack: float
    satisfied: bool
    witness: Any = None

    def to_row(self) -> dict[str, str]:
        return {
            "verifier": self.name,
            "instance": self.instance,
            "lhs": repr(self.lhs),
            "rhs": repr(self.rhs),
            "slack": repr(self.slack),
            "satisfied": str(self.satisfied).lower(),
            "witness": "" if self.witness is None else str(self.witness),
        }


def _result(
    name: str,
    inst: Instance | str,
    lhs: float,
    rhs: float,
    witness: Any = None,
    satisfied: bool | None = None,
) -> BoundCheckResult:
    """Row for lhs >= rhs; `satisfied` overrides that test when given."""
    return BoundCheckResult(
        name=name,
        instance=inst if isinstance(inst, str) else inst.name,
        lhs=lhs,
        rhs=rhs,
        slack=lhs - rhs,
        satisfied=lhs >= rhs - _TOL if satisfied is None else satisfied,
        witness=witness,
    )


def rows_to_csv(results: Iterable[BoundCheckResult]) -> str:
    return _csv(VERIFY_COLUMNS, (r.to_row() for r in results))


# --- structural property checks ----------------------------------------------


def _reachable_states(inst: Instance) -> list[PartialRealization]:
    """All observation states consistent with some support realization, sorted
    by (size, pairs) so scans and witnesses are deterministic; at most
    ADASUB_MAX_STATES of them."""
    cap = cap_value("max_states")
    if inst.n > 20:
        raise TooLargeError(f"state enumeration over {inst.n} elements is unmanageable")
    states: set[PartialRealization] = set()
    elems = list(range(inst.n))
    for phi, _w in inst.prior.support():
        for mask in range(1 << inst.n):
            sel = [e for e in elems if mask >> e & 1]
            states.add(PartialRealization.project(phi, sel))
            if len(states) > cap:
                raise TooLargeError(f"reachable states exceed cap {cap}")
    return sorted(states, key=lambda s: (len(s.pairs), s.pairs))


def _subsets_in_order(pairs: tuple[tuple[int, int], ...]):
    for size in range(len(pairs) + 1):
        yield from itertools.combinations(pairs, size)


def _exact_marginal_fn(inst: Instance) -> Callable[[PartialRealization, int], float]:
    """Definition-level marginal with memoization; ignores instance fast hooks
    on purpose, since this is what certifies them."""
    memo: dict[tuple, float] = {}

    def marg(psi: PartialRealization, e: int) -> float:
        key = (psi.pairs, e)
        v = memo.get(key)
        if v is None:
            v = memo[key] = marginal(inst.utility, inst.prior, psi, e)
        return v

    return marg


def check_adaptive_submodular(inst: Instance) -> BoundCheckResult:
    """Exhaustive diminishing-returns check over all reachable state pairs.

    Scans superstates in (size, lex) order, their substates likewise, and
    elements ascending, so the first violation is deterministic.  When
    certified, reports the tightest pair found.
    """
    states = _reachable_states(inst)
    marg = _exact_marginal_fn(inst)
    worst: tuple[float, float, MarginalPairWitness] | None = None
    for sup in states:
        open_elems = [e for e in range(inst.n) if e not in sup]
        if not open_elems:
            continue
        for sub_pairs in _subsets_in_order(sup.pairs):
            psi = PartialRealization(sub_pairs)
            for e in open_elems:
                a = marg(psi, e)
                b = marg(sup, e)
                if a < b - _TOL:
                    return _result(
                        "adaptive-submodular", inst, a, b, MarginalPairWitness(e, psi, sup)
                    )
                if worst is None or a - b < worst[0] - worst[1]:
                    worst = (a, b, MarginalPairWitness(e, psi, sup))
    if worst is None:
        return _result("adaptive-submodular", inst, 0.0, 0.0)
    return _result("adaptive-submodular", inst, worst[0], worst[1], worst[2])


def check_adaptive_monotone(inst: Instance) -> BoundCheckResult:
    """Exhaustive non-negative-marginal check over all reachable states."""
    states = _reachable_states(inst)
    marg = _exact_marginal_fn(inst)
    worst: tuple[float, MarginalPairWitness] | None = None
    for psi in states:
        for e in range(inst.n):
            if e in psi:
                continue
            a = marg(psi, e)
            if a < -_TOL:
                return _result("adaptive-monotone", inst, a, 0.0, MarginalPairWitness(e, psi, psi))
            if worst is None or a < worst[0]:
                worst = (a, MarginalPairWitness(e, psi, psi))
    if worst is None:
        return _result("adaptive-monotone", inst, 0.0, 0.0)
    return _result("adaptive-monotone", inst, worst[0], 0.0, worst[1])


def verify_eta(inst: Instance) -> BoundCheckResult:
    """Checks the quota's precision gap: no reachable state has utility
    strictly between Q - eta and Q."""
    goal = _goal(inst)
    q, eta = goal.quota, goal.eta
    closest = -math.inf
    witness = None
    for psi in _reachable_states(inst):
        v = inst.utility(psi)
        if v < q - _TOL and v > closest:
            closest = v
            if v > q - eta + _TOL:
                witness = f"f={v!r} at psi={psi!r}"
    if closest == -math.inf:
        closest = 0.0
    return _result("eta-gap", inst, q - eta, closest, witness, satisfied=witness is None)


# --- expected-count helper ----------------------------------------------------


def _value_and_count(policy: Policy, inst: Instance) -> tuple[float, float]:
    """Exact f_avg and expected selection count of a policy, from one pass."""
    f_terms, k_terms = [], []
    for _row, w, tr in _exact_traces(policy, inst):
        f_terms.append(w * tr.value)
        k_terms.append(w * len(tr.selected))
    return math.fsum(f_terms), math.fsum(k_terms)


def expected_selection_count(policy: Policy, inst: Instance) -> float:
    """Exact expected number of selections (not cost) of a policy."""
    return _value_and_count(policy, inst)[1]


# --- threshold-policy value bounds --------------------------------------------


def verify_lemma1(inst: Instance, pi_star: Policy, ell: int) -> BoundCheckResult:
    """Value of the ell-calibrated threshold policy against the scaled optimum:
    f_avg(threshold_ell) >= (1 - e^{-ell/(E[K]+1)}) * f_avg(pi_star)."""
    f_star, ek = _value_and_count(pi_star, inst)
    if f_star <= _TOL:
        return _result("lemma1", inst, 0.0, 0.0, "vacuous: f_avg(opt)=0")
    try:
        cal = calibrate_tau(inst, ell)
    except InfeasibleError as exc:
        return _result("lemma1", inst, 0.0, 0.0, f"skipped: calibration infeasible: {exc}")
    lhs = f_avg_exact(cal.policy(), inst)
    rhs = (1.0 - math.exp(-ell / (ek + 1.0))) * f_star
    return _result("lemma1", inst, lhs, rhs, f"ell={ell} EK={ek!r} f_star={f_star!r}")


def verify_eq_main(inst: Instance, pi_star: Policy, i: int) -> BoundCheckResult:
    """The two-sided chain
    f_avg(pi_star) <= f_avg(threshold_i @ pi_star)
                   <= f_avg(threshold_i) + E[K] * (f_avg(threshold_i) - f_avg(threshold_{i-1})).
    Reported as one row: lhs = min of both chain gaps, rhs = 0."""
    if i < 1:
        return _result("eq-main", inst, 0.0, 0.0,
                       "skipped: i=0 needs the undefined level below the first")
    try:
        pol_i, pol_prev = (cal.policy() for cal in _calibrations(inst, [i, i - 1]))
    except InfeasibleError as exc:
        return _result("eq-main", inst, 0.0, 0.0, f"skipped: calibration infeasible: {exc}")
    a, ek = _value_and_count(pi_star, inst)
    b = f_avg_exact(concat(pol_i, pi_star), inst)
    fi = f_avg_exact(pol_i, inst)
    fprev = f_avg_exact(pol_prev, inst)
    c = fi + ek * (fi - fprev)
    lhs = min(b - a, c - b)
    return _result("eq-main", inst, lhs, 0.0, f"i={i} A={a!r} B={b!r} C={c!r}")


# --- coverage cost bounds -----------------------------------------------------


def _greedy_cost_bound(
    name: str, inst: Instance, pi_star: Policy, num: float, den: float, witness: str = ""
) -> BoundCheckResult:
    """Greedy coverage cost against (c* + 1) * ln(num Q / (den eta)) + 1,
    both costs charged by the instance."""
    goal = _goal(inst)
    c_star = c_avg_exact(pi_star, inst)
    c_greedy = c_avg_exact(greedy_coverage(), inst)
    bound = (c_star + 1.0) * math.log(num * goal.quota / (den * goal.eta)) + 1.0
    return _result(name, inst, bound, c_greedy, f"c_star={c_star!r}{witness}")


def verify_coverage_bound(inst: Instance, pi_star: Policy) -> BoundCheckResult:
    """Greedy coverage cost against (c* + 1) * ln(n Q / eta) + 1."""
    return _greedy_cost_bound("coverage-bound", inst, pi_star, inst.n, 1.0)


def verify_corollary_delta(inst: Instance, pi_star: Policy) -> BoundCheckResult:
    """Greedy coverage cost against (c* + 1) * ln(Q / (delta eta)) + 1 with
    delta the smallest prior realization weight."""
    delta = inst.prior.min_weight()
    return _greedy_cost_bound("corollary-delta", inst, pi_star, 1.0, delta, f" delta={delta!r}")


# --- semi-adaptive value bounds -----------------------------------------------


def verify_semi_max_bound(
    inst: Instance, pi_star: Policy, ell: int, eps: float, k: int | None = None
) -> BoundCheckResult:
    """Truncated semi-adaptive greedy against (1 - e^{-ell/k} - eps) * f_avg(pi_star)."""
    if k is None:
        k = ell
    if k < 1:
        raise MalformedInputError("budget must be >= 1")
    f_star = f_avg_exact(pi_star, inst)
    lhs = f_avg_exact(truncate(semi_adaptive_greedy_max(k, eps), ell), inst)
    rhs = (1.0 - math.exp(-ell / k) - eps) * f_star
    return _result("semi-max-bound", inst, lhs, rhs, f"ell={ell} k={k} eps={eps!r}")


def verify_batch_lemma8(inst: Instance, pi_star: Policy, ell: int, eps: float) -> BoundCheckResult:
    """Batch-calibrated threshold policy against
    (1 - e^{-(1-eps) ell / (E[K]+1)}) * f_avg(pi_star)."""
    f_star, ek = _value_and_count(pi_star, inst)
    if f_star <= _TOL:
        return _result("batch-lemma8", inst, 0.0, 0.0, "vacuous: f_avg(opt)=0")
    try:
        cal = calibrate_tau(inst, ell, mode="sav")
    except InfeasibleError as exc:
        return _result("batch-lemma8", inst, 0.0, 0.0, f"skipped: calibration infeasible: {exc}")
    lhs = f_avg_exact(cal.policy("sav"), inst)
    rhs = (1.0 - math.exp(-(1.0 - eps) * ell / (ek + 1.0))) * f_star
    return _result("batch-lemma8", inst, lhs, rhs, f"ell={ell} eps={eps!r} EK={ek!r}")


# --- round-structure measurements ---------------------------------------------


def measure_superround_decay(
    inst: Instance,
    eps: float,
    delta: float,
    trials: int,
    seed: int = 0,
    policy: Policy | None = None,
    t: int = 0,
) -> BoundCheckResult:
    """Monte Carlo frequency of the best-marginal decay event.

    With Delta_t the best marginal at the state after t queries and
    t_plus = t + ceil(ln(n/delta) / ln(1/(1-eps/2))), the event is that the
    best marginal after t_plus queries is at most (1-eps/2) * Delta_t.  The
    default policy runs the batching greedy to exhaustion, so a run that stops
    before t_plus queries ends with every element observed or only zero-gain
    ones left, and the event holds at that final state (the bound's degenerate
    case); the witness counts runs that reached t_plus queries and runs judged
    at the final state.  The frequency must reach 1 - delta minus 3 binomial
    standard errors.  t=0 fixes the pre-query state, so Delta_t is
    deterministic; t>0 conditions on the sampled state per trajectory,
    skipping trajectories that stop sooner.

    In every tractable setting tried, the default policy ends in fewer than
    t_plus query rounds, so the check is judged at the final state there:
    on criterion 8's cover (n=32, eps=0.2, delta=0.1) t_plus = 55 exceeds
    n = 32, and on build_stochastic_cover(8, 16, 2, seed=3) with eps=0.8,
    delta=0.5 (t_plus = 6) it gives reached=0 over 40 trials where
    greedy_max(8) gives reached=40.
    """
    if not (0 < eps < 1) or not (0 < delta < 1):
        raise MalformedInputError("eps and delta must lie in (0, 1)")
    if trials < 1:
        raise MalformedInputError("trials must be >= 1")
    if inst.n < 1:
        raise MalformedInputError("decay measurement needs at least one element")
    if policy is None:
        policy = semi_adaptive_greedy_max(inst.n, eps)
    t_plus = t + math.ceil(math.log(inst.n / delta) / math.log(1.0 / (1.0 - eps / 2.0)))
    rng = np.random.default_rng(seed)

    def best_marginal(view: PartialRealization) -> float:
        cands = [e for e in range(inst.n) if e not in view]
        if not cands:
            return 0.0
        return max(marginals_for(inst, view, cands))

    delta_0 = best_marginal(EMPTY) if t == 0 else None
    hits = counted = reached = 0
    for _ in range(trials):
        phi = inst.prior.sample(rng)
        tr = run_policy(policy, inst, phi, seed=int(rng.integers(0, 2**31 - 1)), collect_rounds=True)
        views = tr.round_views or ()
        if t == 0:
            base = delta_0
        else:
            if len(views) < t:
                continue
            base = best_marginal(views[t - 1])
        reached += len(views) >= t_plus
        later = views[t_plus - 1] if len(views) >= t_plus else tr.observed
        counted += 1
        if best_marginal(later) <= (1.0 - eps / 2.0) * base + 1e-12:
            hits += 1
    if counted == 0:
        raise InfeasibleError(f"no trajectory reached {t} queries in {trials} trials")
    freq = hits / counted
    stderr = math.sqrt(max(freq * (1.0 - freq), 0.0) / counted)
    rhs = 1.0 - delta - 3.0 * stderr
    return _result(
        "superround-decay",
        inst,
        freq,
        rhs,
        f"t={t} t_plus={t_plus} counted={counted} reached={reached} "
        f"final={counted - reached} policy={policy.name}",
    )


def verify_round_complexity(
    instances: Sequence[Instance],
    eps: float,
    k_for: Callable[[int], int] | None = None,
    trials: int = 40,
    seed: int = 0,
) -> list[BoundCheckResult]:
    """Expected query rounds across a size sweep, referenced to ln(n) * ln(k).

    Emits one informational row per instance (lhs = measured rounds, rhs =
    reference curve) and a summary row asserting max/min of the measured-to-
    reference ratio stays under 3.
    """
    if k_for is None:
        k_for = lambda n: max(2, math.ceil(n / 4))
    if not instances:
        raise MalformedInputError("need at least one instance")
    rows: list[BoundCheckResult] = []
    ratios: list[float] = []
    rng = np.random.default_rng(seed)
    for inst in instances:
        k = k_for(inst.n)
        if k < 2:
            raise MalformedInputError("round-complexity reference needs k >= 2")
        policy = semi_adaptive_greedy_max(k, eps)
        total = 0.0
        for _ in range(trials):
            phi = inst.prior.sample(rng)
            tr = run_policy(policy, inst, phi, seed=int(rng.integers(0, 2**31 - 1)))
            total += tr.rounds
        rounds = total / trials
        ref = math.log(inst.n) * math.log(k)
        ratio = rounds / ref
        ratios.append(ratio)
        rows.append(_result("round-complexity", inst, rounds, ref,
                            f"n={inst.n} k={k} ratio={ratio!r}", satisfied=True))
    spread = max(ratios) / min(ratios) if min(ratios) > 0 else math.inf
    rows.append(_result("round-complexity-ratio", "family", 3.0, spread,
                        "ratios=" + ";".join(repr(r) for r in ratios)))
    return rows


def verify_hardness(k: int, r: int, trials: int, seed: int = 0) -> list[BoundCheckResult]:
    """Monte Carlo over random bag decompositions: the fully adaptive greedy
    always reaches value k, while r-batched selection is capped near
    (k/r) * (log2(r)^2 + 1) in expectation."""
    if trials < 2:
        raise MalformedInputError("need at least two trials")
    inst = build_bags(k)
    rng = np.random.default_rng(seed)
    greedy = greedy_max(k)
    batch = fixed_batch_greedy(r, k)
    exact_hits = 0
    values = np.empty(trials)
    for i in range(trials):
        phi = inst.prior.sample(rng)
        s1 = int(rng.integers(0, 2**31 - 1))
        s2 = int(rng.integers(0, 2**31 - 1))
        tr_g = run_policy(greedy, inst, phi, seed=s1)
        if abs(tr_g.value - k) <= _TOL:
            exact_hits += 1
        values[i] = run_policy(batch, inst, phi, seed=s2).value
    frac = exact_hits / trials
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(trials))
    bound = (k / r) * (math.log2(r) ** 2 + 1.0)
    return [
        _result("hardness-greedy", inst, frac, 1.0, f"k={k} trials={trials}"),
        _result("hardness-batch", inst, bound + 3.0 * stderr, mean,
                f"k={k} r={r} mean={mean!r} stderr={stderr!r}"),
    ]
