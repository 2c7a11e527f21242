"""Ground-set model: realizations, partial observations, priors, utilities, instances.

Elements are integers 0..n-1 and outcomes are integer labels 0..m-1.  A full
realization assigns every element an outcome and is represented as a plain
tuple of length n.  A partial realization records the outcomes observed so
far and is the state every policy and utility operates on.
"""
from __future__ import annotations

import itertools
import math
import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    AlreadyObservedError,
    InconsistentObservationError,
    MalformedInputError,
    TooLargeError,
)

# Enumeration caps; each can be overridden by the matching ADASUB_* env var.
# Documented in the CLI help and README.
CAP_DEFAULTS = {
    "max_support": 10**6,   # prior support size x policy seed branches
    "max_states": 10**5,    # memoized DP states; marginal cache entries per instance
    "branch_cap": 10**4,    # exact joint pending-outcome branches
    "mc_fallback": 10**4,   # samples used when the branch cap is exceeded
}


def read_number(value: object, kind: type, what: str) -> int | float:
    """`value` as a float, or as an int when `kind` is int: float() decides what
    is a number (its errors propagate for the caller to word), and an int must
    also be integral (2, 2.0 and "2" give 2; 2.5 is malformed)."""
    x = float(value)
    if kind is float:
        return x
    if not x.is_integer():
        raise MalformedInputError(f"{what} is not an integer: {value!r}")
    try:
        return int(value)  # exact for ints and digit strings
    except ValueError:
        return int(x)  # "2.0"


def cap_value(name: str) -> int:
    var = "ADASUB_" + name.upper()
    env = os.environ.get(var)
    if env is None:
        return CAP_DEFAULTS[name]
    try:
        value = read_number(env, int, var)
    except ValueError:
        raise MalformedInputError(f"{var}={env!r} is not an integer") from None
    if value < 1:
        raise MalformedInputError(f"{var}={env!r} must be at least 1")
    return value


def check_finite(what: str, values: Iterable[float]) -> None:
    """Reject NaN and +-inf among values read from input."""
    for v in values:
        if not math.isfinite(v):
            raise MalformedInputError(f"{what} is not a finite number: {v!r}")


Element = int
Outcome = int
Realization = tuple[int, ...]


class PartialRealization:
    """Immutable map element -> observed outcome, canonical on sorted pairs."""

    __slots__ = ("_pairs", "_map")

    def __init__(self, pairs: Iterable[tuple[int, int]] | dict[int, int] = ()):
        m: dict[int, int] = {}
        if isinstance(pairs, dict):
            m.update(pairs)
        else:
            for e, o in pairs:
                if e in m and m[e] != o:
                    raise InconsistentObservationError(
                        f"conflicting outcomes for element {e}: {m[e]} vs {o}"
                    )
                m[e] = o
        self._map = m
        self._pairs = tuple(sorted(m.items()))

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return self._pairs

    @property
    def domain(self) -> frozenset[int]:
        return frozenset(self._map)

    def get(self, e: int, default: int | None = None) -> int | None:
        return self._map.get(e, default)

    def outcome(self, e: int) -> int:
        return self._map[e]

    def __contains__(self, e: int) -> bool:
        return e in self._map

    def __len__(self) -> int:
        return len(self._map)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self._pairs)

    def extend(self, e: int, o: int) -> "PartialRealization":
        if e in self._map:
            raise AlreadyObservedError(f"element {e} already observed")
        i = bisect_left(self._pairs, (e, o))
        out = PartialRealization.__new__(PartialRealization)
        out._map, out._pairs = {**self._map, e: o}, self._pairs[:i] + ((e, o),) + self._pairs[i:]
        return out

    def union(self, other: "PartialRealization") -> "PartialRealization":
        """Merge two observation sets; agreeing overlap is fine."""
        merged = dict(self._map)
        for e, o in other._pairs:
            if merged.get(e, o) != o:
                raise InconsistentObservationError(
                    f"conflicting outcomes for element {e}: {merged[e]} vs {o}"
                )
            merged[e] = o
        out = PartialRealization.__new__(PartialRealization)
        out._map, out._pairs = merged, tuple(sorted(merged.items()))
        return out

    def restrict(self, elements: Iterable[int]) -> "PartialRealization":
        keep = set(elements)
        return PartialRealization((e, o) for e, o in self._pairs if e in keep)

    @staticmethod
    def project(phi: Realization, elements: Iterable[int]) -> "PartialRealization":
        return PartialRealization((e, phi[e]) for e in elements)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PartialRealization) and self._pairs == other._pairs

    def __hash__(self) -> int:
        return hash(self._pairs)

    def __repr__(self) -> str:
        body = ", ".join(f"{e}:{o}" for e, o in self._pairs)
        return f"{{{body}}}"


EMPTY = PartialRealization()


def is_consistent(psi: PartialRealization, phi: Realization) -> bool:
    """True iff phi agrees with every observation in psi."""
    return all(phi[e] == o for e, o in psi.pairs)


def is_subrealization(a: PartialRealization, b: PartialRealization) -> bool:
    """True iff every observation in a also appears in b."""
    return all(b.get(e) == o for e, o in a.pairs)


class Prior:
    """Distribution over full realizations with a finite support.

    Concrete priors must iterate their support in a deterministic order and
    expose exact conditional outcome distributions; everything else in the
    package is built on those two operations.
    """

    n: int
    num_outcomes: int
    kind: str = "abstract"

    def support_size(self) -> int:
        raise NotImplementedError

    def support(self) -> Iterator[tuple[Realization, float]]:
        """Yield (realization, weight) pairs, positive weights only."""
        raise NotImplementedError

    def sample(self, rng) -> Realization:
        raise NotImplementedError

    def outcome_dist(self, e: int, psi: PartialRealization) -> tuple[tuple[int, float], ...]:
        """Posterior distribution of element e's outcome given psi.

        Returns ((outcome, probability), ...) sorted by outcome, zero-mass
        outcomes omitted.  Raises AlreadyObservedError when e is in dom(psi)
        and InconsistentObservationError when psi has no mass.
        """
        raise NotImplementedError

    def condition(self, psi: PartialRealization) -> "Prior":
        raise NotImplementedError

    def mass(self, psi: PartialRealization) -> float:
        """Total prior probability of realizations consistent with psi."""
        raise NotImplementedError

    def min_weight(self) -> float:
        """Smallest positive probability of any single realization."""
        raise NotImplementedError

    def joint_dist(
        self, psi: PartialRealization, elements: Sequence[int], cap: int
    ) -> list[tuple[tuple[int, ...], float]]:
        """Exact joint posterior of `elements` given psi, as (assignment, prob) rows.

        Generic implementation chains outcome_dist; subclasses may override
        with something faster.  Raises TooLargeError past `cap` rows.
        """
        rows: list[tuple[tuple[int, ...], float]] = []

        def rec(i: int, cur: PartialRealization, prob: float, acc: list[int]) -> None:
            if i == len(elements):
                rows.append((tuple(acc), prob))
                if len(rows) > cap:
                    raise TooLargeError(
                        f"joint distribution over {len(elements)} elements exceeds cap {cap}"
                    )
                return
            e = elements[i]
            for o, p in self.outcome_dist(e, cur):
                acc.append(o)
                rec(i + 1, cur.extend(e, o), prob * p, acc)
                acc.pop()

        rec(0, psi, 1.0, [])
        return rows


def _validate_psi_range(psi: PartialRealization, n: int, m: int) -> None:
    for e, o in psi.pairs:
        if not (0 <= e < n):
            raise MalformedInputError(f"element {e} outside ground set of size {n}")
        if not (0 <= o < m):
            raise MalformedInputError(f"outcome {o} outside label range of size {m}")


class TablePrior(Prior):
    """Explicit weighted list of realizations (the canonical prior form).

    Zero-weight rows are dropped, duplicate realizations merged, and weights
    normalized to sum to one at construction.
    """

    kind = "table"

    def __init__(self, rows: Iterable[tuple[Sequence[int], float]], num_outcomes: int | None = None):
        merged: dict[tuple[int, ...], float] = {}
        n = None
        for outcomes, w in rows:
            t = tuple(int(o) for o in outcomes)
            if n is None:
                n = len(t)
            elif len(t) != n:
                raise MalformedInputError("realization rows have inconsistent lengths")
            if w < 0:
                raise MalformedInputError(f"negative weight {w}")
            check_finite("realization weight", [w])
            if w == 0:
                continue
            merged[t] = merged.get(t, 0.0) + float(w)
        if not merged or n is None:
            raise MalformedInputError("prior needs at least one positive-weight realization")
        total = math.fsum(merged.values())
        if total <= 0:
            raise MalformedInputError("prior weights sum to zero")
        self.n = n
        items = sorted(merged.items())
        self._rows: tuple[tuple[Realization, float], ...] = tuple(
            (t, w / total) for t, w in items
        )
        max_label = max((max(t) for t, _ in items if t), default=-1)
        if num_outcomes is None:
            num_outcomes = max(max_label + 1, 1)
        elif max_label >= num_outcomes:
            raise MalformedInputError(
                f"outcome label {max_label} outside declared range {num_outcomes}"
            )
        self.num_outcomes = num_outcomes
        cum: list[float] = []
        acc = 0.0
        for _, w in self._rows:
            acc += w
            cum.append(acc)
        self._cum = cum

    def support_size(self) -> int:
        return len(self._rows)

    def support(self) -> Iterator[tuple[Realization, float]]:
        return iter(self._rows)

    def sample(self, rng) -> Realization:
        u = float(rng.random())
        i = bisect_left(self._cum, u)
        if i >= len(self._rows):
            i = len(self._rows) - 1
        return self._rows[i][0]

    def _consistent_rows(self, psi: PartialRealization) -> Iterator[tuple[Realization, float]]:
        pairs = psi.pairs
        for t, w in self._rows:
            if all(t[e] == o for e, o in pairs):
                yield t, w

    def outcome_dist(self, e: int, psi: PartialRealization) -> tuple[tuple[int, float], ...]:
        if e in psi:
            raise AlreadyObservedError(f"element {e} already observed")
        _validate_psi_range(psi, self.n, self.num_outcomes)
        if not (0 <= e < self.n):
            raise MalformedInputError(f"element {e} outside ground set of size {self.n}")
        acc: dict[int, list[float]] = {}
        for t, w in self._consistent_rows(psi):
            acc.setdefault(t[e], []).append(w)
        if not acc:
            raise InconsistentObservationError(f"no prior mass consistent with {psi!r}")
        total = math.fsum(w for ws in acc.values() for w in ws)
        return tuple((o, math.fsum(ws) / total) for o, ws in sorted(acc.items()))

    def condition(self, psi: PartialRealization) -> "TablePrior":
        _validate_psi_range(psi, self.n, self.num_outcomes)
        rows = list(self._consistent_rows(psi))
        if not rows:
            raise InconsistentObservationError(f"no prior mass consistent with {psi!r}")
        return TablePrior(rows, num_outcomes=self.num_outcomes)

    def mass(self, psi: PartialRealization) -> float:
        _validate_psi_range(psi, self.n, self.num_outcomes)
        return math.fsum(w for _, w in self._consistent_rows(psi))

    def min_weight(self) -> float:
        return min(w for _, w in self._rows)

    def joint_dist(
        self, psi: PartialRealization, elements: Sequence[int], cap: int
    ) -> list[tuple[tuple[int, ...], float]]:
        _validate_psi_range(psi, self.n, self.num_outcomes)
        acc: dict[tuple[int, ...], list[float]] = {}
        for t, w in self._consistent_rows(psi):
            acc.setdefault(tuple(t[e] for e in elements), []).append(w)
        if not acc:
            raise InconsistentObservationError(f"no prior mass consistent with {psi!r}")
        if len(acc) > cap:
            raise TooLargeError(f"joint distribution has {len(acc)} branches, cap {cap}")
        total = math.fsum(w for ws in acc.values() for w in ws)
        return [(a, math.fsum(ws) / total) for a, ws in sorted(acc.items())]


class ProductPrior(Prior):
    """Independent per-element outcome distributions."""

    kind = "product"

    def __init__(self, marginals: Sequence[Sequence[float]]):
        rows = []
        m = None
        for row in marginals:
            r = [float(p) for p in row]
            if m is None:
                m = len(r)
            elif len(r) != m:
                raise MalformedInputError("marginal rows have inconsistent lengths")
            if any(p < 0 for p in r):
                raise MalformedInputError("negative marginal probability")
            check_finite("marginal probability", r)
            total = math.fsum(r)
            if total <= 0:
                raise MalformedInputError("marginal row sums to zero")
            rows.append(tuple(p / total for p in r))
        if not rows or m is None:
            raise MalformedInputError("product prior needs at least one element")
        self.n = len(rows)
        self.num_outcomes = m
        self.marginals: tuple[tuple[float, ...], ...] = tuple(rows)
        self._nonzero = tuple(
            tuple((o, p) for o, p in enumerate(row) if p > 0) for row in rows
        )
        # Cumulative sums over the nonzero outcomes only, so a draw can never
        # land on an outcome of zero mass.
        self._cum = tuple(
            tuple(itertools.accumulate(p for _o, p in nz)) for nz in self._nonzero
        )

    def support_size(self) -> int:
        size = 1
        for nz in self._nonzero:
            size *= len(nz)
        return size

    def support(self) -> Iterator[tuple[Realization, float]]:
        # Lazy, as the support can be far too large to list; math.prod
        # multiplies left to right from 1, so each weight is the running product.
        labels = [[o for o, _p in nz] for nz in self._nonzero]
        probs = [[p for _o, p in nz] for nz in self._nonzero]
        return zip(itertools.product(*labels), map(math.prod, itertools.product(*probs)))

    def sample(self, rng) -> Realization:
        us = rng.random(self.n)
        out = []
        for e, nz in enumerate(self._nonzero):
            # Rounding can leave the last cumulative sum just below 1.
            i = min(bisect_right(self._cum[e], float(us[e])), len(nz) - 1)
            out.append(nz[i][0])
        return tuple(out)

    def _check_consistent(self, psi: PartialRealization) -> None:
        _validate_psi_range(psi, self.n, self.num_outcomes)
        for e, o in psi.pairs:
            if self.marginals[e][o] <= 0:
                raise InconsistentObservationError(
                    f"observed outcome {o} for element {e} has zero prior mass"
                )

    def outcome_dist(self, e: int, psi: PartialRealization) -> tuple[tuple[int, float], ...]:
        if e in psi:
            raise AlreadyObservedError(f"element {e} already observed")
        if not (0 <= e < self.n):
            raise MalformedInputError(f"element {e} outside ground set of size {self.n}")
        self._check_consistent(psi)
        return self._nonzero[e]

    def condition(self, psi: PartialRealization) -> "ProductPrior":
        self._check_consistent(psi)
        rows = []
        for e, row in enumerate(self.marginals):
            o = psi.get(e)
            if o is None:
                rows.append(row)
            else:
                point = [0.0] * self.num_outcomes
                point[o] = 1.0
                rows.append(tuple(point))
        return ProductPrior(rows)

    def mass(self, psi: PartialRealization) -> float:
        _validate_psi_range(psi, self.n, self.num_outcomes)
        p = 1.0
        for e, o in psi.pairs:
            p *= self.marginals[e][o]
        return p

    def min_weight(self) -> float:
        p = 1.0
        for nz in self._nonzero:
            p *= min(q for _, q in nz)
        return p


def expand_product(prior: ProductPrior) -> TablePrior:
    """Materialize a product prior as an explicit table (error past max_support rows)."""
    cap = cap_value("max_support")
    size = prior.support_size()
    if size > cap:
        raise TooLargeError(f"product support has {size} realizations, cap {cap}")
    return TablePrior(list(prior.support()), num_outcomes=prior.num_outcomes)


class UtilityFunction:
    """Utility evaluated on a partial realization; monotone families return floats >= 0."""

    name = "abstract"

    def __call__(self, psi: PartialRealization) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class CoverageSpec:
    """Coverage target: reach utility quota at minimum expected selection cost."""

    quota: float
    eta: float = 1.0
    costs: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.quota <= 0:
            raise MalformedInputError("coverage quota must be positive")
        if self.eta <= 0:
            raise MalformedInputError("eta must be positive")
        if self.costs is not None and any(c <= 0 for c in self.costs):
            raise MalformedInputError("element costs must be positive")
        check_finite("coverage quota", [self.quota])
        check_finite("eta", [self.eta])
        check_finite("element cost", self.costs or ())


@dataclass(frozen=True, eq=False)
class Instance:
    """A ground set, a prior over realizations, a utility, and optional extras.

    reveal: optional observation hook; querying element e reveals
        reveal(phi, e) -> iterable of (element, outcome) pairs instead of just
        (e, phi[e]).  Used by instance families where one observation exposes
        others (the utility still scores the selected projection only).
    fast_marginals / fast_sav: optional scoring hooks, used when present.
        fast_sav has the signature of policies._sav_and_denom, through which
        policies score every decision state, empty batch included;
        fast_marginals has that of engine.marginals_for and serves it.  Both
        are exact except where the _sav_and_denom docstring says ("sav-mc").
        A hook reads the prior and utility of the instance it is handed and
        returns None outside its family; the definition then answers.
    """

    name: str
    n: int
    num_outcomes: int
    prior: Prior
    utility: UtilityFunction
    coverage: CoverageSpec | None = None
    reveal: Callable[[Realization, int], Iterable[tuple[int, int]]] | None = None
    fast_marginals: Callable | None = None
    fast_sav: Callable | None = None

    def __post_init__(self):
        if self.n < 0:
            raise MalformedInputError("element count cannot be negative")
        if self.num_outcomes < 1:
            raise MalformedInputError("instance needs at least one outcome label")
        if self.prior.n != self.n:
            raise MalformedInputError(
                f"prior is over {self.prior.n} elements, instance declares {self.n}"
            )
        if self.coverage is not None and self.coverage.costs is not None:
            if len(self.coverage.costs) != self.n:
                raise MalformedInputError("cost vector length must equal n")

    def cost(self, e: int) -> float:
        if self.coverage is not None and self.coverage.costs is not None:
            return self.coverage.costs[e]
        return 1.0

    def observe(self, phi: Realization, e: int) -> list[tuple[int, int]]:
        """Everything revealed by querying element e under realization phi."""
        if self.reveal is None:
            return [(e, phi[e])]
        return sorted(self.reveal(phi, e))
