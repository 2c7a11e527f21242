"""Instance families, their utilities, and the canonical file format.

Families: explicit tabular priors with stochastic-coverage utilities, product
priors over random cover systems, the bags round-complexity instance, and the
three-element truncation pair.  Families that admit closed-form or vectorized
scoring install a fast_sav hook on the built instance.
"""
from __future__ import annotations

import json
import math
from typing import Any, Iterable, Sequence
from weakref import WeakKeyDictionary

from .errors import (
    InconsistentObservationError,
    MalformedInputError,
    TooLargeError,
)
from .model import (
    AlreadyObservedError,
    CoverageSpec,
    Instance,
    PartialRealization,
    Prior,
    ProductPrior,
    Realization,
    TablePrior,
    UtilityFunction,
    cap_value,
    check_elements,
    check_finite,
    read_number,
)

# --- utility families --------------------------------------------------------


class CoverUtility(UtilityFunction):
    """Weighted stochastic coverage: (element, outcome) covers a fixed subset
    of a universe; f = total weight of the union of covered subsets.

    Monotone and adaptive submodular for any prior when covers depend only on
    the element's own outcome.
    """

    def __init__(
        self,
        universe: int,
        covers: Sequence[Sequence[Iterable[int]]],
        weights: Sequence[float] | None = None,
    ):
        if universe < 0:
            raise MalformedInputError("universe size cannot be negative")
        self.universe = universe
        self.covers = tuple(
            tuple(frozenset(int(u) for u in per_outcome) for per_outcome in per_element)
            for per_element in covers
        )
        for per_element in self.covers:
            for s in per_element:
                for u in s:
                    if not (0 <= u < universe):
                        raise MalformedInputError(f"covered item {u} outside universe")
        if weights is not None:
            weights = tuple(float(w) for w in weights)
            if len(weights) != universe:
                raise MalformedInputError("item weight vector length must equal universe size")
            if any(w < 0 for w in weights):
                raise MalformedInputError("item weights must be non-negative")
            check_finite("item weight", weights)
        self.weights = weights
        self.name = "coverage"
        self._bits = tuple(
            tuple(self._to_bits(s) for s in per_element) for per_element in self.covers
        )

    @staticmethod
    def _to_bits(items: frozenset[int]) -> int:
        acc = 0
        for u in items:
            acc |= 1 << u
        return acc

    def num_outcomes(self) -> int:
        return max((len(p) for p in self.covers), default=0)

    def covered_bits(self, psi: PartialRealization) -> int:
        acc = 0
        for e, o in psi.pairs:
            acc |= self._bits[e][o]
        return acc

    def __call__(self, psi: PartialRealization) -> float:
        acc = self.covered_bits(psi)
        if self.weights is None:
            return float(acc.bit_count())
        total = 0.0
        u = 0
        while acc:
            if acc & 1:
                total += self.weights[u]
            acc >>= 1
            u += 1
        return total


class BagCountUtility(UtilityFunction):
    """Number of distinct outcome labels observed (outcomes encode group ids)."""

    def __init__(self):
        self.name = "bag-count"

    def __call__(self, psi: PartialRealization) -> float:
        return float(len({o for _e, o in psi.pairs}))


class MatchPairUtility(UtilityFunction):
    """Three elements x=0, y=1, z=2: z contributes 1; exactly one of x, y
    contributes 1; both contribute 2 on equal outcomes and 0 otherwise.
    With truncated=True the value is capped at 1, which is the standard
    counterexample to truncation preserving the diminishing-returns property.
    """

    def __init__(self, truncated: bool = False):
        self.truncated = truncated
        self.name = "match-pair-trunc" if truncated else "match-pair"

    def __call__(self, psi: PartialRealization) -> float:
        v = 1.0 if 2 in psi else 0.0
        has_x, has_y = 0 in psi, 1 in psi
        if has_x and has_y:
            v += 2.0 if psi.outcome(0) == psi.outcome(1) else 0.0
        elif has_x or has_y:
            v += 1.0
        return min(v, 1.0) if self.truncated else v


class ModularUtility(UtilityFunction):
    """Additive per-(element, outcome) values."""

    def __init__(self, values: Sequence[Sequence[float]]):
        self.values = tuple(tuple(float(v) for v in row) for row in values)
        for row in self.values:
            check_finite("modular value", row)
        self.name = "modular"

    def __call__(self, psi: PartialRealization) -> float:
        return math.fsum(self.values[e][o] for e, o in psi.pairs)


# --- bags prior ---------------------------------------------------------------


def _multinomial(n: int, sizes: Sequence[int]) -> int:
    total = math.factorial(n)
    for c in sizes:
        total //= math.factorial(c)
    return total


class BagsPrior(Prior):
    """Uniformly random decomposition of the ground set into bags of fixed
    sizes; the outcome of an element is its bag id.

    Exchangeability gives closed-form free-slot conditionals:
    P(element in bag j | psi) = (remaining capacity of j) / (unassigned count).
    """

    def __init__(self, sizes: Sequence[int], _base: PartialRealization | None = None):
        sizes = tuple(int(c) for c in sizes)
        if not sizes or any(c < 1 for c in sizes):
            raise MalformedInputError("bag sizes must be positive")
        self.sizes = sizes
        self.n = sum(sizes)
        self.num_outcomes = len(sizes)
        self.kind = "bags"
        self._base = _base if _base is not None else PartialRealization()
        self._check(self._base)

    def _check_elements(self, psi: PartialRealization) -> None:
        # psi's pairs are sorted by element, so the first and the last bound the rest
        check_elements((e for e, _o in psi.pairs[:1] + psi.pairs[-1:]), self.n)

    def _check(self, psi: PartialRealization) -> list[int]:
        self._check_elements(psi)
        free = list(self.sizes)
        for e, o in psi.pairs:
            if not (0 <= o < self.num_outcomes):
                raise InconsistentObservationError(f"bag id {o} out of range")
            free[o] -= 1
            if free[o] < 0:
                raise InconsistentObservationError(f"bag {o} over capacity in {psi!r}")
        return free

    def _merged(self, psi: PartialRealization) -> PartialRealization:
        return self._base.union(psi) if len(self._base) else psi

    def support_size(self) -> int:
        free = self._check(self._base)
        return _multinomial(self.n - len(self._base), [c for c in free])

    def support(self):
        w = 1.0 / self.support_size()
        base = dict(self._base.pairs)
        unassigned = [e for e in range(self.n) if e not in base]
        free = self._check(self._base)

        def rec(idx: int, free: list[int], acc: dict[int, int]):
            if idx == len(unassigned):
                yield tuple(acc[e] for e in range(self.n)), w
                return
            e = unassigned[idx]
            for j in range(self.num_outcomes):
                if free[j] > 0:
                    free[j] -= 1
                    acc[e] = j
                    yield from rec(idx + 1, free, acc)
                    free[j] += 1
            acc.pop(e, None)

        yield from rec(0, free, dict(base))

    def sample(self, rng) -> Realization:
        if len(self._base) == 0:
            # Unconditioned: lay bag labels over a random permutation.
            import numpy as np
            perm = rng.permutation(self.n)
            labels = np.repeat(np.arange(self.num_outcomes), self.sizes)
            out = np.empty(self.n, dtype=int)
            out[perm] = labels
            return tuple(int(o) for o in out)
        free = self._check(self._base)
        out = dict(self._base.pairs)
        left = self.n - len(out)
        for e in range(self.n):
            if e in out:
                continue
            u = rng.random() * left
            acc = 0.0
            pick = self.num_outcomes - 1
            for j in range(self.num_outcomes):
                acc += free[j]
                if u < acc:
                    pick = j
                    break
            out[e] = pick
            free[pick] -= 1
            left -= 1
        return tuple(out[e] for e in range(self.n))

    def outcome_dist(self, e: int, psi: PartialRealization):
        merged = self._merged(psi)
        if e in merged:
            raise AlreadyObservedError(f"element {e} already observed")
        check_elements((e,), self.n)
        free = self._check(merged)
        left = self.n - len(merged)
        return tuple((j, free[j] / left) for j in range(self.num_outcomes) if free[j] > 0)

    def condition(self, psi: PartialRealization) -> "BagsPrior":
        return BagsPrior(self.sizes, _base=self._merged(psi))

    def mass(self, psi: PartialRealization) -> float:
        # Sequential slot draws for the part of psi beyond the base; 0 if psi
        # disagrees with the base, names no bag or overfills one.
        self._check_elements(psi)
        base = dict(self._base.pairs)
        free, k = self._check(self._base), self.num_outcomes
        p = 1.0
        left = self.n - len(base)
        for e, o in psi.pairs:
            if e in base:
                if base[e] != o:
                    return 0.0
                continue
            c = free[o] if 0 <= o < k else 0
            if not c:
                return 0.0
            p *= c / left
            free[o] = c - 1
            left -= 1
        return p

    def min_weight(self) -> float:
        return 1.0 / self.support_size()


# --- family builders ----------------------------------------------------------


def _bags_reveal(phi: Realization, e: int) -> list[tuple[int, int]]:
    bag = phi[e]
    return [(i, bag) for i, o in enumerate(phi) if o == bag]


_bags_fast_marginals = None  # read by bench/tracing.py until ROADMAP item 8


def _bags_fast_sav(inst: Instance, psi: PartialRealization, pending, cands, ctx, cap=None):
    """Closed-form bags scores; None outside the family or for a conditioned prior."""
    if not (isinstance(inst.prior, BagsPrior) and isinstance(inst.utility, BagCountUtility)
            and not len(inst.prior._base)):
        return None
    sizes = inst.prior.sizes
    k = len(sizes)
    seen = {o for _e, o in psi.pairs}
    free = list(sizes)
    for _e, o in psi.pairs:
        free[o] -= 1
    T = inst.n - len(psi)
    m = len(pending)
    blocked = set(psi.domain) | set(pending)
    if T - m <= 0:
        return [0.0 for _ in cands], 0.0
    if cap is not None and cap < k:
        # f counts at most k bags, so only a cap below k changes a score.
        # Every free element scores the same, which is also the reference term.
        gain = _bags_capped_gain(free, seen, T, m, cap)
        return [0.0 if e in blocked else gain for e in cands], gain

    sav_const = 0.0
    denom_mass = 0.0
    for j in range(k):
        if j in seen or free[j] == 0:
            continue
        # e lands in j, then the batch avoids j's remaining slots
        avoid_given_e = 1.0
        for i in range(m):
            avoid_given_e *= ((T - 1 - i) - (free[j] - 1)) / (T - 1 - i)
        sav_const += (free[j] / T) * avoid_given_e
        # the batch avoids j entirely (for the post-batch best marginal)
        avoid = 1.0
        for i in range(m):
            avoid *= ((T - i) - free[j]) / (T - i)
        denom_mass += free[j] * avoid
    denom = denom_mass / (T - m)
    savs = [0.0 if e in blocked else sav_const for e in cands]
    return savs, denom


def _bags_capped_gain(free: list[int], seen: set[int], T: int, m: int, cap: float) -> float:
    """Expected min(f, cap) gain of a free element once a batch of m resolves.

    The batch takes c_j of bag j's free slots with weight prod_j C(free_j, c_j)
    out of C(T, m).  Given the batch, the element lands in an unseen bag it
    missed with probability (free slots of those bags) / (T - m), and then
    gains min(1, cap - f), f being the seen bags plus the unseen ones the
    batch hit.  The walk over unseen bags keeps, per (slots taken, bags hit),
    the weight and the weight times the free slots of the bags missed, in
    integers; states whose gain is already 0 are dropped.
    """
    room = cap - len(seen)
    if room <= 0:
        return 0.0
    states = {(0, 0): (1, 0)}  # (slots taken, bags hit) -> (weight, weighted missed slots)
    for j, slots in enumerate(free):
        if j in seen:
            continue
        nxt: dict[tuple[int, int], tuple[int, int]] = {}
        for (s, d), (w, a) in states.items():
            for c in range(min(slots, m - s) + 1):
                if c and d + 1 >= room:
                    break
                b = math.comb(slots, c)
                key = (s + c, d + (c > 0))
                w0, a0 = nxt.get(key, (0, 0))
                nxt[key] = (w0 + w * b, a0 + (a if c else a + slots * w) * b)
        states = nxt
    seen_slots = sum(free[j] for j in seen)
    whole = math.comb(T, m) * (T - m)
    return math.fsum(min(1.0, room - d) * (math.comb(seen_slots, m - s) * a / whole)
                     for (s, d), (_w, a) in states.items())


def _hooks(prior: Prior, utility: UtilityFunction) -> dict[str, Any]:
    """Instance keyword arguments naming the reveal rule and scorer hook of a
    (prior, utility) pair, read from the module globals at each call."""
    if isinstance(prior, BagsPrior) and isinstance(utility, BagCountUtility):
        return dict(reveal=_bags_reveal, fast_sav=_bags_fast_sav)
    if isinstance(prior, ProductPrior) and isinstance(utility, CoverUtility):
        return dict(fast_sav=_cover_fast_hooks(prior, utility)[1])
    return {}


def build_bags(k: int, seed: int | None = None) -> Instance:
    """Ground set of 2^k − 1 elements in k bags of sizes 2^0..2^{k−1} under a
    uniformly random decomposition; value = distinct bags among selections;
    selecting an element also reveals all of its bag-mates.

    The family is permutation-symmetric, so the seed does not alter the
    distribution; the parameter exists for interface uniformity.
    """
    if k < 1:
        raise MalformedInputError("bag count must be >= 1")
    if k > 12:
        raise TooLargeError("bag count above 12 (ground set 2^k - 1 is unmanageable)")
    sizes = tuple(2**j for j in range(k))
    prior = BagsPrior(sizes)
    utility = BagCountUtility()
    return Instance(
        name=f"bags-k{k}",
        n=prior.n,
        num_outcomes=k,
        prior=prior,
        utility=utility,
        coverage=CoverageSpec(quota=float(k), eta=1.0),
        **_hooks(prior, utility),
    )


def build_truncation_pair() -> tuple[Instance, Instance]:
    """The three-element pair: f in-class, g = min(f, 1) with a known violation."""
    prior = ProductPrior([[0.5, 0.5], [0.5, 0.5], [1.0, 0.0]])
    f_inst = Instance(
        name="trunc-f", n=3, num_outcomes=2, prior=prior, utility=MatchPairUtility(False)
    )
    g_inst = Instance(
        name="trunc-g", n=3, num_outcomes=2, prior=prior, utility=MatchPairUtility(True)
    )
    return f_inst, g_inst


class _CoverTables:
    """Arrays behind the cover scorer of one instance, built on first use."""

    def __init__(self, prior: ProductPrior, utility: CoverUtility):
        import numpy as np
        n, U = prior.n, utility.universe
        m = utility.num_outcomes()
        self.marg = np.zeros((n, m))
        self.marg[:, : prior.num_outcomes] = prior.marginals
        self.w_items = np.ones(U) if utility.weights is None else np.array(utility.weights)
        # Covered items as ints and as little-endian 64-bit words, zero-weight items left out.
        live = sum(1 << u for u in np.flatnonzero(self.w_items > 0).tolist())
        bits = [[(s[o] if o < len(s) else 0) & live for o in range(m)] for s in utility._bits]
        size = 8 * -(-U // 64)
        blob = bytearray(b"".join(b.to_bytes(size, "little") for s in bits for b in s))
        self.words = np.frombuffer(blob, dtype=np.uint64).reshape(n, m, size // 8)
        self.cover = np.unpackbits(  # (n, m, U)
            self.words.view(np.uint8), axis=-1, count=U, bitorder="little").astype(bool)
        # Gains go through 0/1 masks; item weights enter once, through uw.
        self.mask = self.cover.astype(float)
        # P(element leaves item u uncovered) and the expected gain weights.
        self.miss = (self.marg[:, :, None] * ~self.cover).sum(axis=1)  # (n, U)
        self.H = (self.marg[:, :, None] * self.mask).sum(axis=1)  # (n, U)
        # Nonzero outcomes per element, left-aligned: labels, probabilities and
        # cumulative sums (padded with inf so no draw lands past the last one).
        nonzero = self.marg > 0
        self.nopts = nonzero.sum(axis=1)
        self.labels = np.argsort(~nonzero, axis=1, kind="stable")
        self.probs = np.take_along_axis(self.marg, self.labels, axis=1)
        self.cum = np.where(np.arange(m) < self.nopts[:, None], self.probs.cumsum(axis=1), np.inf)
        # reach[e] / leave[e]: the items some positive-mass outcome of e covers / misses.
        self.reach, self.leave = [0] * n, [0] * n
        for e, o in zip(*np.nonzero(self.marg > 0)):
            self.reach[e] |= bits[e][o]
            self.leave[e] |= ~bits[e][o] & ((1 << U) - 1)


_COVER_TABLES: "WeakKeyDictionary[Instance, _CoverTables]" = WeakKeyDictionary()


def _cover_branches(t: _CoverTables, pending: list[int], ctx):
    """Covered-item words (B, ceil(U/64)) and weights (B,) of the batch's
    joint outcomes: all of them, in itertools.product order, under the
    branch cap; else seeded samples."""
    import numpy as np
    sizes = t.nopts[pending]
    count = math.prod(sizes.tolist())
    if count <= cap_value("branch_cap"):
        idx = np.indices(tuple(sizes)).reshape(len(pending), count)
        ws = np.ones(count)
        for p, row in zip(pending, idx):
            ws *= t.probs[p, row]
    else:
        ctx.flags.add("sav-mc")
        B = cap_value("mc_fallback")
        # One (q, B) draw reads the same stream as q draws of B, one per
        # pending element; each index is a right-side searchsorted.
        u = ctx.rng.random((len(pending), B))
        idx = np.zeros(u.shape, dtype=int)
        for j in range(t.marg.shape[1]):
            idx += t.cum[pending, j][:, None] <= u
        idx = np.minimum(idx, sizes[:, None] - 1)
        ws = np.full(B, 1.0 / B)
    packed = t.words[pending[0], t.labels[pending[0], idx[0]]]
    for p, row in zip(pending[1:], idx[1:]):
        packed |= t.words[p, t.labels[p, row]]
    return packed, ws


def _cover_fast_sav(inst: Instance, psi: PartialRealization, pending, cands, ctx, cap=None):
    """Vectorized scores for a product prior over a cover system, from tables
    kept while inst lives; None for any other (prior, utility) pair.

    Under the independent prior an item stays uncovered through the pending
    batch with probability prod_p miss[p, u], so uncapped batch scores are
    exact at any batch size.  A batch that leaves no reachable item uncovered
    scores 0 exactly, without branches.  Otherwise the reference term
    E_b[max_e marginal] and quota-capped scores walk the batch's joint
    branches: enumerated under the branch cap, sampled past it ("sav-mc").
    """
    utility = inst.utility
    if not (isinstance(inst.prior, ProductPrior) and isinstance(utility, CoverUtility)):
        return None
    t = _COVER_TABLES.get(inst) or _COVER_TABLES.setdefault(inst, _CoverTables(inst.prior, utility))
    import numpy as np
    n, U, m = inst.n, utility.universe, t.marg.shape[1]
    pending = list(pending)
    blocked = set(psi.domain) | set(pending)
    # No live item (uncovered by psi, missed with positive mass by every
    # pending element, reachable by an allowed one): every gain is exactly 0.
    live = ~utility.covered_bits(psi)
    for p in pending:
        live &= t.leave[p]
    reach = 0
    for e in set(range(n)) - blocked:
        reach |= t.reach[e]
    if not live & reach:
        return [0.0 for _ in cands], 0.0
    covered = t.cover[[e for e, _o in psi.pairs], [o for _e, o in psi.pairs]].any(axis=0)
    uw = t.w_items * ~covered
    allowed = np.array([e not in blocked for e in range(n)])
    denom = None
    if pending:
        packed, ws = _cover_branches(t, pending, ctx)
        bits = np.unpackbits(packed.view(np.uint8), axis=1, count=U, bitorder="little")
        R = uw * (bits == 0)  # (B, U) weights still uncovered per branch
        if cap is None:
            # The reference term needs the branches; the scores do not.
            denom = float(ws @ (R @ t.H[allowed].T).max(axis=1))
            R = (uw * t.miss[pending].prod(axis=0))[None, :]
            ws = np.ones(1)
    else:
        R = uw[None, :]
        ws = np.ones(1)
    B = R.shape[0]
    gains = R @ t.mask.reshape(n * m, U).T  # (B, n*m)
    if cap is not None:
        base_val = float(t.w_items[covered].sum())
        val_b = base_val + (uw.sum() - R.sum(axis=1))
        headroom = np.maximum(cap - val_b, 0.0)
        gains = np.minimum(gains, headroom[:, None])
    eg = (gains.reshape(B, n, m) * t.marg[None, :, :]).sum(axis=2)  # (B, n)
    sav_all = ws @ eg
    if denom is None:
        denom = float(ws @ eg[:, allowed].max(axis=1))
    savs = [0.0 if e in blocked else float(sav_all[e]) for e in cands]
    return savs, denom


def _cover_fast_hooks(prior: ProductPrior, utility: CoverUtility):
    """(None, the cover scorer hook): the pair bench/tracing.py wraps until ROADMAP item 8."""
    return None, _cover_fast_sav


def build_stochastic_cover(
    n: int, universe_size: int, outcomes_per_element: int = 2, seed: int = 0
) -> Instance:
    """Random cover system under an independent product prior.

    Each (element, outcome) covers a random subset of the universe; every item
    is additionally assigned to one element under all its outcomes, so the full
    ground set always covers everything and the quota (the whole universe,
    eta = 1) is reachable on every realization.
    """
    if n < 0 or universe_size < 0:
        raise MalformedInputError("sizes cannot be negative")
    if outcomes_per_element < 1:
        raise MalformedInputError("need at least one outcome per element")
    import numpy as np
    rng = np.random.default_rng(seed)
    m = outcomes_per_element
    marginals = []
    for _e in range(n):
        if m == 1:
            marginals.append([1.0])
            continue
        raw = rng.uniform(0.15, 0.85, size=m)
        marginals.append([float(x) for x in raw / raw.sum()])
    covers = [[set() for _o in range(m)] for _e in range(n)]
    for e in range(n):
        for o in range(m):
            for u in range(universe_size):
                if rng.random() < 0.3:
                    covers[e][o].add(u)
    if n > 0:
        for u in range(universe_size):
            anchor = int(rng.integers(0, n))
            for o in range(m):
                covers[anchor][o].add(u)
    prior = ProductPrior(marginals)
    utility = CoverUtility(universe_size, [[sorted(s) for s in row] for row in covers])
    return Instance(
        name=f"cover-n{n}-u{universe_size}-m{m}-s{seed}",
        n=n,
        num_outcomes=m,
        prior=prior,
        utility=utility,
        coverage=CoverageSpec(quota=float(universe_size), eta=1.0),
        **_hooks(prior, utility),
    )


def build_random_tabular(
    n: int,
    m_realizations: int,
    seed: int = 0,
    universe_size: int | None = None,
) -> Instance:
    """Random correlated prior (m weighted realizations over binary outcomes)
    with a coverage-composed utility.

    The cover set of an element is the same for every outcome, so the value of
    a partial view depends only on which elements were picked.  Expected
    marginal gains are then independent of the conditioning prior, and the
    classic diminishing-returns argument for set cover applies verbatim under
    *any* prior: every draw is adaptive submodular and adaptive monotone.  The
    test suite certifies this exhaustively on its acceptance corpus.
    """
    if n < 1:
        raise MalformedInputError("need at least one element")
    if not (1 <= m_realizations <= 2**n):
        raise MalformedInputError(f"support size must lie in [1, 2^{n}]")
    if universe_size is None:
        universe_size = max(4, 2 * n)
    import numpy as np
    rng = np.random.default_rng([seed, 0])
    picks = rng.choice(2**n, size=m_realizations, replace=False)
    rows = []
    raw_w = rng.random(m_realizations) + 0.1
    raw_w /= raw_w.sum()
    for idx, code in enumerate(sorted(int(c) for c in picks)):
        phi = tuple((code >> e) & 1 for e in range(n))
        rows.append((phi, float(raw_w[idx])))
    covers = []
    for _e in range(n):
        subset = sorted(u for u in range(universe_size) if rng.random() < 0.4)
        covers.append([subset, subset])
    return Instance(
        name=f"tab-n{n}-m{m_realizations}-s{seed}",
        n=n,
        num_outcomes=2,
        prior=TablePrior(rows, num_outcomes=2),
        utility=CoverUtility(universe_size, covers),
    )


# --- canonical file format ----------------------------------------------------


def _utility_doc(utility: UtilityFunction) -> dict[str, Any]:
    if isinstance(utility, CoverUtility):
        doc: dict[str, Any] = {
            "family": "coverage",
            "universe": utility.universe,
            "covers": [[sorted(s) for s in row] for row in utility.covers],
        }
        if utility.weights is not None:
            doc["weights"] = list(utility.weights)
        return doc
    if isinstance(utility, BagCountUtility):
        return {"family": "bag-count"}
    if isinstance(utility, MatchPairUtility):
        return {"family": "match-pair", "truncated": utility.truncated}
    if isinstance(utility, ModularUtility):
        return {"family": "modular", "values": [list(row) for row in utility.values]}
    raise MalformedInputError(f"utility {utility.name!r} has no serial form")


def _prior_doc(prior: Prior) -> dict[str, Any]:
    if isinstance(prior, TablePrior):
        return {
            "kind": "table",
            "rows": [
                {"outcomes": list(phi), "weight": w} for phi, w in prior.support()
            ],
        }
    if isinstance(prior, ProductPrior):
        return {"kind": "product", "marginals": [list(row) for row in prior.marginals]}
    if isinstance(prior, BagsPrior):
        return {"kind": "bags", "sizes": list(prior.sizes)}
    raise MalformedInputError(f"prior kind {prior.kind!r} has no serial form")


def instance_to_doc(inst: Instance) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "name": inst.name,
        "elements": inst.n,
        "outcomes": inst.num_outcomes,
        "prior": _prior_doc(inst.prior),
        "utility": _utility_doc(inst.utility),
    }
    if inst.coverage is not None:
        cov: dict[str, Any] = {"quota": inst.coverage.quota, "eta": inst.coverage.eta}
        if inst.coverage.costs is not None:
            cov["costs"] = list(inst.coverage.costs)
        doc["coverage"] = cov
    return doc


def save_instance(inst: Instance, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(instance_to_doc(inst), sort_keys=True, indent=2))
        fh.write("\n")


def _need(doc: Any, field: str, where: str, kind: type | None = None, depth: int = 0) -> Any:
    """doc[field] of the object at where; with a kind, read by _read."""
    if not isinstance(doc, dict):
        raise MalformedInputError(f"{where}: must be an object")
    if field not in doc:
        raise MalformedInputError(f"{where}: missing field {field!r}")
    return doc[field] if kind is None else _read(doc[field], f"{where}.{field}", kind, depth)


def _list(value: Any, where: str) -> list:
    if not isinstance(value, list):
        raise MalformedInputError(f"{where}: must be a list")
    return value


def _read(value: Any, where: str, kind: type, depth: int) -> Any:
    """value as numbers read by model.read_number, in lists depth deep."""
    if not depth:
        try:
            return read_number(value, kind, where)
        except (TypeError, ValueError, OverflowError):
            raise MalformedInputError(f"{where} is not a number: {value!r}") from None
    if depth == 1:
        try:
            out = list(map(kind, _list(value, where)))
            if kind is float or out == value:
                return out
        except (TypeError, ValueError, OverflowError):
            pass  # the loop below names the entry
    return [_read(v, f"{where}[{i}]", kind, depth - 1) for i, v in enumerate(_list(value, where))]


def instance_from_doc(doc: dict[str, Any]) -> Instance:
    name = str(_need(doc, "name", "instance"))
    n = _need(doc, "elements", "instance", int)
    num_outcomes = _need(doc, "outcomes", "instance", int)
    if n < 0:
        raise MalformedInputError("instance.elements: must be a non-negative integer")
    if num_outcomes < 1:
        raise MalformedInputError("instance.outcomes: must be a positive integer")

    pdoc = _need(doc, "prior", "instance")
    kind = _need(pdoc, "kind", "instance.prior")
    if kind == "table":
        rows = []
        raw_sum = 0.0
        for i, row in enumerate(_list(_need(pdoc, "rows", "instance.prior"), "instance.prior.rows")):
            where = f"instance.prior.rows[{i}]"
            outs = _need(row, "outcomes", where, int, 1)
            w = _need(row, "weight", where, float)
            if len(outs) != n:
                raise MalformedInputError(f"{where}: expected {n} outcomes, got {len(outs)}")
            for e, o in enumerate(outs):
                if not (0 <= o < num_outcomes):
                    raise MalformedInputError(f"{where}.outcomes[{e}]: label {o} out of range")
            if w < 0:
                raise MalformedInputError(f"{where}.weight: must be >= 0")
            raw_sum += w
            rows.append((tuple(outs), w))
        if abs(raw_sum - 1.0) > 1e-6:
            raise MalformedInputError(
                f"instance.prior: weights sum to {raw_sum!r}, outside 1 +/- 1e-6"
            )
        prior: Prior = TablePrior(rows, num_outcomes=num_outcomes)
    elif kind == "product":
        margs = _need(pdoc, "marginals", "instance.prior", float, 2)
        if len(margs) != n:
            raise MalformedInputError(
                f"instance.prior.marginals: expected {n} rows, got {len(margs)}"
            )
        for e, row in enumerate(margs):
            if len(row) != num_outcomes:
                raise MalformedInputError(
                    f"instance.prior.marginals[{e}]: expected {num_outcomes} probabilities"
                )
            s = math.fsum(row)
            if abs(s - 1.0) > 1e-6:
                raise MalformedInputError(
                    f"instance.prior.marginals[{e}]: sums to {s!r}, outside 1 +/- 1e-6"
                )
        prior = ProductPrior(margs)
    elif kind == "bags":
        prior = BagsPrior(_need(pdoc, "sizes", "instance.prior", int, 1))
        if prior.n != n:
            raise MalformedInputError(
                f"instance.prior.sizes: sum {prior.n} disagrees with elements {n}"
            )
        if prior.num_outcomes != num_outcomes:
            raise MalformedInputError(
                "instance.outcomes: must equal the number of bags for a bags prior"
            )
    else:
        raise MalformedInputError(f"instance.prior.kind: unknown kind {kind!r}")

    udoc = _need(doc, "utility", "instance")
    family = _need(udoc, "family", "instance.utility")
    if family == "coverage":
        covers = _need(udoc, "covers", "instance.utility", int, 3)
        if len(covers) != n:
            raise MalformedInputError(
                f"instance.utility.covers: expected {n} rows, got {len(covers)}"
            )
        weights = udoc.get("weights")
        utility: UtilityFunction = CoverUtility(
            _need(udoc, "universe", "instance.utility", int),
            covers,
            None if weights is None else _need(udoc, "weights", "instance.utility", float, 1),
        )
    elif family == "bag-count":
        utility = BagCountUtility()
    elif family == "match-pair":
        truncated = udoc.get("truncated", False)
        if not isinstance(truncated, bool):
            raise MalformedInputError(
                f"instance.utility.truncated must be true or false, got {truncated!r}"
            )
        utility = MatchPairUtility(truncated)
    elif family == "modular":
        utility = ModularUtility(_need(udoc, "values", "instance.utility", float, 2))
    else:
        raise MalformedInputError(f"instance.utility.family: unknown family {family!r}")

    coverage = None
    if doc.get("coverage") is not None:
        cdoc = doc["coverage"]
        coverage = CoverageSpec(
            quota=_need(cdoc, "quota", "instance.coverage", float),
            eta=_need(cdoc, "eta", "instance.coverage", float),
            costs=(None if cdoc.get("costs") is None
                   else tuple(_need(cdoc, "costs", "instance.coverage", float, 1))),
        )

    return Instance(
        name=name,
        n=n,
        num_outcomes=num_outcomes,
        prior=prior,
        utility=utility,
        coverage=coverage,
        **_hooks(prior, utility),
    )


def load_instance(path: str) -> Instance:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise MalformedInputError(f"cannot read instance file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInputError(f"{path}:{exc.lineno}: invalid syntax ({exc.msg})") from exc
    return instance_from_doc(doc)
