"""Reference computations made apart from the library.

Everything here reads instances only through their serialized documents
(`instance_to_doc`), so none of the library's priors, utilities, scorers or
policies is used to check the library.
"""
from __future__ import annotations

import itertools
import math
from functools import lru_cache

# --- product-prior covers -------------------------------------------------------


def draw_realization(marginals, rng) -> tuple[int, ...]:
    """One realization, element by element, from the per-element marginals.

    Zero-mass outcomes are never returned: a draw walks only the outcomes with
    positive probability and falls back to the last of them at the top end.
    """
    out = []
    for row in marginals:
        u = float(rng.random())
        acc = 0.0
        pick = None
        for o, p in enumerate(row):
            if p <= 0.0:
                continue
            pick = o
            acc += p
            if u < acc:
                break
        out.append(pick)
    return tuple(out)


def product_support(marginals):
    """(realization, weight) over every positive-mass outcome combination,
    multiplying weights in element order."""
    nz = [[(o, p) for o, p in enumerate(row) if p > 0.0] for row in marginals]
    for combo in itertools.product(*nz):
        w = 1.0
        for _o, p in combo:
            w *= p
        yield tuple(o for o, _p in combo), w


def cover_bits(covers) -> list[list[int]]:
    return [[sum(1 << u for u in items) for items in per_el] for per_el in covers]


def union_value(covers, phi, selected) -> int:
    """Number of universe items covered by the selected elements under phi."""
    items: set[int] = set()
    for e in selected:
        items.update(covers[e][phi[e]])
    return len(items)


def first_pick(marginals, covers) -> int:
    """Argmax (smallest id on ties) of the expected marginal on the empty state."""
    best_e, best = None, -math.inf
    for e, row in enumerate(marginals):
        s = 0.0
        for o, p in enumerate(row):
            s += len(covers[e][o]) * p if p > 0.0 else 0.0
        if s > best:
            best_e, best = e, s
    return best_e


def reference_greedy(marginals, covers, quota: float, k: int | None):
    """Fully adaptive greedy over the enumerated support.

    k given: select k elements by expected marginal.  k None: coverage greedy
    on quota-capped marginals until the quota is reached.  Returns the exact
    (f_avg, c_avg, expected_rounds) with unit costs.
    """
    bits = cover_bits(covers)
    n = len(marginals)
    f_terms, c_terms, r_terms = [], [], []
    for phi, w in product_support(marginals):
        covered = 0
        selected: list[int] = []
        while True:
            val = covered.bit_count()
            if k is None and val >= quota - 1e-9:
                break
            if k is not None and len(selected) == k:
                break
            headroom = max(quota - val, 0.0)
            best_e, best = None, -math.inf
            for e in range(n):
                if e in selected:
                    continue
                s = 0.0
                for o, p in enumerate(marginals[e]):
                    g = float((bits[e][o] & ~covered).bit_count())
                    if k is None:
                        g = min(g, headroom)
                    s += g * p
                if s > best:
                    best_e, best = e, s
            if best_e is None or (k is None and best <= 1e-12):
                break
            selected.append(best_e)
            covered |= bits[best_e][phi[best_e]]
        f_terms.append(w * covered.bit_count())
        c_terms.append(w * len(selected))
        r_terms.append(w * len(selected))
    return math.fsum(f_terms), math.fsum(c_terms), math.fsum(r_terms)


def optimal_coverage_cost(marginals, covers, quota: float) -> float:
    """Exact minimum expected number of selections that reaches the quota on
    every realization (dynamic program over used elements x covered items)."""
    bits = cover_bits(covers)
    n = len(marginals)

    @lru_cache(maxsize=None)
    def cost(used: int, covered: int) -> float:
        if covered.bit_count() >= quota - 1e-9:
            return 0.0
        best = math.inf
        for e in range(n):
            if used >> e & 1:
                continue
            ev = 1.0 + math.fsum(
                p * cost(used | 1 << e, covered | bits[e][o])
                for o, p in enumerate(marginals[e]) if p > 0.0
            )
            best = min(best, ev)
        return best

    return cost(0, 0)


def coverage_bound_holds(c_greedy: float, n: int, quota: float, eta: float, c_star) -> bool:
    """c_greedy <= (c* + 1) ln(n Q / eta) + 1.

    `c_star` is a zero-argument function giving the exact optimum.  Every
    quota needs at least one selection, so c* >= 1; the exact optimum is
    computed only when that lower bound does not already settle the check.
    """
    log_term = math.log(n * quota / eta)
    if c_greedy <= (1.0 + 1.0) * log_term + 1.0 + 1e-9:
        return True
    return c_greedy <= (c_star() + 1.0) * log_term + 1.0 + 1e-9


# --- explicit tables (tabular corpus, truncation pair) ---------------------------


class TableModel:
    """A table prior and a utility over observation dicts, from plain data."""

    def __init__(self, rows, utility):
        self.rows = [(tuple(phi), float(w)) for phi, w in rows if w > 0.0]
        self.n = len(self.rows[0][0])
        self.utility = utility

    def dist(self, e: int, psi: dict[int, int]) -> list[tuple[int, float]]:
        acc: dict[int, list[float]] = {}
        for phi, w in self.rows:
            if all(phi[x] == o for x, o in psi.items()):
                acc.setdefault(phi[e], []).append(w)
        total = math.fsum(w for ws in acc.values() for w in ws)
        return [(o, math.fsum(ws) / total) for o, ws in sorted(acc.items())]

    def marginal(self, e: int, psi: dict[int, int]) -> float:
        base = self.utility(psi)
        return math.fsum(
            p * (self.utility({**psi, e: o}) - base) for o, p in self.dist(e, psi)
        )

    def tree_best(self, budget: int, psi: dict[int, int] | None = None) -> float:
        """Best expected value over every policy tree with `budget` selections."""
        psi = psi or {}
        remaining = [e for e in range(self.n) if e not in psi]
        if budget == 0 or not remaining:
            return self.utility(psi)
        return max(
            math.fsum(p * self.tree_best(budget - 1, {**psi, e: o}) for o, p in self.dist(e, psi))
            for e in remaining
        )


def table_model_from_doc(doc) -> TableModel:
    """TableModel for a coverage instance with a table or product prior."""
    prior = doc["prior"]
    if prior["kind"] == "table":
        rows = [(r["outcomes"], r["weight"]) for r in prior["rows"]]
    else:
        rows = list(product_support(prior["marginals"]))
    u = doc["utility"]
    if u["family"] == "coverage":
        covers = [[set(items) for items in per_el] for per_el in u["covers"]]

        def utility(psi):
            items: set[int] = set()
            for e, o in psi.items():
                items |= covers[e][o]
            return float(len(items))
    elif u["family"] == "match-pair":
        truncated = bool(u["truncated"])

        def utility(psi):
            v = 1.0 if 2 in psi else 0.0
            if 0 in psi and 1 in psi:
                v += 2.0 if psi[0] == psi[1] else 0.0
            elif 0 in psi or 1 in psi:
                v += 1.0
            return min(v, 1.0) if truncated else v
    else:
        raise ValueError(f"no reference utility for family {u['family']!r}")
    return TableModel(rows, utility)
