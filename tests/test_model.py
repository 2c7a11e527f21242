"""Realizations, priors, and instance plumbing."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adasub.errors import (
    AlreadyObservedError,
    InconsistentObservationError,
    MalformedInputError,
    TooLargeError,
)
from adasub.instances import BagsPrior, CoverUtility, ModularUtility, build_stochastic_cover
from adasub.model import (
    EMPTY,
    CoverageSpec,
    Instance,
    PartialRealization,
    ProductPrior,
    TablePrior,
    expand_product,
    is_consistent,
    is_subrealization,
    read_number,
)

# --- partial realizations -------------------------------------------------------


def test_pairs_sorted_and_accessors():
    psi = PartialRealization([(3, 1), (0, 2)])
    assert psi.pairs == ((0, 2), (3, 1))
    assert psi.domain == frozenset({0, 3})
    assert psi.get(3) == 1 and psi.get(7) is None and psi.get(7, -1) == -1
    assert psi.outcome(0) == 2
    assert 3 in psi and 1 not in psi
    assert len(psi) == 2
    assert list(psi) == [(0, 2), (3, 1)]


def test_dict_construction_equals_pairs():
    assert PartialRealization({2: 0, 1: 1}) == PartialRealization([(1, 1), (2, 0)])


def test_extend_is_persistent_and_guards_duplicates():
    psi = EMPTY.extend(1, 0)
    assert psi.pairs == ((1, 0),)
    assert EMPTY.pairs == ()
    with pytest.raises(AlreadyObservedError):
        psi.extend(1, 1)


def test_union_merges_and_detects_conflicts():
    a = PartialRealization([(0, 1)])
    b = PartialRealization([(1, 0)])
    assert a.union(b).pairs == ((0, 1), (1, 0))
    assert a.union(a) == a
    with pytest.raises(InconsistentObservationError):
        a.union(PartialRealization([(0, 0)]))


def test_restrict_and_project():
    psi = PartialRealization([(0, 1), (1, 0), (2, 2)])
    assert psi.restrict([1, 2, 9]).pairs == ((1, 0), (2, 2))
    assert PartialRealization.project((5, 6, 7), [2, 0]).pairs == ((0, 5), (2, 7))


def test_eq_hash_repr():
    a = PartialRealization([(0, 1), (2, 0)])
    b = PartialRealization({2: 0, 0: 1})
    assert a == b and hash(a) == hash(b) and a != EMPTY
    assert repr(a) == "{0:1, 2:0}"
    assert repr(EMPTY) == "{}"


def test_consistency_and_subrealization():
    phi = (1, 0, 2)
    psi = PartialRealization([(0, 1), (2, 2)])
    assert is_consistent(psi, phi)
    assert not is_consistent(PartialRealization([(1, 1)]), phi)
    assert is_subrealization(EMPTY, psi)
    assert is_subrealization(psi, psi)
    assert not is_subrealization(psi, PartialRealization([(0, 1)]))


@given(
    phi=st.lists(st.integers(0, 2), min_size=1, max_size=6),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_projection_order(phi, data):
    phi = tuple(phi)
    n = len(phi)
    small = data.draw(st.sets(st.integers(0, n - 1)))
    big = small | data.draw(st.sets(st.integers(0, n - 1)))
    a = PartialRealization.project(phi, small)
    b = PartialRealization.project(phi, big)
    assert is_subrealization(a, b)
    assert is_consistent(a, phi) and is_consistent(b, phi)


# --- table priors ----------------------------------------------------------------


def test_table_normalizes_merges_and_drops_zeros():
    p = TablePrior([((0, 1), 2.0), ((0, 1), 2.0), ((1, 0), 4.0), ((1, 1), 0.0)])
    assert p.support_size() == 2
    rows = list(p.support())
    assert rows == [((0, 1), 0.5), ((1, 0), 0.5)]
    assert p.n == 2 and p.num_outcomes == 2 and p.kind == "table"
    assert p.min_weight() == 0.5


def test_table_rejects_bad_rows():
    with pytest.raises(MalformedInputError):
        TablePrior([])
    with pytest.raises(MalformedInputError):
        TablePrior([((0,), 1.0), ((0, 1), 1.0)])  # ragged
    with pytest.raises(MalformedInputError):
        TablePrior([((0,), -0.5), ((1,), 1.5)])  # negative weight


def test_table_outcome_dist_and_condition():
    p = TablePrior([((0, 1), 0.5), ((1, 0), 0.25), ((1, 1), 0.25)])
    assert p.outcome_dist(0, EMPTY) == ((0, 0.5), (1, 0.5))
    psi = PartialRealization([(0, 1)])
    assert p.outcome_dist(1, psi) == ((0, 0.5), (1, 0.5))
    q = p.condition(psi)
    assert q.support_size() == 2
    assert math.isclose(q.mass(PartialRealization([(1, 0)])), 0.5)
    with pytest.raises(AlreadyObservedError):
        p.outcome_dist(0, psi)
    p3 = TablePrior([((0, 1, 0), 0.5), ((1, 0, 1), 0.5)])
    with pytest.raises(InconsistentObservationError):
        p3.outcome_dist(2, PartialRealization([(0, 1), (1, 1)]))


def test_table_sampling_frequencies():
    p = TablePrior([((0,), 0.2), ((1,), 0.3), ((2,), 0.5)])
    rng = np.random.default_rng(7)
    counts = [0, 0, 0]
    trials = 20000
    for _ in range(trials):
        counts[p.sample(rng)[0]] += 1
    for o, target in enumerate((0.2, 0.3, 0.5)):
        freq = counts[o] / trials
        sigma = math.sqrt(target * (1 - target) / trials)
        assert abs(freq - target) < 4 * sigma


def test_zero_element_table():
    p = TablePrior([((), 1.0)])
    assert p.n == 0 and p.num_outcomes == 1
    assert list(p.support()) == [((), 1.0)]
    assert p.mass(EMPTY) == 1.0
    assert p.joint_dist(EMPTY, [], cap=10) == [((), 1.0)]


_TABLES = st.integers(0, 10**9).map(
    lambda seed: _random_table(np.random.default_rng(seed))
)


def _random_table(rng) -> TablePrior:
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 4))
    rows = int(rng.integers(1, 6))
    out = []
    for _ in range(rows):
        out.append((tuple(int(x) for x in rng.integers(0, m, n)), float(rng.random()) + 0.05))
    return TablePrior(out, num_outcomes=m)


@given(prior=_TABLES, data=st.data())
@settings(max_examples=60, deadline=None)
def test_bayes_chain_rule(prior, data):
    """mass(psi + (e,o)) == mass(psi) * P(o | psi) for any reachable psi."""
    phi, _ = list(prior.support())[0]
    k = data.draw(st.integers(0, prior.n - 1))
    elems = data.draw(st.permutations(range(prior.n)))
    psi = PartialRealization.project(phi, elems[:k])
    e = elems[k]
    dist = prior.outcome_dist(e, psi)
    assert math.isclose(math.fsum(p for _, p in dist), 1.0, abs_tol=1e-9)
    for o, p in dist:
        assert math.isclose(prior.mass(psi.extend(e, o)), prior.mass(psi) * p, abs_tol=1e-12)


@given(prior=_TABLES)
@settings(max_examples=40, deadline=None)
def test_joint_dist_matches_support(prior):
    elems = list(range(prior.n))
    joint = dict(prior.joint_dist(EMPTY, elems, cap=10**4))
    assert math.isclose(math.fsum(joint.values()), 1.0, abs_tol=1e-9)
    for phi, w in prior.support():
        assert math.isclose(joint[tuple(phi)], w, abs_tol=1e-12)


@given(prior=_TABLES, data=st.data())
@settings(max_examples=40, deadline=None)
def test_condition_equals_posterior_ratio(prior, data):
    phi, _ = list(prior.support())[-1]
    k = data.draw(st.integers(0, prior.n))
    psi = PartialRealization.project(phi, range(k))
    cond = prior.condition(psi)
    base = prior.mass(psi)
    for row, w in cond.support():
        assert math.isclose(w, prior.mass(PartialRealization(list(enumerate(row)))) / base,
                            abs_tol=1e-9)


@pytest.mark.parametrize("pair", ["-1", "n", "m"])
def test_table_queries_reject_psi_out_of_range(pair):
    p = TablePrior([((0, 1, 1), 0.5), ((1, 0, 1), 0.25), ((1, 1, 0), 0.25)])
    e, o = {"-1": (-1, 0), "n": (p.n, 0), "m": (0, p.num_outcomes)}[pair]
    psi = PartialRealization({e: o})
    message = (f"^outcome {o} outside label range of size {o}$" if pair == "m"
               else f"^element {e} outside ground set of size {p.n}$")
    for query in (lambda: p.outcome_dist(1, psi), lambda: p.mass(psi),
                  lambda: p.condition(psi), lambda: p.joint_dist(psi, [1, 2], cap=10)):
        with pytest.raises(MalformedInputError, match=message):
            query()


def _check_row_index(prior: TablePrior, psi: PartialRealization) -> None:
    """The index answers like a filter of the support, down to the last bit."""
    rows = [(t, w) for t, w in prior.support() if all(t[e] == o for e, o in psi.pairs)]
    assert list(prior._consistent_rows(psi)) == rows
    assert prior.mass(psi) == math.fsum(w for _, w in rows)
    free = [e for e in range(prior.n) if e not in psi]
    if not rows:
        for query in (lambda: prior.joint_dist(psi, free, cap=10**4),
                      lambda: prior.condition(psi)):
            with pytest.raises(InconsistentObservationError):
                query()
        return
    total = math.fsum(w for _, w in rows)
    for e in free:
        outs = sorted({t[e] for t, _ in rows})
        assert prior.outcome_dist(e, psi) == tuple(
            (o, math.fsum(w for t, w in rows if t[e] == o) / total) for o in outs)
    keys = sorted({tuple(t[e] for e in free) for t, _ in rows})
    assert prior.joint_dist(psi, free, cap=10**4) == [
        (a, math.fsum(w for t, w in rows if tuple(t[e] for e in free) == a) / total)
        for a in keys]


def _draw_psi(prior: TablePrior, data) -> PartialRealization:
    """psi over a random subset, read off a support row or drawn freely."""
    elems = data.draw(st.lists(st.integers(0, prior.n - 1), unique=True))
    if data.draw(st.booleans()):
        phi = data.draw(st.sampled_from([t for t, _ in prior.support()]))
        return PartialRealization.project(phi, elems)
    return PartialRealization(
        {e: data.draw(st.integers(0, prior.num_outcomes - 1)) for e in elems})


@given(prior=_TABLES, data=st.data())
@settings(max_examples=80, deadline=None)
def test_row_index_matches_support_filter(prior, data):
    psi = _draw_psi(prior, data)
    _check_row_index(prior, psi)
    if prior.mass(psi) > 0:
        cond = prior.condition(psi)
        _check_row_index(cond, _draw_psi(cond, data))


# --- product priors ---------------------------------------------------------------


def test_product_basics():
    p = ProductPrior([[0.5, 0.5], [0.25, 0.75], [1.0, 0.0]])
    assert p.n == 3 and p.num_outcomes == 2 and p.kind == "product"
    assert p.support_size() == 4  # zero-probability branch of element 2 omitted
    total = math.fsum(w for _, w in p.support())
    assert math.isclose(total, 1.0, abs_tol=1e-12)
    assert math.isclose(p.mass(PartialRealization([(1, 1), (2, 0)])), 0.75)
    assert math.isclose(p.min_weight(), 0.125)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_product_support_is_the_sequential_product(m):
    rng = np.random.default_rng(m)
    zero_mass = 0
    for _ in range(20):
        n = int(rng.integers(1, 7))
        marg = rng.random((n, m)) * (rng.random((n, m)) < 0.7)
        marg[np.arange(n), rng.integers(0, m, n)] += 0.1  # every element keeps an outcome
        zero_mass += int((marg == 0).sum())
        prior = ProductPrior(marg.tolist())
        # Odometer order (last element fastest), zero-mass outcomes skipped,
        # each weight a running product from 1.0.
        rows = [((), 1.0)]
        for probs in prior.marginals:
            rows = [(phi + (o,), w * q) for phi, w in rows for o, q in enumerate(probs) if q > 0]
        support = list(prior.support())
        assert support == rows
        assert prior.support_size() == len(support)
    assert zero_mass > 0 or m == 1


def test_product_support_is_lazy():
    prior = build_stochastic_cover(32, 64, 2, 0).prior
    assert prior.support_size() == 2**32
    phi, w = next(iter(prior.support()))
    want = 1.0
    for row in prior.marginals:
        want *= row[0]
    assert phi == (0,) * 32 and w == want


def test_product_independence_and_condition():
    p = ProductPrior([[0.5, 0.5], [0.25, 0.75]])
    psi = PartialRealization([(0, 1)])
    assert p.outcome_dist(1, EMPTY) == p.outcome_dist(1, psi)
    q = p.condition(psi)
    assert q.outcome_dist(0, EMPTY) == ((1, 1.0),)
    with pytest.raises(InconsistentObservationError):
        ProductPrior([[1.0, 0.0]]).condition(PartialRealization([(0, 1)]))


def test_product_sampling_matches_marginals():
    p = ProductPrior([[0.3, 0.7], [0.9, 0.1]])
    rng = np.random.default_rng(3)
    trials = 20000
    hits = np.zeros(2)
    for _ in range(trials):
        phi = p.sample(rng)
        hits += [phi[0] == 1, phi[1] == 1]
    for freq, target in zip(hits / trials, (0.7, 0.1)):
        sigma = math.sqrt(target * (1 - target) / trials)
        assert abs(freq - target) < 4 * sigma


class _ConstRng:
    """Stub generator whose every uniform draw is u."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None):
        return self.u if size is None else np.full(size, self.u)

    def permutation(self, n):
        return np.arange(n)


@pytest.mark.parametrize("u", [0.0, math.nextafter(1.0, 0.0)])
def test_samplers_never_return_zero_mass(u):
    bags = BagsPrior((1, 2, 4))
    priors = [
        TablePrior([((0, 1), 0.25), ((1, 0), 0.75)]),
        ProductPrior([[0.0, 1.0], [0.5, 0.5]]),  # leading zero-mass outcome
        # trailing zero-mass outcome; the normalized cumulative sum rounds to
        # 0.9999999999999998, below the largest draw
        ProductPrior([[0.1, 1.7, 0.3, 0.0]]),
        bags,
        bags.condition(PartialRealization([(0, 2), (3, 2)])),
    ]
    for prior in priors:
        phi = prior.sample(_ConstRng(u))
        assert prior.mass(PartialRealization(list(enumerate(phi)))) > 0, (prior, phi)


def test_expand_product_equivalence():
    p = ProductPrior([[0.5, 0.5], [0.25, 0.75], [0.4, 0.6]])
    t = expand_product(p)
    assert t.support_size() == p.support_size()
    for psi in (EMPTY, PartialRealization([(0, 0)]), PartialRealization([(2, 1), (0, 1)])):
        assert math.isclose(t.mass(psi), p.mass(psi), abs_tol=1e-12)
        for e in range(3):
            if e in psi:
                continue
            for (o1, w1), (o2, w2) in zip(t.outcome_dist(e, psi), p.outcome_dist(e, psi)):
                assert o1 == o2 and math.isclose(w1, w2, abs_tol=1e-12)


def test_expand_product_cap(monkeypatch):
    monkeypatch.setenv("ADASUB_MAX_SUPPORT", "100")
    with pytest.raises(TooLargeError):
        expand_product(ProductPrior([[0.5, 0.5]] * 8))


def test_joint_dist_cap():
    p = ProductPrior([[0.5, 0.5]] * 6)
    with pytest.raises(TooLargeError):
        p.joint_dist(EMPTY, list(range(6)), cap=10)


# --- instance plumbing -------------------------------------------------------------


def test_instance_validation():
    prior = TablePrior([((0,), 1.0)])
    util = ModularUtility([[0.0, 1.0]])
    with pytest.raises(MalformedInputError):
        Instance(name="bad", n=2, num_outcomes=2, prior=prior, utility=util)
    with pytest.raises(MalformedInputError):
        Instance(name="bad", n=1, num_outcomes=0, prior=prior, utility=util)
    with pytest.raises(MalformedInputError):
        Instance(
            name="bad", n=1, num_outcomes=2, prior=prior, utility=util,
            coverage=CoverageSpec(quota=1.0, costs=(1.0, 2.0)),
        )


def test_instance_cost_and_observe_defaults():
    prior = TablePrior([((0, 1), 1.0)])
    inst = Instance(
        name="t", n=2, num_outcomes=2, prior=prior,
        utility=ModularUtility([[0.0, 1.0], [0.0, 1.0]]),
    )
    assert inst.cost(0) == 1.0
    assert inst.observe((0, 1), 1) == [(1, 1)]
    spec = CoverageSpec(quota=1.0, costs=(2.0, 3.0))
    inst2 = Instance(
        name="t2", n=2, num_outcomes=2, prior=prior,
        utility=ModularUtility([[0.0, 1.0], [0.0, 1.0]]), coverage=spec,
    )
    assert inst2.cost(1) == 3.0


def test_reveal_hook_is_used():
    prior = TablePrior([((0, 0), 1.0)])
    inst = Instance(
        name="t", n=2, num_outcomes=1, prior=prior,
        utility=ModularUtility([[1.0], [1.0]]),
        reveal=lambda phi, e: [(e, phi[e]), (1 - e, phi[1 - e])],
    )
    assert inst.observe((0, 0), 0) == [(0, 0), (1, 0)]


def test_coverage_spec_validation():
    with pytest.raises(MalformedInputError):
        CoverageSpec(quota=0.0)
    with pytest.raises(MalformedInputError):
        CoverageSpec(quota=1.0, eta=0.0)
    with pytest.raises(MalformedInputError):
        CoverageSpec(quota=1.0, costs=(1.0, -1.0))


@pytest.mark.parametrize("value, kind, expected", [
    (2, int, 2), (2.0, int, 2), ("2", int, 2), ("2.0", int, 2), (" 1e6 ", int, 10**6),
    ("12345678901234567891", int, 12345678901234567891), (-3.0, int, -3),
    (2, float, 2.0), ("0.5", float, 0.5), ("inf", float, math.inf),
])
def test_read_number_one_rule(value, kind, expected):
    x = read_number(value, kind, "v")
    assert x == expected and type(x) is kind


@pytest.mark.parametrize("value", [2.5, "2.5", math.nan, math.inf])
def test_read_number_rejects_non_integral(value):
    with pytest.raises(MalformedInputError, match=f"^v is not an integer: {value!r}$"):
        read_number(value, int, "v")


@pytest.mark.parametrize("value, error", [("x", ValueError), (None, TypeError), ([2], TypeError)])
def test_read_number_leaves_non_numbers_to_the_caller(value, error):
    with pytest.raises(error):
        read_number(value, int, "v")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_input_is_malformed(bad):
    for make, what in (
        (lambda: CoverageSpec(quota=bad), "coverage quota"),
        (lambda: CoverageSpec(quota=1.0, eta=bad), "eta"),
        (lambda: CoverageSpec(quota=1.0, costs=(1.0, bad)), "element cost"),
        (lambda: ProductPrior([[0.5, 0.5], [bad, 0.5]]), "marginal probability"),
        (lambda: TablePrior([((0,), 1.0), ((1,), bad)]), "realization weight"),
        (lambda: CoverUtility(2, [[[0], [1]]], weights=[1.0, bad]), "item weight"),
        (lambda: ModularUtility([[0.0, 1.0], [bad, 0.5]]), "modular value"),
    ):
        with pytest.raises(MalformedInputError, match=f"^{what} is not a finite number: {bad}$"):
            make()


def test_cover_utility_values():
    u = CoverUtility(3, [[[0, 1], [2]], [[1], []]])
    assert u(EMPTY) == 0.0
    assert u(PartialRealization([(0, 0)])) == 2.0
    assert u(PartialRealization([(0, 1), (1, 0)])) == 2.0
    assert u(PartialRealization([(0, 0), (1, 0)])) == 2.0
    weighted = CoverUtility(2, [[[0], [1]]], weights=[0.25, 4.0])
    assert weighted(PartialRealization([(0, 1)])) == 4.0


def test_zero_element_instance_value():
    inst = Instance(
        name="empty", n=0, num_outcomes=1,
        prior=TablePrior([((), 1.0)]), utility=CoverUtility(3, []),
    )
    assert inst.utility(EMPTY) == 0.0
