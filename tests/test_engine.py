"""Policy runner, exact and Monte Carlo evaluation, and combinators."""
import collections
import dataclasses
import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from adasub import engine, policies
from adasub.engine import (
    EVAL_COLUMNS,
    EXACT_SEED,
    EvalReport,
    Policy,
    PolicyContext,
    QUERY,
    STOP,
    Select,
    _MARGINAL_CACHE,
    _Run,
    _checked_support,
    _execute,
    _exact_rows,
    _trace,
    _walk,
    c_avg_exact,
    cap_value,
    concat,
    evaluate_exact,
    evaluate_mc,
    f_avg_exact,
    limit_rounds,
    marginal,
    marginals_for,
    run_policy,
    truncate,
)
from adasub.errors import (
    AlreadyObservedError,
    InconsistentObservationError,
    MalformedInputError,
    PolicyBugError,
    TooLargeError,
)
from adasub.instances import (
    CoverUtility,
    ModularUtility,
    build_bags,
    build_random_tabular,
    build_stochastic_cover,
    build_truncation_pair,
)
from adasub.model import (
    CAP_DEFAULTS, EMPTY, CoverageSpec, Instance, PartialRealization, ProductPrior, TablePrior,
)
from adasub.policies import (
    fixed_batch_greedy,
    fixed_sequence_policy,
    greedy_coverage,
    greedy_max,
    optimal_coverage_dp,
    optimal_policy_dp,
    semi_adaptive_greedy_coverage,
    semi_adaptive_greedy_max,
    threshold_policy,
)


def _policy_from_script(script, name="scripted"):
    """A policy that replays a fixed list of Select/QUERY/STOP actions."""

    def play(inst, ctx):
        for action in script:
            resp = yield action
            del resp

    return Policy(name=name, play=play)


# --- runner bookkeeping -----------------------------------------------------------


def test_trace_fields_on_greedy(anti_inst):
    tr = run_policy(greedy_max(2), anti_inst, (0, 1))
    assert tr.selected == (0, 1)
    assert tr.value == 1.0 and tr.cost == 2.0
    assert tr.rounds == 2
    assert tr.final_psi == PartialRealization([(0, 0), (1, 1)])
    assert tr.gains == (0.0, 1.0)
    assert tr.flags == ()


def test_duplicate_select_is_policy_bug(anti_inst):
    p = _policy_from_script([Select(0), Select(0), QUERY])
    with pytest.raises(PolicyBugError):
        run_policy(p, anti_inst, (0, 1))


def test_out_of_range_select_is_policy_bug(anti_inst):
    p = _policy_from_script([Select(5), QUERY])
    with pytest.raises(PolicyBugError):
        run_policy(p, anti_inst, (0, 1))


def test_empty_query_is_noop_round(anti_inst):
    p = _policy_from_script([QUERY, QUERY, Select(0), QUERY])
    tr = run_policy(p, anti_inst, (0, 1))
    assert tr.rounds == 1  # only the query that revealed something counts


def test_query_response_covers_all_pending(anti_inst):
    seen = {}

    def play(inst, ctx):
        yield Select(0)
        yield Select(1)
        resp = yield QUERY
        seen["resp"] = resp

    run_policy(Policy(name="peek", play=play), anti_inst, (1, 0))
    assert seen["resp"] == {0: 1, 1: 0}


@pytest.mark.parametrize("phi", [(0,), (0, 0, 0, 5), (0, 0, 0, -1)],
                         ids=["short", "label-past-range", "negative-label"])
def test_run_policy_rejects_a_realization_that_is_not_n_labels_in_range(phi):
    inst = build_stochastic_cover(4, 8, 2, 0)
    with pytest.raises(MalformedInputError):
        run_policy(greedy_max(4), inst, phi)


def test_run_policy_rejects_a_realization_of_zero_prior_mass():
    # Seven items in bags of sizes (1, 2, 4) cannot all share bag 0.
    with pytest.raises(InconsistentObservationError):
        run_policy(greedy_max(4), build_bags(3), (0,) * 7)


def test_run_policy_accepts_a_realization_whose_product_mass_underflows():
    n = 1100
    inst = Instance(name="long", n=n, num_outcomes=2, prior=ProductPrior([[0.5, 0.5]] * n),
                    utility=ModularUtility([[0.0, 1.0]] * n))
    assert inst.prior.mass(PartialRealization(enumerate((1,) * n))) == 0.0
    assert run_policy(fixed_sequence_policy([0, 1]), inst, (1,) * n).value == 2.0


def test_requery_already_revealed_is_not_a_round(bags2):
    """Bag-mate reveals put elements in view early; re-querying them adds no round."""

    def play(inst, ctx):
        yield Select(0)
        yield QUERY  # reveals 0's whole bag
        yield Select(1)
        resp = yield QUERY
        del resp
        yield Select(2)
        yield QUERY

    tr = run_policy(Policy(name="p", play=play), bags2, (0, 1, 1))
    # phi puts elements 1, 2 in the two-slot bag and 0 alone: after the first
    # query, element 0's bag is fully revealed; 1's query reveals 2 as well.
    assert tr.rounds == 2
    assert tr.observed.domain == frozenset({0, 1, 2})


def test_stop_action(anti_inst):
    p = _policy_from_script([Select(0), QUERY, STOP, Select(1)])
    tr = run_policy(p, anti_inst, (0, 1))
    assert tr.selected == (0,)


def test_unqueried_selection_still_scores(anti_inst):
    p = _policy_from_script([Select(0)])
    tr = run_policy(p, anti_inst, (1, 0))
    assert tr.selected == (0,)
    assert tr.value == 1.0  # value scores the selected projection of phi
    assert tr.rounds == 0
    assert tr.observed.domain == frozenset()


def test_costs_accumulate(anti_inst):
    costed = Instance(
        name="costed", n=2, num_outcomes=2, prior=anti_inst.prior,
        utility=anti_inst.utility,
        coverage=CoverageSpec(quota=1.0, costs=(2.0, 5.0)),
    )
    tr = run_policy(fixed_sequence_policy([1, 0]), costed, (0, 1))
    assert tr.cost == 7.0


def test_collect_rounds_views(anti_inst):
    tr = run_policy(greedy_max(2), anti_inst, (0, 1), collect_rounds=True)
    assert tr.round_views is not None and len(tr.round_views) == 2
    assert tr.round_views[0].domain == frozenset({0})
    assert tr.round_views[1].domain == frozenset({0, 1})
    # bags: a query also reveals the bag-mates, so a round sees more than it queried
    bags = build_bags(3)
    phi = next(iter(bags.prior.support()))[0]
    tr = run_policy(greedy_max(3), bags, phi, collect_rounds=True)
    views = tr.round_views
    assert len(views) == tr.rounds == len(tr.selected) == 3
    assert len(tr.observed) > len(tr.selected)
    for t, view in enumerate(views):
        assert set(tr.selected[:t + 1]) <= view.domain
        if t:
            assert set(views[t - 1].pairs) < set(view.pairs)
    assert views[-1] == tr.observed


# --- exact evaluation ----------------------------------------------------------


def test_exact_oracle_values(anti_inst):
    assert f_avg_exact(greedy_max(1), anti_inst) == 0.5
    assert f_avg_exact(greedy_max(2), anti_inst) == 1.0
    assert c_avg_exact(greedy_max(2), anti_inst) == 2.0
    rep = evaluate_exact(greedy_max(2), anti_inst)
    assert rep.mode == "exact" and rep.samples == 0 and rep.stderr == 0.0
    assert rep.expected_rounds == 2.0


def test_exact_averages_over_seed_space(anti_inst):
    # tau sits exactly on the first greedy score: the inclusive branch (prob p)
    # runs to expected count 1.5, the strict branch stops at once.
    pol = threshold_policy(0.5, coin_p=0.25)
    rep = evaluate_exact(pol, anti_inst)
    assert math.isclose(rep.c_avg, 0.25 * 1.5, abs_tol=1e-12)


def test_exact_support_cap(anti_inst, monkeypatch):
    monkeypatch.setenv("ADASUB_MAX_SUPPORT", "1")
    with pytest.raises(TooLargeError):
        evaluate_exact(greedy_max(1), anti_inst)


def test_bags_support_honours_env_cap(monkeypatch):
    monkeypatch.setenv("ADASUB_MAX_SUPPORT", "50")  # bags-k3 has 105 realizations
    with pytest.raises(TooLargeError):
        evaluate_exact(greedy_max(1), build_bags(3))


def test_empty_policy_scores_empty_set(anti_inst):
    empty = _policy_from_script([])
    rep = evaluate_exact(empty, anti_inst)
    assert rep.f_avg == 0.0 and rep.c_avg == 0.0 and rep.expected_rounds == 0.0


# --- exact evaluation by replayed reply sequences -----------------------------------


def _every_policy(inst, k):
    """Every policy constructor, and each combinator over some of them."""
    inner = [
        greedy_max(k),
        semi_adaptive_greedy_max(k, 0.2),
        semi_adaptive_greedy_max(k, 0.2, "rig"),
        fixed_batch_greedy(2, k),
        fixed_sequence_policy(range(k)),
        threshold_policy(0.5, coin_p=0.25),
        threshold_policy(0.3, coin_p=0.5, mode="sav"),
        optimal_policy_dp(k),
    ]
    if inst.coverage is not None:
        inner += [greedy_coverage(), semi_adaptive_greedy_coverage(eps=0.2), optimal_coverage_dp()]
    return inner + [
        concat(inner[3], inner[0]),
        concat(inner[5], inner[1]),
        truncate(inner[1], 2),
        limit_rounds(inner[1], 1),
        limit_rounds(inner[6], 2),
    ]


def _plain_traces(policy, inst):
    """(weight, trace) of one plain run per support row and seed branch."""
    return [
        (w * pt, _execute(policy, inst, phi, theta, rng_seed=EXACT_SEED))
        for phi, w in inst.prior.support()
        for theta, pt in policy.seed_space
        if pt > 0
    ]


def _rows_in_order(policy, inst):
    """The (weight, trace) rows of _exact_rows' leaf batches, in _plain_traces'
    order: each row's trace is _trace of its leaf, and the row's value is the
    trace's."""
    phis = [phi for phi, _w in inst.prior.support()]
    flat = [((row[0], b), w, value, leaf) for b, batch, leaf in _exact_rows(policy, inst)
            for row, (w, value) in zip(leaf[0], batch)]
    out = []
    for (j, _b), w, value, leaf in sorted(flat, key=lambda row: row[0]):
        tr = _trace(inst, phis[j], leaf)
        assert value == tr.value, (policy.name, j)
        out.append((w, tr))
    return out


def _plain_report(policy, inst):
    """evaluate_exact's report, summed with fsum from one plain run per row."""
    rows = _plain_traces(policy, inst)
    return EvalReport(
        policy=policy.name,
        instance=inst.name,
        mode="exact",
        f_avg=math.fsum(w * tr.value for w, tr in rows),
        c_avg=math.fsum(w * tr.cost for w, tr in rows),
        expected_rounds=math.fsum(w * tr.rounds for w, tr in rows),
        flags=tuple(sorted({flag for _w, tr in rows for flag in tr.flags})),
    )


exact_instances = pytest.mark.parametrize(
    "build",
    [
        lambda: build_stochastic_cover(6, 12, 2, seed=3),
        lambda: build_stochastic_cover(6, 12, 3, seed=4),
        lambda: build_bags(3),
        lambda: build_truncation_pair()[0],
        lambda: build_truncation_pair()[1],
        lambda: build_random_tabular(4, 6, 0),
        lambda: build_random_tabular(4, 6, 1),
        # A reveal hook that may expose nothing: rows that get one reply can
        # still differ in whether the query counts as a round.
        lambda: dataclasses.replace(
            build_random_tabular(4, 6, 0),
            reveal=lambda phi, e: [(e, phi[e])] if phi[(e + 1) % 4] else [],
        ),
    ],
    ids=["cover-m2", "cover-m3", "bags-k3", "trunc-f", "trunc-g", "tab-s0", "tab-s1",
         "tab-s0-reveal"],
)


@exact_instances
def test_exact_traces_equal_plain_rows(build):
    inst = build()
    for pol in _every_policy(inst, min(3, inst.n)):
        assert _rows_in_order(pol, inst) == _plain_traces(pol, inst), pol.name


# The cover samples in its scorer hook; the hook-less table takes the
# generic fallback of policies._sav_and_denom.
sampled_instances = pytest.mark.parametrize(
    "build",
    [lambda: build_stochastic_cover(6, 12, 2, seed=3), lambda: build_random_tabular(4, 6, 0)],
    ids=["cover-m2", "tab-s0"],
)


@sampled_instances
def test_exact_traces_equal_plain_rows_with_sampled_fallbacks(monkeypatch, build):
    monkeypatch.setenv("ADASUB_BRANCH_CAP", "3")
    monkeypatch.setenv("ADASUB_MC_FALLBACK", "200")
    inst = build()
    flagged = 0
    for pol in _every_policy(inst, 3):
        rows = _rows_in_order(pol, inst)
        assert rows == _plain_traces(pol, inst), pol.name
        flagged += sum("sav-mc" in tr.flags for _w, tr in rows)
    assert flagged > 0


@exact_instances
def test_exact_report_equals_fsum_of_plain_rows(build):
    inst = build()
    for pol in _every_policy(inst, min(3, inst.n)):
        assert evaluate_exact(pol, inst) == _plain_report(pol, inst), pol.name


@sampled_instances
def test_exact_report_equals_fsum_of_plain_rows_with_sampled_fallbacks(monkeypatch, build):
    monkeypatch.setenv("ADASUB_BRANCH_CAP", "3")
    monkeypatch.setenv("ADASUB_MC_FALLBACK", "200")
    inst = build()
    reports = [evaluate_exact(pol, inst) for pol in _every_policy(inst, 3)]
    assert reports == [_plain_report(pol, inst) for pol in _every_policy(inst, 3)]
    assert any("sav-mc" in rep.flags for rep in reports)


def _reply_log(policy, log):
    """`policy`, adding the sequence of replies of each of its runs to `log`."""

    def play(inst, ctx):
        replies = []
        run = _Run(policy.play(inst, ctx), policy.name)
        for action in run:
            if action is QUERY:
                run.reply = yield QUERY
                replies.append(tuple(run.reply.items()))
            else:
                yield action
        log.add(tuple(replies))

    return Policy(name=policy.name, play=play, seed_space=policy.seed_space)


def test_exact_runs_policy_once_per_reply_sequence():
    inst = build_stochastic_cover(8, 16, 2, seed=0)
    rows = inst.prior.support_size()
    assert rows == 256
    for base in (greedy_max(4), semi_adaptive_greedy_coverage(eps=0.2)):
        sequences = set()
        for phi, _w in inst.prior.support():
            _execute(_reply_log(base, sequences), inst, phi, None, rng_seed=EXACT_SEED)
        starts = []

        # A plain generator has no fork, so the walk restarts it for every
        # part of a split.
        def play(inst, ctx, play=base.play, starts=starts):
            starts.append(ctx.seed)
            yield from play(inst, ctx)

        rep = evaluate_exact(Policy(name=base.name, play=play), inst)
        assert rep == evaluate_exact(base, inst)
        assert len(starts) == len(sequences) <= rows // 2, base.name


def test_exact_forks_a_bare_kernel_instead_of_restarting_it():
    inst = build_stochastic_cover(8, 16, 2, seed=0)
    rows = _checked_support(inst, 1)
    for base in (greedy_max(4), semi_adaptive_greedy_coverage(eps=0.2),
                 threshold_policy(0.5, coin_p=0.25)):
        starts = []

        def play(inst, ctx, play=base.play, starts=starts):
            starts.append(ctx.seed)
            return play(inst, ctx)

        rep = evaluate_exact(Policy(name=base.name, play=play, seed_space=base.seed_space), inst)
        assert rep == evaluate_exact(base, inst)
        assert len(starts) == len(base.seed_space), base.name
        for theta, _pt in base.seed_space:
            sequences = set()
            for phi, _w in inst.prior.support():
                _execute(_reply_log(base, sequences), inst, phi, theta, rng_seed=EXACT_SEED)
            assert len(list(_walk(base, inst, rows, theta))) == len(sequences), base.name


def test_context_fork_goes_on_from_the_rng_state_with_its_own_flags():
    ctx = PolicyContext(theta=True, seed=5)
    ctx.rng.random(3)
    ctx.flags.add("sav-mc")
    kid = ctx.fork()
    assert (kid.theta, kid.seed, kid.flags) == (True, 5, {"sav-mc"})
    assert kid.flags is not ctx.flags
    assert kid.rng.random() == ctx.rng.random()
    assert PolicyContext(seed=5).fork()._rng is None


def _rows_are_plain_runs(fast_sav):
    """Forked kernels and log-replayed combinators alike: under the hook, every
    exact row keeps the trace, flags included, of its plain run."""
    inst = dataclasses.replace(build_stochastic_cover(6, 12, 2, seed=3), fast_sav=fast_sav)
    for pol in (greedy_max(3), semi_adaptive_greedy_max(3, 0.2), truncate(greedy_max(4), 2),
                truncate(semi_adaptive_greedy_max(4, 0.2), 3)):
        assert _rows_in_order(pol, inst) == _plain_traces(pol, inst), pol.name


def test_a_forked_run_draws_as_a_plain_run():
    def fast_sav(inst, psi, pending, cands, ctx, cap=None):
        return [float(x) for x in ctx.rng.random(len(cands))], 1.0

    _rows_are_plain_runs(fast_sav)


def test_a_replayed_run_flags_as_a_plain_run():
    # A hook that flags without reading ctx.rng: each replayed state must add
    # its flag again.
    base = build_stochastic_cover(6, 12, 2, seed=3)

    def fast_sav(inst, psi, pending, cands, ctx, cap=None):
        ctx.flags.add(f"state-{len(psi.pairs)}-{len(pending)}")
        return base.fast_sav(inst, psi, pending, cands, ctx, cap)

    _rows_are_plain_runs(fast_sav)


def test_forking_scores_fewer_states_than_restarting(monkeypatch):
    inst = build_stochastic_cover(8, 16, 2, seed=0)
    calls = []
    score = policies._sav_and_denom
    monkeypatch.setattr(policies, "_sav_and_denom", lambda *args: calls.append(1) or score(*args))
    for base, bare, wrapped in ((greedy_max(4), 15, 64),
                                (semi_adaptive_greedy_coverage(eps=0.2), 8, 1024)):

        def play(inst, ctx, play=base.play):
            yield from play(inst, ctx)

        calls.clear()
        rep = evaluate_exact(base, inst)
        assert len(calls) == bare, base.name
        calls.clear()
        assert evaluate_exact(Policy(name=base.name, play=play), inst) == rep
        assert len(calls) == wrapped, base.name


@pytest.mark.parametrize("build", [lambda: build_stochastic_cover(8, 16, 2, seed=0),
                                   lambda: build_bags(3)], ids=["cover", "bags"])
def test_a_plain_generator_is_forked_without_re_walking_its_path(monkeypatch, build):
    # A fork of a plain generator replays its log, so the walk builds no
    # reply for a step it has already taken: as many _reply calls as the
    # bare kernel, which forks itself.
    inst = build()
    calls = []
    reply = engine._reply
    monkeypatch.setattr(engine, "_reply", lambda *args: calls.append(1) or reply(*args))
    for base in (greedy_max(4), semi_adaptive_greedy_coverage(eps=0.2)):

        def play(inst, ctx, play=base.play):
            yield from play(inst, ctx)

        calls.clear()
        rep = evaluate_exact(base, inst)
        bare = len(calls)
        calls.clear()
        assert evaluate_exact(Policy(name=base.name, play=play), inst) == rep
        assert len(calls) == bare, base.name


@pytest.mark.parametrize("build", [lambda: build_stochastic_cover(6, 12, 2, seed=3),
                                   lambda: build_stochastic_cover(6, 12, 3, seed=4),
                                   lambda: build_random_tabular(4, 6, 0)],
                         ids=["cover-m2", "cover-m3", "tab-s0"])
def test_split_by_pending_outcomes_equals_the_per_row_reply(build):
    # A reveal hook that reveals only the queried element gives the hook-less
    # replies, but makes the walk build a _reply for every row.
    inst = build()
    hooked = dataclasses.replace(inst, reveal=lambda phi, e: [(e, phi[e])])
    rows = _checked_support(inst, 1)

    def leaves(pol, inst, theta):
        return [([j for j, _phi, _w in group], selected, cost, marks, list(observed.items()))
                for group, selected, cost, marks, observed, _ctx, _gen
                in _walk(pol, inst, rows, theta)]

    for pol in _every_policy(inst, 3):
        for theta, _pt in pol.seed_space:
            assert leaves(pol, hooked, theta) == leaves(pol, inst, theta), pol.name
        assert evaluate_exact(pol, hooked) == evaluate_exact(pol, inst), pol.name


@pytest.mark.parametrize("build, counts",
                         [(lambda: build_stochastic_cover(8, 16, 2, seed=0), (30, 128)),
                          (lambda: build_bags(3), (420, 105))], ids=["cover", "bags"])
def test_reply_is_built_once_per_part_without_a_reveal_hook(monkeypatch, build, counts):
    # greedy(4) on the 256-row cover splits into 2 + 4 + 8 + 16 parts; the
    # bags' reveal hook keeps one _reply per row of each split.
    inst = build()
    calls = []
    reply = engine._reply
    monkeypatch.setattr(engine, "_reply", lambda *args: calls.append(1) or reply(*args))
    for base, want in zip((greedy_max(4), semi_adaptive_greedy_coverage(eps=0.2)), counts):
        calls.clear()
        evaluate_exact(base, inst)
        assert len(calls) == want, base.name


def _scripted(inst, ctx):
    """A query with nothing pending, a one-element batch, then a two-element
    batch picked from the first reply."""
    yield QUERY
    yield Select(0)
    reply = yield QUERY
    yield Select(1 + reply[0])
    yield Select(3)
    yield QUERY


@pytest.mark.parametrize("build", [lambda: build_stochastic_cover(6, 12, 2, seed=3),
                                   lambda: build_random_tabular(4, 6, 0)],
                         ids=["cover-m2", "tab-s0"])
def test_split_of_an_empty_and_a_one_element_batch_equals_plain_runs(build):
    # The hook-less split keys rows by their pending outcomes: none for the
    # first QUERY, one for the second.
    inst = build()
    assert inst.reveal is None
    for pol in (Policy(name="scripted", play=_scripted), fixed_batch_greedy(1, 3),
                concat(Policy(name="scripted", play=_scripted), greedy_max(2))):
        assert evaluate_exact(pol, inst) == _plain_report(pol, inst), pol.name
        assert _rows_in_order(pol, inst) == _plain_traces(pol, inst), pol.name


def test_exact_rows_come_in_leaf_batches_valued_once_per_outcome_tuple():
    inst = build_stochastic_cover(8, 16, 2, seed=0)
    pol = greedy_max(4)
    leaves = list(_exact_rows(pol, inst))
    assert len(leaves) == 16
    assert sorted(j for *_, leaf in leaves for j, _phi, _w in leaf[0]) == list(range(256))
    assert all(len(leaf[0]) == len(batch) for _b, batch, leaf in leaves)
    tuples = sum(len({tuple(phi[e] for e in leaf[1]) for _j, phi, _w in leaf[0]})
                 for *_, leaf in leaves)
    calls = []

    class CountedCover(CoverUtility):  # still a cover, so the cover scorer still applies
        def __call__(self, psi):
            calls.append(psi)
            return super().__call__(psi)

    u = inst.utility
    counted = dataclasses.replace(inst, utility=CountedCover(u.universe, u.covers, u.weights))
    assert evaluate_exact(pol, counted) == evaluate_exact(pol, inst)
    assert len(calls) == tuples


def test_exact_scores_each_state_once():
    base = build_stochastic_cover(8, 16, 2, seed=0)
    calls = collections.Counter()

    def fast_sav(inst, psi, pending, cands, ctx, cap=None):
        calls[psi.pairs, tuple(pending), tuple(cands), cap] += 1
        return base.fast_sav(inst, psi, pending, cands, ctx, cap)

    inst = dataclasses.replace(base, fast_sav=fast_sav)
    for pol in (greedy_max(4), semi_adaptive_greedy_max(4, 0.2),
                semi_adaptive_greedy_coverage(eps=0.2)):
        calls.clear()
        rep = evaluate_exact(pol, inst)
        assert rep == evaluate_exact(pol, base)
        assert calls and set(calls.values()) == {1}, pol.name
        # Nothing is kept between evaluations: a second one scores every state again.
        assert evaluate_exact(pol, inst) == rep
        assert set(calls.values()) == {2}, pol.name


def test_marginal_cache_is_bounded_by_state_cap(monkeypatch):
    inst = build_random_tabular(5, 12, 3)
    states = [PartialRealization.project(phi, range(j))
              for phi, _w in inst.prior.support() for j in range(inst.n)]
    want = [[marginal(inst.utility, inst.prior, psi, e) if e not in psi else 0.0
             for e in range(inst.n)] for psi in states]
    monkeypatch.setenv("ADASUB_MAX_STATES", "7")
    for psi, row in zip(states, want):
        assert marginals_for(inst, psi, list(range(inst.n))) == row
        assert len(_MARGINAL_CACHE[inst]) <= 7


def test_exact_rejects_actions_not_driven_by_replies():
    ticks = itertools.count()

    def play(inst, ctx):
        for _ in range(2):
            yield Select(next(ticks) % inst.n)
            yield QUERY

    ticking = Policy(name="ticking", play=play)
    with pytest.raises(PolicyBugError, match="^ticking changed its actions on replayed replies"):
        evaluate_exact(ticking, build_stochastic_cover(6, 12, 2, seed=3))


def test_exact_rejects_a_restart_that_ends_early():
    plays = itertools.count()
    base = greedy_max(2)

    def play(inst, ctx):
        if next(plays) != 1:  # the second run returns at once
            yield from base.play(inst, ctx)

    quitting = Policy(name="quitting", play=play)
    with pytest.raises(PolicyBugError, match="^quitting changed its actions on replayed replies"):
        evaluate_exact(quitting, build_stochastic_cover(6, 12, 2, seed=3))


@pytest.mark.parametrize("name", sorted(CAP_DEFAULTS))
@pytest.mark.parametrize("value", ["0", "-1"])
def test_caps_below_one_are_malformed(name, value, monkeypatch):
    var = "ADASUB_" + name.upper()
    monkeypatch.setenv(var, value)
    with pytest.raises(MalformedInputError, match=f"{var}='{value}' must be at least 1"):
        cap_value(name)


def test_zero_mc_fallback_is_malformed_not_a_crash(monkeypatch):
    monkeypatch.setenv("ADASUB_BRANCH_CAP", "3")
    monkeypatch.setenv("ADASUB_MC_FALLBACK", "0")
    with pytest.raises(MalformedInputError, match="ADASUB_MC_FALLBACK='0' must be at least 1"):
        evaluate_exact(semi_adaptive_greedy_max(3, 0.2), build_stochastic_cover(6, 12, 2, seed=3))


# --- Monte Carlo evaluation -------------------------------------------------------


def test_mc_matches_exact_within_4_sigma(anti_inst):
    pol = threshold_policy(0.75, coin_p=0.5)
    exact = evaluate_exact(pol, anti_inst)
    hits = 0
    for rep_seed in range(100):
        mc = evaluate_mc(pol, anti_inst, samples=400, seed=rep_seed)
        tol = 4.0 * mc.stderr if mc.stderr > 0 else 1e-9
        hits += abs(mc.f_avg - exact.f_avg) <= tol
    assert hits >= 99


def test_mc_is_deterministic_given_seed(anti_inst):
    a = evaluate_mc(greedy_max(2), anti_inst, samples=50, seed=9)
    b = evaluate_mc(greedy_max(2), anti_inst, samples=50, seed=9)
    assert a == b


def test_report_row_shape(anti_inst):
    rep = evaluate_exact(greedy_max(1), anti_inst)
    row = rep.to_row()
    assert tuple(row) == EVAL_COLUMNS
    assert row["policy"] == "greedy(k=1)" and row["instance"] == "anti"
    assert row["f_avg"] == "0.5" and row["flags"] == ""


# --- mixture linearity --------------------------------------------------------------


@given(weights=st.lists(st.floats(0.05, 1.0), min_size=2, max_size=5))
@settings(max_examples=30, deadline=None)
def test_open_loop_mixture_linearity(weights):
    """Exact evaluation of a fixed sequence is the prior-weighted average of
    its per-realization scores."""
    n = 3
    rows = []
    for i, w in enumerate(weights):
        phi = tuple((i >> e) & 1 for e in range(n))
        rows.append((phi, w))
    prior = TablePrior(rows, num_outcomes=2)
    inst = Instance(
        name="mix", n=n, num_outcomes=2, prior=prior,
        utility=ModularUtility([[0.0, 1.0]] * n),
    )
    seq = fixed_sequence_policy([2, 0])
    expect = math.fsum(
        w * inst.utility(PartialRealization.project(phi, [2, 0]))
        for phi, w in prior.support()
    )
    assert math.isclose(f_avg_exact(seq, inst), expect, abs_tol=1e-12)


# --- marginals ------------------------------------------------------------------


def test_marginal_strictness(anti_inst):
    psi = PartialRealization([(0, 0)])
    assert marginal(anti_inst.utility, anti_inst.prior, EMPTY, 0) == 0.5
    assert marginal(anti_inst.utility, anti_inst.prior, psi, 1) == 1.0
    with pytest.raises(AlreadyObservedError):
        marginal(anti_inst.utility, anti_inst.prior, psi, 0)


def test_marginals_for_and_cap(tiny_cover):
    assert marginals_for(tiny_cover, EMPTY, [0, 1, 2]) == [1.0, 1.0, 0.0]
    # quota cap 1.0 already met after one covered item: nothing left to gain
    capped = marginals_for(tiny_cover, PartialRealization([(0, 0)]), [1, 2], cap=1.0)
    assert capped == [0.0, 0.0]
    # observed candidates score zero
    assert marginals_for(tiny_cover, PartialRealization([(0, 0)]), [0, 1]) == [0.0, 1.0]


def test_greedy_tie_on_bags_picks_smallest_free_id():
    # Every free bags element scores the same, and a revealed one scores 0, so
    # each pick is the smallest id neither selected nor revealed.
    inst = build_bags(3)
    skipped = 0
    for phi, _w in inst.prior.support():
        tr = run_policy(greedy_max(3), inst, phi)
        selected, revealed = [], set()
        for e in tr.selected:
            free = [i for i in range(inst.n) if i not in selected and i not in revealed]
            assert e == free[0], (phi, tr.selected)
            skipped += free[0] != min(set(range(inst.n)) - set(selected))
            selected.append(e)
            revealed |= {i for i, o in enumerate(phi) if o == phi[e]}
    assert skipped > 0  # some pick passes over a revealed, unselected id


@pytest.mark.parametrize("policy", [greedy_max(4), greedy_coverage()], ids=["plain", "cover"])
def test_kernel_tie_picks_first_candidate(policy):
    # Equal scores under a scripted hook: the kernel takes cands[0], the
    # smallest unselected id, whether it ranks scores or score per unit cost.
    def fast_sav(inst, psi, pending, cands, ctx, cap=None):
        return [0.5] * len(cands), 0.5

    inst = dataclasses.replace(build_stochastic_cover(6, 12, 2, seed=3),
                               fast_marginals=None, fast_sav=fast_sav)
    tr = run_policy(policy, inst, (0,) * inst.n)
    assert len(tr.selected) >= 4 and tr.selected == tuple(range(len(tr.selected)))


# --- combinators -----------------------------------------------------------------


def test_concat_unions_selections(anti_inst):
    combo = concat(greedy_max(1), fixed_sequence_policy([0, 1]))
    assert combo.name == "greedy(k=1)@seq[0, 1]"
    tr = run_policy(combo, anti_inst, (0, 1))
    assert tr.selected == (0, 1)  # the re-selection of 0 is absorbed
    assert f_avg_exact(combo, anti_inst) == 1.0


def test_concat_dominates_first_part(anti_inst, tiny_cover):
    for inst in (anti_inst, tiny_cover):
        base = greedy_max(1)
        combo = concat(base, fixed_sequence_policy([0, 1]))
        assert f_avg_exact(combo, inst) >= f_avg_exact(base, inst) - 1e-12


def test_concat_seed_space_products(anti_inst):
    first = threshold_policy(5.0, coin_p=0.25)
    second = threshold_policy(5.0, coin_p=0.5)
    combo = concat(first, second)
    assert len(combo.seed_space) == 4
    assert math.isclose(math.fsum(p for _, p in combo.seed_space), 1.0, abs_tol=1e-12)


def test_truncate(anti_inst):
    assert run_policy(truncate(fixed_sequence_policy([1, 0]), 1), anti_inst, (0, 1)).selected == (1,)
    assert run_policy(truncate(greedy_max(2), 0), anti_inst, (0, 1)).selected == ()
    full = truncate(greedy_max(2), 5)
    assert run_policy(full, anti_inst, (0, 1)).selected == (0, 1)


def test_limit_rounds(anti_inst):
    tr = run_policy(limit_rounds(greedy_max(2), 1), anti_inst, (0, 1))
    assert tr.selected == (0,) and tr.rounds == 1
    tr0 = run_policy(limit_rounds(greedy_max(2), 0), anti_inst, (0, 1))
    assert tr0.selected == () and tr0.rounds == 0
    tr5 = run_policy(limit_rounds(greedy_max(2), 5), anti_inst, (0, 1))
    assert tr5.selected == (0, 1) and tr5.rounds == 2


def test_limit_rounds_drops_unqueried_tail(anti_inst):
    p = _policy_from_script([Select(0), QUERY, Select(1)])  # tail select, no query
    tr = run_policy(limit_rounds(p, 3), anti_inst, (0, 1))
    assert tr.selected == (0,)


def test_unknown_action_inside_combinators_is_policy_bug(anti_inst):
    bad = _policy_from_script([Select(0), QUERY, "bogus", Select(1), QUERY], name="bad")
    seq = fixed_sequence_policy([1])
    for pol in (bad, truncate(bad, 2), limit_rounds(bad, 2), concat(bad, seq), concat(seq, bad)):
        with pytest.raises(PolicyBugError, match="^bad yielded unknown action 'bogus'$"):
            run_policy(pol, anti_inst, (0, 1))


# --- policy context ------------------------------------------------------------


def test_context_children_are_deterministic():
    ctx = PolicyContext(theta=None, seed=42)
    a, b = ctx.child(None, 1), ctx.child(None, 2)
    assert a.seed == b.seed - 1
    assert ctx.child(None, 1).seed == a.seed
    ctx.flags.add("sav-mc")
    assert "sav-mc" in ctx.child(None, 3).flags


def test_budget_overrun_raises(anti_inst):
    with pytest.raises(MalformedInputError):
        run_policy(greedy_max(3), anti_inst, (0, 1))


def test_exact_vs_mc_on_truncation_pair():
    f_inst, _ = build_truncation_pair()
    exact = f_avg_exact(greedy_max(2), f_inst)
    mc = evaluate_mc(greedy_max(2), f_inst, samples=4000, seed=0)
    assert abs(mc.f_avg - exact) <= 4 * mc.stderr + 1e-9
