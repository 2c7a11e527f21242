"""The four benchmark workloads.

A workload has a timed `setup(seed, ctx)` that does the library's own set-up
work (building instances), and an untimed `ops(state, seed, ctx)` that draws
the inputs from the seed, computes the references the checks need, and
returns one round of operations.  The runner repeats whole rounds in a closed
loop and runs `setup_reps` more set-ups before each round.

Every operation carries a check that compares its output with a reference
computed apart from the library (`reference.py`) or with a property the
method must have; `check_*` functions return a list of problems, empty when
the output is right.
"""
from __future__ import annotations

import csv
import functools
import io
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import reference as ref
from adasub import engine, instances, model, policies, verifiers

TOL = 1e-9


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]


@dataclass
class Context:
    """What the runner hands to a workload: where to write, and the tracer
    (None unless this is the traced run)."""

    work_dir: str
    src_dir: str
    tracer: Any = None


def _seeds(seed: int, count: int) -> list[int]:
    """Non-negative instance seeds derived from the workload seed."""
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, size=count)]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(b))


# --- semi-cover ------------------------------------------------------------------

SEMI_N, SEMI_U, SEMI_K, SEMI_EPS = 32, 64, 32, 0.2


def check_semi_trajectory(tr, phi, covers, k: int, first: int) -> list[str]:
    """Value by set union, k distinct selections, 1 <= rounds <= k, first pick."""
    problems = []
    sel = tr.selected
    if len(sel) != k or len(set(sel)) != k or not all(0 <= e < len(covers) for e in sel):
        problems.append(f"selected {sel} is not {k} distinct elements")
    if not 1 <= tr.rounds <= k:
        problems.append(f"rounds {tr.rounds} outside [1, {k}]")
    want = ref.union_value(covers, phi, sel)
    if tr.value != want:
        problems.append(f"value {tr.value!r} != set-union value {want}")
    if not sel or sel[0] != first:
        problems.append(f"first pick {sel[:1]} != reference argmax {first}")
    return problems


class SemiCover:
    """MC trajectories of semi(k=32, eps=0.2) on the criterion-8 cover.

    An operation is a batch of `batch` trajectories on distinct realizations,
    as one Monte Carlo estimate would run them.  A trajectory that ends after
    two rounds takes about 1.4x as long as one that ends after three, so
    smaller operations would make op_p50_ms jump with the mix of the two.
    """

    name = "semi-cover"
    # Almost all of the operation time is in numpy kernels, whose speed moves
    # less with the host's clock regime than the interpreter's; scaling by the
    # interpreter calibration loop made the run-to-run spread wider here.
    scaled = False
    setup_reps = 25
    trace_rounds = 1
    ops_per_round = 2
    batch = 4

    def setup(self, seed: int, ctx: Context):
        inst = instances.build_stochastic_cover(SEMI_N, SEMI_U, 2, 0)
        engine.marginals_for(inst, model.EMPTY, list(range(inst.n)))  # lazy grid
        return inst

    def ops(self, inst, seed: int, ctx: Context) -> list[Op]:
        doc = instances.instance_to_doc(inst)
        marginals = doc["prior"]["marginals"]
        covers = doc["utility"]["covers"]
        first = ref.first_pick(marginals, covers)
        rng = np.random.default_rng(seed)
        out = []
        for j in range(self.ops_per_round):
            runs = [(ref.draw_realization(marginals, rng), int(rng.integers(0, 2**31 - 1)))
                    for _ in range(self.batch)]

            def run(runs=runs):
                return tuple(
                    engine.run_policy(policies.semi_adaptive_greedy_max(SEMI_K, SEMI_EPS),
                                      inst, phi, seed=pseed)
                    for phi, pseed in runs
                )

            def check(trs, runs=runs):
                return [p for tr, (phi, _s) in zip(trs, runs)
                        for p in check_semi_trajectory(tr, phi, covers, SEMI_K, first)]

            out.append(Op(f"batch{j}", run, check))
        return out


# --- exact-cover -----------------------------------------------------------------

EXACT_N, EXACT_COUNT = 8, 8
EXACT_K, EXACT_EPS = 4, 0.2
EXACT_POLICIES = (
    ("greedy-cov", lambda: policies.greedy_coverage()),
    ("semi-cov", lambda: policies.semi_adaptive_greedy_coverage(eps=EXACT_EPS)),
    ("greedy", lambda: policies.greedy_max(EXACT_K)),
    ("semi", lambda: policies.semi_adaptive_greedy_max(EXACT_K, EXACT_EPS)),
)


def check_exact_report(rep, kind: str, n: int, quota: float, k: int, want=None,
                       c_star=None) -> list[str]:
    """Properties of one exact evaluation; `want` is the reference greedy's
    (f_avg, c_avg, expected_rounds) for the two fully adaptive policies."""
    problems = []
    f, c, r = rep.f_avg, rep.c_avg, rep.expected_rounds
    if want is not None:
        for label, got, exp in (("f_avg", f, want[0]), ("c_avg", c, want[1]),
                                ("expected_rounds", r, want[2])):
            if not _close(got, exp):
                problems.append(f"{label} {got!r} != reference greedy {exp!r}")
    if kind in ("greedy", "greedy-cov") and not _close(r, c):
        problems.append(f"fully adaptive but E[rounds] {r!r} != E[selections] {c!r}")
    if kind in ("greedy-cov", "semi-cov") and not _close(f, quota):
        problems.append(f"coverage policy f_avg {f!r} != quota {quota!r}")
    if kind in ("greedy", "semi") and not _close(c, k):
        problems.append(f"budgeted policy E[selections] {c!r} != k={k}")
    if kind in ("semi", "semi-cov") and not (1.0 - TOL <= r <= c + TOL):
        problems.append(f"E[rounds] {r!r} outside [1, E[selections]={c!r}]")
    if kind == "greedy-cov" and not ref.coverage_bound_holds(c, n, quota, 1.0, c_star):
        problems.append(f"greedy-cov cost {c!r} breaks (c*+1) ln(nQ/eta) + 1")
    return problems


class ExactCover:
    """evaluate_exact of four policies on small product-prior covers.

    An operation evaluates all four policies on one instance loaded from its
    document, so every operation does the same mix of work; the policies
    differ in cost by up to 10x, and single-policy operations would make
    op_p50_ms depend on where the median falls between them.
    """

    name = "exact-cover"
    scaled = True
    setup_reps = 10
    trace_rounds = 1

    def setup(self, seed: int, ctx: Context):
        return [
            instances.instance_to_doc(
                instances.build_stochastic_cover(EXACT_N, 2 * EXACT_N, 2, s))
            for s in _seeds(seed, EXACT_COUNT)
        ]

    def ops(self, docs, seed: int, ctx: Context) -> list[Op]:
        out = []
        for doc in docs:
            marginals = doc["prior"]["marginals"]
            covers = doc["utility"]["covers"]
            quota = doc["coverage"]["quota"]
            n = doc["elements"]
            wants = {
                "greedy": ref.reference_greedy(marginals, covers, quota, EXACT_K),
                "greedy-cov": ref.reference_greedy(marginals, covers, quota, None),
            }
            c_star = functools.cache(
                lambda m=marginals, cv=covers, q=quota: ref.optimal_coverage_cost(m, cv, q))

            def run(doc=doc):
                return tuple(
                    engine.evaluate_exact(make(), instances.instance_from_doc(doc))
                    for _kind, make in EXACT_POLICIES
                )

            def check(reps, n=n, quota=quota, wants=wants, c_star=c_star):
                return [
                    f"{kind}: {p}"
                    for (kind, _make), rep in zip(EXACT_POLICIES, reps)
                    for p in check_exact_report(rep, kind, n, quota, EXACT_K, wants.get(kind), c_star)
                ]

            out.append(Op(doc["name"], run, check))
        return out


# --- certify-tabular ---------------------------------------------------------------

TAB_N, TAB_M, TAB_COUNT = 4, 6, 32
TAB_ELL, TAB_EPS, TAB_I = 2, 0.1, 2


def check_bound_row(row) -> list[str]:
    """A bound row must be satisfied and must not be a skipped placeholder."""
    if str(row.witness or "").startswith("skipped"):
        return [f"{row.name}: skipped ({row.witness})"]
    if not row.satisfied:
        return [f"{row.name}: {row.lhs!r} < {row.rhs!r}"]
    return []


def check_certificate(row, model_ref, expect_holds: bool) -> list[str]:
    """A certified row (or a refutation with its witness), with the witness
    pair's marginals recomputed by the reference."""
    problems = []
    if row.satisfied != expect_holds:
        problems.append(f"{row.name} satisfied={row.satisfied}, expected {expect_holds}")
    w = row.witness
    if w is None:
        return problems + [f"{row.name}: no witness pair"]
    a = model_ref.marginal(w.e, dict(w.psi.pairs))
    if not _close(row.lhs, a):
        problems.append(f"{row.name}: lhs {row.lhs!r} != reference marginal {a!r}")
    if row.name == "adaptive-submodular":
        b = model_ref.marginal(w.e, dict(w.sup.pairs))
        if not _close(row.rhs, b):
            problems.append(f"{row.name}: rhs {row.rhs!r} != reference marginal {b!r}")
        if not expect_holds and not a < b - TOL:
            problems.append(f"witness {w} is no violation: {a!r} >= {b!r}")
    return problems


def check_optimal_values(values, tree_values) -> list[str]:
    """optimal_value for k = 1.. is nondecreasing and, where the reference
    tree was enumerated, equal to it."""
    problems = []
    if any(b < a - TOL for a, b in zip(values, values[1:])):
        problems.append(f"optimal values decrease with k: {values}")
    for k, (v, t) in enumerate(zip(values, tree_values), start=1):
        if t is not None and not _close(v, t):
            problems.append(f"optimal_value(k={k}) {v!r} != policy-tree value {t!r}")
    return problems


def check_calibration(cal, i: float) -> list[str]:
    """alpha <= i <= beta and the coin interpolates to exactly i."""
    if not (0.0 <= cal.coin_p <= 1.0 and cal.alpha <= i + TOL and i <= cal.beta + TOL):
        return [f"calibration {cal} does not bracket i={i}"]
    got = cal.alpha + cal.coin_p * (cal.beta - cal.alpha)
    if not _close(got, i):
        return [f"calibrated expected count {got!r} != i={i}"]
    return []


class CertifyTabular:
    """The verify --corpus random path (n=4, m=6, its defaults) on correlated
    table-prior instances, plus the truncation pair.

    An operation runs every certificate and bound on one instance, each on a
    fresh load of its document, as `adasub verify` does per suite; the
    suites differ in cost by up to 40x, and per-suite operations would make
    op_p50_ms depend on where the median falls between them.
    """

    name = "certify-tabular"
    scaled = True
    setup_reps = 1
    trace_rounds = 2

    def setup(self, seed: int, ctx: Context):
        corpus = [instances.build_random_tabular(TAB_N, TAB_M, s)
                  for s in _seeds(seed, TAB_COUNT)]
        pair = instances.build_truncation_pair()
        return [instances.instance_to_doc(inst) for inst in (*corpus, *pair)]

    def ops(self, docs, seed: int, ctx: Context) -> list[Op]:
        out = [self._corpus_op(doc) for doc in docs[:-2]]
        f_doc, g_doc = docs[-2:]
        f_ref, g_ref = ref.table_model_from_doc(f_doc), ref.table_model_from_doc(g_doc)
        load = instances.instance_from_doc

        def run():
            return (verifiers.check_adaptive_submodular(load(f_doc)),
                    verifiers.check_adaptive_monotone(load(f_doc)),
                    verifiers.check_adaptive_submodular(load(g_doc)))

        def check(rows):
            return (check_certificate(rows[0], f_ref, True)
                    + check_certificate(rows[1], f_ref, True)
                    + check_certificate(rows[2], g_ref, False))

        out.append(Op("trunc-pair", run, check))
        return out

    @staticmethod
    def _corpus_op(doc) -> Op:
        load = instances.instance_from_doc
        mref = ref.table_model_from_doc(doc)
        n = doc["elements"]
        k = min(3, n)
        trees = [mref.tree_best(kk) if n <= 4 else None for kk in range(1, k + 1)]

        def run():
            return (
                verifiers.check_adaptive_submodular(load(doc)),
                verifiers.check_adaptive_monotone(load(doc)),
                _optimal_values(load(doc), k),
                policies.calibrate_tau(load(doc), TAB_I),
                policies.calibrate_tau(load(doc), TAB_I, "sav"),
                verifiers.verify_lemma1(load(doc), policies.optimal_policy_dp(k), TAB_ELL),
                verifiers.verify_semi_max_bound(load(doc), policies.optimal_policy_dp(k),
                                                TAB_ELL, TAB_EPS, k),
                verifiers.verify_batch_lemma8(load(doc), policies.optimal_policy_dp(k),
                                              TAB_ELL, TAB_EPS),
            )

        def check(res):
            sub, mono, values, cal, cal_sav, *bounds = res
            return (check_certificate(sub, mref, True) + check_certificate(mono, mref, True)
                    + check_optimal_values(values, trees)
                    + check_calibration(cal, TAB_I) + check_calibration(cal_sav, TAB_I)
                    + [p for row in bounds for p in check_bound_row(row)])

        return Op(doc["name"], run, check)


def _optimal_values(inst, k: int) -> list[float]:
    return [policies.optimal_value(inst, kk) for kk in range(1, k + 1)]


# --- cli ---------------------------------------------------------------------------

EVAL_HEADER = "policy,instance,mode,f_avg,c_avg,expected_rounds,samples,stderr,wall_ms,flags"
VERIFY_HEADER = "verifier,instance,lhs,rhs,slack,satisfied,witness"


def check_cli_output(result, header: str, expect: Callable[[list[dict]], list[str]]
                     ) -> list[str]:
    """Exit code 0, the documented CSV header, and a per-command row check."""
    rc, out = result
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    text = out.decode()
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return [f"header {lines[:1]} != {header!r}"]
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        return ["no result rows"]
    return expect(rows)


def _f_avg_is(k: float):
    def expect(rows):
        got = float(rows[0]["f_avg"])
        return [] if abs(got - k) <= TOL else [f"f_avg {got!r} != k={k}"]
    return expect


def _budget_spent(k: float):
    def expect(rows):
        got = float(rows[0]["c_avg"])
        return [] if abs(got - k) <= TOL else [f"c_avg {got!r} != k={k}"]
    return expect


def _all_satisfied(want: str):
    def expect(rows):
        bad = [r["verifier"] for r in rows if r["satisfied"] != want]
        return [f"rows {bad} not satisfied={want}"] if bad else []
    return expect


class Cli:
    """Fresh `adasub` processes, one at a time."""

    name = "cli"
    scaled = True
    setup_reps = 1
    trace_rounds = 1
    peak_rss_of_children = True

    def _run(self, args: list[str], ctx: Context) -> tuple[int, bytes]:
        env = dict(os.environ, PYTHONPATH=ctx.src_dir)
        tr = ctx.tracer
        traced = tr is not None and tr.active
        cmd = [sys.executable] + (["-X", "importtime"] if traced else []) + ["-m", "adasub.cli"]
        if not traced:
            proc = subprocess.run(cmd + args, cwd=ctx.work_dir, env=env, capture_output=True,
                                  timeout=120)
            return proc.returncode, proc.stdout
        sid = tr.open("cli.process")
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd + args, cwd=ctx.work_dir, env=env, capture_output=True,
                                  timeout=120)
        finally:
            tr.close(sid)
        tr.add("cli.import", t0, t0 + _import_seconds(proc.stderr), parent=sid)
        return proc.returncode, proc.stdout

    def setup(self, seed: int, ctx: Context):
        tab_seed, cov_seed = _seeds(seed, 2)
        for args in (
            ["gen", "bags", "--k", "3", "--out", "bags3.json"],
            ["gen", "bags", "--k", "4", "--out", "bags4.json"],
            ["gen", "trunc-pair", "--out", "trunc"],
            ["gen", "tabular", "--n", "4", "--m", "6", "--seed", str(tab_seed), "--out", "tab.json"],
            ["gen", "cover", "--n", "6", "--universe", "10", "--seed", str(cov_seed),
             "--out", "cov.json"],
        ):
            rc, _out = self._run(args, ctx)
            if rc != 0:
                raise RuntimeError(f"adasub {' '.join(args)} exited {rc}")
        return None

    def ops(self, _state, seed: int, ctx: Context) -> list[Op]:
        mc_seed, hard_seed = _seeds(seed + 1, 2)
        cases = [
            ("run bags-k3 greedy", ["run", "bags3.json", "greedy", "--k", "3"],
             EVAL_HEADER, _f_avg_is(3.0)),
            ("run bags-k4 greedy mc",
             ["run", "bags4.json", "greedy", "--k", "4", "--mode", "mc", "--samples", "200",
              "--seed", str(mc_seed)],
             EVAL_HEADER, _f_avg_is(4.0)),
            ("run bags-k3 semi", ["run", "bags3.json", "semi:eps=0.2", "--k", "3"],
             EVAL_HEADER, _budget_spent(3.0)),
            ("run bags-k3 batch", ["run", "bags3.json", "batch:r=2", "--k", "3"],
             EVAL_HEADER, _budget_spent(3.0)),
            ("verify hardness bags-k4",
             ["verify", "hardness", "--k", "4", "--r", "4", "--trials", "200",
              "--seed", str(hard_seed)],
             VERIFY_HEADER, _all_satisfied("true")),
            ("verify trunc-g submodular",
             ["verify", "trunc-g.json", "submodular", "--expect-violation"],
             VERIFY_HEADER, _all_satisfied("false")),
            ("verify tab submodular", ["verify", "tab.json", "submodular"],
             VERIFY_HEADER, _all_satisfied("true")),
            ("verify tab lemma1", ["verify", "tab.json", "lemma1", "--l", "2", "--k", "3"],
             VERIFY_HEADER, _all_satisfied("true")),
            ("run cover greedy-cov", ["run", "cov.json", "greedy-cov"],
             EVAL_HEADER, _f_avg_is(10.0)),
        ]
        return [
            Op(label, lambda a=args: self._run(a, ctx),
               lambda res, h=header, e=expect: check_cli_output(res, h, e))
            for label, args, header, expect in cases
        ]


def _import_seconds(stderr: bytes) -> float:
    """Total import time of the child, from its -X importtime report: the sum
    of the cumulative times of the top-level imports (the interpreter's own
    start-up modules, the `adasub` package with numpy, and what `adasub.cli`
    imports)."""
    total_us = 0
    for line in stderr.decode(errors="replace").splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3:
            continue
        name = parts[2]
        if name.startswith(" ") and not name.startswith("  "):
            try:
                total_us += int(parts[1].strip())
            except ValueError:
                continue
    return total_us / 1e6


WORKLOADS = {w.name: w for w in (SemiCover, ExactCover, CertifyTabular, Cli)}
