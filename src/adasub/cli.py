"""Command-line harness: generate instances, run policies, verify bounds, sweep.

Exit codes: 0 success, 1 verification failed, 2 state-space too large,
3 malformed input (including usage errors), 4 infeasible or inconsistent.
Enumeration caps can be overridden with ADASUB_MAX_SUPPORT, ADASUB_MAX_STATES,
ADASUB_BRANCH_CAP, and ADASUB_MC_FALLBACK.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any

from .engine import (
    EVAL_COLUMNS,
    EvalReport,
    Policy,
    _csv,
    evaluate_exact,
    evaluate_mc,
)
from .errors import (
    AdasubError,
    InconsistentObservationError,
    InfeasibleError,
    MalformedInputError,
    TooLargeError,
)
from .instances import (
    build_bags,
    build_random_tabular,
    build_stochastic_cover,
    build_truncation_pair,
    load_instance,
    save_instance,
)
from .model import Instance
from .policies import (
    calibrate_tau,
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
from .verifiers import (
    VERIFY_COLUMNS,
    BoundCheckResult,
    check_adaptive_monotone,
    check_adaptive_submodular,
    measure_superround_decay,
    rows_to_csv,
    verify_batch_lemma8,
    verify_corollary_delta,
    verify_coverage_bound,
    verify_eq_main,
    verify_eta,
    verify_hardness,
    verify_lemma1,
    verify_round_complexity,
    verify_semi_max_bound,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_TOO_LARGE = 2
EXIT_MALFORMED = 3
EXIT_INFEASIBLE = 4

# error class -> exit code; the first match wins
EXIT_CODES = (
    (MalformedInputError, EXIT_MALFORMED),
    (TooLargeError, EXIT_TOO_LARGE),
    ((InfeasibleError, InconsistentObservationError), EXIT_INFEASIBLE),
    (AdasubError, EXIT_FAILED),
)

# run and verify rows share one header: every column of either report
EXPERIMENT_COLUMNS = ("sweep", "kind") + EVAL_COLUMNS + tuple(
    c for c in VERIFY_COLUMNS if c not in EVAL_COLUMNS
)

_GNUPLOT_HINTS = """\
# rounds versus size (from: experiment rounds sweep, or verify rounds --sizes ...)
#   plot "rounds.csv" using (log($1)*log($2)):3 with linespoints title "rounds"
set datafile separator ","
# hardness trend (from: verify hardness --k K --r R over several K)
#   plot "hardness.csv" using 1:2 with linespoints title "batch value / k"
# value sweeps (from: run ... --format csv appended across parameters)
#   plot "runs.csv" using 1:4 with linespoints title "f_avg"
"""


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors, which collides with the documented
    too-large code; route usage errors to the malformed-input code instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_MALFORMED)


# --- parameters -----------------------------------------------------------------


def _param(p: dict[str, Any], key: str, default: Any = None, kind: type = int,
           where: str = "") -> Any:
    """Parameter `key` of a policy spec, the flags or a sweep entry, read as `kind`.

    A missing value (None) gives `default`, so 0 counts as given.
    """
    v = p.get(key)
    return default if v is None else _number(v, kind, f"{where}{key}")


def _number(v: Any, kind: type, what: str) -> int | float:
    """`v` as a float, or as an int when `kind` is int: anything float() takes
    is a number, and an int must also be integral (2, 2.0 and "2" give 2).
    Anything else is malformed input (exit 3)."""
    try:
        x = float(v)
    except (TypeError, ValueError):
        raise MalformedInputError(f"{what} is not a number") from None
    if kind is float:
        return x
    if not x.is_integer():
        raise MalformedInputError(f"{what} is not an integer: {v!r}")
    try:
        return int(v)  # exact for ints and digit strings
    except ValueError:
        return int(x)  # "2.0"


# --- policy specs -------------------------------------------------------------


def _parse_opts(rest: str, spec: str) -> dict[str, str]:
    opts: dict[str, str] = {}
    for part in rest.split(","):
        if not part:
            continue
        if "=" not in part:
            raise MalformedInputError(f"policy spec {spec!r}: expected key=value, got {part!r}")
        key, val = part.split("=", 1)
        opts[key] = val
    return opts


def _opt(opts: dict[str, str], key: str, spec: str, kind: type = float) -> Any:
    if key not in opts:
        raise MalformedInputError(f"policy spec {spec!r} needs {key}=")
    return _param(opts, key, kind=kind, where=f"policy spec {spec!r}: ")


def _need_k(k: int | None, spec: str) -> int:
    if k is None:
        raise MalformedInputError(f"policy {spec!r} needs --k")
    return k


def policy_from_spec(spec: str, inst: Instance, k: int | None = None) -> Policy:
    """Build a policy from its command-line spec string.

    Specs: greedy | greedy-cov | threshold:tau=T,p=P[,mode=sav] |
    tau-cal:i=I[,mode=sav] | semi:eps=E[,gap=ig|rig] | semi-cov:eps=E[,gap=..] |
    batch:r=R | seq:E0-E1-... | opt-dp | opt-cov-dp.  Budgeted specs take k
    from --k.  I may be fractional; R must be an integer.
    """
    head, _, rest = spec.partition(":")
    if head == "seq":
        try:
            elems = [int(x) for x in rest.split("-")] if rest else []
        except ValueError as exc:
            raise MalformedInputError(f"policy spec {spec!r}: bad element list") from exc
        return fixed_sequence_policy(elems)
    opts = _parse_opts(rest, spec)
    if head == "greedy":
        return greedy_max(_need_k(k, spec))
    if head == "greedy-cov":
        return greedy_coverage()
    if head == "threshold":
        return threshold_policy(
            _opt(opts, "tau", spec),
            _param(opts, "p", 0.0, float, f"policy spec {spec!r}: "),
            opts.get("mode", "marginal"),
        )
    if head == "tau-cal":
        mode = opts.get("mode", "marginal")
        i = _opt(opts, "i", spec)
        return calibrate_tau(inst, int(i) if i.is_integer() else i, mode).policy(mode)
    if head == "semi":
        return semi_adaptive_greedy_max(
            _need_k(k, spec), _opt(opts, "eps", spec), opts.get("gap", "ig")
        )
    if head == "semi-cov":
        return semi_adaptive_greedy_coverage(
            eps=_opt(opts, "eps", spec), gap=opts.get("gap", "rig")
        )
    if head == "batch":
        return fixed_batch_greedy(_opt(opts, "r", spec, int), _need_k(k, spec))
    if head == "opt-dp":
        return optimal_policy_dp(_need_k(k, spec))
    if head == "opt-cov-dp":
        return optimal_coverage_dp()
    raise MalformedInputError(f"unknown policy spec {spec!r}")


# --- shared emission -----------------------------------------------------------


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _json(records: list[EvalReport] | list[BoundCheckResult]) -> str:
    """One JSON object per record, keyed by field; flags as a list and a
    witness object as its string."""
    docs = [vars(r) for r in records]
    return json.dumps(docs, sort_keys=True, indent=2, default=str) + "\n"


# --- instances ------------------------------------------------------------------

# corpus -> (family, the parameters it reads with their defaults); seed s of
# `verify --corpus C --seeds N` builds the family with seed s.
_CORPORA = {
    "random": ("tabular", {"n": 4, "m": 6}),
    "cover": ("cover", {"n": 5, "universe": 8, "outcomes": 2}),
}


def _build_family(family: str, p: dict[str, Any]) -> Instance:
    if family == "bags":
        if p.get("k") is None:
            raise MalformedInputError("gen bags needs --k")
        return build_bags(_param(p, "k"), _param(p, "seed"))
    if family == "cover":
        if p.get("n") is None or p.get("universe") is None:
            raise MalformedInputError("gen cover needs --n and --universe")
        return build_stochastic_cover(
            _param(p, "n"), _param(p, "universe"), _param(p, "outcomes", 2), _param(p, "seed", 0)
        )
    if family == "tabular":
        if p.get("n") is None or p.get("m") is None:
            raise MalformedInputError("gen tabular needs --n and --m")
        return build_random_tabular(
            _param(p, "n"), _param(p, "m"), _param(p, "seed", 0), _param(p, "universe")
        )
    raise MalformedInputError(f"unknown instance family {family!r}")


def _resolve(src: Any, needed: bool, missing: str) -> Instance | None:
    """The instance a `{"file": path}` or `{"family": ..., params}` source
    names; None when there is none and none is `needed`, else exit 3 with
    the `missing` message."""
    if isinstance(src, dict) and "file" in src:
        return load_instance(src["file"])
    if isinstance(src, dict) and "family" in src:
        return _build_family(src["family"], src)
    if needed:
        raise MalformedInputError(missing)
    return None


# --- gen ------------------------------------------------------------------------


def cmd_gen(args) -> int:
    if args.family == "trunc-pair":
        prefix = (args.out or "trunc").removesuffix(".json")
        written = list(zip(build_truncation_pair(), (f"{prefix}-f.json", f"{prefix}-g.json")))
    else:
        inst = _build_family(args.family, vars(args))
        written = [(inst, args.out or f"{inst.name}.json")]
    for inst, path in written:
        save_instance(inst, path)
    for _inst, path in written:
        print(path)
    return EXIT_OK


# --- run --------------------------------------------------------------------------


def _evaluate(inst: Instance, p: dict[str, Any]) -> EvalReport:
    """Report of `run` (or a run sweep) `p` on `inst`: policy spec, k, mode,
    samples, seed and timing as the run flags define them."""
    policy = policy_from_spec(str(p.get("policy", "")), inst, _param(p, "k"))
    mode = str(p.get("mode", "exact"))
    samples = _param(p, "samples", 1000)
    seed = _param(p, "seed")
    t0 = time.perf_counter()
    if mode == "exact":
        rep = evaluate_exact(policy, inst)
    elif mode == "mc":
        if seed is None:
            raise MalformedInputError("mc mode needs an explicit --seed")
        rep = evaluate_mc(policy, inst, samples, seed)
    else:
        raise MalformedInputError(f"unknown mode {mode!r}")
    timing = p.get("timing")
    if timing is not None and not isinstance(timing, bool):
        raise MalformedInputError(f"timing must be true or false, got {timing!r}")
    if timing:
        rep = dataclasses.replace(rep, wall_ms=(time.perf_counter() - t0) * 1000.0)
    return rep


def cmd_run(args) -> int:
    rep = _evaluate(load_instance(args.instance), vars(args))
    _emit(_json([rep]) if args.format == "json" else _csv(EVAL_COLUMNS, [rep.to_row()]), args.out)
    return EXIT_OK


# --- verify -----------------------------------------------------------------------


def _suite_rows(suite: str, src: Any, p: dict[str, Any], missing: str) -> list[BoundCheckResult]:
    """Rows of one suite on the instance `src` names (see _resolve)."""
    inst = _resolve(src, suite not in ("hardness", "rounds"), missing)
    seed = _param(p, "seed", 0)
    if suite == "hardness":
        if p.get("k") is None or p.get("r") is None:
            raise MalformedInputError("hardness needs --k and --r")
        return verify_hardness(_param(p, "k"), _param(p, "r"), _param(p, "trials", 10000), seed)
    if suite == "rounds":
        listed = "8,16,32" if p.get("sizes") is None else str(p["sizes"])
        sizes = [_number(s, int, "sizes") for s in listed.split(",") if s]
        insts = [
            build_stochastic_cover(n, 2 * n, 2, seed=seed + idx) for idx, n in enumerate(sizes)
        ]
        return verify_round_complexity(
            insts, _param(p, "eps", 0.1, float), trials=_param(p, "trials", 40), seed=seed
        )
    if suite == "submodular":
        return [check_adaptive_submodular(inst)]
    if suite == "monotone":
        return [check_adaptive_monotone(inst)]
    if suite == "eta":
        return [verify_eta(inst)]
    if suite == "coverage-bound":
        return [verify_coverage_bound(inst, optimal_coverage_dp())]
    if suite == "corollary-delta":
        return [verify_corollary_delta(inst, optimal_coverage_dp())]
    if suite == "decay":
        return [
            measure_superround_decay(
                inst,
                _param(p, "eps", 0.2, float),
                _param(p, "delta", 0.1, float),
                _param(p, "trials", 1000),
                seed,
            )
        ]
    if suite not in ("lemma1", "eq-main", "semi-max", "lemma8"):
        raise MalformedInputError(f"unknown verifier suite {suite!r}")
    # the level ell (i for eq-main) and the budget k of the optimum, k = ell by default
    level = _param(p, "i" if suite == "eq-main" else "l", 1)
    k = _param(p, "k", level)
    opt = optimal_policy_dp(k)
    if suite == "lemma1":
        return [verify_lemma1(inst, opt, level)]
    if suite == "eq-main":
        return [verify_eq_main(inst, opt, level)]
    eps = _param(p, "eps", 0.1, float)
    if suite == "semi-max":
        return [verify_semi_max_bound(inst, opt, level, eps, k)]
    return [verify_batch_lemma8(inst, opt, level, eps)]


def cmd_verify(args) -> int:
    p = vars(args)
    names = list(args.target)
    if len(names) == 1:
        inst_path, suite = None, names[0]
    elif len(names) == 2:
        inst_path, suite = names
    else:
        raise MalformedInputError("verify takes [instance] suite")

    if args.corpus is None:
        sources = [None if inst_path is None else {"file": inst_path}]
    elif inst_path is not None:
        raise MalformedInputError("give either an instance file or --corpus, not both")
    elif args.seeds < 1:
        raise MalformedInputError(f"--seeds must be >= 1, got {args.seeds}")
    else:
        family, defaults = _CORPORA[args.corpus]
        params = {key: _param(p, key, d) for key, d in defaults.items()}
        sources = [{**params, "family": family, "seed": s} for s in range(args.seeds)]
    missing = f"suite {suite!r} needs an instance or --corpus"
    results = [r for src in sources for r in _suite_rows(suite, src, p, missing)]

    _emit(_json(results) if args.format == "json" else rows_to_csv(results), args.out)
    if args.expect_violation:
        ok = bool(results) and all(not r.satisfied for r in results)
    else:
        ok = all(r.satisfied for r in results)
    return EXIT_OK if ok else EXIT_FAILED


# --- experiment --------------------------------------------------------------------


def _sweep_rows(sweep: dict[str, Any]) -> list[dict[str, str]]:
    """One sweep point -> unified report rows.  Module-level so worker
    processes can pickle the call."""
    if not isinstance(sweep, dict):
        raise MalformedInputError("experiment sweep entries must be objects")
    sid = str(sweep.get("id", ""))
    command = sweep.get("command")
    src = sweep.get("instance")
    if command == "run":
        inst = _resolve(src, True, f"sweep {sid!r}: instance needs a file or family")
        records = [_evaluate(inst, sweep)]
    elif command == "verify":
        suite = str(sweep.get("suite", ""))
        missing = f"sweep {sid!r}: suite {suite!r} needs an instance"
        records = _suite_rows(suite, src, sweep, missing)
    else:
        raise MalformedInputError(f"sweep {sid!r}: unknown command {command!r}")
    return [{"sweep": sid, "kind": command, **r.to_row()} for r in records]


def cmd_experiment(args) -> int:
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise MalformedInputError(f"cannot read config {args.config}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedInputError(f"{args.config}:{exc.lineno}: invalid syntax ({exc.msg})") from exc
    if not isinstance(config, dict) or not isinstance(config.get("sweeps", []), list):
        raise MalformedInputError("experiment config must be an object with a sweeps array")
    sweeps = config.get("sweeps", [])
    if args.jobs > 1 and len(sweeps) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            row_blocks = list(pool.map(_sweep_rows, sweeps))
    else:
        row_blocks = [_sweep_rows(s) for s in sweeps]
    _emit(_csv(EXPERIMENT_COLUMNS, [row for block in row_blocks for row in block]), args.out)
    return EXIT_OK


# --- entry point ----------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="adasub", description=__doc__)
    parser.add_argument(
        "--gnuplot-hints", action="store_true", help="print plotting recipes and exit"
    )
    sub = parser.add_subparsers(dest="cmd")

    g = sub.add_parser("gen", help="write a canonical instance file", parents=[])
    g.add_argument("family", choices=("bags", "trunc-pair", "cover", "tabular"))
    for flag in ("--k", "--n", "--m", "--universe", "--outcomes", "--seed"):
        g.add_argument(flag, type=int)
    g.add_argument("--out")
    g.set_defaults(func=cmd_gen)

    r = sub.add_parser("run", help="evaluate a policy on an instance")
    r.add_argument("instance")
    r.add_argument("policy")
    r.add_argument("--k", type=int)
    r.add_argument("--mode", choices=("exact", "mc"), default="exact")
    r.add_argument("--samples", type=int, default=1000)
    r.add_argument("--seed", type=int)
    r.add_argument("--out")
    r.add_argument("--format", choices=("csv", "json"), default="csv")
    r.add_argument("--timing", action="store_true", help="measure wall_ms (off: column is 0)")
    r.set_defaults(func=cmd_run)

    v = sub.add_parser("verify", help="run a verifier suite")
    v.add_argument("target", nargs="+", metavar="[instance] suite")
    v.add_argument("--corpus", choices=("random", "cover"))
    v.add_argument("--seeds", type=int, default=1)
    v.add_argument("--expect-violation", action="store_true")
    for flag in ("--l", "--i", "--k", "--r", "--n", "--m", "--universe", "--outcomes"):
        v.add_argument(flag, type=int)
    v.add_argument("--eps", type=float)
    v.add_argument("--delta", type=float)
    v.add_argument("--trials", type=int)
    v.add_argument("--sizes")
    v.add_argument("--seed", type=int)
    v.add_argument("--out")
    v.add_argument("--format", choices=("csv", "json"), default="csv")
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("experiment", help="run a sweep config")
    e.add_argument("config")
    e.add_argument("--jobs", type=int, default=1)
    e.add_argument("--out")
    e.set_defaults(func=cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.gnuplot_hints:
        sys.stdout.write(_GNUPLOT_HINTS)
        return EXIT_OK
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return EXIT_MALFORMED
    try:
        return args.func(args)
    except AdasubError as exc:
        print(f"adasub: error: {exc}", file=sys.stderr)
        return next(code for types, code in EXIT_CODES if isinstance(exc, types))


if __name__ == "__main__":
    sys.exit(main())
