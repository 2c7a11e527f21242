"""Run a fixed list of `adasub` commands and print what each one did.

For every command it prints the argv, the exit code, stdout and stderr (an
uncaught exception is printed as its last traceback line with exit code 1, as
the interpreter would exit), so two trees can be diffed:

    diff <(PYTHONPATH=<parent>/src python3 scripts/cli_outputs.py) \
         <(PYTHONPATH=src python3 scripts/cli_outputs.py)

Covered: `gen` of every family (with the size and SHA-256 of each file
written); `run` in exact, MC and JSON mode with every policy spec on bags-k3,
a table, a cover and the truncation pair; every `verify` suite on a table and
a cover, both corpora with and without size flags, and the instance-free
suites; `experiment` serial and with `--jobs 2`; at least one case per exit
code 1-4; non-integral or zero parameters, `--seeds 0`, sweep `timing`
values that are not a JSON boolean, a negative `--seed` on `run` and `gen`,
and `verify rounds --trials 0`; non-finite float parameters in a spec,
a flag and a sweep, `--eps` outside [0, 1) on the `semi-max` and `lemma8`
suites, and `experiment --jobs` below 1; last, `run` (and for eta `verify
eta`) on instance files with a NaN or infinite coverage quota, eta or cost,
a NaN product marginal, cover item weight or table row weight.  Timing is never turned on, so `wall_ms`
reads 0.0.  Runs in one process (`--jobs 2` starts two workers), in a
temporary directory, in a few seconds on 2 CPUs.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import traceback

from adasub.cli import main

POLICIES = (
    "greedy", "greedy-cov", "threshold:tau=0.5,p=0.25", "threshold:tau=0.2,mode=sav",
    "tau-cal:i=2", "tau-cal:i=1,mode=sav", "semi:eps=0.2", "semi:eps=0.2,gap=rig",
    "semi-cov:eps=0.2", "semi-cov:eps=0.3,gap=ig", "batch:r=2", "seq:2-0-1",
    "opt-dp", "opt-cov-dp",
)
INSTANCES = ("bags-k3.json", "tab.json", "cov.json", "trunc-f.json", "trunc-g.json")
SUITES = (
    ("submodular",), ("monotone",), ("eta",), ("lemma1",), ("lemma1", "--l", "2", "--k", "3"),
    ("eq-main",), ("eq-main", "--i", "2", "--k", "2"), ("coverage-bound",),
    ("corollary-delta",), ("semi-max", "--eps", "0.2"), ("lemma8", "--l", "2"),
    ("decay", "--eps", "0.5", "--delta", "0.5", "--trials", "20", "--seed", "1"),
)


def run(*argv: str, env: dict[str, str] | None = None) -> None:
    out, err = io.StringIO(), io.StringIO()
    saved = dict(os.environ)
    os.environ.update(env or {})
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # printed as the interpreter's last line
                err.write(traceback.format_exception_only(exc)[-1])
                code = 1
    finally:
        os.environ.clear()
        os.environ.update(saved)
    prefix = " ".join(f"{k}={v}" for k, v in (env or {}).items())
    print(f"$ {prefix + ' ' if prefix else ''}adasub {' '.join(argv)}")
    print(f"exit {code}")
    print("--- stdout")
    sys.stdout.write(out.getvalue())
    print("--- stderr")
    sys.stdout.write(err.getvalue())


def show_file(path: str) -> None:
    with open(path, "rb") as fh:
        data = fh.read()
    print(f"# {path}: {len(data)} bytes sha256 {hashlib.sha256(data).hexdigest()}")


def experiment(name: str, sweeps: list, *flags: str) -> None:
    with open(name, "w") as fh:
        json.dump({"sweeps": sweeps}, fh)
    run("experiment", name, *flags)


def main_cases() -> None:
    # gen: every family, defaults and explicit parameters
    for argv, files in (
        (("gen", "bags", "--k", "3"), ("bags-k3.json",)),
        (("gen", "bags", "--k", "2", "--seed", "3", "--out", "bags2.json"), ("bags2.json",)),
        (("gen", "trunc-pair"), ("trunc-f.json", "trunc-g.json")),
        (("gen", "trunc-pair", "--out", "pair.json"), ("pair-f.json", "pair-g.json")),
        (("gen", "cover", "--n", "4", "--universe", "6", "--seed", "1", "--out", "cov.json"),
         ("cov.json",)),
        (("gen", "cover", "--n", "3", "--universe", "4", "--outcomes", "3"),
         ("cover-n3-u4-m3-s0.json",)),
        (("gen", "tabular", "--n", "3", "--m", "4", "--out", "tab.json"), ("tab.json",)),
        (("gen", "tabular", "--n", "4", "--m", "6", "--seed", "2", "--universe", "5"),
         ("tab-n4-m6-s2.json",)),
    ):
        run(*argv)
        for path in files:
            show_file(path)

    # run: every spec on every instance, exact, MC and JSON
    for inst in INSTANCES:
        for spec in POLICIES:
            run("run", inst, spec, "--k", "2")
            run("run", inst, spec, "--k", "2", "--mode", "mc", "--samples", "40", "--seed", "3")
            run("run", inst, spec, "--k", "2", "--format", "json")
    run("run", "bags-k3.json", "greedy", "--k", "3", "--out", "r.csv")
    show_file("r.csv")

    # verify: every suite on a table and a cover, CSV and JSON
    for inst in ("tab.json", "cov.json"):
        for suite in SUITES:
            run("verify", inst, *suite)
        run("verify", inst, "lemma1", "--format", "json")
        run("verify", inst, "monotone", "--format", "json")
    run("verify", "trunc-f.json", "submodular", "--format", "json")
    run("verify", "trunc-g.json", "submodular", "--expect-violation")
    run("verify", "trunc-f.json", "submodular", "--expect-violation")
    run("verify", "--corpus", "random", "--seeds", "2", "lemma1", "--l", "2")
    run("verify", "--corpus", "random", "--n", "3", "--m", "5", "--seeds", "2", "semi-max")
    run("verify", "--corpus", "random", "--universe", "5", "--seeds", "2", "submodular")
    run("verify", "--corpus", "cover", "--seeds", "2", "monotone")
    run("verify", "--corpus", "cover", "--n", "4", "--universe", "6", "--outcomes", "3",
        "--seeds", "2", "coverage-bound")
    run("verify", "hardness", "--k", "2", "--r", "2", "--trials", "50")
    run("verify", "hardness", "--k", "3", "--r", "2", "--trials", "40", "--seed", "4",
        "--format", "json")
    run("verify", "rounds", "--sizes", "6,8", "--trials", "4")
    run("verify", "rounds", "--eps", "0.2", "--sizes", "6", "--trials", "3", "--seed", "2")
    run("verify", "tab.json", "hardness", "--k", "2", "--r", "2", "--trials", "20")
    run("verify", "tab.json", "monotone", "--out", "v.csv")
    show_file("v.csv")

    # experiment: one config, serial and in two worker processes
    sweeps = [
        {"id": "r0", "command": "run", "instance": {"file": "bags-k3.json"},
         "policy": "greedy", "k": 3},
        {"id": "r1", "command": "run", "instance": {"family": "cover", "n": 3, "universe": 4},
         "policy": "greedy-cov", "mode": "exact"},
        {"id": "r2", "command": "run", "instance": {"family": "tabular", "n": 3, "m": 4, "seed": 1},
         "policy": "batch:r=2", "k": 2, "mode": "mc", "samples": 30, "seed": 2},
        {"id": "r3", "command": "run", "instance": {"family": "bags", "k": 2},
         "policy": "semi:eps=0.2", "k": 2},
        {"id": "v0", "command": "verify", "instance": {"file": "trunc-g.json"},
         "suite": "submodular"},
        {"id": "v1", "command": "verify", "instance": {"family": "tabular", "n": 3, "m": 4},
         "suite": "lemma1", "l": 2},
        {"id": "v2", "command": "verify", "suite": "hardness", "k": 2, "r": 2, "trials": 30},
        {"id": "v3", "command": "verify", "suite": "rounds", "sizes": "6", "trials": 2},
    ]
    experiment("exp.json", sweeps)
    experiment("exp.json", sweeps, "--jobs", "2")
    experiment("empty.json", [])

    # exit codes 1-4
    run("verify", "trunc-g.json", "submodular")
    run("gen", "bags", "--k", "13")
    run("run", "bags-k3.json", "greedy", "--k", "3", env={"ADASUB_MAX_SUPPORT": "10"})
    run("run", "nope.json", "greedy", "--k", "1")
    run("run", "bags-k3.json", "greedy")
    run("run", "bags-k3.json", "greedy", "--k", "99")
    run("run", "bags-k3.json", "threshold:tau=abc")
    run("run", "bags-k3.json", "batch:r=abc", "--k", "2")
    run("run", "bags-k3.json", "greedy", "--k", "2", "--mode", "mc")
    run("run", "--definitely-not-a-flag")
    run()
    run("gen", "cover", "--n", "4")
    run("verify", "lemma1")
    run("verify", "tab.json", "nosuchsuite")
    run("verify", "hardness", "--k", "2")
    run("verify", "--corpus", "random", "tab.json", "monotone")
    run("experiment", "missing.json")
    experiment("bad.json", [{"id": "x", "command": "wat"}])
    experiment("noinst.json", [{"id": "x", "command": "run", "policy": "greedy", "k": 1}])
    experiment("noinst2.json", [{"id": "x", "command": "verify", "suite": "monotone"}])
    run("run", "tab.json", "tau-cal:i=99")
    with open("cov.json") as fh:
        doc = json.load(fh)
    doc["coverage"]["quota"] = 50.0
    with open("cov-q50.json", "w") as fh:
        json.dump(doc, fh)
    run("run", "cov-q50.json", "opt-cov-dp")
    run("--gnuplot-hints")

    # zero and non-integral parameters
    run("gen", "cover", "--n", "3", "--universe", "4", "--outcomes", "0")
    run("verify", "--corpus", "random", "--n", "0", "--seeds", "1", "monotone")
    run("verify", "--corpus", "cover", "--n", "0", "--seeds", "1", "monotone")
    run("verify", "--corpus", "random", "--seeds", "0", "lemma1")
    run("run", "tab.json", "tau-cal:i=1.5")
    run("run", "bags-k3.json", "batch:r=2.5", "--k", "3")
    run("run", "bags-k3.json", "batch:r=2.0", "--k", "3")
    base = {"id": "d", "command": "run", "instance": {"file": "bags-k3.json"},
            "policy": "greedy", "k": 2}
    for name, extra in (
        ("k-frac", {"k": 2.5}),
        ("k-str", {"k": "2"}),
        ("k-float", {"k": 2.0}),
        ("seed-frac", {"mode": "mc", "seed": 2.5}),
        ("samples-frac", {"mode": "mc", "seed": 1, "samples": 2.5}),
        ("trials-frac", {"command": "verify", "suite": "hardness", "k": 2, "r": 2,
                         "trials": 2.5}),
        ("n-frac", {"instance": {"family": "cover", "n": 2.5, "universe": 4}}),
        ("timing-false", {"timing": False}),
        ("timing-null", {"timing": None}),
        ("timing-str", {"timing": "false"}),
    ):
        experiment(f"{name}.json", [{**base, **extra}])

    # negative seeds and zero trials
    run("run", "bags-k3.json", "greedy", "--k", "2", "--mode", "mc", "--seed", "-1")
    run("gen", "bags", "--k", "2", "--seed", "-1")
    run("gen", "cover", "--n", "3", "--universe", "4", "--seed", "-2")
    run("verify", "rounds", "--trials", "0", "--sizes", "8")

    # non-finite floats, eps outside [0, 1) and --jobs below 1
    run("run", "bags-k3.json", "semi:eps=nan", "--k", "2")
    run("run", "bags-k3.json", "threshold:tau=nan")
    run("run", "bags-k3.json", "threshold:tau=inf,p=0.5")
    run("verify", "bags-k3.json", "semi-max", "--eps", "nan")
    run("verify", "bags-k3.json", "decay", "--eps", "0.5", "--delta=-inf")
    experiment("eps-nan.json", [{"id": "x", "command": "verify", "suite": "lemma8",
                                 "instance": {"file": "bags-k3.json"}, "l": 2,
                                 "eps": float("nan")}])
    run("verify", "bags-k3.json", "lemma8", "--l", "2", "--eps", "2")
    run("verify", "bags-k3.json", "semi-max", "--eps", "1")
    run("verify", "bags-k3.json", "semi-max", "--eps", "-0.5")
    experiment("jobs.json", [], "--jobs", "0")
    experiment("jobs.json", [], "--jobs", "-2")

    # non-finite numbers in an instance file
    nan, inf = float("nan"), float("inf")
    for src, name, keys, value in (
        ("cov.json", "quota-nan", ("coverage", "quota"), nan),
        ("cov.json", "quota-inf", ("coverage", "quota"), inf),
        ("cov.json", "eta-nan", ("coverage", "eta"), nan),
        ("cov.json", "eta-inf", ("coverage", "eta"), inf),
        ("cov.json", "costs-nan", ("coverage", "costs"), [1.0, nan, 1.0, 1.0]),
        ("cov.json", "costs-inf", ("coverage", "costs"), [1.0, 1.0, inf, 1.0]),
        ("cov.json", "marginal-nan", ("prior", "marginals", 0, 0), nan),
        ("cov.json", "item-weight-nan", ("utility", "weights"), [1.0, nan, 1.0, 1.0, 1.0, 1.0]),
        ("tab.json", "table-weight-nan", ("prior", "rows", 1, "weight"), nan),
    ):
        with open(src) as fh:
            doc = json.load(fh)
        *path, last = keys
        node = doc
        for key in path:
            node = node[key]
        node[last] = value
        with open(f"{name}.json", "w") as fh:
            json.dump(doc, fh)
        run("run", f"{name}.json", "greedy-cov" if "coverage" in doc else "greedy", "--k", "2")
        if name.startswith("eta"):
            run("verify", f"{name}.json", "eta")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        main_cases()
