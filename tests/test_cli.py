"""Command-line harness: exit codes, output shapes, determinism."""
import csv
import io
import json
import math
import os
import subprocess
import sys

import pytest

import adasub
from adasub.cli import (
    EXIT_FAILED,
    EXIT_INFEASIBLE,
    EXIT_MALFORMED,
    EXIT_OK,
    EXIT_TOO_LARGE,
    EXPERIMENT_COLUMNS,
    main,
    policy_from_spec,
)
from adasub.errors import MalformedInputError
from adasub.instances import instance_from_doc, instance_to_doc, load_instance
from adasub.policies import calibrate_tau, threshold_policy


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run_cli(*argv):
    return main(list(argv))


# --- gen ----------------------------------------------------------------------


def test_gen_bags_writes_15_elements(workdir, capsys):
    assert run_cli("gen", "bags", "--k", "4") == EXIT_OK
    path = capsys.readouterr().out.strip()
    assert path == "bags-k4.json"
    inst = load_instance(path)
    assert inst.n == 15


def test_gen_trunc_pair_two_files(workdir, capsys):
    assert run_cli("gen", "trunc-pair") == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["trunc-f.json", "trunc-g.json"]
    assert load_instance("trunc-f.json").name == "trunc-f"
    assert load_instance("trunc-g.json").name == "trunc-g"


def test_gen_cover_and_tabular(workdir, capsys):
    assert run_cli("gen", "cover", "--n", "4", "--universe", "6", "--out", "c.json") == EXIT_OK
    assert run_cli("gen", "tabular", "--n", "3", "--m", "4", "--seed", "2", "--out", "t.json") == EXIT_OK
    capsys.readouterr()
    assert load_instance("c.json").n == 4
    assert load_instance("t.json").n == 3


def test_gen_missing_params_is_malformed(workdir, capsys):
    assert run_cli("gen", "bags") == EXIT_MALFORMED
    assert run_cli("gen", "cover", "--n", "4") == EXIT_MALFORMED
    capsys.readouterr()


def test_gen_too_large(workdir, capsys):
    assert run_cli("gen", "bags", "--k", "13") == EXIT_TOO_LARGE
    capsys.readouterr()


# --- run -----------------------------------------------------------------------


@pytest.fixture()
def bags3_file(workdir, capsys):
    run_cli("gen", "bags", "--k", "3")
    capsys.readouterr()
    return "bags-k3.json"


def test_run_exact_golden(bags3_file, capsys):
    assert run_cli("run", bags3_file, "greedy", "--k", "3") == EXIT_OK
    out = capsys.readouterr().out
    assert out == (
        "policy,instance,mode,f_avg,c_avg,expected_rounds,samples,stderr,wall_ms,flags\n"
        "greedy(k=3),bags-k3,exact,3.0000000000000004,3.0000000000000004,"
        "3.0000000000000004,0,0.0,0.0,\n"
    )


def test_run_json_format(bags3_file, capsys):
    assert run_cli("run", bags3_file, "greedy", "--k", "2", "--format", "json") == EXIT_OK
    docs = json.loads(capsys.readouterr().out)
    assert docs[0]["policy"] == "greedy(k=2)" and abs(docs[0]["f_avg"] - 2.0) < 1e-9


def test_run_out_file_deterministic(bags3_file, workdir, capsys):
    for name in ("a.csv", "b.csv"):
        assert run_cli(
            "run", bags3_file, "batch:r=2", "--k", "3",
            "--mode", "mc", "--samples", "60", "--seed", "5", "--out", name,
        ) == EXIT_OK
    capsys.readouterr()
    assert (workdir / "a.csv").read_bytes() == (workdir / "b.csv").read_bytes()


def test_run_mc_seed_required(bags3_file, capsys):
    assert run_cli("run", bags3_file, "greedy", "--k", "2", "--mode", "mc") == EXIT_MALFORMED
    capsys.readouterr()


def test_run_missing_instance(workdir, capsys):
    assert run_cli("run", "nope.json", "greedy", "--k", "1") == EXIT_MALFORMED
    capsys.readouterr()


def test_run_budget_above_ground_set(bags3_file, capsys):
    assert run_cli("run", bags3_file, "greedy", "--k", "99") == EXIT_MALFORMED
    capsys.readouterr()


def test_run_infeasible_coverage(workdir, capsys):
    run_cli("gen", "cover", "--n", "3", "--universe", "4", "--out", "c.json")
    doc = json.loads((workdir / "c.json").read_text())
    doc["coverage"]["quota"] = 50.0
    (workdir / "c.json").write_text(json.dumps(doc))
    assert run_cli("run", "c.json", "opt-cov-dp") == EXIT_INFEASIBLE
    capsys.readouterr()


def test_run_timing_flag(bags3_file, capsys):
    assert run_cli("run", bags3_file, "greedy", "--k", "2", "--timing") == EXIT_OK
    out = capsys.readouterr().out
    wall = out.splitlines()[1].split(",")[8]
    assert float(wall) > 0.0


# --- policy specs -----------------------------------------------------------------


def test_policy_spec_parsing(bags3_file):
    inst = load_instance(bags3_file)
    assert policy_from_spec("greedy", inst, 3).name == "greedy(k=3)"
    assert policy_from_spec("greedy-cov", inst).name == "greedy-cov"
    assert policy_from_spec("threshold:tau=0.5,p=0.25", inst).name.startswith("threshold(tau=0.5")
    assert policy_from_spec("semi:eps=0.1", inst, 2).name == "semi(k=2,eps=0.1,ig)"
    assert policy_from_spec("semi:eps=0.1,gap=rig", inst, 2).name == "semi(k=2,eps=0.1,rig)"
    assert policy_from_spec("semi-cov:eps=0.2", inst).name == "semi-cov(eps=0.2,rig)"
    assert policy_from_spec("batch:r=2", inst, 3).name == "batch(r=2,k=3)"
    assert policy_from_spec("seq:2-0-1", inst).name == "seq[2, 0, 1]"
    assert policy_from_spec("opt-dp", inst, 2).name == "opt-dp(k=2)"
    assert policy_from_spec("opt-cov-dp", inst).name == "opt-cov-dp"
    assert policy_from_spec("tau-cal:i=2", inst).name.startswith("threshold(")


@pytest.mark.parametrize(
    "spec",
    ["greedy", "semi:eps=0.1", "batch:r=2", "opt-dp"],
)
def test_policy_spec_requires_k(spec, bags3_file):
    inst = load_instance(bags3_file)
    with pytest.raises(MalformedInputError, match="--k"):
        policy_from_spec(spec, inst, None)


@pytest.mark.parametrize(
    "spec",
    ["nope", "threshold", "threshold:tau=abc", "semi:gap=ig", "seq:1-x", "batch:r=2,oops"],
)
def test_policy_spec_rejects_malformed(spec, bags3_file):
    inst = load_instance(bags3_file)
    with pytest.raises(MalformedInputError):
        policy_from_spec(spec, inst, 2)


# --- verify ---------------------------------------------------------------------


def test_verify_expect_violation_exit_zero(workdir, capsys):
    run_cli("gen", "trunc-pair")
    capsys.readouterr()
    assert run_cli("verify", "trunc-g.json", "submodular", "--expect-violation") == EXIT_OK
    out = capsys.readouterr().out
    assert "false" in out and "e=2" in out
    # without the flag the violation is a failure
    assert run_cli("verify", "trunc-g.json", "submodular") == EXIT_FAILED
    capsys.readouterr()
    # and a certified instance with the flag fails (no violation found)
    assert run_cli("verify", "trunc-f.json", "submodular", "--expect-violation") == EXIT_FAILED
    capsys.readouterr()


def test_verify_corpus_rows(workdir, capsys):
    assert run_cli(
        "verify", "--corpus", "random", "--seeds", "3", "lemma1", "--l", "2"
    ) == EXIT_OK
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "verifier,instance,lhs,rhs,slack,satisfied,witness"
    assert len(lines) == 4
    assert all(",true," in ln for ln in lines[1:])


@pytest.mark.parametrize("seeds", ["0", "-1"])
def test_verify_corpus_without_seeds_is_malformed(seeds, workdir, capsys):
    # a corpus run that builds no instance checks nothing, so it must not pass
    assert run_cli("verify", "--corpus", "random", "--seeds", seeds, "lemma1") == EXIT_MALFORMED
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"adasub: error: --seeds must be >= 1, got {seeds}\n"


def test_verify_unknown_suite(workdir, capsys):
    run_cli("gen", "trunc-pair")
    capsys.readouterr()
    assert run_cli("verify", "trunc-f.json", "nosuchsuite") == EXIT_MALFORMED
    capsys.readouterr()


def test_verify_instanceless_suites(workdir, capsys):
    assert run_cli("verify", "hardness", "--k", "2", "--r", "2", "--trials", "50") == EXIT_OK
    out = capsys.readouterr().out
    assert "hardness-greedy" in out and "hardness-batch" in out
    assert run_cli("verify", "rounds", "--sizes", "6,8", "--trials", "4") == EXIT_OK
    out = capsys.readouterr().out
    assert "round-complexity-ratio" in out


def test_verify_decay_and_eta(workdir, capsys):
    run_cli("gen", "cover", "--n", "4", "--universe", "6", "--out", "c.json")
    capsys.readouterr()
    assert run_cli("verify", "c.json", "eta") == EXIT_OK
    assert run_cli(
        "verify", "c.json", "decay", "--eps", "0.2", "--delta", "0.1", "--trials", "40"
    ) == EXIT_OK
    capsys.readouterr()


def test_verify_json_format(workdir, capsys):
    run_cli("gen", "trunc-pair")
    capsys.readouterr()
    assert run_cli("verify", "trunc-f.json", "monotone", "--format", "json") == EXIT_OK
    docs = json.loads(capsys.readouterr().out)
    assert docs[0]["name"] == "adaptive-monotone" and docs[0]["satisfied"] is True


def test_verify_needs_some_instance(workdir, capsys):
    assert run_cli("verify", "lemma1", "--l", "1") == EXIT_MALFORMED
    capsys.readouterr()


# --- experiment --------------------------------------------------------------------


def _write_config(workdir, sweeps):
    cfg = workdir / "exp.json"
    cfg.write_text(json.dumps({"sweeps": sweeps}))
    return str(cfg)


def test_experiment_rows_ordered_and_unified(workdir, capsys):
    run_cli("gen", "bags", "--k", "3", "--out", "b.json")
    run_cli("gen", "trunc-pair")
    capsys.readouterr()
    cfg = _write_config(workdir, [
        {"id": "p0", "command": "run", "instance": {"file": "b.json"},
         "policy": "greedy", "k": 3, "mode": "exact"},
        {"id": "p1", "command": "verify", "instance": {"file": "trunc-g.json"},
         "suite": "submodular"},
        {"id": "p2", "command": "run", "instance": {"family": "cover", "n": 3, "universe": 4},
         "policy": "greedy-cov", "mode": "exact"},
    ])
    assert run_cli("experiment", cfg) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == ",".join(EXPERIMENT_COLUMNS)
    assert [ln.split(",")[0] for ln in lines[1:]] == ["p0", "p1", "p2"]
    assert lines[1].split(",")[1] == "run"
    assert lines[2].split(",")[1] == "verify"


def test_experiment_empty_sweep_header_only(workdir, capsys):
    cfg = _write_config(workdir, [])
    assert run_cli("experiment", cfg) == EXIT_OK
    out = capsys.readouterr().out
    assert out == ",".join(EXPERIMENT_COLUMNS) + "\n"


def test_experiment_parallel_matches_serial(workdir, capsys):
    run_cli("gen", "bags", "--k", "3", "--out", "b.json")
    capsys.readouterr()
    sweeps = [
        {"id": f"s{i}", "command": "run", "instance": {"file": "b.json"},
         "policy": "batch:r=2", "k": 3, "mode": "mc", "samples": 40, "seed": i}
        for i in range(4)
    ]
    cfg = _write_config(workdir, sweeps)
    assert run_cli("experiment", cfg, "--out", "serial.csv") == EXIT_OK
    assert run_cli("experiment", cfg, "--jobs", "3", "--out", "par.csv") == EXIT_OK
    capsys.readouterr()
    assert (workdir / "serial.csv").read_bytes() == (workdir / "par.csv").read_bytes()


def test_experiment_bad_config(workdir, capsys):
    assert run_cli("experiment", "missing.json") == EXIT_MALFORMED
    bad = workdir / "bad.json"
    bad.write_text("{broken")
    assert run_cli("experiment", str(bad)) == EXIT_MALFORMED
    notdict = workdir / "nd.json"
    notdict.write_text("[1,2]")
    assert run_cli("experiment", str(notdict)) == EXIT_MALFORMED
    nosuite = _write_config(workdir, [{"id": "x", "command": "wat"}])
    assert run_cli("experiment", nosuite) == EXIT_MALFORMED
    capsys.readouterr()


def _timed_sweep(bags3_file, timing):
    return {"id": "t", "command": "run", "instance": {"file": bags3_file},
            "policy": "greedy", "k": 2, "mode": "exact", "timing": timing}


@pytest.mark.parametrize("timing", ["false", "true", 0, 1])
def test_sweep_timing_must_be_a_json_boolean(timing, bags3_file, workdir, capsys):
    cfg = _write_config(workdir, [_timed_sweep(bags3_file, timing)])
    assert run_cli("experiment", cfg) == EXIT_MALFORMED
    assert capsys.readouterr().err == (
        f"adasub: error: timing must be true or false, got {timing!r}\n"
    )


@pytest.mark.parametrize("timing", [False, None, True])
def test_sweep_timing_boolean(timing, bags3_file, workdir, capsys):
    # false and null (like an absent field) keep wall_ms at 0.0
    cfg = _write_config(workdir, [_timed_sweep(bags3_file, timing)])
    assert run_cli("experiment", cfg) == EXIT_OK
    (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
    assert (float(row["wall_ms"]) > 0.0) == bool(timing)


# --- parameter rule ------------------------------------------------------------------


def test_zero_parameters_are_given_not_defaulted(workdir, capsys):
    assert run_cli(
        "gen", "cover", "--n", "3", "--universe", "4", "--outcomes", "0"
    ) == EXIT_MALFORMED
    assert "need at least one outcome" in capsys.readouterr().err
    assert run_cli(
        "verify", "--corpus", "random", "--n", "0", "--seeds", "1", "monotone"
    ) == EXIT_MALFORMED
    assert "need at least one element" in capsys.readouterr().err


def test_cap_below_one_is_malformed(workdir, capsys, monkeypatch):
    assert run_cli("gen", "cover", "--n", "6", "--universe", "12", "--seed", "3",
                   "--out", "c.json") == EXIT_OK
    capsys.readouterr()
    monkeypatch.setenv("ADASUB_BRANCH_CAP", "3")
    monkeypatch.setenv("ADASUB_MC_FALLBACK", "0")
    assert run_cli("run", "c.json", "semi:eps=0.2", "--k", "3") == EXIT_MALFORMED
    assert capsys.readouterr().err == "adasub: error: ADASUB_MC_FALLBACK='0' must be at least 1\n"


def test_spec_non_integral_r_is_malformed(bags3_file, capsys):
    assert run_cli("run", bags3_file, "batch:r=2.5", "--k", "3") == EXIT_MALFORMED
    assert capsys.readouterr().err == (
        "adasub: error: policy spec 'batch:r=2.5': r is not an integer: '2.5'\n"
    )


@pytest.mark.parametrize("key", ["k", "seed", "samples"])
def test_sweep_non_integral_field_is_malformed(key, bags3_file, workdir, capsys):
    sweep = {"id": "s", "command": "run", "instance": {"file": bags3_file},
             "policy": "greedy", "k": 2, "mode": "mc", "seed": 1, "samples": 20}
    cfg = _write_config(workdir, [{**sweep, key: 2.5}])
    assert run_cli("experiment", cfg) == EXIT_MALFORMED
    assert capsys.readouterr().err == f"adasub: error: {key} is not an integer: 2.5\n"


def test_sweep_integral_k_in_any_form(bags3_file, workdir, capsys):
    outs = []
    for k in (2, "2", 2.0):
        cfg = _write_config(workdir, [{"id": "s", "command": "run",
                                       "instance": {"file": bags3_file},
                                       "policy": "greedy", "k": k}])
        assert run_cli("experiment", cfg) == EXIT_OK
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]
    assert ",greedy(k=2),bags-k3," in outs[0]


@pytest.mark.parametrize("argv", [
    ("run", "BAGS", "greedy", "--k", "2", "--mode", "mc", "--seed", "-1"),
    ("verify", "--seed", "-1", "hardness", "--k", "3", "--r", "2", "--trials", "5"),
    ("verify", "--corpus", "random", "--seed", "-1", "decay"),
    ("gen", "cover", "--n", "3", "--universe", "4", "--seed", "-2"),
    ("gen", "bags", "--k", "2", "--seed", "-1"),
    ("experiment", "SWEEP"),
])
def test_negative_seed_is_malformed(argv, bags3_file, workdir, capsys):
    sweep = {"id": "s", "command": "run", "instance": {"file": bags3_file},
             "policy": "greedy", "k": 2, "mode": "mc", "seed": -1, "samples": 20}
    subs = {"BAGS": bags3_file, "SWEEP": _write_config(workdir, [sweep])}
    assert run_cli(*(subs.get(a, a) for a in argv)) == EXIT_MALFORMED
    seed = argv[argv.index("--seed") + 1] if "--seed" in argv else "-1"
    assert capsys.readouterr().err == f"adasub: error: seed must be >= 0, got {seed}\n"


@pytest.mark.parametrize("argv, error", [
    (("run", "BAGS", "semi:eps=nan", "--k", "2"),
     "policy spec 'semi:eps=nan': eps is not a finite number: 'nan'"),
    (("run", "BAGS", "threshold:tau=inf"),
     "policy spec 'threshold:tau=inf': tau is not a finite number: 'inf'"),
    (("run", "BAGS", "threshold:tau=0.5,p=-inf"),
     "policy spec 'threshold:tau=0.5,p=-inf': p is not a finite number: '-inf'"),
    (("verify", "BAGS", "lemma8", "--l", "2", "--eps", "nan"), "eps is not a finite number: nan"),
    (("verify", "BAGS", "decay", "--eps", "0.5", "--delta", "inf"),
     "delta is not a finite number: inf"),
    (("experiment", "SWEEP"), "eps is not a finite number: nan"),
])
def test_non_finite_float_is_malformed(argv, error, bags3_file, workdir, capsys):
    sweep = {"id": "s", "command": "verify", "suite": "semi-max",
             "instance": {"file": bags3_file}, "l": 2, "eps": float("nan")}
    subs = {"BAGS": bags3_file, "SWEEP": _write_config(workdir, [sweep])}
    assert run_cli(*(subs.get(a, a) for a in argv)) == EXIT_MALFORMED
    assert capsys.readouterr().err == f"adasub: error: {error}\n"


@pytest.mark.parametrize("gen, keys, value, error", [
    ("cover", ("coverage", "quota"), math.nan, "coverage quota is not a finite number: nan"),
    ("cover", ("coverage", "eta"), math.inf, "eta is not a finite number: inf"),
    ("cover", ("coverage", "costs"), [1.0, math.inf, 1.0],
     "element cost is not a finite number: inf"),
    ("cover", ("prior", "marginals", 1, 0), math.nan,
     "marginal probability is not a finite number: nan"),
    ("cover", ("utility", "weights"), [1.0, 1.0, math.nan, 1.0],
     "item weight is not a finite number: nan"),
    ("tabular", ("prior", "rows", 0, "weight"), math.nan,
     "realization weight is not a finite number: nan"),
])
def test_non_finite_instance_number_is_malformed(gen, keys, value, error, workdir, capsys):
    _assert_field_is_malformed(gen, keys, value, error, capsys)


def _set_field(doc, keys, value):
    *path, last = keys
    for key in path:
        doc = doc[key]
    doc[last] = value


def _assert_field_is_malformed(gen, keys, value, error, capsys):
    """A generated instance file with the field at keys set to value makes
    `run` exit 3 with the one-line error."""
    size = {"cover": ("--universe", "4"), "bags": ("--k", "2")}.get(gen, ("--m", "4"))
    run_cli("gen", gen, "--n", "3", *size, "--out", "inst.json")
    with open("inst.json") as fh:
        doc = json.load(fh)
    doc.setdefault("coverage", {"quota": 1.0})
    _set_field(doc, keys, value)
    with open("inst.json", "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    assert run_cli("run", "inst.json", "greedy", "--k", "1") == EXIT_MALFORMED
    assert capsys.readouterr().err == f"adasub: error: {error}\n"


@pytest.mark.parametrize("gen, keys, value, error", [
    ("cover", ("coverage", "quota"), "abc", "instance.coverage.quota is not a number: 'abc'"),
    ("cover", ("utility", "universe"), "x", "instance.utility.universe is not a number: 'x'"),
    ("cover", ("prior",), "kind", "instance.prior: must be an object"),
    ("cover", ("prior", "marginals", 0, 1), "a",
     "instance.prior.marginals[0][1] is not a number: 'a'"),
    ("cover", ("utility", "covers", 0), 5, "instance.utility.covers[0]: must be a list"),
    ("cover", ("coverage", "costs"), "1111", "instance.coverage.costs: must be a list"),
    ("cover", ("coverage",), 3, "instance.coverage: must be an object"),
    ("tabular", ("prior", "rows"), 5, "instance.prior.rows: must be a list"),
    ("tabular", ("prior", "rows", 0, "outcomes"), 5,
     "instance.prior.rows[0].outcomes: must be a list"),
], ids=["quota", "universe", "prior", "marginal", "covers", "costs", "coverage", "rows",
        "row-outcomes"])
def test_malformed_instance_field_is_malformed(gen, keys, value, error, workdir, capsys):
    _assert_field_is_malformed(gen, keys, value, error, capsys)


@pytest.mark.parametrize("gen, keys, value, error", [
    ("cover", ("utility", "universe"), 5.7, "instance.utility.universe is not an integer: 5.7"),
    ("cover", ("utility", "universe"), math.inf,
     "instance.utility.universe is not an integer: inf"),
    ("cover", ("utility", "covers", 0, 0), [0, 1.5],
     "instance.utility.covers[0][0][1] is not an integer: 1.5"),
    ("bags", ("prior", "sizes"), [1, 2.9], "instance.prior.sizes[1] is not an integer: 2.9"),
    ("cover", ("elements",), 2.5, "instance.elements is not an integer: 2.5"),
    ("cover", ("outcomes",), "2.5", "instance.outcomes is not an integer: '2.5'"),
    ("tabular", ("prior", "rows", 0, "outcomes", 0), 0.5,
     "instance.prior.rows[0].outcomes[0] is not an integer: 0.5"),
], ids=["universe", "universe-inf", "cover-item", "bag-size", "elements", "outcomes",
        "table-label"])
def test_non_integral_instance_count_is_malformed(gen, keys, value, error, workdir, capsys):
    _assert_field_is_malformed(gen, keys, value, error, capsys)


@pytest.mark.parametrize("gen, keys, value, canonical", [
    ("cover", ("utility", "universe"), 4.0, 4),
    ("cover", ("utility", "universe"), "4", 4),
    ("cover", ("utility", "covers", 1, 0), [0.0, "1", 2], [0, 1, 2]),
    ("bags", ("prior", "sizes"), [1.0, "2"], [1, 2]),
    ("cover", ("utility", "universe"), "4.0", 4),
    ("cover", ("elements",), 3.0, 3),
    ("cover", ("outcomes",), "2.0", 2),
    ("tabular", ("prior", "rows", 0, "outcomes", 0), 0.0, 0),
    ("tabular", ("prior", "rows"),
     [{"outcomes": [0, 1, 0], "weight": "0.5"}, {"outcomes": [1, 0, 1], "weight": 0.5}],
     [{"outcomes": [0, 1, 0], "weight": 0.5}, {"outcomes": [1, 0, 1], "weight": 0.5}]),
], ids=["universe-float", "universe-str", "cover-items", "bag-sizes", "universe-float-str",
        "elements", "outcomes", "table-label", "table-weight"])
def test_integral_instance_counts_load_as_ints(gen, keys, value, canonical, workdir):
    # 2, 2.0, "2" and "2.0" all read as the int 2 (and "0.5" as the float
    # 0.5): the file loads to the same canonical document as one that
    # spells the number as a JSON number.
    run_cli("gen", gen, "--n", "3", "--universe", "4", "--k", "2", "--m", "4", "--out", "inst.json")
    with open("inst.json") as fh:
        doc = json.load(fh)
    docs = []
    for v in (value, canonical):
        _set_field(doc, keys, v)
        docs.append(json.dumps(instance_to_doc(instance_from_doc(doc))))
    assert docs[0] == docs[1]


@pytest.mark.parametrize("spelled, plain", [
    ((("run", "BAGS", "greedy", "--k", "2.0"), {}), (("run", "BAGS", "greedy", "--k", "2"), {})),
    ((("run", "BAGS", "seq:0.0-1"), {}), (("run", "BAGS", "seq:0-1"), {})),
    ((("run", "BAGS", "greedy", "--k", "2", "--mode", "mc", "--samples", "2e1", "--seed", "1.0"), {}),
     (("run", "BAGS", "greedy", "--k", "2", "--mode", "mc", "--samples", "20", "--seed", "1"), {})),
    ((("verify", "--corpus", "random", "--seeds", "2.0", "--n", "3.0", "monotone"), {}),
     (("verify", "--corpus", "random", "--seeds", "2", "--n", "3", "monotone"), {})),
    ((("verify", "hardness", "--k", "2.0", "--r", "2.0", "--trials", "20.0"), {}),
     (("verify", "hardness", "--k", "2", "--r", "2", "--trials", "20"), {})),
    ((("run", "BAGS", "greedy", "--k", "2"), {"ADASUB_MAX_SUPPORT": "1e6"}),
     (("run", "BAGS", "greedy", "--k", "2"), {"ADASUB_MAX_SUPPORT": "1000000"})),
], ids=["run-k", "seq", "run-mc", "verify-corpus", "verify-hardness", "cap"])
def test_integral_flags_specs_and_caps_read_as_ints(spelled, plain, bags3_file, monkeypatch,
                                                     capsys):
    # a flag, a seq: element and an ADASUB_* cap follow the one integer rule:
    # 2.0 and 1e6 are the integers 2 and 1000000
    results = []
    for argv, env in (spelled, plain):
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        code = run_cli(*(bags3_file if a == "BAGS" else a for a in argv))
        results.append((code, capsys.readouterr()))
    assert results[0] == results[1]
    assert results[0][0] != EXIT_MALFORMED


@pytest.mark.parametrize("argv, env, error", [
    (("run", "BAGS", "greedy", "--k", "2.5"), {}, "k is not an integer: '2.5'"),
    (("run", "BAGS", "greedy", "--k", "x"), {}, "k is not a number"),
    (("run", "BAGS", "seq:0.5-1"), {},
     "policy spec 'seq:0.5-1': element is not an integer: '0.5'"),
    (("run", "BAGS", "seq:1-x"), {}, "policy spec 'seq:1-x': element is not a number"),
    (("verify", "--corpus", "random", "--seeds", "2.5", "monotone"), {},
     "seeds is not an integer: '2.5'"),
    (("experiment", "exp.json", "--jobs", "2.5"), {}, "jobs is not an integer: '2.5'"),
    (("run", "BAGS", "greedy", "--k", "2"), {"ADASUB_MAX_SUPPORT": "2.5"},
     "ADASUB_MAX_SUPPORT is not an integer: '2.5'"),
], ids=["k", "k-text", "seq", "seq-text", "seeds", "jobs", "cap"])
def test_non_integral_flags_specs_and_caps_are_malformed(argv, env, error, bags3_file,
                                                          monkeypatch, capsys):
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert run_cli(*(bags3_file if a == "BAGS" else a for a in argv)) == EXIT_MALFORMED
    assert capsys.readouterr().err == f"adasub: error: {error}\n"


@pytest.mark.parametrize("value", ["false", 0, None])
def test_truncated_flag_must_be_a_json_boolean(value, workdir, capsys):
    run_cli("gen", "trunc-pair", "--out", "t.json")
    with open("t-f.json") as fh:
        doc = json.load(fh)
    doc["utility"]["truncated"] = value
    with open("t-f.json", "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    assert run_cli("run", "t-f.json", "greedy", "--k", "1") == EXIT_MALFORMED
    assert capsys.readouterr().err == (
        f"adasub: error: instance.utility.truncated must be true or false, got {value!r}\n"
    )
    del doc["utility"]["truncated"]  # an absent flag means false
    assert instance_from_doc(doc).utility.name == "match-pair"
    doc["utility"]["truncated"] = True
    assert instance_from_doc(doc).utility.name == "match-pair-trunc"


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_experiment_jobs_below_one_is_malformed(jobs, workdir, capsys):
    cfg = _write_config(workdir, [])
    assert run_cli("experiment", cfg, "--jobs", jobs) == EXIT_MALFORMED
    assert capsys.readouterr().err == f"adasub: error: --jobs must be >= 1, got {jobs}\n"


@pytest.mark.parametrize("suite", [("semi-max",), ("lemma8", "--l", "2")])
def test_verify_eps_of_two_is_malformed(suite, bags3_file, capsys):
    assert run_cli("verify", bags3_file, *suite, "--eps", "2") == EXIT_MALFORMED
    assert capsys.readouterr().err == "adasub: error: eps must lie in [0, 1), got 2.0\n"


def test_tau_cal_fractional_target(workdir, capsys):
    run_cli("gen", "tabular", "--n", "3", "--m", "4", "--out", "tab.json")
    capsys.readouterr()
    inst = load_instance("tab.json")
    assert inst.name == "tab-n3-m4-s0"
    cal = calibrate_tau(inst, 1.5)
    assert run_cli("run", "tab.json", "tau-cal:i=1.5") == EXIT_OK
    row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert row["policy"] == threshold_policy(cal.tau_i, cal.coin_p).name
    assert float(row["c_avg"]) == pytest.approx(1.5, abs=1e-12)
    # an integral target still reaches calibrate_tau as an int
    assert run_cli("run", "tab.json", "tau-cal:i=99") == EXIT_INFEASIBLE
    assert capsys.readouterr().err == "adasub: error: target count 99 outside [0, 3]\n"


# --- top level -----------------------------------------------------------------------


def test_gnuplot_hints(capsys):
    assert run_cli("--gnuplot-hints") == EXIT_OK
    assert "plot" in capsys.readouterr().out


def test_no_subcommand_is_usage_error(capsys):
    assert run_cli() == EXIT_MALFORMED
    capsys.readouterr()


def test_bad_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--definitely-not-a-flag")
    assert exc.value.code == EXIT_MALFORMED
    capsys.readouterr()


def test_console_script_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "adasub.cli", "--gnuplot-hints"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0 and "plot" in proc.stdout


# --- start-up cost -------------------------------------------------------------------

# Runs adasub.cli.main(argv) (or, with no argv, only `import adasub`) in a fresh
# interpreter and prints its exit code and which lazily imported modules it loaded.
_PROBE = """
import contextlib, io, sys
import adasub
rc = None
if sys.argv[1:]:
    from adasub.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(sys.argv[1:])
print(rc, "numpy" in sys.modules, "concurrent.futures" in sys.modules)
"""


def _probe(workdir, *argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(adasub.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], cwd=workdir, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.parametrize("argv, numpy_loaded", [
    ((), False),
    (("gen", "bags", "--k", "3", "--out", "fresh.json"), False),
    (("run", "bags-k3.json", "greedy", "--k", "3"), False),
    (("verify", "t.json", "submodular"), False),
    (("run", "bags-k3.json", "greedy", "--k", "3", "--mode", "mc", "--samples", "20",
      "--seed", "1"), True),
    (("run", "c.json", "greedy-cov"), True),
    (("verify", "hardness", "--k", "3", "--r", "3", "--trials", "20", "--seed", "1"), True),
], ids=["import", "gen-bags", "run-exact-bags", "verify-tabular", "run-mc", "run-cover",
        "verify-hardness"])
def test_numpy_is_imported_only_by_commands_that_use_it(argv, numpy_loaded, bags3_file, workdir,
                                                        capsys):
    assert run_cli("gen", "tabular", "--n", "3", "--m", "4", "--seed", "2", "--out", "t.json") == EXIT_OK
    assert run_cli("gen", "cover", "--n", "4", "--universe", "6", "--out", "c.json") == EXIT_OK
    capsys.readouterr()
    rc = "None" if not argv else str(EXIT_OK)
    assert _probe(workdir, *argv) == [rc, str(numpy_loaded), "False"]


def test_experiment_jobs_two_loads_the_pool_and_matches_jobs_one(bags3_file, workdir):
    sweeps = [{"id": f"s{i}", "command": "run", "instance": {"file": bags3_file},
               "policy": "greedy", "k": 3, "mode": "mc", "samples": 20, "seed": i}
              for i in range(3)]
    cfg = _write_config(workdir, sweeps)
    assert _probe(workdir, "experiment", cfg, "--out", "one.csv") == ["0", "True", "False"]
    # The workers draw the samples, so the parent loads the pool and not numpy.
    assert _probe(workdir, "experiment", cfg, "--jobs", "2", "--out", "two.csv") == ["0", "False", "True"]
    assert (workdir / "one.csv").read_bytes() == (workdir / "two.csv").read_bytes()
