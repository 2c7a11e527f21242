"""Layer spans recorded from outside the library.

`install()` rebinds the public entry points of `adasub.model`, `instances`,
`policies`, `engine` and `verifiers` (in every module namespace that holds
them) to thin wrappers that open and close a span.  Spans live in flat
arrays while the run lasts and are written out once, when it ends.  Nothing
inside the library is changed; `uninstall()` restores every binding.

A span holds a name, a start, an end, its parent span and the operation it
belongs to.  A layer's self time is its duration minus the durations of its
direct children.
"""
from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

SPANS = (
    "model.utility",
    "model.outcome_dist",
    "model.joint_dist",
    "model.support",
    "instances.scorer",
    "instances.build",
    "policies.decide",
    "policies.optimal_value",
    "policies.calibrate_tau",
    "engine.run_policy",
    "engine.evaluate_exact",
    "engine.evaluate_mc",
    "verifiers.check",
    "verifiers.bound",
    "cli.process",
    "cli.import",
)

# Public functions wrapped as plain call spans, by span name.
_CALL_SPANS = {
    "instances.build": (
        "instances",
        ("build_bags", "build_truncation_pair", "build_stochastic_cover",
         "build_random_tabular", "instance_from_doc", "load_instance"),
    ),
    "policies.optimal_value": ("policies", ("optimal_value",)),
    "policies.calibrate_tau": ("policies", ("calibrate_tau",)),
    "engine.run_policy": ("engine", ("run_policy",)),
    "engine.evaluate_exact": ("engine", ("evaluate_exact",)),
    "engine.evaluate_mc": ("engine", ("evaluate_mc",)),
    "verifiers.check": (
        "verifiers",
        ("check_adaptive_submodular", "check_adaptive_monotone", "verify_eta"),
    ),
    "verifiers.bound": (
        "verifiers",
        ("verify_lemma1", "verify_eq_main", "verify_coverage_bound",
         "verify_corollary_delta", "verify_semi_max_bound", "verify_batch_lemma8",
         "measure_superround_decay", "verify_round_complexity", "verify_hardness"),
    ),
}

# Constructors whose policies get a `policies.decide` span per generator resume.
_POLICY_CONSTRUCTORS = (
    "greedy_max", "greedy_coverage", "threshold_policy", "semi_adaptive_greedy_max",
    "semi_adaptive_greedy_coverage", "fixed_batch_greedy", "fixed_sequence_policy",
    "optimal_policy_dp", "optimal_coverage_dp",
)


class Tracer:
    """In-memory span store.  Recording happens only while `active`."""

    def __init__(self):
        self.active = False
        self.op = -1
        self._name_ids = {name: i for i, name in enumerate(SPANS)}
        self.name = array("B")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.opid = array("l")
        self.is_call = array("B")
        self._stack = [-1]
        self._serial: dict[int, int] = {}
        self._keep: list = []  # keeps keyed objects alive so ids stay unique
        self.keys: dict[str, set] = {"model.utility": set(), "instances.scorer": set()}
        self.keyed_calls = {"model.utility": 0, "instances.scorer": 0}

    def serial(self, obj) -> int:
        s = self._serial.get(id(obj))
        if s is None:
            s = self._serial[id(obj)] = len(self._keep)
            self._keep.append(obj)
        return s

    def open(self, name: str, is_call: bool = True) -> int:
        sid = len(self.start)
        self.name.append(self._name_ids[name])
        self.parent.append(self._stack[-1])
        self.opid.append(self.op)
        self.is_call.append(1 if is_call else 0)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: int) -> int:
        """Record a finished span measured elsewhere (a child process)."""
        sid = len(self.start)
        self.name.append(self._name_ids[name])
        self.parent.append(parent)
        self.opid.append(self.op)
        self.is_call.append(1)
        self.start.append(start)
        self.end.append(end)
        return sid

    def key(self, layer: str, key) -> None:
        self.keyed_calls[layer] += 1
        self.keys[layer].add(key)

    def summary(self) -> dict[str, dict[str, float]]:
        """calls and self time (ms) per span name, plus the two unique ratios."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(SPANS)
        self_s = [0.0] * len(SPANS)
        for i in range(n):
            j = self.name[i]
            calls[j] += self.is_call[i]
            self_s[j] += (self.end[i] - self.start[i]) - child[i]
        out = {}
        for j, name in enumerate(SPANS):
            out[f"{name}.calls"] = {"value": calls[j], "unit": "count"}
            out[f"{name}.self_ms"] = {"value": self_s[j] * 1000.0, "unit": "ms"}
        for layer in ("instances.scorer", "model.utility"):
            c = self.keyed_calls[layer]
            out[f"{layer}.unique_ratio"] = {
                "value": len(self.keys[layer]) / c if c else 0.0,
                "unit": "ratio",
            }
        return out

    def write(self, path: str) -> int:
        """Write every span as one tab-separated line; returns the span count."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\top\tname\tstart_us\tend_us\tparent\tcall\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.opid[i]}\t{SPANS[self.name[i]]}\t"
                    f"{self.start[i] * 1e6:.3f}\t{self.end[i] * 1e6:.3f}\t"
                    f"{self.parent[i]}\t{self.is_call[i]}\n"
                )
        return len(self.start)


# --- wrappers ------------------------------------------------------------------


def _call_wrapper(tr: Tracer, name: str, fn, key=None):
    """One span per call; `key(*args)` names the state for the unique ratio."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tr.active:
            return fn(*args, **kwargs)
        if key is not None:
            tr.key(name, key(*args, **kwargs))
        sid = tr.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tr.close(sid)

    return wrapper


def _resumes(tr: Tracer, name: str, it):
    """Re-yield an iterator or generator, one span per resume."""
    resp = None
    while True:
        sid = tr.open(name, is_call=name == "policies.decide") if tr.active else None
        try:
            action = it.send(resp) if resp is not None else next(it)
        except StopIteration as stop:
            return stop.value
        finally:
            if sid is not None:
                tr.close(sid)
        resp = yield action


def _support_wrapper(tr: Tracer, fn):
    call = _call_wrapper(tr, "model.support", lambda *a, **k: iter(fn(*a, **k)))

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _resumes(tr, "model.support", call(*args, **kwargs))

    return wrapper


def _scorer_pair(tr: Tracer, fast_marginals, fast_sav):
    def marginals_key(inst, psi, cands, cap=None):
        return tr.serial(inst), psi.pairs, (), tuple(cands), cap

    def sav_key(inst, psi, pending, cands, ctx, cap=None):
        return tr.serial(inst), psi.pairs, tuple(pending), tuple(cands), cap

    return (_call_wrapper(tr, "instances.scorer", fast_marginals, marginals_key),
            _call_wrapper(tr, "instances.scorer", fast_sav, sav_key))


def _policy_wrapper(tr: Tracer, ctor, Policy):
    @functools.wraps(ctor)
    def wrapper(*args, **kwargs):
        pol = ctor(*args, **kwargs)
        play = pol.play

        def traced_play(inst, ctx):
            return _resumes(tr, "policies.decide", play(inst, ctx))

        return Policy(name=pol.name, play=traced_play, seed_space=pol.seed_space)

    return wrapper


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def install() -> tuple[Tracer, callable]:
    """Wrap the library's layer entry points; returns (tracer, uninstall)."""
    from adasub import engine, instances, model, policies, verifiers

    tr = Tracer()
    mods = {"engine": engine, "instances": instances, "model": model,
            "policies": policies, "verifiers": verifiers}
    namespaces = [m for name, m in sys.modules.items()
                  if name == "adasub" or name.startswith("adasub.")]
    undo: list[tuple[object, str, object]] = []

    def rebind(orig, new):
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                if val is orig:
                    undo.append((ns, attr, val))
                    setattr(ns, attr, new)

    def patch_attr(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for span, (mod, names) in _CALL_SPANS.items():
        for fname in names:
            orig = getattr(mods[mod], fname)
            rebind(orig, _call_wrapper(tr, span, orig))
    for fname in _POLICY_CONSTRUCTORS:
        orig = getattr(policies, fname)
        rebind(orig, _policy_wrapper(tr, orig, engine.Policy))

    def utility_key(utility, psi):
        return tr.serial(utility), psi.pairs

    for cls in _subclasses(model.UtilityFunction):
        if "__call__" in cls.__dict__:
            patch_attr(cls, "__call__",
                       _call_wrapper(tr, "model.utility", cls.__dict__["__call__"], utility_key))
    for cls in _subclasses(model.Prior):
        d = cls.__dict__
        if "outcome_dist" in d:
            patch_attr(cls, "outcome_dist", _call_wrapper(tr, "model.outcome_dist", d["outcome_dist"]))
        if "joint_dist" in d:
            patch_attr(cls, "joint_dist", _call_wrapper(tr, "model.joint_dist", d["joint_dist"]))
        if "support" in d:
            patch_attr(cls, "support", _support_wrapper(tr, d["support"]))

    # Scorer hooks are installed on each instance at build time, so wrap the
    # factories the builders read them from.
    orig_hooks = instances._cover_fast_hooks

    def cover_hooks(prior, utility):
        return _scorer_pair(tr, *orig_hooks(prior, utility))

    patch_attr(instances, "_cover_fast_hooks", cover_hooks)
    bags_m, bags_s = _scorer_pair(tr, instances._bags_fast_marginals, instances._bags_fast_sav)
    patch_attr(instances, "_bags_fast_marginals", bags_m)
    patch_attr(instances, "_bags_fast_sav", bags_s)

    def uninstall():
        tr.active = False
        for owner, attr, val in reversed(undo):
            setattr(owner, attr, val)
        undo.clear()

    return tr, uninstall
