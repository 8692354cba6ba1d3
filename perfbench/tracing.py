"""Span tracer that wraps liftlab's public functions from outside.

`Tracer.install()` replaces every public function and method of the
traced modules with a wrapper and `uninstall()` puts the originals
back; `src/` is never edited.  Modules bind names with
`from .chevgroup import u_alpha` or `from .coeffring import CoeffRing`,
so a function is patched in every module namespace that holds it, and
methods are patched on their class, which all importers share.

A span records its name, start, end, parent span and op id.  Spans
stay in memory; the runner writes them out when the run ends.  The
element-level `CoeffRing` methods run tens of thousands of times per
pass, so they are counted, not spanned; their time stays in the
caller's self time.  A few functions also record a count derived from
their arguments or result (hooks), so ratios are measured where the
work happens.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("coeffring", "fieldlinalg", "modp", "chevgroup", "localconds",
          "selmer", "liftdriver", "galoismod", "oddness", "rootdata",
          "intlinalg", "chartable", "cyclotomic")

# CoeffRing methods that stay spans; every other public CoeffRing
# method is an element-level call and is only counted.
SPANNED_RING_METHODS = {"__init__", "mat_mul", "mat_vec", "mat_pow",
                        "mat_inv"}
SCALAR_CALLS = ("el", "mul", "inv", "is_unit", "pow", "valuation")


def _hit(name):
    def hook(tracer, args, out):
        tracer.counts[name] += bool(out)
    return hook


def _found(name):
    def hook(tracer, args, out):
        tracer.counts[name] += out is not None
    return hook


def _rref_cells(tracer, args, out):
    a = args[0]
    tracer.counts["modp.rref.cells"] += len(a) * (len(a[0]) if len(a) else 0)


def _draws(tracer, args, out):
    tracer.counts["selmer.doubling_solve.draws"] += out.get("draws", 0)


def _steps(tracer, args, out):
    tracer.counts["selmer.annihilation_steps"] += len(out[0]) - 1


HOOKS = {
    "modp.rref": _rref_cells,
    "modp.row_space_contains": _hit("modp.row_space_contains.hits"),
    "galoismod.find_proper_submodule":
        _found("galoismod.find_proper_submodule.found"),
    "selmer.doubling_solve": _draws,
    "selmer.annihilation_loop": _steps,
}


def _targets(module):
    """(owner, attribute, span name, spanned?) for every public function
    and method defined in `module`."""
    layer = module.__name__.rsplit(".", 1)[-1]
    out = []
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) \
                != module.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((module, attr, "%s.%s" % (layer, attr), True))
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for meth, fn in vars(obj).items():
                if not inspect.isfunction(fn):
                    continue   # properties, class- and static methods
                if meth.startswith("_") and meth not in (
                        "__init__", "__matmul__", "__call__"):
                    continue
                spanned = (obj.__name__ != "CoeffRing"
                           or meth in SPANNED_RING_METHODS)
                out.append((obj, meth, "%s.%s.%s" % (layer, attr, meth),
                            spanned))
    return out


class Tracer:
    """Spans and counts for one traced pass at a time."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent index, op id]
        self.stack = []
        self.counts = Counter()
        self.op = None
        self._patches = []    # (owner, attribute, original, wrapper)

    # -- wrappers

    def _span(self, name, fn):
        tracer = self
        hook = HOOKS.get(name)

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer, args, out)
            return out
        return wrapper

    def _count(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching

    def install(self):
        if self._patches:
            return
        modules = [sys.modules["liftlab." + name] for name in LAYERS
                   if "liftlab." + name in sys.modules]
        namespaces = [vars(m) for name, m in list(sys.modules.items())
                      if name.startswith("liftlab")]
        for module in modules:
            for owner, attr, name, spanned in _targets(module):
                original = vars(owner)[attr]
                wrapper = (self._span if spanned else self._count)(name,
                                                                   original)
                if inspect.ismodule(owner):
                    # every namespace that imported the function by name
                    for ns in namespaces:
                        for key, val in list(ns.items()):
                            if val is original:
                                self._patches.append((ns, key, original,
                                                      wrapper))
                                ns[key] = wrapper
                else:
                    self._patches.append((owner, attr, original, wrapper))
                    setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches = []

    # -- ops

    def reset(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()

    def begin_op(self, op_id, kind):
        self.op = op_id
        rec = [kind, 0.0, 0.0, -1, op_id]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()

    def end_op(self):
        rec = self.spans[self.stack.pop()]
        rec[2] = perf_counter()
        self.op = None


# -- per-layer metrics

def pct_ms(values, pct):
    """Nearest-rank percentile in ms of durations in seconds."""
    if not values:
        return 0.0
    s = sorted(values)
    return 1000.0 * s[min(len(s) - 1, int(pct * len(s)))]


def _ratio(a, b):
    return a / b if b else 0.0


def pass_profile(spans, counts, n_ops):
    """Reduce one traced pass to per-span totals: calls, self seconds,
    durations, and a few parent-child counts."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    calls = Counter()
    self_s = defaultdict(float)
    durs = defaultdict(list)
    under = Counter()    # (parent name, child name) -> count
    for i, (name, t0, t1, parent, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (t1 - t0) - child[i]
        durs[name].append(t1 - t0)
        if parent >= 0:
            under[(spans[parent][0], name)] += 1
    return {"calls": calls, "self_s": self_s, "durs": durs, "under": under,
            "counts": Counter(counts), "n_ops": n_ops}


def layer_self(profile):
    """Self seconds per layer; op bodies outside any library span go to
    'bench'."""
    out = defaultdict(float)
    for name, s in profile["self_s"].items():
        layer = name.split(".", 1)[0]
        out[layer if layer in LAYERS else "bench"] += s
    return dict(out)


def per_layer_metrics(profiles, overhead_ratio):
    """The per-layer metric values of a traced run.  Counts come from
    the first traced pass (they repeat exactly across passes); self
    times are means per pass; latencies pool every traced pass."""
    first = profiles[0]
    calls, counts, under = first["calls"], first["counts"], first["under"]
    n = len(profiles)

    def self_of(name):
        return sum(p["self_s"].get(name, 0.0) for p in profiles) / n

    def layer(name):
        return sum(layer_self(p).get(name, 0.0) for p in profiles) / n

    def durs(name):
        return [d for p in profiles for d in p["durs"].get(name, [])]

    ring = "coeffring.CoeffRing."
    tries = under[("localconds.sample_member", "localconds.membership")]
    inits = calls["liftdriver.EndToEndModel.__init__"]
    solves = calls["selmer.doubling_solve"]
    steps = durs("liftdriver.EndToEndModel.step")
    return {
        "coeffring.self_s": layer("coeffring"),
        "coeffring.mat_inv.calls": calls[ring + "mat_inv"],
        "coeffring.mat_inv.self_s": self_of(ring + "mat_inv"),
        "coeffring.mat_mul.calls": calls[ring + "mat_mul"],
        "coeffring.mat_mul.self_s": self_of(ring + "mat_mul"),
        "coeffring.scalar.calls": sum(counts[ring + c] for c in SCALAR_CALLS),
        "fieldlinalg.self_s": layer("fieldlinalg"),
        "fieldlinalg.rref_f.calls": calls["fieldlinalg.rref_f"],
        "fieldlinalg.rref_f.self_s": self_of("fieldlinalg.rref_f"),
        "modp.self_s": layer("modp"),
        "modp.rref.calls": calls["modp.rref"],
        "modp.rref.cells": counts["modp.rref.cells"],
        "modp.rref.self_s": self_of("modp.rref"),
        "modp.rank.calls": calls["modp.rank"],
        "modp.row_space_contains.calls": calls["modp.row_space_contains"],
        "modp.row_space_contains.hit_ratio": _ratio(
            counts["modp.row_space_contains.hits"],
            calls["modp.row_space_contains"]),
        "chevgroup.self_s": layer("chevgroup"),
        "chevgroup.u_alpha.calls": calls["chevgroup.u_alpha"],
        "chevgroup.u_alpha.self_s": self_of("chevgroup.u_alpha"),
        "chevgroup.inv.calls": calls["chevgroup.GroupElement.inv"],
        "chevgroup.inv.per_op": _ratio(calls["chevgroup.GroupElement.inv"],
                                       first["n_ops"]),
        "chevgroup.conjugate.calls": calls["chevgroup.GroupElement.conjugate"],
        "chevgroup.torus_elt.calls": calls["chevgroup.torus_elt"],
        "localconds.self_s": layer("localconds"),
        "localconds.membership.calls": calls["localconds.membership"],
        "localconds.relation_holds.calls":
            calls["localconds.LocalLift.relation_holds"],
        "localconds.sample_member.reject_ratio": _ratio(
            tries - calls["localconds.sample_member"], tries),
        "localconds.stability_check.ms_p50":
            pct_ms(durs("localconds.stability_check"), 0.5),
        "localconds.smoothness_probe.ms_p50":
            pct_ms(durs("localconds.smoothness_probe"), 0.5),
        "localconds.condition_spaces.ms_p50":
            pct_ms(durs("localconds.condition_spaces"), 0.5),
        "selmer.self_s": layer("selmer"),
        "selmer.annihilation_loop.ms_p50":
            pct_ms(durs("selmer.annihilation_loop"), 0.5),
        "selmer.annihilation_steps": counts["selmer.annihilation_steps"],
        "selmer.selmer_compute.calls": calls["selmer.selmer_compute"],
        "selmer.check_consistency.calls":
            calls["selmer.SyntheticGlobalModel.check_consistency"],
        "selmer.doubling_solve.draws_per_call": _ratio(
            counts["selmer.doubling_solve.draws"], solves),
        "liftdriver.self_s": layer("liftdriver"),
        "liftdriver.model_init.ms_p50":
            pct_ms(durs("liftdriver.EndToEndModel.__init__"), 0.5),
        "liftdriver.model_tries": _ratio(
            under[("liftdriver.EndToEndModel.__init__",
                   "selmer.build_synthetic_model")], inits),
        "liftdriver.step.self_s": self_of("liftdriver.EndToEndModel.step"),
        "liftdriver.step.ms_p50": pct_ms(steps, 0.5),
        "liftdriver.step.ms_p90": pct_ms(steps, 0.9),
        "galoismod.self_s": layer("galoismod"),
        "galoismod.decompose.ms_p50": pct_ms(durs("galoismod.decompose"), 0.5),
        "galoismod.spin.calls": calls["galoismod.spin"],
        "galoismod.hom_space.self_s": self_of("galoismod.hom_space"),
        "galoismod.find_proper_submodule.success_ratio": _ratio(
            counts["galoismod.find_proper_submodule.found"],
            calls["galoismod.find_proper_submodule"]),
        "oddness.self_s": layer("oddness"),
        "rootdata.root_datum.calls": calls["rootdata.root_datum"],
        "rootdata.self_s": layer("rootdata"),
        "trace.overhead_ratio": overhead_ratio,
    }


def count_signature(profile):
    """Everything that must repeat exactly between passes of one seed."""
    return (sorted(profile["calls"].items()),
            sorted((k, v) for k, v in profile["counts"].items()))


def layer_shares(profiles):
    """Share of traced op time per layer (self time), averaged."""
    tot = defaultdict(float)
    for p in profiles:
        for k, v in layer_self(p).items():
            tot[k] += v
    whole = sum(tot.values())
    return {k: round(v / whole, 4) for k, v in
            sorted(tot.items(), key=lambda kv: -kv[1])} if whole else {}
