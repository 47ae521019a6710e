"""Per-layer tracing of ``proregular`` from outside the program.

``Tracer.install`` wraps the public functions and methods of each layer
module (``proregular.<layer>``) in place, in the defining module and in
every ``proregular`` module that re-bound the function by name (for
example ``module_groebner``, imported into ``rings`` and ``resolutions``).

Every call of a wrapped function is counted.  A call that crosses from one
layer into another (or from the benchmark into the CLI) also records a span
in memory: name, start, end and parent span.  Calls inside one layer record
no span, because their time belongs to the same layer either way; a few
functions whose own inclusive time is a metric always record one.  A
layer's self time is the sum over its spans of the span's duration minus
the time its child spans cover.

Two kinds of callable are left unwrapped: ``intlinalg.Mat``, the matrix
value type every layer reads entries from, and the coefficient operations
of ``RationalField``/``PrimeField``, which are only counted (a span per
coefficient operation would cost more than the operation itself); their
time stays with the caller.

Counts depend only on the inputs, so two traced sweeps of the same seed
give identical counts; times are measured and include the wrappers' cost.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

LAYERS = ("intlinalg", "fieldlinalg", "poly", "groebner", "rings", "fpmod",
          "complexes", "resolutions", "koszul", "towers", "torsion",
          "zmodclass", "session", "reports", "cli")
BENCH = -1  # layer id of the benchmark itself, the root of every span tree

UNWRAPPED_CLASSES = {"intlinalg.Mat"}
COEFF_CLASSES = {"fieldlinalg.RationalField", "fieldlinalg.PrimeField"}
COEFF_OPS = ("add", "sub", "mul", "neg", "inv")
# constructors whose calls are metrics
WRAPPED_INITS = {"fpmod.FpModule", "groebner.GraphBasis"}
# functions whose inclusive time is a metric: they always record a span
ALWAYS_SPAN = {"session.parse_session", "reports.hilbert_samples"}


class Tracer:
    def __init__(self):
        self.names = []          # function id -> "layer.qualname"
        self.layer_of = []       # function id -> layer id
        self.calls = []          # function id -> calls in this sweep
        self.by_name = {}        # "layer.qualname" -> function id
        self.counters = {}
        self.paused = False
        self.layer_stack = [BENCH]
        self.span_stack = [-1]
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self):
        """Start a sweep: clear spans, call counts and counters."""
        self.span_fid = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.calls = [0] * len(self.names)
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self.seen_cohomology = set()
        self.seen_stages = set()
        self.last_basis_out = 0

    def _wrap(self, key: str, layer: int, func):
        fid = len(self.names)
        self.names.append(key)
        self.layer_of.append(layer)
        self.calls.append(0)
        self.by_name[key] = fid
        tracer = self
        on_enter = ENTER_HOOKS.get(key)
        on_exit = EXIT_HOOKS.get(key)
        always = key in ALWAYS_SPAN
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            t = tracer
            if t.paused:
                return func(*args, **kwargs)
            t.calls[fid] += 1
            caller = t.layer_stack[-1]
            token = on_enter(t, args, kwargs) if on_enter else None
            if caller == layer and not always:
                result = func(*args, **kwargs)
            else:
                idx = len(t.span_fid)
                t.span_fid.append(fid)
                t.span_parent.append(t.span_stack[-1])
                t.span_end.append(0)
                t.layer_stack.append(layer)
                t.span_stack.append(idx)
                t.span_start.append(clock())
                try:
                    result = func(*args, **kwargs)
                finally:
                    t.span_end[idx] = clock()
                    t.span_stack.pop()
                    t.layer_stack.pop()
            if on_exit:
                t.paused = True
                try:
                    on_exit(t, args, kwargs, result, caller, token)
                finally:
                    t.paused = False
            return result
        return wrapper

    def _count_only(self, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args):
            if not tracer.paused:
                tracer.counters["fieldlinalg.coeff_ops"] += 1
            return func(*args)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every layer's public callables and start a sweep.

        Installing again after ``proregular`` was imported afresh wraps the
        new modules and forgets the old wrappers."""
        self.names, self.layer_of, self.by_name = [], [], {}
        originals = {}
        for layer_id, layer in enumerate(LAYERS):
            mod = importlib.import_module(f"proregular.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                key = f"{layer}.{name}"
                if inspect.isfunction(obj):
                    wrapped = self._wrap(key, layer_id, obj)
                    originals[obj] = wrapped
                    setattr(mod, name, wrapped)
                elif inspect.isclass(obj) and key not in UNWRAPPED_CLASSES:
                    self._wrap_class(key, layer_id, obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "proregular" or mod_name.startswith("proregular."):
                for name, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in originals:
                        setattr(mod, name, originals[obj])
        self.reset()

    def _wrap_class(self, key: str, layer_id: int, cls):
        for name, attr in list(vars(cls).items()):
            if key in COEFF_CLASSES:
                if name in COEFF_OPS:
                    setattr(cls, name, self._count_only(attr))
                continue
            if name == "__init__" and key in WRAPPED_INITS:
                pass
            elif name.startswith("_"):
                continue
            member = f"{key}.{name}"
            if isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(self._wrap(member, layer_id, attr.__func__)))
            elif isinstance(attr, classmethod):
                setattr(cls, name, classmethod(self._wrap(member, layer_id, attr.__func__)))
            elif inspect.isfunction(attr):
                setattr(cls, name, self._wrap(member, layer_id, attr))

    # -- results -----------------------------------------------------------

    def layer_table(self) -> dict:
        """Per layer: calls, spans, self time (s); plus inclusive times of
        the always-spanned functions."""
        table = {layer: {"calls": 0, "spans": 0, "self_s": 0.0} for layer in LAYERS}
        for fid, n in enumerate(self.calls):
            table[LAYERS[self.layer_of[fid]]]["calls"] += n
        fids, parents = self.span_fid, self.span_parent
        starts, ends = self.span_start, self.span_end
        covered = [0] * len(fids)
        for i in range(len(fids)):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        self_ns = [0] * len(LAYERS)
        inclusive = dict.fromkeys(ALWAYS_SPAN, 0)
        for i in range(len(fids)):
            dur = ends[i] - starts[i]
            layer = self.layer_of[fids[i]]
            self_ns[layer] += dur - covered[i]
            name = self.names[fids[i]]
            if name in inclusive:
                inclusive[name] += dur
            table[LAYERS[layer]]["spans"] += 1
        for layer, ns in zip(LAYERS, self_ns):
            table[layer]["self_s"] = ns / 1e9
        return {"layers": table,
                "inclusive_s": {k: v / 1e9 for k, v in inclusive.items()}}

    def count(self, key: str) -> int:
        fid = self.by_name.get(key)
        return 0 if fid is None else self.calls[fid]


# ---------------------------------------------------------------------------
# hooks: counters measured where the work happens


def _complex_key(c):
    """Structural key of a complex: equal complexes built twice match."""
    mods = tuple((q, m.ngens, m.relations.rows) for q, m in sorted(c.modules.items()))
    diffs = tuple((q, d.matrix.rows) for q, d in sorted(c.diffs.items()))
    return (c.lo, mods, diffs)


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _new_command(t, args, kwargs):
    t.seen_cohomology = set()
    t.seen_stages = set()


def _count(name, amount=1):
    def hook(t, args, kwargs, result, caller, token):
        t.counters[name] += amount
    return hook


def _module_groebner(t, args, kwargs, result, caller, token):
    basis, syzygies = result
    t.counters["groebner.basis_in"] += len(_arg(args, kwargs, 1, "vectors"))
    t.counters["groebner.basis_out"] += len(basis)
    t.counters["groebner.syzygies_out"] += len(syzygies)
    t.last_basis_out = len(basis)


def _reduced_enter(t, args, kwargs):
    return t.count("groebner.module_groebner")


def _reduced_exit(t, args, kwargs, result, caller, token):
    if t.count("groebner.module_groebner") > token:
        t.counters["groebner._raw_basis"] += t.last_basis_out
        t.counters["groebner._kept_basis"] += len(result)


def _ring_matmul(t, args, kwargs, result, caller, token):
    a, b = _arg(args, kwargs, 1, "a"), _arg(args, kwargs, 2, "b")
    t.counters["rings.matmul_products"] += a.nrows * b.ncols * a.ncols


def _fpmodule_init(t, args, kwargs, result, caller, token):
    t.counters["fpmod.relations_built"] += args[0].relations.ncols


def _zero_test(t, args, kwargs, result, caller, token):
    if caller == LAYERS.index("towers"):
        t.counters["towers.zero_tests"] += 1


def _cohomology(t, args, kwargs, result, caller, token):
    key = (_complex_key(_arg(args, kwargs, 0, "c")), _arg(args, kwargs, 1, "q"))
    if key in t.seen_cohomology:
        t.counters["complexes.cohomology_repeats"] += 1
    t.seen_cohomology.add(key)


def _stage(kind):
    def hook(t, args, kwargs, result, caller, token):
        ideal = _arg(args, kwargs, 0, "a")
        key = (kind, _arg(args, kwargs, 1, "power", 1), ideal.generators)
        if key in t.seen_stages:
            t.counters["koszul.stage_repeats"] += 1
        t.seen_stages.add(key)
    return hook


def _free_resolution(t, args, kwargs, result, caller, token):
    t.counters["resolutions.rank_sum"] += sum(result.ranks())


ENTER_HOOKS = {
    "cli.run": _new_command,
    "groebner.reduced_module_groebner": _reduced_enter,
}
EXIT_HOOKS = {
    "groebner.module_groebner": _module_groebner,
    "groebner.reduced_module_groebner": _reduced_exit,
    "groebner.GraphBasis.__init__": _count("groebner.graph_builds"),
    "groebner.GraphBasis.member": _count("groebner.graph_queries"),
    "groebner.GraphBasis.solve": _count("groebner.graph_queries"),
    "rings.ring_matmul": _ring_matmul,
    "fpmod.FpModule.__init__": _fpmodule_init,
    "fpmod.ModuleMorphism.is_zero_morphism": _zero_test,
    "complexes.cohomology_data": _cohomology,
    "koszul.koszul_complex": _stage("koszul"),
    "koszul.dual_koszul": _stage("dual"),
    "resolutions.free_resolution": _free_resolution,
}
COUNTER_NAMES = (
    "groebner.basis_in", "groebner.basis_out", "groebner.syzygies_out",
    "groebner.graph_builds", "groebner.graph_queries",
    "groebner._raw_basis", "groebner._kept_basis",
    "rings.matmul_products", "fieldlinalg.coeff_ops", "fpmod.relations_built",
    "towers.zero_tests", "complexes.cohomology_repeats",
    "koszul.stage_repeats", "resolutions.rank_sum",
)

# per-layer metric -> names of the wrapped callables whose calls it counts
CALL_METRICS = {
    "groebner.calls": ("groebner.module_groebner",),
    "rings.span_oracles": ("rings.IntegerRing.span_oracle",
                           "rings.PolynomialRing.span_oracle",
                           "rings.QuotientRing.span_oracle"),
    "rings.canonical_calls": ("rings.IntegerRing.canonical_columns",
                              "rings.PolynomialRing.canonical_columns",
                              "rings.QuotientRing.canonical_columns"),
    "rings.matmul_calls": ("rings.ring_matmul",),
    "poly.mul_calls": ("poly.PolyRing.mul",),
    "fpmod.modules_built": ("fpmod.FpModule.__init__",),
    "fpmod.kernel_calls": ("fpmod.kernel",),
    "fpmod.minimized_calls": ("fpmod.minimized",),
    "complexes.cohomology_calls": ("complexes.cohomology_data",),
    "complexes.builds": ("complexes.hom_complex", "complexes.tensor_complexes",
                         "complexes.cone"),
    "resolutions.calls": ("resolutions.free_resolution",),
    "koszul.stage_builds": ("koszul.koszul_complex", "koszul.dual_koszul"),
    "koszul.transitions": ("koszul.koszul_transition",
                           "koszul.dual_koszul_transition"),
    "towers.composites": ("towers.ProSystem.composite", "towers.IndSystem.composite"),
}
SELF_TIME_METRICS = ("groebner", "rings", "poly", "fpmod", "complexes",
                     "resolutions", "koszul", "towers", "torsion", "zmodclass",
                     "intlinalg", "reports", "cli")


def sweep_metrics(t: Tracer) -> tuple[dict, dict, dict]:
    """``(counts, times, layer table)`` for the sweep just run."""
    table = t.layer_table()
    layers = table["layers"]
    counts = {name: sum(t.count(k) for k in keys) for name, keys in CALL_METRICS.items()}
    for name, value in t.counters.items():
        if not name.split(".", 1)[1].startswith("_"):
            counts[name] = value
    counts["intlinalg.calls"] = layers["intlinalg"]["calls"]
    raw = t.counters["groebner._raw_basis"]
    counts["groebner.kept_ratio"] = t.counters["groebner._kept_basis"] / raw if raw else 0.0
    times = {f"{layer}.self_s": layers[layer]["self_s"] for layer in SELF_TIME_METRICS}
    times["session.parse_s"] = table["inclusive_s"]["session.parse_session"]
    times["reports.hilbert_s"] = table["inclusive_s"]["reports.hilbert_samples"]
    return counts, times, table
