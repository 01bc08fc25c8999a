"""Span tracing from outside the program, and the per-layer metrics built on it.

Tracer.install() wraps the public functions of each multigroup layer and puts
the wrapper into every multigroup.* module attribute that holds the original
function object, because cli, dsl and demos import these functions by name.
Each wrapped call on the main thread records a span: parent, layer, kind,
name, start, end and a count taken at the same boundary (elements of a
carrier, cells of a rule table, tables of a construction, tuples of a check).
scan_chunks is wrapped so that its worker counts chunks and cells; workers run
on pool threads and record no spans. A hook whose function no longer exists
is reported as absent and its metrics read 0.

Spans stay in memory; the caller writes them out when the call ends.
"""

import importlib
import inspect
import sys
import threading
import time
from dataclasses import dataclass

CONSTRUCTIONS = (
    "matrix_op", "gl_group_op", "conj_quandle", "core_quandle", "alexander_quandle",
    "vxg_phi_op", "vxg_conj_op", "opposite", "pair_dimonoid", "action_dimonoid",
    "brace_trivial", "brace_opposite", "z_parity_brace",
)
CHECKS = (
    "assoc", "interchange", "idempotent", "divisibility_left", "divisibility_right",
    "distrib_left", "distrib_right", "group", "rack_left", "rack_right", "quandle_left",
    "quandle_right", "dimonoid", "skew_brace", "multiquandle", "nvalued_assoc",
)
CLAIMS = (
    "S3-assoc", "S3-multisemigroup", "S3-unit", "S3-group", "S4-phi-idempotency",
    "S4-phi-nonunique", "S4-conj-rack", "S4-opposite-rack", "S5-brace-trivial",
    "S5-brace-opposite", "S5-nonabelian-not-dimonoid", "S5-zbrace-counterexample",
    "E1-multiquandle-degenerate",
)

# Span fields, stored as lists for speed: [parent, layer, kind, name, start, end, count].
PARENT, LAYER, KIND, NAME, START, END, COUNT = range(7)


def _arg(args, kwargs, pos, name, default):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


@dataclass(frozen=True)
class Hook:
    module: str
    attr: str
    layer: str
    kind: str
    name: object          # span name, or a callable (args, kwargs) -> name
    feeds: tuple          # per-layer metrics that read this hook's spans


def _carrier(attr):
    return Hook("multigroup.carriers", attr, "carriers", "carrier", attr,
                ("carriers.build_s", "carriers.elements"))


def _construction(attr, ctor, name=None):
    ctors = ctor if isinstance(ctor, tuple) else (ctor,)
    return Hook("multigroup.constructions", attr, "constructions", "construction", name or ctor,
                ("constructions.build_s", "constructions.tables_built")
                + tuple(f"constructions.build_s.{c}" for c in ctors))


def _check(attr, check, name=None):
    checks = check if isinstance(check, tuple) else (check,)
    return Hook("multigroup.axioms", attr, "axioms", "check", name or check,
                ("axioms.check_s", "axioms.self_s", "axioms.tuples_checked")
                + tuple(f"axioms.check_s.{c}" for c in checks))


def _sided(prefix):
    return lambda a, k: f"{prefix}_{_arg(a, k, 1, 'side', '?')}"


def _rack_name(a, k):
    kind = "quandle" if _arg(a, k, 2, "require_idempotent", False) else "rack"
    return f"{kind}_{_arg(a, k, 1, 'side', '?')}"


HOOKS = (
    Hook("multigroup.cli", "main", "cli", "cli", "main", ("cli.self_s",)),
    Hook("multigroup.dsl", "parse_spec", "dsl", "parse", "parse_spec", ("dsl.parse_s",)),
    Hook("multigroup.dsl", "compile_spec", "dsl", "compile", "compile_spec", ("dsl.compile_self_s",)),
    *(_carrier(a) for a in (
        "group_carrier", "build_carrier_atom", "cyclic_group", "symmetric_group",
        "enumerate_matrices", "gl_group", "matrix_set", "matrix_subgroup", "direct_product",
        "pair_carrier", "integer_window",
    )),
    Hook("multigroup.carriers", "make_automorphism", "carriers", "automorphism",
         "make_automorphism", ("carriers.automorphism_s",)),
    *(_construction(a, a) for a in (
        "matrix_op", "gl_group_op", "conj_quandle", "core_quandle", "alexander_quandle",
        "vxg_phi_op", "vxg_conj_op", "action_dimonoid", "brace_trivial", "brace_opposite",
        "z_parity_brace",
    )),
    _construction("opposite_op", "opposite"),
    _construction("pair_dimonoid", "pair_dimonoid"),
    _construction("pair_dimonoid_on", "pair_dimonoid"),
    _construction("brace_ops", ("brace_trivial", "brace_opposite"),
                  lambda a, k: f"brace_{_arg(a, k, 1, 'variant', 'trivial')}"),
    Hook("multigroup.optables", "build_op_table", "constructions", "rule", "build_op_table",
         ("constructions.rule_s", "constructions.rule_cells")),
    _check("check_associativity", "assoc"),
    _check("check_interchange", "interchange"),
    _check("check_idempotency", "idempotent"),
    _check("check_divisibility", ("divisibility_left", "divisibility_right"), _sided("divisibility")),
    _check("check_self_distributivity", ("distrib_left", "distrib_right"), _sided("distrib")),
    _check("check_group", "group"),
    _check("check_rack_quandle", ("rack_left", "rack_right", "quandle_left", "quandle_right"),
           _rack_name),
    _check("check_dimonoid", "dimonoid"),
    _check("check_skew_brace", "skew_brace"),
    _check("check_multiquandle_pair", "multiquandle"),
    _check("check_nvalued_associativity", "nvalued_assoc"),
    *(Hook("multigroup.axioms", a, "axioms", "helper", a, ("axioms.self_s",)) for a in (
        "find_units", "find_inverses", "find_bar_units", "op_product", "nvalued_product",
    )),
    Hook("multigroup.optables", "scan_chunks", "scan", "scan", "scan_chunks",
         ("optables.scan_s", "optables.chunks_run", "optables.chunks_useful",
          "optables.chunk_useful_ratio", "optables.cells_scanned")),
    Hook("multigroup.demos", "run_demo", "demos", "claim", lambda a, k: _arg(a, k, 0, "claim_id", "?"),
         ("demos.self_s",) + tuple(f"demos.claim_s.{c}" for c in CLAIMS)),
)


def _count(kind, result):
    """The count a span records from its function's result; 0 for shapes it does not know."""
    if kind == "carrier":
        return len(getattr(result, "elements", ()))
    if kind == "rule":
        return int(getattr(getattr(result, "table", None), "size", 0))
    if kind == "construction":
        return sum(1 for r in (result if isinstance(result, tuple) else (result,)) if hasattr(r, "table"))
    if kind == "check":
        return int(getattr(result, "checked", 0))
    return 0


class Tracer:
    """Records spans of one CLI call while installed; not thread-safe to install twice."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans = []
        self.absent = []
        self._stack = []
        self._patched = []
        self._main = threading.get_ident()
        self._lock = threading.Lock()

    def install(self):
        for hook in self.hooks:
            try:
                module = importlib.import_module(hook.module)
            except ImportError:
                module = None
            fn = getattr(module, hook.attr, None)
            if not callable(fn):
                self.absent.append(f"{hook.module}.{hook.attr}")
                continue
            wrapper = self._wrap_scan(fn, hook) if hook.kind == "scan" else self._wrap(fn, hook)
            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", "")
                if mod_name != "multigroup" and not mod_name.startswith("multigroup."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def _open(self, hook, args, kwargs):
        name = hook.name(args, kwargs) if callable(hook.name) else hook.name
        span = [self._stack[-1] if self._stack else None, hook.layer, hook.kind, name, 0.0, 0.0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _wrap(self, fn, hook):
        def wrapper(*args, **kwargs):
            if threading.get_ident() != self._main:
                return fn(*args, **kwargs)
            span = self._open(hook, args, kwargs)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
            span[COUNT] = _count(hook.kind, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_scan(self, fn, hook):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            if threading.get_ident() != self._main:
                return fn(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            params = bound.arguments
            worker = params.get("worker")
            cells_per_row = params.get("cells_per_row", 0)
            chunks = []

            def counted(*w_args, **w_kwargs):
                found = worker(*w_args, **w_kwargs)
                rows = w_args[1] - w_args[0] if len(w_args) >= 2 else 0
                with self._lock:
                    chunks.append((w_args[:1], rows, found is not None))
                return found

            if callable(worker):
                params["worker"] = counted
            span = self._open(hook, args, kwargs)
            span[START] = time.perf_counter()
            try:
                return fn(*bound.args, **bound.kwargs)
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
                chunks.sort(key=lambda c: c[0])
                hits = [i for i, c in enumerate(chunks) if c[2]]
                span[COUNT] = {
                    "chunks_run": len(chunks),
                    "chunks_useful": hits[0] + 1 if hits else len(chunks),
                    "cells": sum(rows for _, rows, _ in chunks) * cells_per_row,
                }

        wrapper.__wrapped__ = fn
        return wrapper


# --- analysis ------------------------------------------------------------------


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            child[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - c for span, c in zip(spans, child)]


def layer_self_times(spans):
    """Self time summed per layer; the layers together cover the root spans exactly."""
    totals = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span[LAYER]] = totals.get(span[LAYER], 0.0) + own
    return totals


def _outermost(spans, kinds):
    """Spans of the given kinds that have no ancestor of those kinds."""
    out = []
    for span in spans:
        if span[KIND] not in kinds:
            continue
        parent = span[PARENT]
        while parent is not None and spans[parent][KIND] not in kinds:
            parent = spans[parent][PARENT]
        if parent is None:
            out.append(span)
    return out


def per_layer_names():
    """Every per-layer metric with its unit, in reporting order."""
    return (
        [("constructions.build_s", "s")]
        + [(f"constructions.build_s.{c}", "s") for c in CONSTRUCTIONS]
        + [("constructions.rule_s", "s"), ("constructions.rule_cells", "count"),
           ("constructions.tables_built", "count"),
           ("optables.scan_s", "s"), ("optables.chunks_run", "count"),
           ("optables.chunks_useful", "count"), ("optables.chunk_useful_ratio", "ratio"),
           ("optables.cells_scanned", "count"),
           ("axioms.check_s", "s")]
        + [(f"axioms.check_s.{c}", "s") for c in CHECKS]
        + [("axioms.self_s", "s"), ("axioms.tuples_checked", "count"),
           ("axioms.tuples_per_s", "1/s"),
           ("carriers.build_s", "s"), ("carriers.automorphism_s", "s"),
           ("carriers.elements", "count"),
           ("dsl.parse_s", "s"), ("dsl.compile_self_s", "s"), ("cli.self_s", "s")]
        + [(f"demos.claim_s.{c}", "s") for c in CLAIMS]
        + [("demos.self_s", "s"), ("trace.overhead_ratio", "ratio")]
    )


def absent_metrics(absent_hooks, hooks=HOOKS):
    """Per-layer metrics fed only by hooks that are absent."""
    missing = set(absent_hooks)
    fed = {}
    for hook in hooks:
        for metric in hook.feeds:
            fed.setdefault(metric, []).append(f"{hook.module}.{hook.attr}" in missing)
    return sorted(m for m, flags in fed.items() if all(flags))


def call_metrics(spans):
    """Additive per-layer metrics of one traced call (sums of times and counts).

    Ratios are left out: the caller forms them from the sums of a whole run.
    """
    m = {name: 0.0 for name, _ in per_layer_names()}
    own = self_times(spans)
    for span, self_s in zip(spans, own):
        if span[LAYER] == "axioms":
            m["axioms.self_s"] += self_s
        elif span[LAYER] == "demos":
            m["demos.self_s"] += self_s
        elif span[LAYER] == "cli":
            m["cli.self_s"] += self_s
        if span[KIND] == "compile":
            m["dsl.compile_self_s"] += self_s
    for span in spans:
        duration = span[END] - span[START]
        kind = span[KIND]
        if kind == "parse":
            m["dsl.parse_s"] += duration
        elif kind == "scan":
            m["optables.scan_s"] += duration
            m["optables.chunks_run"] += span[COUNT]["chunks_run"]
            m["optables.chunks_useful"] += span[COUNT]["chunks_useful"]
            m["optables.cells_scanned"] += span[COUNT]["cells"]
        elif kind == "claim":
            key = f"demos.claim_s.{span[NAME]}"
            if key in m:
                m[key] += duration
    for span in _outermost(spans, ("construction",)):
        duration = span[END] - span[START]
        m["constructions.build_s"] += duration
        m["constructions.tables_built"] += span[COUNT]
        key = f"constructions.build_s.{span[NAME]}"
        if key in m:
            m[key] += duration
    for span in _outermost(spans, ("rule",)):
        m["constructions.rule_s"] += span[END] - span[START]
        m["constructions.rule_cells"] += span[COUNT]
    for span in _outermost(spans, ("check",)):
        duration = span[END] - span[START]
        m["axioms.check_s"] += duration
        m["axioms.tuples_checked"] += span[COUNT]
        key = f"axioms.check_s.{span[NAME]}"
        if key in m:
            m[key] += duration
    for span in _outermost(spans, ("carrier",)):
        m["carriers.build_s"] += span[END] - span[START]
        m["carriers.elements"] += span[COUNT]
    for span in _outermost(spans, ("automorphism",)):
        m["carriers.automorphism_s"] += span[END] - span[START]
    for ratio in ("optables.chunk_useful_ratio", "axioms.tuples_per_s", "trace.overhead_ratio"):
        del m[ratio]
    return m


def finish_ratios(m, traced_wall, untraced_wall):
    """Add the ratio metrics to summed per-layer metrics."""
    m["optables.chunk_useful_ratio"] = (
        m["optables.chunks_useful"] / m["optables.chunks_run"] if m["optables.chunks_run"] else 0.0
    )
    m["axioms.tuples_per_s"] = m["axioms.tuples_checked"] / m["axioms.check_s"] if m["axioms.check_s"] else 0.0
    m["trace.overhead_ratio"] = traced_wall / untraced_wall - 1.0
    return m
