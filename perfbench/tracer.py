"""Span tracing of flagcr's layer entry points, installed from outside the
package: each listed function is replaced by a recording wrapper in its
defining module and under every name another flagcr module imported it as.

A span is (name, start, end, parent span, operation index); the pass id is
in the header of the span file.  Spans stay in memory and are written out
when the pass ends.  Self time is a span's duration minus the time its
direct child spans cover; busy time counts only the outermost span of a
name, so recursion is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array

MODULES = ("intlat", "rootsys", "qsets", "classify", "weyl", "gaussq", "cralg", "presets", "realform", "cli")


def _length(result):
    return len(result)


def _truth(result):
    return 1 if result else 0


# (module, attribute path in the module, span name, result observer)
TRACED = (
    ("intlat", "smith_normal_form", "intlat.smith_normal_form", None),
    ("intlat", "SNFSolver.solve", "intlat.SNFSolver.solve", None),
    ("intlat", "solve_congruence", "intlat.solve_congruence", None),
    ("intlat", "solve_diophantine", "intlat.solve_diophantine", None),
    ("rootsys", "evaluate", "rootsys.evaluate", None),
    ("rootsys", "evaluate_int", "rootsys.evaluate_int", None),
    ("qsets", "is_fundamental", "qsets.is_fundamental", _truth),
    ("qsets", "property_report", "qsets.property_report", None),
    ("qsets", "is_symmetric", "qsets.is_symmetric", None),
    ("qsets", "has_weak_j", "qsets.has_weak_j", None),
    ("qsets", "has_j", "qsets.has_j", None),
    ("classify", "maximal_cliques", "classify.maximal_cliques", _length),
    ("classify", "enumerate_maximal", "classify.enumerate_maximal", None),
    ("classify", "catalog", "classify.catalog", None),
    ("weyl", "canonical_form", "weyl.canonical_form", None),
    ("weyl", "set_orbit", "weyl.set_orbit", _length),
    ("weyl", "sets_equivalent", "weyl.sets_equivalent", None),
    ("weyl", "in_weyl", "weyl.in_weyl", _truth),
    ("gaussq", "solve_linear", "gaussq.solve_linear", None),
    # every RMatrix / CMatrix construction is one RREF
    ("gaussq", "_SpaceBase.__init__", "gaussq.space_build", None),
    ("presets", "flag_preset", "presets.flag_preset", None),
    ("presets", "FlagPreset.j_derivation", "presets.j_derivation", None),
    ("presets", "FlagPreset.symmetry_involution", "presets.symmetry_involution", None),
    ("cralg", "check_j_property", "cralg.check_j_property", None),
    ("cralg", "check_cr_symmetric", "cralg.check_cr_symmetric", None),
    ("cralg", "is_levi_nondegenerate", "cralg.is_levi_nondegenerate", None),
    ("cralg", "is_fundamental_cr", "cralg.is_fundamental_cr", None),
    ("cralg", "is_effective", "cralg.is_effective", None),
    ("cralg", "LieAlgebraPresentation.bracket", "cralg.bracket", None),
    ("realform", "adapted_simple_system", "realform.adapted_simple_system", None),
    ("cli", "main", "cli.main", None),
)

# per-layer metrics read straight off the span aggregates: (span, statistic)
SPAN_METRICS = (
    ("intlat.smith_normal_form", "calls"), ("intlat.smith_normal_form", "self_s"),
    ("intlat.SNFSolver.solve", "calls"), ("intlat.SNFSolver.solve", "self_s"),
    ("intlat.solve_congruence", "calls"), ("intlat.solve_congruence", "self_s"),
    ("intlat.solve_diophantine", "calls"), ("intlat.solve_diophantine", "self_s"),
    ("rootsys.evaluate", "calls"), ("rootsys.evaluate", "self_s"),
    ("rootsys.evaluate_int", "calls"), ("rootsys.evaluate_int", "self_s"),
    ("qsets.is_fundamental", "calls"), ("qsets.is_fundamental", "busy_s"),
    ("qsets.property_report", "calls"), ("qsets.property_report", "busy_s"), ("qsets.property_report", "self_s"),
    ("qsets.is_symmetric", "busy_s"), ("qsets.has_weak_j", "busy_s"), ("qsets.has_j", "busy_s"),
    ("classify.maximal_cliques", "busy_s"),
    ("classify.enumerate_maximal", "busy_s"), ("classify.enumerate_maximal", "self_s"),
    ("classify.catalog", "busy_s"),
    ("weyl.canonical_form", "calls"), ("weyl.canonical_form", "busy_s"),
    ("weyl.set_orbit", "busy_s"),
    ("weyl.sets_equivalent", "calls"), ("weyl.sets_equivalent", "busy_s"),
    ("weyl.in_weyl", "calls"),
    ("gaussq.solve_linear", "calls"), ("gaussq.solve_linear", "self_s"),
    ("gaussq.space_build", "calls"), ("gaussq.space_build", "self_s"),
    ("presets.flag_preset", "busy_s"), ("presets.j_derivation", "busy_s"), ("presets.symmetry_involution", "busy_s"),
    ("cralg.check_j_property", "busy_s"), ("cralg.check_cr_symmetric", "busy_s"),
    ("cralg.is_levi_nondegenerate", "busy_s"), ("cralg.is_fundamental_cr", "busy_s"),
    ("cralg.is_effective", "busy_s"), ("cralg.bracket", "calls"),
    ("realform.adapted_simple_system", "busy_s"),
    ("cli.main", "calls"), ("cli.main", "busy_s"),
)


class TracingIncomplete(RuntimeError):
    """A traced function is still reachable under a name that was not wrapped."""


class Tracer:
    def __init__(self):
        self.names = [name for _, _, name, _ in TRACED]
        n = len(self.names)
        self.on = False
        self.op = -1  # index of the operation in flight
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.child: list[float] = []
        self.depth = [0] * n
        self.calls = [0] * n
        self.busy = [0.0] * n
        self.self_time = [0.0] * n
        self.value = [0] * n

    def _wrap(self, sid, fn, observe):
        tr = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            idx = len(tr.span_start)
            tr.span_name.append(sid)
            tr.span_parent.append(tr.stack[-1] if tr.stack else -1)
            tr.span_op.append(tr.op)
            tr.span_start.append(0.0)
            tr.span_end.append(0.0)
            tr.stack.append(idx)
            tr.child.append(0.0)
            depth = tr.depth[sid]
            tr.depth[sid] = depth + 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                dur = t1 - t0
                tr.depth[sid] = depth
                tr.stack.pop()
                inner = tr.child.pop()
                if tr.child:
                    tr.child[-1] += dur
                tr.span_start[idx] = t0
                tr.span_end[idx] = t1
                tr.calls[sid] += 1
                tr.self_time[sid] += dur - inner
                if depth == 0:
                    tr.busy[sid] += dur
            if observe is not None:
                tr.value[sid] += observe(result)
            return result

        return traced

    def install(self):
        """Wrap every TRACED function, then check that no flagcr module still
        reaches an unwrapped original."""
        mods = [importlib.import_module(f"flagcr.{m}") for m in MODULES]
        originals = {}
        wrappers = set()
        for sid, (mod, path, name, observe) in enumerate(TRACED):
            owner = importlib.import_module(f"flagcr.{mod}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = owner.__dict__[attr]
            wrapper = self._wrap(sid, fn, observe)
            setattr(owner, attr, wrapper)
            originals[id(fn)] = (fn, name)
            wrappers.add(id(wrapper))
            if not outer:
                for m in mods:
                    for alias, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, alias, wrapper)
        missed = sorted(_unwrapped_bindings(mods, originals, wrappers))
        if missed:
            raise TracingIncomplete("unwrapped bindings of traced functions: " + ", ".join(missed))

    def metrics(self) -> dict:
        sid = {name: k for k, name in enumerate(self.names)}
        stats = {"calls": self.calls, "busy_s": self.busy, "self_s": self.self_time}
        out = {f"{span}.{stat}": stats[stat][sid[span]] for span, stat in SPAN_METRICS}

        def ratio(span):
            k = sid[span]
            return self.value[k] / self.calls[k] if self.calls[k] else 0.0

        out["qsets.fundamental_ratio"] = ratio("qsets.is_fundamental")
        out["weyl.in_weyl.accept_ratio"] = ratio("weyl.in_weyl")
        out["classify.cliques_found"] = self.value[sid["classify.maximal_cliques"]]
        out["weyl.set_orbit.nodes"] = self.value[sid["weyl.set_orbit"]]
        return out

    def write(self, base: str, pass_id: int):
        """Write the spans as <base>.json (header) and <base>.bin (arrays in
        the header's field order, native byte order)."""
        fields = ("span_name", "span_parent", "span_op", "span_start", "span_end")
        header = {"pass": pass_id, "names": self.names, "spans": len(self.span_start),
                  "fields": [[f, getattr(self, f).typecode] for f in fields]}
        with open(base + ".json", "w") as f:
            json.dump(header, f)
        with open(base + ".bin", "wb") as f:
            for field in fields:
                getattr(self, field).tofile(f)


def _unwrapped_bindings(mods, originals, wrappers):
    """Yield 'where' for each reference to an original found in module
    globals, one level into module-level containers, in class dicts, and in
    the defaults and closures of module-level functions other than the
    wrappers themselves."""

    def hits(value):
        if id(value) in originals and originals[id(value)][0] is value:
            yield originals[id(value)][1]
        if isinstance(value, (staticmethod, classmethod)):
            yield from hits(value.__func__)

    def scan_function(fn, where):
        for v in (fn.__defaults__ or ()) + tuple((fn.__kwdefaults__ or {}).values()):
            for h in hits(v):
                yield f"{where} default -> {h}"
        for cell in fn.__closure__ or ():
            try:
                content = cell.cell_contents
            except ValueError:
                continue
            for h in hits(content):
                yield f"{where} closure -> {h}"

    for m in mods:
        for name, value in vars(m).items():
            where = f"{m.__name__}.{name}"
            for h in hits(value):
                yield f"{where} -> {h}"
            if isinstance(value, dict):
                items = list(value.values()) + list(value.keys())
            elif isinstance(value, (list, tuple, set, frozenset)):
                items = list(value)
            else:
                items = []
            for item in items:
                for h in hits(item):
                    yield f"{where}[...] -> {h}"
            if hasattr(value, "__code__") and id(value) not in wrappers:
                yield from scan_function(value, where)
            if isinstance(value, type) and value.__module__ == m.__name__:
                for attr, member in vars(value).items():
                    for h in hits(member):
                        yield f"{where}.{attr} -> {h}"
