"""Per-layer tracing of quiver_orders from outside the package.

`Tracer.install` wraps public functions of each module in a span recorder and
rebinds every module attribute that names the original function, because the
package imports names with `from .x import y` (so `reps.rref`,
`flag_fibers.nullspace`, `pbw.rank`'s `rref`, ... are separate bindings).
Cached functions are wrapped outside their cache.  `flag_fibers._count` is the
one private name wrapped: its recursion looks the name up as a module global,
so every recursion node becomes a span.

A span is (name, start, end, parent span, run id).  Spans are kept in flat
arrays while the pass runs and written out by `write_spans` afterwards.  Self
time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

PACKAGE = "quiver_orders"

# (module, function, span name); linalg.rref is named per field kind at call time.
WRAPPED = (
    ("cli", "main", "cli.main"),
    ("linalg", "rref", None),
    ("linalg", "nullspace", "linalg.nullspace"),
    ("fields", "galois_field", "fields.galois_field"),
    ("reps", "hom_dim", "reps.hom_dim"),
    ("reps", "bgp_reflect_rep", "reps.bgp_reflect_rep"),
    ("reps", "iso_class", "reps.iso_class"),
    ("reps", "rep_of_kp", "reps.rep_of_kp"),
    ("reps", "all_indecomposables", "reps.all_indecomposables"),
    ("reps", "hom_matrix", "reps.hom_matrix"),
    ("reps", "orbit_point_count", "reps.orbit_point_count"),
    ("flag_fibers", "fiber_point_count", "flag_fibers.fiber_point_count"),
    ("flag_fibers", "_count", "flag_fibers.count"),
    ("flag_fibers", "lagrange_coefficients", "flag_fibers.lagrange"),
    ("kostant", "enumerate_kp", "kostant.enumerate_kp"),
    ("kostant", "kp_leq", "kostant.kp_leq"),
    ("kostant", "cover_relations", "kostant.cover_relations"),
    ("kostant", "achievable_prefix_sums", "kostant.achievable_prefix_sums"),
    ("kostant", "mackey_dominance_check", "kostant.mackey_dominance_check"),
    ("geometry", "hom_profile", "geometry.hom_profile"),
    ("geometry", "closure_leq", "geometry.closure_leq"),
    ("geometry", "baumann_check", "geometry.baumann_check"),
    ("geometry", "calibrate", "geometry.calibrate"),
    ("geometry", "ringel_check", "geometry.ringel_check"),
    ("pbw", "verify_reflection", "pbw.verify_reflection"),
    ("pbw", "order_compat", "pbw.order_compat"),
    ("convex_order", "adapted_order", "convex_order.adapted_order"),
    ("quivers", "adapted_word_of_w0", "quivers.adapted_word_of_w0"),
)

# Module-level functools caches; a CLI invocation starts with all of them empty.
CACHED = (
    ("reps", "hom_matrix"),
    ("reps", "all_indecomposables"),
    ("convex_order", "adapted_order"),
    ("quivers", "adapted_word_of_w0"),
    ("fields", "galois_field"),
    ("kostant", "_nat_span_contains"),
)

_MARK = "__layer_trace_original__"


def _module(name: str):
    return importlib.import_module(f"{PACKAGE}.{name}")


def warm_caches() -> list[str]:
    """Names of the module caches that are not empty."""
    return [
        f"{mod}.{fn}"
        for mod, fn in CACHED
        if getattr(_module(mod), fn).cache_info().currsize != 0
    ]


def _package_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    ]


def leftover_wrappers() -> list[str]:
    """Attributes of package modules that are still tracing wrappers."""
    return [
        f"{mod.__name__}.{attr}"
        for mod in _package_modules()
        for attr, value in vars(mod).items()
        if hasattr(value, _MARK)
    ]


def _root_system_functions():
    rs = _module("root_system")
    return [
        ("root_system", attr, f"root_system.{attr}")
        for attr, value in vars(rs).items()
        if callable(value)
        and not attr.startswith("_")
        and not isinstance(value, type)
        and getattr(value, "__module__", None) == rs.__name__
    ]


def _field_kind(F) -> str:
    if F.order is None:
        return "q"
    return "fp" if type(F).__name__ == "PrimeField" else "gf"


class Tracer:
    """Records spans for the wrapped functions of one pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.outer = array("b")  # 1 when no enclosing span has the same name
        self._stack = [-1]
        self._depth: list[int] = []
        self.rref_cells = {"q": 0, "fp": 0, "gf": 0}
        self.partitions = 0
        self.max_k = 0
        self.count_keys: set = set()
        self.profile_keys: set = set()
        self._bindings: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}

    def _id(self, name: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return sid

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        depth = self._depth[name_id]
        self.outer.append(depth == 0)
        self._depth[name_id] = depth + 1
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._depth[self.name_of[idx]] -= 1

    def _wrapper(self, fn, name: str | None, note):
        tracer = self
        if name is None:  # linalg.rref: span name depends on the field
            ids = {k: self._id(f"linalg.rref.{k}") for k in ("q", "fp", "gf")}
            cells = self.rref_cells

            def wrapper(F, A, ncols=None):
                kind = _field_kind(F)
                cells[kind] += len(A) * (len(A[0]) if A else (ncols or 0))
                idx = tracer._open(ids[kind])
                try:
                    return fn(F, A, ncols)
                finally:
                    tracer._close(idx)

        else:
            sid = self._id(name)

            def wrapper(*args, **kwargs):
                idx = tracer._open(sid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
                if note is not None:
                    note(args, kwargs, result)
                return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    def _notes(self):
        def enumerate_kp(args, kwargs, result):
            self.partitions += len(result)

        def cover_relations(args, kwargs, result):
            self.max_k = max(self.max_k, len(args[0]))

        def count(args, kwargs, result):
            Q, F, dims, mats = args
            self.count_keys.add((Q, F, dims, mats))

        def hom_profile(args, kwargs, result):
            lam = args[0]
            field = args[1] if len(args) > 1 else kwargs.get("field")
            self.profile_keys.add((lam.order.quiver, lam.order.word, lam.counts, field))

        return {
            "kostant.enumerate_kp": enumerate_kp,
            "kostant.cover_relations": cover_relations,
            "flag_fibers.count": count,
            "geometry.hom_profile": hom_profile,
        }

    def install(self) -> None:
        """Wrap every listed function and rebind each module name bound to it."""
        if self._bindings:
            raise RuntimeError("tracer already installed")
        notes = self._notes()
        targets = [*WRAPPED, *_root_system_functions()]
        modules = _package_modules()
        for mod_name, attr, name in targets:
            original = getattr(_module(mod_name), attr)
            self._originals[f"{mod_name}.{attr}"] = original
            wrapper = self._wrapper(original, name, notes.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bindings.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._bindings):
            setattr(mod, key, original)
        self._bindings.clear()

    def cache_counts(self) -> dict[str, int]:
        out = {}
        for key in ("reps.all_indecomposables", "reps.hom_matrix"):
            info = self._originals[key].cache_info()
            out[f"{key}.hits"] = info.hits
            out[f"{key}.misses"] = info.misses
        out["fields.galois_field.misses"] = (
            self._originals["fields.galois_field"].cache_info().misses
        )
        out["convex_order.adapted_order.misses"] = (
            self._originals["convex_order.adapted_order"].cache_info().misses
        )
        return out

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self time, and total time of outermost spans."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        stats = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in self.names}
        for i in range(n):
            s = stats[self.names[self.name_of[i]]]
            s["calls"] += 1
            s["self_s"] += dur[i] - child[i]
            if self.outer[i]:
                s["total_s"] += dur[i]
        return stats

    def write_spans(self, path) -> None:
        """One line per span: run id, span index, parent index, name, start, end."""
        names = self.names
        with open(path, "w") as out:
            out.write("run_id\tspan\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                out.write(
                    f"{self.run_id}\t{i}\t{self.parent[i]}\t{names[self.name_of[i]]}"
                    f"\t{self.start[i]!r}\t{self.end[i]!r}\n"
                )

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of one traced pass."""
        stats = self.summary()

        def get(name, field):
            return stats.get(name, {}).get(field, 0)

        m: dict[str, float] = {
            "cli.main.calls": get("cli.main", "calls"),
            "cli.main.self_s": get("cli.main", "self_s"),
        }
        for kind in ("q", "fp", "gf"):
            m[f"linalg.rref.calls.{kind}"] = get(f"linalg.rref.{kind}", "calls")
            m[f"linalg.rref.self_s.{kind}"] = get(f"linalg.rref.{kind}", "self_s")
            m[f"linalg.rref.cells.{kind}"] = self.rref_cells[kind]
        m["linalg.nullspace.calls"] = get("linalg.nullspace", "calls")
        m["fields.galois_field.self_s"] = get("fields.galois_field", "self_s")
        for fn in ("hom_dim", "bgp_reflect_rep", "iso_class", "rep_of_kp"):
            m[f"reps.{fn}.calls"] = get(f"reps.{fn}", "calls")
            m[f"reps.{fn}.self_s"] = get(f"reps.{fn}", "self_s")
        m["reps.all_indecomposables.total_s"] = get("reps.all_indecomposables", "total_s")
        m["reps.orbit_point_count.calls"] = get("reps.orbit_point_count", "calls")
        nodes = get("flag_fibers.count", "calls")
        m["flag_fibers.fiber_point_count.calls"] = get("flag_fibers.fiber_point_count", "calls")
        m["flag_fibers.fiber_point_count.total_s"] = get("flag_fibers.fiber_point_count", "total_s")
        m["flag_fibers.nodes"] = nodes
        m["flag_fibers.distinct_nodes"] = len(self.count_keys)
        m["flag_fibers.useful_ratio"] = len(self.count_keys) / nodes if nodes else 0.0
        m["flag_fibers.count.self_s"] = get("flag_fibers.count", "self_s")
        m["flag_fibers.lagrange.self_s"] = get("flag_fibers.lagrange", "self_s")
        m["kostant.enumerate_kp.calls"] = get("kostant.enumerate_kp", "calls")
        m["kostant.enumerate_kp.partitions"] = self.partitions
        m["kostant.enumerate_kp.self_s"] = get("kostant.enumerate_kp", "self_s")
        m["kostant.kp_leq.calls"] = get("kostant.kp_leq", "calls")
        m["kostant.kp_leq.self_s"] = get("kostant.kp_leq", "self_s")
        m["kostant.cover_relations.self_s"] = get("kostant.cover_relations", "self_s")
        m["kostant.cover_relations.max_k"] = self.max_k
        m["kostant.achievable_prefix_sums.self_s"] = get("kostant.achievable_prefix_sums", "self_s")
        m["kostant.mackey_dominance_check.self_s"] = get("kostant.mackey_dominance_check", "self_s")
        profiles = get("geometry.hom_profile", "calls")
        m["geometry.hom_profile.calls"] = profiles
        m["geometry.hom_profile.self_s"] = get("geometry.hom_profile", "self_s")
        m["geometry.hom_profile.useful_ratio"] = (
            len(self.profile_keys) / profiles if profiles else 0.0
        )
        m["geometry.closure_leq.calls"] = get("geometry.closure_leq", "calls")
        for fn in ("baumann_check", "calibrate", "ringel_check"):
            m[f"geometry.{fn}.self_s"] = get(f"geometry.{fn}", "self_s")
        m["pbw.verify_reflection.calls"] = get("pbw.verify_reflection", "calls")
        m["pbw.verify_reflection.self_s"] = get("pbw.verify_reflection", "self_s")
        m["pbw.order_compat.self_s"] = get("pbw.order_compat", "self_s")
        m["convex_order.adapted_order.total_s"] = get("convex_order.adapted_order", "total_s")
        m["quivers.adapted_word_of_w0.self_s"] = get("quivers.adapted_word_of_w0", "self_s")
        m["root_system.self_s"] = sum(
            s["self_s"] for name, s in stats.items() if name.startswith("root_system.")
        )
        m.update(self.cache_counts())
        return m
