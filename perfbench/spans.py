"""Outside-in layer tracing for fiblike.

Timing wrappers are installed around the public functions of each layer
(module) from the benchmark side; nothing inside ``src/`` changes.  A
wrapper is bound under every name, in every loaded ``fiblike`` module,
that refers to the original function: ``cli`` and ``convergence`` import
``terms`` by name and ``identities`` imports it as ``seq_terms``, so
patching ``fiblike.sequences`` alone would miss those calls.

Each call becomes a span record (name, start, end, parent) kept in flat
arrays.  Spans nest through a stack; a span's self time is its duration
minus the durations of its direct child spans, so work done in code that
is not wrapped (mpmath, ``fractions``, spec constructors) counts inside
the layer that called it.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

LAYERS = ("rationals", "sequences", "identities", "charpoly", "convergence", "cli")

_DECOMPOSE = (
    "decompose_canonical",
    "decompose_knacci_like",
    "decompose_horadam_like",
    "decompose_periodic2",
    "decompose_periodic2_edson",
    "periodic2_swap_relation",
    "decompose_periodic3",
    "decompose_periodic_k",
)

# layer -> {function name: span name}; several functions may share a span.
SPAN_NAMES = {
    "rationals": {
        "as_rationals": "rationals.as_rationals",
        "parse_rational_list": "rationals.parse_rational_list",
        "format_rational": "rationals.format_rational",
    },
    "sequences": {
        "evaluate": "sequences.evaluate",
        "terms": "sequences.terms",
        "evaluate_fast": "sequences.evaluate_fast",
        "knacci_spec": "sequences.spec_build",
        "horadam_spec": "sequences.spec_build",
        "periodic_spec": "sequences.spec_build",
        "periodic_basis": "sequences.spec_build",
    },
    "identities": {name: "identities.decompose" for name in _DECOMPOSE},
    "charpoly": {
        "dominant_root": "charpoly.dominant_root",
        "all_roots": "charpoly.all_roots",
        "dresden_round": "charpoly.dresden_round",
    },
    "convergence": {
        "ratio_limit": "convergence.ratio_limit",
        "ratio_limit_reference": "convergence.ratio_limit_reference",
    },
    "cli": {"main": "cli.main"},
}

SPANS = tuple(dict.fromkeys(span for table in SPAN_NAMES.values() for span in table.values()))

REPEAT_SPAN = "charpoly.dominant_root"


def _empty() -> dict:
    return {span: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for span in SPANS}


def _root_key(arguments: dict) -> str:
    poly = arguments["poly"]
    return f"{poly.k}|{','.join(str(q) for q in poly.coeffs)}|{arguments['precision']}"


class Tracer:
    """Span recorder; :meth:`install` patches fiblike, :meth:`remove` undoes it."""

    def __init__(self) -> None:
        self._span_ids: dict[str, int] = {}
        self._names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.root_keys: list[str] = []

    def _wrap(self, span: str, fn):
        span_id = self._span_ids.setdefault(span, len(self._names))
        if span_id == len(self._names):
            self._names.append(span)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter
        signature = inspect.signature(fn) if span == REPEAT_SPAN else None
        keys = self.root_keys

        def wrapper(*args, **kwargs):
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                keys.append(_root_key(bound.arguments))
            index = len(starts)
            names.append(span_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == "fiblike" or name.startswith("fiblike."))
        ]
        for layer, table in SPAN_NAMES.items():
            home = sys.modules.get(f"fiblike.{layer}")
            for attr, span in table.items():
                fn = getattr(home, attr, None)
                if not callable(fn):
                    continue
                wrapper = self._wrap(span, fn)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            self._patches.append((module, key, fn))
                            setattr(module, key, wrapper)

    def remove(self) -> None:
        for module, key, fn in reversed(self._patches):
            setattr(module, key, fn)
        self._patches.clear()

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        count = len(self.start)
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        spans = _empty()
        for i in range(count):
            duration = self.end[i] - self.start[i]
            entry = spans[self._names[self.name[i]]]
            entry["calls"] += 1
            entry["incl_s"] += duration
            entry["self_s"] += duration - child[i]
        return {"spans": spans, "root_keys": list(self.root_keys)}


def layer_metrics(summary: dict) -> dict:
    """Per-layer metric values (calls, ms, shares) from a span summary."""
    spans = summary["spans"]
    out: dict[str, float] = {}
    for span in SPANS:
        out[f"{span}.calls"] = spans[span]["calls"]
        out[f"{span}.self_ms"] = spans[span]["self_s"] * 1e3
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = 1e3 * sum(spans[s]["self_s"] for s in SPANS if s.startswith(layer + "."))
    decompose = spans["identities.decompose"]
    out["identities.ms_per_witness"] = decompose["incl_s"] * 1e3 / decompose["calls"] if decompose["calls"] else 0.0
    keys = summary["root_keys"]
    out[f"{REPEAT_SPAN}.repeat_share"] = (len(keys) - len(set(keys))) / len(keys) if keys else 0.0
    return out


def retained_bytes() -> int:
    """Bytes reachable from fiblike's module-level state (its caches).

    Walks the object graph from every global of every loaded fiblike
    module, skipping dunder names, modules, classes, functions and objects
    of other packages (such as mpmath's context), and sums
    ``sys.getsizeof``.
    Unlike tracemalloc this costs nothing while the workload runs.
    """
    import gc
    import types

    skip = (types.ModuleType, type, types.FunctionType, types.BuiltinFunctionType, types.MethodType)

    def owned(value) -> bool:
        if isinstance(value, skip):
            return False
        module = getattr(type(value), "__module__", "") or ""
        if module.startswith("fiblike") or module == "builtins" or module.startswith("collections"):
            return True
        return (getattr(value, "__module__", None) or "").startswith("fiblike")  # e.g. lru_cache wrappers

    seen: set[int] = set()
    stack = [
        value
        for name, module in list(sys.modules.items())
        if module is not None and (name == "fiblike" or name.startswith("fiblike."))
        for key, value in vars(module).items()
        if not key.startswith("__") and owned(value)
    ]
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total
