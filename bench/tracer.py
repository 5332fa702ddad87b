"""Spans around the calls into spinorlab's layers, kept in memory.

``Tracer.install`` wraps every public function of each layer module and puts
the wrapper wherever the original is looked up: the module attribute, each
``from .x import f`` binding in another spinorlab module (``homotopy``'s
``decompose`` and ``classify_by_coefficients``, the ``compute`` of ``rim`` and
``mdo``, ``cli.run_suites``) and the references held in ``suites.SUITES``.
Patching the module attribute alone would miss those bindings.

A call opens a span only when it crosses into another layer, so a layer's
calls to itself stay inside its own span.  A span records its name, its
parent span, start, end, the rows it was handed and whether it raised.
A layer's self time is the sum over its spans of the span's duration minus
the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from time import perf_counter

import numpy as np

LAYERS = ("io", "bilinear", "lounesto", "plane", "rim", "homotopy", "mdo", "clifford", "generators", "suites", "cli")
SUITE_NAMES = ("clifford", "fpk", "rim", "plane", "homotopy", "mdo", "props")

OK, ROW_ERROR, CRASH = 0, 1, 2


@dataclass(slots=True)
class Span:
    name: str
    layer: str
    parent: int  # index of the parent span, -1 for a root
    start: float
    end: float = 0.0
    rows: int = 1
    status: int = OK
    value: int = 0  # flagged rows or report bytes, where the layer has them


def _rows(args) -> int:
    """Rows handed to a call: the leading dimension of a stacked first
    argument (an array or a dict of arrays), else one."""
    if not args:
        return 1
    first = args[0]
    if isinstance(first, dict):
        first = first.get("J", first.get("A"))
    if isinstance(first, np.ndarray) and first.ndim >= 2:
        return int(first.shape[0])
    return 1


def _flagged(result) -> int:
    return int(np.sum(result))


def _text_bytes(result) -> int:
    return len(result.encode()) if isinstance(result, str) else 0


# Layer functions whose result carries a count worth keeping.
MEASURES = {
    "lounesto.near_degenerate": _flagged,
    "lounesto.bilinears_near_degenerate": _flagged,
    "io.write_report": _text_bytes,
}


def _layer_of(module_layer: str, attr: str) -> str:
    if module_layer == "suites" and attr.startswith("suite_"):
        return f"suites.{attr[len('suite_'):]}"
    return module_layer


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[dict, str, object]] = []
        self.names: set[str] = set()

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        import spinorlab.cli  # noqa: F401  (imports every layer)
        from spinorlab.errors import SpinorlabError

        modules = [m for k, m in sorted(sys.modules.items()) if k == "spinorlab" or k.startswith("spinorlab.")]
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = sys.modules[f"spinorlab.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                self.names.add(name)
                wrappers[id(obj)] = (obj, self._wrap(obj, name, _layer_of(layer, attr), SpinorlabError))

        suites = sys.modules["spinorlab.suites"]
        for namespace in [vars(m) for m in modules] + [suites.SUITES]:
            for key, obj in list(namespace.items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((namespace, key, obj))
                    namespace[key] = hit[1]

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._patched):
            namespace[key] = original
        self._patched.clear()

    def _wrap(self, fn, name: str, layer: str, row_error: type):
        spans, stack = self.spans, self._stack
        measure = MEASURES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]].layer == layer:
                return fn(*args, **kwargs)
            span = Span(name, layer, stack[-1] if stack else -1, 0.0, rows=_rows(args))
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except row_error:
                span.end = perf_counter()
                span.status = ROW_ERROR
                raise
            except BaseException:
                span.end = perf_counter()
                span.status = CRASH
                raise
            finally:
                stack.pop()
            span.end = perf_counter()
            if measure is not None:
                span.value = measure(result)
            return result

        return traced

    # -- results ------------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()

    def aggregate(self) -> dict[str, float]:
        return aggregate(self.spans, self.names)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(span)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((span.end - span.start) - covered)
    return out


def aggregate(spans: list[Span], names: set[str] = frozenset()) -> dict[str, float]:
    """Per-layer and per-function totals.  Every layer and every known
    function gets its keys, zero when it was never entered."""
    layers = set(LAYERS) | {f"suites.{s}" for s in SUITE_NAMES} | {s.layer for s in spans}
    functions = set(names) | {s.name for s in spans}
    out: dict[str, float] = {}
    for key in layers:
        out.update({f"{key}.self_s": 0.0, f"{key}.calls": 0, f"{key}.rows": 0, f"{key}.row_errors": 0})
    for key in functions:
        out.update({f"{key}.self_s": 0.0, f"{key}.calls": 0})
    out["lounesto.flagged"] = 0
    out["io.report_bytes"] = 0
    for span, own in zip(spans, self_times(spans)):
        for key in (span.layer, span.name):
            out[f"{key}.self_s"] += own
            out[f"{key}.calls"] += 1
        out[f"{span.layer}.rows"] += span.rows
        out[f"{span.layer}.row_errors"] += span.status == ROW_ERROR
        if span.name.startswith("lounesto."):
            out["lounesto.flagged"] += span.value
        if span.name.startswith("io."):
            out["io.report_bytes"] += span.value
    for key in layers:
        calls = out[f"{key}.calls"]
        out[f"{key}.rows_per_call"] = out[f"{key}.rows"] / calls if calls else 0.0
    return out
