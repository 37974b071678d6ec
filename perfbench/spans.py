"""Span tracing of coulombstar's public names, from outside the package.

`installed(tracer)` rebinds each traced function in every coulombstar module
that holds it (``analytic.eval_g`` and ``series.eval_g`` are separate
bindings of one function), the three Horner methods on ``CoefficientTable``
and ``numpy.roots``, which ``zeros`` reaches through its ``np`` module.
Nothing under ``src/`` is edited.  Spans (name, start, end, parent) are kept
in flat arrays while the workload runs; self times are derived at the end.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

# (module, attribute) pairs wrapped as spans named "<module>.<attribute>".
TRACED_FUNCTIONS = (
    ("series", "make_coefficients"),
    ("series", "table_for_radius"),
    ("series", "normalization_constant"),
    ("series", "eval_g"),
    ("series", "eval_g_prime"),
    ("series", "eval_g_second"),
    ("series", "eval_f"),
    ("analytic", "eval_p"),
    ("zeros", "find_zeros"),
    ("zeros", "winding_number"),
    ("zeros", "product_convergence_report"),
    ("starlike", "certify"),
    ("starlike", "parameter_scan"),
    ("admissibility", "extremize"),
)
TRACED_METHODS = ("g_values", "g_prime_values", "g_second_values")

# Refusal classes each layer raises; any other class lands in "refused.other".
REFUSAL_CLASSES = {
    "series": ("NoConvergence", "InvalidParams", "PoleError", "BranchPoint"),
    "analytic": ("NearZeroOfG", "DomainError"),
    "zeros": ("NoConvergence", "WindingMismatch", "InvalidParams"),
    "starlike": ("InvalidParams", "ZeroInDisk"),
    "admissibility": ("DomainError",),
}


class Tracer:
    """In-memory span store plus counters taken at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.refused: Counter[str] = Counter()
        self._last_refusal: BaseException | None = None

    def intern(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def open(self, name_id: int) -> int:
        span = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(span)
        self.start.append(time.perf_counter())
        return span

    def close(self, span: int) -> None:
        self.end[span] = time.perf_counter()
        self._stack.pop()

    def inside(self, name: str) -> bool:
        """True when an open span carries this name."""
        target = self._index.get(name)
        return any(self.name[s] == target for s in self._stack)

    def refusal(self, span_name: str, exc: BaseException) -> None:
        """Count a typed refusal once, at the innermost span it left."""
        if exc is self._last_refusal:
            return
        self._last_refusal = exc
        layer = span_name.split(".", 1)[0]
        cls = type(exc).__name__
        if cls in REFUSAL_CLASSES.get(layer, ()):
            self.refused[f"{layer}.refused.{cls}"] += 1
        else:
            self.refused["refused.other"] += 1

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block of the benchmark's own code."""
        span = self.open(self.intern(name))
        try:
            yield
        finally:
            self.close(span)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        n = len(self.start)
        out: dict[str, dict[str, float]] = {}
        if n == 0:
            return out
        names = np.frombuffer(self.name, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        self_s = np.bincount(names, weights=own, minlength=k)
        for i, name in enumerate(self.names):
            out[name] = {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(self_s[i]),
            }
        return out

    def dump(self, path) -> None:
        """Write every span as (name, start, end, parent) to a compressed file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )


def _count_table(tracer: Tracer, args, out) -> None:
    tracer.counters["series.table_order_sum"] += out.order


def _horner_counter(prefix: str, counts_grid: bool):
    def count(tracer: Tracer, args, out) -> None:
        table, z = args[0], args[1]
        points = int(np.size(z))
        c = tracer.counters
        c[f"{prefix}.points"] += points
        # computed, not measured: one multiply-add per coefficient per point
        c["series.horner_madds"] += points * len(table.coeffs)
        if counts_grid and tracer.inside("starlike.certify"):
            c["starlike.grid_points"] += points

    return count


def _count_roots(tracer: Tracer, args, out) -> None:
    tracer.counters["zeros.np_roots.seeds"] += len(out)


def _count_zeros(tracer: Tracer, args, out) -> None:
    tracer.counters["zeros.found"] += len(out.zeros)


def _count_certify(tracer: Tracer, args, out) -> None:
    tracer.counters["starlike.certified"] += bool(out.certified)


COUNTERS = {
    "series.table_for_radius": _count_table,
    "series.g_values": _horner_counter("series.g_values", True),
    "series.g_prime_values": _horner_counter("series.g_prime_values", False),
    "series.g_second_values": _horner_counter("series.g_second_values", False),
    "zeros.np_roots": _count_roots,
    "zeros.find_zeros": _count_zeros,
    "starlike.certify": _count_certify,
}


def _wrap(tracer: Tracer, name: str, fn, refusal_type):
    name_id = tracer.intern(name)
    count = COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(name_id)
        try:
            out = fn(*args, **kwargs)
        except refusal_type as exc:
            tracer.close(span)
            tracer.refusal(name, exc)
            raise
        except BaseException:
            tracer.close(span)
            raise
        tracer.close(span)
        if count is not None:
            count(tracer, args, out)
        return out

    return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Rebind every traced name for the duration of the block."""
    from coulombstar import series
    from coulombstar.errors import CoulombError

    modules = [m for key, m in sys.modules.items()
               if m is not None and (key == "coulombstar" or key.startswith("coulombstar."))]
    originals = {}
    for module_name, attr in TRACED_FUNCTIONS:
        fn = getattr(sys.modules[f"coulombstar.{module_name}"], attr)
        originals[id(fn)] = (fn, _wrap(tracer, f"{module_name}.{attr}", fn, CoulombError))
    restore = []
    for module in modules:
        for key, value in list(vars(module).items()):
            if callable(value) and id(value) in originals and originals[id(value)][0] is value:
                restore.append((module, key, value))
                setattr(module, key, originals[id(value)][1])
    table_cls = series.CoefficientTable
    for method in TRACED_METHODS:
        fn = getattr(table_cls, method)
        restore.append((table_cls, method, fn))
        setattr(table_cls, method, _wrap(tracer, f"series.{method}", fn, CoulombError))
    restore.append((np, "roots", np.roots))
    np.roots = _wrap(tracer, "zeros.np_roots", np.roots, CoulombError)
    try:
        yield tracer
    finally:
        for owner, key, value in reversed(restore):
            setattr(owner, key, value)
