"""Span recorder for the traced benchmark run.

Spans are recorded from outside the library: while a traced task runs, the
public functions named in ``TARGETS`` are replaced, in every module that
holds a reference to them, by wrappers that open and close a span and add
work counts.  Removing the wrappers restores the original objects, so an
untraced task runs the library exactly as shipped.

Each span is ``[id, parent id, task id, name, start s, end s]`` with times
from ``time.perf_counter``.  A span's self time is its duration minus the
durations of its direct children (calls are nested and single-threaded, so
children never overlap).  The benchmark wraps every task in a root span
named ``task``; its self time is the part of the task no named span covers
(``unattributed_ms``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter

from kernelblaschke.errors import KernelSpaceError
from kernelblaschke.spaces import BOUNDARY_TOL

# Pairings with |a| |b| at or above this count as near the boundary.
NEAR_BOUNDARY_RHO = 0.98

LIBRARY_MODULES = ("kernelblaschke", "kernelblaschke.spaces",
                   "kernelblaschke.kernels", "kernelblaschke.construct",
                   "kernelblaschke.verify", "kernelblaschke.cli",
                   "kernelblaschke.jsonio")


class Recorder:
    """In-memory spans and counters of one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.task_id = -1

    def open(self, name: str) -> list:
        parent = self.stack[-1][0] if self.stack else -1
        span = [len(self.spans), parent, self.task_id, name, perf_counter(), None]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[5] = perf_counter()
        self.stack.pop()

    def inside(self, name: str) -> bool:
        return any(span[3] == name for span in self.stack)

    def add(self, key: str, value: float = 1.0) -> None:
        self.counts[key] += value


# ---------------------------------------------------------------------------
# Span names and work counts for each wrapped function
# ---------------------------------------------------------------------------

PAIRING_REGIMES = ("kernels.kernel_pairing.interior",
                   "kernels.kernel_pairing.near_boundary",
                   "kernels.kernel_pairing.boundary")


def _pairing_regime(args, kwargs) -> str:
    a = args[1] if len(args) > 1 else kwargs["a"]
    b = args[2] if len(args) > 2 else kwargs["b"]
    rho = abs(a.point) * abs(b.point)
    if abs(rho - 1.0) <= BOUNDARY_TOL:
        return PAIRING_REGIMES[2]
    if rho >= NEAR_BOUNDARY_RHO:
        return PAIRING_REGIMES[1]
    return PAIRING_REGIMES[0]


_signature = functools.lru_cache(maxsize=None)(inspect.signature)


def _bound(fn, args, kwargs):
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _projection_counts(prefix: str, dense_gram: bool):
    """Rows of the shifted-multiple span and the dense flops it implies.

    Flops are computed from the shapes, not measured: a complex multiply-add
    is 8 real flops.  Diagonal spaces build ``(rows * w) @ rows^H``
    (rows^2 * width), non-diagonal ones ``rows @ G @ rows^H``
    (rows * width^2 + rows^2 * width), and the Cholesky factor adds rows^3/3.
    """
    def count(rec, fn, args, kwargs, out):
        arg = _bound(fn, args, kwargs)
        poly = arg.get("p", arg.get("f"))
        width = arg["M"] + 1
        rows = arg["M"] - poly.degree + 1
        space = arg["space"]
        if space.diagonal:
            macs = rows * rows * width
        else:
            macs = rows * width * width + rows * rows * width
        if dense_gram:
            macs += rows ** 3 / 3.0
        else:  # extremal sampling: one quadratic form per sample
            macs += arg["samples"] * rows * rows
            rec.add("verify.extremal_check.samples", arg["samples"])
        rec.add(prefix + ".rows", rows)
        rec.add("construct.projection.dense_flops_computed", 8.0 * macs)
    return count


def _count_combo_taylor(rec, fn, args, kwargs, out):
    rec.add("kernels.combo_taylor.coeffs", len(out.coefficients))


def _count_shift(rec, fn, args, kwargs, out):
    rec.add("kernels.shift_inner_product.coeffs",
            len(_bound(fn, args, kwargs)["B"].coefficients))


def _count_shapiro(rec, fn, args, kwargs, out):
    if _bound(fn, args, kwargs)["route"] == "determinant" and out.route == "solve":
        rec.add("construct.shapiro_shields.route_fallbacks")


def _count_gram(rec, fn, args, kwargs, out):
    n = len(_bound(fn, args, kwargs)["terms"])
    rec.add("construct.pairing_gram.entries", n * (n + 1) // 2)


def _count_dumps(rec, fn, args, kwargs, out):
    rec.add("jsonio.dumps_canonical.bytes", len(out))


def _count_roots(rec, fn, args, kwargs, out):
    if rec.inside("verify.zero_report"):
        rec.add("verify.zero_report.root_find_calls")
        rec.add("verify.zero_report.root_degree_sum", len(out))


# (module, attribute, span name or None for kernel_pairing's regimes, counter)
TARGETS = (
    ("kernelblaschke.kernels", "kernel_pairing", None, None),
    ("kernelblaschke.kernels", "combo_derivative_at",
     "kernels.combo_derivative_at", None),
    ("kernelblaschke.kernels", "combo_taylor", "kernels.combo_taylor",
     _count_combo_taylor),
    ("kernelblaschke.kernels", "shift_inner_product",
     "kernels.shift_inner_product", _count_shift),
    ("kernelblaschke.construct", "shapiro_shields", "construct.shapiro_shields",
     _count_shapiro),
    ("kernelblaschke.construct", "pairing_gram", "construct.pairing_gram",
     _count_gram),
    ("kernelblaschke.construct", "project_kernel_fd", "construct.project_kernel_fd",
     _projection_counts("construct.project_kernel_fd", True)),
    ("kernelblaschke.construct", "project_target_fd", "construct.project_target_fd",
     _projection_counts("construct.project_target_fd", True)),
    ("kernelblaschke.construct", "inner_projection_of",
     "construct.inner_projection_of",
     _projection_counts("construct.inner_projection_of", True)),
    ("kernelblaschke.construct", "classical_blaschke", "construct.closed_form", None),
    ("kernelblaschke.construct", "bergman_rational", "construct.closed_form", None),
    ("kernelblaschke.spaces", "reproducible_multiset",
     "spaces.reproducible_multiset", None),
    ("kernelblaschke.verify", "zero_report", "verify.zero_report", None),
    ("kernelblaschke.verify", "inner_report", "verify.inner_report", None),
    ("kernelblaschke.verify", "subspace_equal", "verify.subspace_equal", None),
    ("kernelblaschke.verify", "extremal_check", "verify.extremal_check",
     _projection_counts("verify.extremal_check", False)),
    ("kernelblaschke.verify", "scalar_multiple_check",
     "verify.scalar_multiple_check", None),
    ("kernelblaschke.cli", "run_experiment", "cli.run_experiment", None),
    ("kernelblaschke.jsonio", "dumps_canonical", "jsonio.dumps_canonical",
     _count_dumps),
    ("kernelblaschke.jsonio", "atomic_write_text", "jsonio.atomic_write_text", None),
    ("numpy", "roots", "numpy.roots", _count_roots),
    ("numpy.polynomial.polynomial", "polyder", "numpy.polynomial.polyder_polyval",
     None),
    ("numpy.polynomial.polynomial", "polyval", "numpy.polynomial.polyder_polyval",
     None),
)

# Span time that is also credited to a named stage while inside another span.
NESTED_TIMES = (
    ("numpy.roots", "verify.zero_report", "verify.zero_report.root_find_ms"),
    ("numpy.polynomial.polyder_polyval", "verify.subspace_equal",
     "verify.subspace_equal.poly_eval_ms"),
)


def _wrap(rec: Recorder, fn, name, counter):
    nested = [(inner, key) for span, inner, key in NESTED_TIMES if span == name]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.open(name or _pairing_regime(args, kwargs))
        try:
            out = fn(*args, **kwargs)
        except KernelSpaceError:
            if name is None:
                rec.add("kernels.kernel_pairing.refused")
            raise
        finally:
            rec.close(span)
            for inner, key in nested:
                if rec.inside(inner):
                    rec.add(key, 1e3 * (span[5] - span[4]))
        if counter is not None:
            counter(rec, fn, args, kwargs, out)
        return out

    return wrapper


class Patch:
    """Installs the wrappers of one recorder; ``remove`` undoes it."""

    def __init__(self, rec: Recorder):
        modules = [importlib.import_module(m) for m in LIBRARY_MODULES]
        self.replaced: list[tuple] = []
        wrappers = {}
        for module_name, attr, name, counter in TARGETS:
            home = importlib.import_module(module_name)
            orig = getattr(home, attr)
            wrappers[orig] = _wrap(rec, orig, name, counter)
            for module in dict.fromkeys([home] + modules):
                if getattr(module, attr, None) is orig:
                    self.replaced.append((module, attr, orig))
        self._wrappers = [(m, a, wrappers[o]) for m, a, o in self.replaced]

    def install(self) -> None:
        for module, attr, wrapper in self._wrappers:
            setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, orig in self.replaced:
            setattr(module, attr, orig)


# ---------------------------------------------------------------------------
# Aggregation and sidecar
# ---------------------------------------------------------------------------

SPAN_NAMES = tuple(dict.fromkeys(
    name for _, _, span, _ in TARGETS
    for name in ((span,) if span else PAIRING_REGIMES)))

COUNT_NAMES = (
    "verify.zero_report.root_find_calls", "verify.zero_report.root_degree_sum",
    "kernels.kernel_pairing.refused", "kernels.combo_taylor.coeffs",
    "kernels.shift_inner_product.coeffs", "construct.project_kernel_fd.rows",
    "construct.project_target_fd.rows", "construct.inner_projection_of.rows",
    "construct.projection.dense_flops_computed", "verify.extremal_check.samples",
    "construct.shapiro_shields.route_fallbacks", "construct.pairing_gram.entries",
    "jsonio.dumps_canonical.bytes",
)


def per_layer(rec: Recorder) -> dict[str, float]:
    """Calls, self and total times per span name, work counts, and shares."""
    child_time = defaultdict(float)
    for span in rec.spans:
        if span[1] >= 0:
            child_time[span[1]] += span[5] - span[4]
    calls = defaultdict(int)
    self_ms = defaultdict(float)
    total_ms = defaultdict(float)
    for span in rec.spans:
        dur = span[5] - span[4]
        calls[span[3]] += 1
        self_ms[span[3]] += 1e3 * (dur - child_time[span[0]])
        total_ms[span[3]] += 1e3 * dur
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_ms"] = self_ms[name]
    for name in COUNT_NAMES:
        out[name] = rec.counts[name]
    root_find = rec.counts["verify.zero_report.root_find_ms"]
    poly_eval = rec.counts["verify.subspace_equal.poly_eval_ms"]
    task_ms = total_ms["task"]
    out["verify.zero_report.root_find_ms"] = root_find
    out["verify.zero_report.certify_ms"] = total_ms["verify.zero_report"] - root_find
    out["verify.zero_report.root_find_share"] = root_find / task_ms if task_ms else 0.0
    out["verify.subspace_equal.total_ms"] = total_ms["verify.subspace_equal"]
    out["verify.subspace_equal.poly_eval_ms"] = poly_eval
    out["verify.subspace_equal.poly_eval_share"] = (
        poly_eval / total_ms["verify.subspace_equal"]
        if total_ms["verify.subspace_equal"] else 0.0)
    out["traced_task_ms"] = task_ms
    out["unattributed_ms"] = self_ms["task"]
    return out


def write_sidecar(rec: Recorder, path, header: dict) -> None:
    """JSON Lines: a header object, then one span array per line (times in ms)."""
    t0 = rec.spans[0][4] if rec.spans else 0.0
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({**header, "fields": [
            "id", "parent", "task", "name", "start_ms", "end_ms"]}) + "\n")
        for sid, parent, task, name, start, end in rec.spans:
            handle.write(json.dumps([sid, parent, task, name,
                                     round(1e3 * (start - t0), 6),
                                     round(1e3 * (end - t0), 6)]) + "\n")

