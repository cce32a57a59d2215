"""Layer tracing from outside the package.

``Tracer`` wraps public functions of the ``mcg_spinlab`` modules, rebinding each
wrapper in every ``mcg_spinlab`` module that holds the original, and restores
every binding on exit.  Source files are not touched.  Each wrapped call
records a span (name, start, end, parent span, request id) in memory; hot leaf
functions only bump a counter, so the traced run stays close to the untraced
one.  Size counters are computed from call arguments and results.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def _letters(args, result):
    return {"letters": len(args[0].twists)}


def _product_int(args, result):
    return {"letters": len(args[0].twists), "dim_max": args[0].basis.dim}


def _region(args, result):
    m_max = args[0]
    return {"candidates": sum(16 * m // 3 + 1 for m in range(m_max + 1)), "points": len(result)}


def _cokernel(args, result):
    return {"rows_max": len(args[0]), "cols_max": args[1]}


def _snf(args, result):
    # entries of the U and V transforms that cokernel discards: rows^2 + cols^2
    rows = len(args[0])
    cols = len(args[0][0]) if rows else 0
    return {"transform_entries": rows * rows + cols * cols}


def _h1(args, result):
    z = result.coefficients == "Z"
    return {"z_calls": int(z), "z2_calls": int(not z)}


# Size counters ending in these suffixes keep the largest value; the others add up.
MAXED = ("_max", "transform_entries")

# (module, attribute, size counter, its keys); "Class.method" attributes are patched on the class.
SPANNED = (
    ("homology", "IntMatrix.__matmul__", None, ()),
    ("homology", "IntMatrix.symplectic_inverse", None, ()),
    ("homology", "transvection_matrix", None, ()),
    ("factorization", "product_matrix_int", _product_int, ("letters", "dim_max")),
    ("factorization", "product_matrix_mod2", _letters, ("letters",)),
    ("factorization", "conjugate", _letters, ("letters",)),
    ("factorization", "breed", None, ()),
    ("factorization", "boundary_block_occurrences", None, ()),
    ("factorization", "fiber_sum", None, ()),
    ("factorization", "check_spin", None, ()),
    ("invariants", "signature_meyer", _letters, ("letters",)),
    ("invariants", "meyer_cocycle", None, ()),
    ("invariants", "invariants_of", None, ()),
    ("invariants", "enumerate_region", _region, ("candidates", "points")),
    ("presentations", "cokernel", _cokernel, ("rows_max", "cols_max")),
    ("presentations", "smith_normal_form", _snf, ("transform_entries",)),
    ("presentations", "fibration_h1", _h1, ("z_calls", "z2_calls")),
    ("presentations", "normalize_presentation", None, ()),
    ("presentations", "abelianization", None, ()),
    ("constructions", "spin_fibration_with_group", None, ()),
    ("constructions", "bred_fibration", None, ()),
    ("cli", "main", None, ()),
    ("cli", "golden_suite", None, ()),
)
COUNTED = (
    ("homology", "transvect"),
    ("homology", "transvect_inverse"),
    ("homology", "intersect"),
)
# The lru_cache catalog builders of ``constructions`` are found at install time
# and reported together as ``constructions.catalog``.
CATALOG_MODULE = "constructions"
REQUEST = "request"


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.replace('__matmul__', 'matmul')}"


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that child spans cover."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child in sorted(children[index], key=lambda c: spans[c][1]):
            lo = max(spans[child][1], cursor)
            hi = min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


class Tracer:
    """Context manager that installs the wrappers on the loaded ``mcg_spinlab`` modules."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self.counts: dict[str, int] = defaultdict(int)
        self.stats: dict[str, float] = {}
        self.request_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._catalog: dict[str, object] = {}
        self._cache_before: dict[str, tuple[int, int]] = {}

    # --- install / restore ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "mcg_spinlab" or name.startswith("mcg_spinlab."))]
        owner = {name.rsplit(".", 1)[-1]: m for name, m in sys.modules.items()
                 if name.startswith("mcg_spinlab.")}
        self._catalog = {name: fn for name, fn in vars(owner[CATALOG_MODULE]).items()
                         if callable(getattr(fn, "cache_info", None))}
        self._cache_before = {name: self._cache_counts(fn) for name, fn in self._catalog.items()}
        targets = list(SPANNED) + [(CATALOG_MODULE, name, None, ()) for name in self._catalog]
        try:
            for module, attr, stat, keys in targets:
                name = span_name(module, attr)
                for key in keys:
                    self.stats[f"{name}.{key}"] = 0
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(owner[module], cls_name)
                    self._rebind(cls, method, self._span_wrapper(name, vars(cls)[method], stat))
                else:
                    original = getattr(owner[module], attr)
                    self._rebind_everywhere(modules, original, self._span_wrapper(name, original, stat))
            for module, attr in COUNTED:
                original = getattr(owner[module], attr)
                self._rebind_everywhere(modules, original, self._counter_wrapper(span_name(module, attr), original))
        except BaseException:
            self._unwind()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._unwind()
        hits = misses = 0
        for name, fn in self._catalog.items():
            now = self._cache_counts(fn)
            hits += now[0] - self._cache_before[name][0]
            misses += now[1] - self._cache_before[name][1]
        self.stats["constructions.catalog.hits"] = hits
        self.stats["constructions.catalog.misses"] = misses

    def _rebind(self, holder, key, value) -> None:
        self._restore.append((holder, key, vars(holder)[key]))
        setattr(holder, key, value)

    def _rebind_everywhere(self, modules, original, wrapper) -> None:
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._rebind(module, key, wrapper)

    def _unwind(self) -> None:
        while self._restore:
            holder, key, value = self._restore.pop()
            setattr(holder, key, value)

    @staticmethod
    def _cache_counts(fn) -> tuple[int, int]:
        info = fn.cache_info()
        return info.hits, info.misses

    # --- wrappers ------------------------------------------------------------------

    def _span_wrapper(self, name, fn, stat):
        spans, stack, stats = self.spans, self._stack, self.stats

        def wrapper(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.request_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if stat is not None:
                for key, value in stat(args, result).items():
                    key = f"{name}.{key}"
                    stats[key] = max(stats[key], value) if key.endswith(MAXED) else stats[key] + value
            return result

        return wrapper

    def _counter_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def request(self, request_id: int):
        """Root span of one request; layer spans opened inside it become its children."""
        self.request_id = request_id
        span = [REQUEST, perf_counter(), 0.0, -1, request_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    # --- results -------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer numbers: calls and self time per span name, counters, size counters."""
        out: dict[str, float] = {}
        for module, attr, _, _ in SPANNED:
            out[span_name(module, attr) + ".calls"] = 0
            out[span_name(module, attr) + ".self_s"] = 0.0
        catalog = {span_name(CATALOG_MODULE, name) for name in self._catalog}
        out["constructions.catalog.self_s"] = 0.0
        wall = layer_self = 0.0
        for span, own in zip(self.spans, self_times(self.spans)):
            name = span[0]
            if name == REQUEST:
                wall += span[2] - span[1]
                continue
            layer_self += own
            if name in catalog:
                out["constructions.catalog.self_s"] += own
            else:
                out[name + ".calls"] += 1
                out[name + ".self_s"] += own
        for module, attr in COUNTED:
            out[span_name(module, attr) + ".calls"] = self.counts[span_name(module, attr)]
        out.update(self.stats)
        lookups = out["constructions.catalog.hits"] + out["constructions.catalog.misses"]
        out["constructions.catalog.hit_ratio"] = out["constructions.catalog.hits"] / lookups if lookups else 0.0
        candidates = out["invariants.enumerate_region.candidates"]
        out["invariants.enumerate_region.yield"] = (
            out["invariants.enumerate_region.points"] / candidates if candidates else 0.0)
        out["trace.wall_s"] = wall
        out["trace.layer_self_s"] = layer_self
        return out

    def write_spans(self, path: str) -> None:
        """One JSON line per span: name, start, end, self time, parent index, request id."""
        with open(path, "w") as fh:
            for (name, start, end, parent, request_id), own in zip(self.spans, self_times(self.spans)):
                fh.write(json.dumps({"name": name, "start": start, "end": end, "self": own,
                                     "parent": parent, "request": request_id}) + "\n")
