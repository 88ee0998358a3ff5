"""Spans and counts at the module boundaries of letterbraid, for the
traced run.

The tracer wraps public functions from outside the package: every module
of the package that binds the same function object gets the wrapper, so a
name imported with ``from .rings import rref`` is traced where it is
called.  A name that no longer exists is reported as absent, with zero
metrics, instead of failing the run.  Per-scalar ring operations are never
wrapped.

A span records (name, item, start, end, parent).  Self time is a span's
duration minus the durations of its child spans.  Work the tracer does for
its own statistics is charged to no span.
"""

import json
import sys
import time

# (module, attribute) pairs that get a span.  "Class.method" wraps a
# method; "Class.__init__" is reported under the class name.
SPANS = [
    ("rings", "rref"), ("rings", "row_hermite"), ("rings", "elementary_divisors"),
    ("rings", "kernel_basis"), ("rings", "membership"),
    ("presented", "TruncatedQuotient.__init__"),
    ("presented", "TruncatedQuotient.normal_form"),
    ("presented", "TruncatedQuotient.filtration_valuation"),
    ("presented", "build_truncated_quotient"), ("presented", "invariants_basis"),
    ("presented", "pair"), ("presented", "is_invariant"), ("presented", "pullback"),
    ("magnus", "magnus_expand"),
    ("braiding", "weight_reduce"), ("braiding", "iterated_sum"),
    ("braiding", "braiding_polynomial"), ("braiding", "multi_evaluation"),
    ("tensors", "iterated_reduced_coproduct"), ("tensors", "parse_tensor"),
    ("words", "parse_word"), ("words", "free_reduce"), ("words", "substitute"),
    ("johnson", "johnson_level"), ("johnson", "johnson_tau"),
    ("finite", "ideal_power_dims"),
    ("cli", "main"),
]
# Counted but not timed, so their time stays in the caller's self time.
COUNTS = [("magnus", "trunc_mul")]

MAX_SPANS = 200_000


def metric_name(module, attr):
    cls, _, method = attr.rpartition(".")
    if method == "__init__":
        return f"{module}.{cls}"
    return f"{module}.{method}"


def _matrix_stats(rows, zero):
    """(cells, nonzeros) of a dense list-of-lists matrix; None otherwise."""
    if not isinstance(rows, list) or not rows or not isinstance(rows[0], list):
        return None
    cells = len(rows) * len(rows[0])
    nonzero = sum(1 for row in rows for x in row if x != zero)
    return cells, nonzero


class Tracer:
    def __init__(self):
        self.on = False
        self.item = "setup"
        self.spans = []
        self.dropped = 0
        self.stack = []          # [name, start, child_seconds, span_index]
        self.self_s = {}
        self.calls = {}
        self.extra = {}
        self.absent = []
        self.quotient_inits = 0

    def add(self, key, value):
        self.extra[key] = self.extra.get(key, 0) + value

    # -- installation -------------------------------------------------------

    def install(self, package):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package.__name__
                                         or name.startswith(package.__name__ + "."))]
        for module, attr in SPANS + COUNTS:
            name = metric_name(module, attr)
            counted = (module, attr) in COUNTS
            if not counted:
                self.self_s[name] = 0.0
            self.calls[name] = 0
            owner = sys.modules.get(f"{package.__name__}.{module}")
            cls_name, _, fn_name = attr.rpartition(".")
            if owner is not None and cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, fn_name, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._counter(name, original) if counted else self._span(name, original)
            if cls_name:
                setattr(owner, fn_name, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)

    def _counter(self, name, fn):
        tracer = self

        def counted(*args, **kwargs):
            if tracer.on:
                tracer.calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _span(self, name, fn):
        tracer = self
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        def spanned(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if before is not None:
                t = time.perf_counter()
                state = before(args, kwargs)
                tracer._charge_parent(time.perf_counter() - t)
            else:
                state = None
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                t = time.perf_counter()
                after(args, result, state)
                tracer._charge_parent(time.perf_counter() - t)
            return result
        return spanned

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, name):
        parent = self.stack[-1][3] if self.stack else -1
        index = -1
        if len(self.spans) < MAX_SPANS:
            index = len(self.spans)
            self.spans.append([name, self.item, 0.0, 0.0, parent])
        else:
            self.dropped += 1
        frame = [name, time.perf_counter(), 0.0, index]
        self.stack.append(frame)
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        self.stack.pop()
        name, start, child, index = frame
        duration = end - start
        self.self_s[name] += duration - child
        self.calls[name] += 1
        if index >= 0:
            self.spans[index][2] = start
            self.spans[index][3] = end
        if self.stack:
            self.stack[-1][2] += duration

    def _charge_parent(self, seconds):
        """Keep the tracer's own statistics work out of every self time."""
        if self.stack:
            self.stack[-1][2] += seconds

    # -- per-boundary statistics -------------------------------------------

    def _before_rings_rref(self, args, kwargs):
        rows = args[1] if len(args) > 1 else kwargs.get("rows_in")
        ring = args[0] if args else kwargs.get("ring")
        self._matrix("rings.rref", rows, getattr(ring, "zero", 0))

    def _before_rings_row_hermite(self, args, kwargs):
        rows = args[0] if args else kwargs.get("rows_in")
        self._matrix("rings.row_hermite", rows, 0)

    def _matrix(self, name, rows, zero):
        stats = _matrix_stats(rows, zero)
        if stats is not None:
            self.add(name + ".cells", stats[0])
            self.add(name + ".nonzeros", stats[1])

    def _before_presented_TruncatedQuotient(self, args, kwargs):
        self.quotient_inits += 1

    def _after_presented_TruncatedQuotient(self, args, result, state):
        quotient = args[0]
        monomials = getattr(quotient, "monomials", None)
        columns = getattr(quotient, "columns", None)
        span_rows = getattr(quotient, "span_rows", None)
        if monomials is not None:
            self.add("presented.monomials", len(monomials))
        if isinstance(columns, list):
            self.add("presented.sandwich_cols", len(columns))
            stats = _matrix_stats(columns, quotient.ring.zero)
            if stats is not None:
                self.add("presented.sandwich_cells", stats[0])
                self.add("presented.sandwich_nonzeros", stats[1])
        if span_rows is not None:
            self.add("presented.span_rank", len(span_rows))

    def _before_presented_build_truncated_quotient(self, args, kwargs):
        return self.quotient_inits

    def _after_presented_build_truncated_quotient(self, args, result, inits_before):
        self.add("presented.quotient_cache.calls", 1)
        if self.quotient_inits == inits_before:
            self.add("presented.quotient_cache.hits", 1)

    def _after_magnus_magnus_expand(self, args, result, state):
        terms = getattr(result, "terms", None)
        if terms is not None:
            self.add("magnus.terms_out", len(terms))

    # -- results ------------------------------------------------------------

    def metrics(self):
        """Flat layer metrics: <name>.self_s and <name>.calls for every
        boundary, plus the sizes and ratios recorded at the boundaries."""
        out = {}
        for name, seconds in self.self_s.items():
            out[name + ".self_s"] = seconds
        for name, count in self.calls.items():
            out[name + ".calls"] = count
        extra = self.extra
        for kernel in ("rings.rref", "rings.row_hermite"):
            cells = extra.get(kernel + ".cells", 0)
            out[kernel + ".cells"] = cells
            out[kernel + ".density"] = extra.get(kernel + ".nonzeros", 0) / cells if cells else 0.0
        cells = extra.get("presented.sandwich_cells", 0)
        out["presented.sandwich_density"] = \
            extra.get("presented.sandwich_nonzeros", 0) / cells if cells else 0.0
        for key in ("presented.monomials", "presented.sandwich_cols",
                    "presented.span_rank", "magnus.terms_out"):
            out[key] = extra.get(key, 0)
        calls = extra.get("presented.quotient_cache.calls", 0)
        out["presented.quotient_cache.hit_ratio"] = \
            extra.get("presented.quotient_cache.hits", 0) / calls if calls else 0.0
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, item, start, end, parent in self.spans:
                fh.write(json.dumps([name, item, start, end, parent]) + "\n")
