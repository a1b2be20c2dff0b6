"""Outside-in tracing of eaqeckit's public functions.

Spans are recorded around calls into each layer from the benchmark's own
files; the library itself is not edited.  Every module attribute that refers
to a wrapped function is replaced, so rebound imports such as
``families.is_mds``, ``cli.min_distance`` or ``eaqeckit.table1`` are traced
as well, and :meth:`Tracer.install` raises if any reference to an unwrapped
original is left behind.

A span is (name, start, end, parent index, job id, outermost), kept in memory
and written out once at the end.  Self time is a span's duration minus the
durations of its direct children; calls are single-threaded, so children nest
exactly inside their parent.  Counts of work (subsets, codewords, element
constructions) are computed from arguments and return values, never from
timings, so they repeat exactly for a given seed.
"""
from __future__ import annotations

import gzip
import importlib
import json
import math
import time
from collections import defaultdict

MODULES = ("gf", "fmatrix", "lincode", "rankmetric", "eaqec", "families", "cli")

# (module, attribute or Class.method, span name)
TARGETS = (
    ("gf", "field_new", "gf.field_new"),
    ("gf", "FieldSpec.primitive_element", "gf.primitive_element"),
    ("gf", "FieldSpec.vec_ops", "gf.vec_ops"),
    ("fmatrix", "FMatrix.rref", "fmatrix.rref"),
    ("fmatrix", "FMatrix.__matmul__", "fmatrix.matmul"),
    ("fmatrix", "FMatrix.kernel_basis", "fmatrix.kernel_basis"),
    ("fmatrix", "FMatrix.row_basis", "fmatrix.row_basis"),
    ("fmatrix", "FMatrix.frobenius_entrywise", "fmatrix.frobenius_entrywise"),
    ("fmatrix", "FMatrix.transpose", "fmatrix.transpose"),
    ("fmatrix", "FMatrix.vstack", "fmatrix.vstack"),
    ("fmatrix", "FMatrix.from_text", "fmatrix.from_text"),
    ("fmatrix", "batched_full_rank", "fmatrix.batched_full_rank"),
    ("lincode", "from_generator", "lincode.from_generator"),
    ("lincode", "from_parity_check", "lincode.from_parity_check"),
    ("lincode", "is_mds", "lincode.is_mds"),
    ("lincode", "min_distance", "lincode.min_distance"),
    ("lincode", "LinearCode.from_text", "lincode.from_text"),
    ("rankmetric", "moore_matrix", "rankmetric.moore_matrix"),
    ("eaqec", "ebits_product", "eaqec.ebits_product"),
    ("eaqec", "ebits_stack", "eaqec.ebits_stack"),
    ("eaqec", "assemble", "eaqec.assemble"),
    ("families", "vandermonde_family", "families.vandermonde_family"),
    ("families", "grs_extended_family", "families.grs_extended_family"),
    ("families", "gabidulin_family", "families.gabidulin_family"),
    ("families", "grs_extended_spec", "families.grs_extended_spec"),
    ("families", "grs_extended_generator", "families.grs_extended_generator"),
    ("families", "table1", "families.table1"),
    ("families", "table2", "families.table2"),
    ("cli", "main", "cli.main"),
)

# The coverage check: self time left in these spans is work that no wrapper
# below them caught.  It must stay under this share of job wall time.
UNCOVERED = ("families.", "cli.main")
UNCOVERED_MAX = 0.10


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self.job = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.element_calls = 0

    # -- recording ------------------------------------------------------------

    def wrap(self, name: str, fn, count=None):
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outermost = depth[name] == 0
            depth[name] += 1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                spans[idx] = (name, start, end, parent, self.job, outermost)
            if count is not None:
                count(self.counts, args, out)
            return out

        return traced

    def reset(self):
        """Forget spans and counts so far (set-up and warm-up)."""
        self.spans.clear()
        self.counts.clear()
        self.element_calls = 0

    # -- installation -----------------------------------------------------------

    def install(self, eaqeckit) -> None:
        modules = [eaqeckit] + [importlib.import_module(f"eaqeckit.{m}") for m in MODULES]
        wrapped = {}  # id of an original function -> its wrapper, which keeps it alive
        for mod_name, attr, name in TARGETS:
            owner = getattr(eaqeckit, mod_name)
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self.wrap(name, raw.__func__)))
                else:
                    setattr(cls, meth, self.wrap(name, raw, _COUNTERS.get(name)))
                continue
            fn = getattr(owner, attr)
            wrapped[id(fn)] = self.wrap(name, fn, _COUNTERS.get(name))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    setattr(mod, key, wrapped[id(value)])
        # A function held in a module-level container would still be called
        # unwrapped; the module attributes themselves were all replaced above.
        missed = [f"{mod.__name__}.{key}" for mod in modules
                  for key, value in vars(mod).items()
                  if isinstance(value, (dict, list, tuple))
                  and any(id(v) in wrapped
                          for v in (value.values() if isinstance(value, dict) else value))]
        if missed:
            raise RuntimeError(f"unwrapped references remain: {missed}")

        field_cls = eaqeckit.gf.FieldSpec
        element = field_cls.element
        tracer = self

        def counted_element(field, value):
            tracer.element_calls += 1
            return element(field, value)

        field_cls.element = counted_element

    # -- results ----------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, inclusive time (outermost spans only) and self time."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _job, _outer in spans:
            if parent >= 0:
                child[parent] += end - start
        agg: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _parent, _job, outer) in enumerate(spans):
            a = agg[name]
            a[0] += 1
            if outer:
                a[1] += end - start
            a[2] += end - start - child[i]
        return {name: {"calls": c, "s": inc, "self_s": own}
                for name, (c, inc, own) in agg.items()}

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job", "outermost"],
                       "element_calls": self.element_calls,
                       "counts": dict(self.counts),
                       "spans": self.spans}, fh)


def _count_subsets(counts, args, out):
    counts["fmatrix.batched_full_rank.subsets"] += len(args[1])


def _count_mds(counts, args, report):
    C = args[0]
    if C.k < C.n:
        counts["lincode.is_mds.subsets"] += math.comb(C.n, report.subset_size)


def _count_codewords(counts, args, report):
    if report.method == "exhaustive":
        q, k = args[0].field.q, args[0].k
        counts["lincode.min_distance.codewords"] += (q**k - 1) // (q - 1)


_COUNTERS = {
    "fmatrix.batched_full_rank": _count_subsets,
    "lincode.is_mds": _count_mds,
    "lincode.min_distance": _count_codewords,
}


def layer_metrics(tracer: Tracer, field_setup_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass, by metric name."""
    s = tracer.summary()

    def get(name, key):
        return s.get(name, {}).get(key, 0)

    job_wall = get("job", "s")
    uncovered = sum(v["self_s"] for k, v in s.items() if k.startswith(UNCOVERED))
    subsets = tracer.counts["fmatrix.batched_full_rank.subsets"]
    codewords = tracer.counts["lincode.min_distance.codewords"]
    bfr_self = get("fmatrix.batched_full_rank", "self_s")
    md_self = get("lincode.min_distance", "self_s")
    return {
        "gf.field_setup_s": field_setup_s,
        "gf.element_calls": tracer.element_calls,
        "fmatrix.rref.calls": get("fmatrix.rref", "calls"),
        "fmatrix.rref.self_s": get("fmatrix.rref", "self_s"),
        "fmatrix.matmul.self_s": get("fmatrix.matmul", "self_s"),
        "fmatrix.batched_full_rank.self_s": bfr_self,
        "fmatrix.batched_full_rank.subsets": subsets,
        "fmatrix.subsets_per_s": subsets / bfr_self if bfr_self else 0.0,
        "lincode.is_mds.self_s": get("lincode.is_mds", "self_s"),
        "lincode.is_mds.subsets": tracer.counts["lincode.is_mds.subsets"],
        "lincode.min_distance.self_s": md_self,
        "lincode.min_distance.codewords": codewords,
        "lincode.codewords_per_s": codewords / md_self if md_self else 0.0,
        "lincode.from_generator.s": get("lincode.from_generator", "s"),
        "rankmetric.moore_matrix.self_s": get("rankmetric.moore_matrix", "self_s"),
        "eaqec.ebits_product.s": get("eaqec.ebits_product", "s"),
        "eaqec.ebits_stack.s": get("eaqec.ebits_stack", "s"),
        "families.vandermonde_family.s": get("families.vandermonde_family", "s"),
        "families.grs_extended_family.s": get("families.grs_extended_family", "s"),
        "families.gabidulin_family.s": get("families.gabidulin_family", "s"),
        "cli.main.self_s": get("cli.main", "self_s"),
        "trace.uncovered_share": uncovered / job_wall if job_wall else 0.0,
    }
