"""Per-layer tracing from outside the program.

Tracer.begin_op() replaces public callables of skewchar with wrappers that
record spans (name, start, end, parent) and counts in memory, and end_op()
puts the originals back, so that code outside a traced op runs unwrapped.  A
callable is replaced under every name that refers to it in any skewchar
module or class, because modules bind one another's functions by name
(formulas imports elementary_pm, LaurentPoly.__rmul__ is __mul__).  A target
that no longer exists is skipped and its metrics are left out of the report
rather than reported as zero.
"""

import sys
import time
from collections import Counter

# (module, attribute, span name); a class attribute is "Class.method"
SPANS = (
    ("cli", "main", "cli.main"),
    ("formulas", "character", "formulas.character"),
    ("formulas", "dual_jacobi_trudi", "formulas.dual_jt"),
    ("formulas", "jacobi_trudi", "formulas.jt"),
    ("formulas", "giambelli", "formulas.giambelli"),
    ("formulas", "lgv_character", "formulas.lgv"),
    ("core", "PolyMatrix.determinant", "core.det"),
    ("core", "LaurentPoly.__mul__", "core.mul"),
    ("core", "LaurentPoly.__add__", "core.add"),
    ("symfunc", "elementary_pm", "symfunc.eh"),
    ("symfunc", "complete_pm", "symfunc.eh"),
    ("symfunc", "elementary_plain", "symfunc.eh"),
    ("symfunc", "complete_plain", "symfunc.eh"),
    ("tableaux", "character_by_tableaux", "tableaux"),
    ("paths", "lgv_signed_sum", "paths.lgv"),
)
# generators: counted per call and per item yielded, no span
COUNTED = (
    ("paths", "enumerate_paths", "paths.enumerate_paths.calls", "paths.paths"),
    ("paths", "enumerate_lgv_families", "paths.enumerate_lgv_families.calls", "paths.families"),
)
# lru caches read through cache_info(): (module, attribute)
CACHES = {
    "eh_tables": (("symfunc", "_e_table"), ("symfunc", "_h_table")),
    "block_cache": (("formulas", "_dual_jt_cached"),),
}

# metric name -> unit, in report order
PER_LAYER = {
    "core.mul.calls": "count",
    "core.mul.term_pairs": "count",
    "core.mul.peak_operand_terms": "count",
    "core.mul.self_s": "s",
    "core.add.calls": "count",
    "core.add.self_s": "s",
    "core.det.calls": "count",
    "core.det.max_dim": "count",
    "core.det.self_s": "s",
    "core.det.result_over_peak": "ratio",
    "symfunc.eh.calls": "count",
    "symfunc.eh.self_s": "s",
    "symfunc.eh_table.builds": "count",
    "formulas.dual_jt.s": "s",
    "formulas.jt.s": "s",
    "formulas.giambelli.s": "s",
    "formulas.assembly.self_s": "s",
    "formulas.block_cache.lookups": "count",
    "formulas.block_cache.hit_ratio": "ratio",
    "tableaux.s": "s",
    "tableaux.count": "count",
    "paths.lgv.s": "s",
    "paths.enumerate_paths.calls": "count",
    "paths.paths": "count",
    "paths.families": "count",
    "paths.useful_ratio": "ratio",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def _terms(poly):
    return len(poly.terms)


class Tracer:
    def __init__(self, modules):
        self.modules = modules  # short name -> skewchar module
        self.op = -1
        self.spans = []  # (op, name, start, end, parent index or -1)
        self.stack = []  # open frames: [span index, time covered by children]
        self.calls = Counter()
        self.total = Counter()  # summed span durations by name
        self.self_time = Counter()  # durations minus child spans, by name
        self.counts = Counter()
        self.max = Counter()
        self.det_peaks = []  # peak operand terms of the open determinants
        self.missing = []
        self._patches = []  # (owner, attribute, original, wrapper)
        self.caches = set()  # keys of CACHES that were found
        self._block_base = None
        self.block_cache = [0, 0]  # hits, misses inside ops
        self._prepare()

    # -- installation --------------------------------------------------------

    def _resolve(self, mod, attr):
        owner = self.modules.get(mod)
        *cls, name = attr.split(".")
        if owner is not None and cls:
            owner = getattr(owner, cls[0], None)
        fn = getattr(owner, name, None) if owner is not None else None
        if fn is None:
            self.missing.append("%s.%s" % (mod, attr))
        return fn

    def _patch_everywhere(self, fn, wrapper):
        owners = list(self.modules.values())
        owners += {
            v
            for m in self.modules.values()
            for v in vars(m).values()
            if isinstance(v, type) and v.__module__.startswith("skewchar")
        }
        for owner in owners:
            for name, value in list(vars(owner).items()):
                if value is fn:
                    self._patches.append((owner, name, fn, wrapper))

    def _prepare(self):
        for mod, attr, span in SPANS:
            fn = self._resolve(mod, attr)
            if fn is not None:
                self._patch_everywhere(fn, self._span_wrapper(fn, span))
        for mod, attr, calls, items in COUNTED:
            fn = self._resolve(mod, attr)
            if fn is not None:
                self._patch_everywhere(fn, self._count_wrapper(fn, calls, items))
        for key in CACHES:
            if self._cache_totals(key) is None:
                self.missing.append("cache " + key)
            else:
                self.caches.add(key)

    def _cache_totals(self, key):
        hits = misses = 0
        for mod, attr in CACHES[key]:
            info = getattr(getattr(self.modules.get(mod), attr, None), "cache_info", None)
            if info is None:
                return None
            ci = info()
            hits, misses = hits + ci.hits, misses + ci.misses
        return hits, misses

    def begin_op(self, index):
        """Install the wrappers and trace op `index`.  Block-cache statistics
        are read around each op, because clearing an lru_cache also resets
        its statistics."""
        self.op = index
        if "block_cache" in self.caches:
            self._block_base = self._cache_totals("block_cache")
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def end_op(self):
        """Put the originals back (the output check is not traced)."""
        for owner, name, fn, _ in reversed(self._patches):
            setattr(owner, name, fn)
        if "block_cache" in self.caches:
            now = self._cache_totals("block_cache")
            self.block_cache[0] += now[0] - self._block_base[0]
            self.block_cache[1] += now[1] - self._block_base[1]

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, fn, name):
        tracer = self
        clock = time.perf_counter
        on_result = getattr(self, "_after_" + name.replace(".", "_"), None)
        on_args = getattr(self, "_before_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            if on_args is not None:
                on_args(args)
            stack = tracer.stack
            idx = len(tracer.spans)
            tracer.spans.append(None)
            frame = [idx, 0.0]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dur
                tracer.spans[idx] = (tracer.op, name, start, end, parent[0] if parent else -1)
                tracer.calls[name] += 1
                tracer.total[name] += dur
                tracer.self_time[name] += dur - frame[1]
                if on_result is not None:
                    on_result(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn, calls, items):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counts[calls] += 1
            for item in fn(*args, **kwargs):
                tracer.counts[items] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters taken at span boundaries -----------------------------------

    def _before_core_mul(self, args):
        a, b = args
        if isinstance(b, type(a)):
            ta, tb = _terms(a), _terms(b)
            self.counts["core.mul.term_pairs"] += ta * tb
            peak = max(ta, tb)
            if peak > self.max["core.mul.peak_operand_terms"]:
                self.max["core.mul.peak_operand_terms"] = peak
            if self.det_peaks and peak > self.det_peaks[-1]:
                self.det_peaks[-1] = peak

    def _before_core_det(self, args):
        self.max["core.det.max_dim"] = max(self.max["core.det.max_dim"], args[0].dim)
        self.det_peaks.append(0)

    def _after_core_det(self, args, result):
        peak = self.det_peaks.pop()
        if result is not None:
            self.counts["core.det.peak_terms"] += peak
            self.counts["core.det.result_terms"] += _terms(result)

    def _after_tableaux(self, args, result):
        if result is not None:
            self.counts["tableaux.count"] += sum(result.terms.values())

    # -- report ----------------------------------------------------------------

    def metrics(self, overhead_s):
        """Per-layer metric name -> value; names whose target is missing are
        left out."""
        c, s = self.calls, self.self_time
        dets = self.counts["core.det.peak_terms"]
        out = {
            "core.mul.calls": c["core.mul"],
            "core.mul.term_pairs": self.counts["core.mul.term_pairs"],
            "core.mul.peak_operand_terms": self.max["core.mul.peak_operand_terms"],
            "core.mul.self_s": s["core.mul"],
            "core.add.calls": c["core.add"],
            "core.add.self_s": s["core.add"],
            "core.det.calls": c["core.det"],
            "core.det.max_dim": self.max["core.det.max_dim"],
            "core.det.self_s": s["core.det"],
            "core.det.result_over_peak": self.counts["core.det.result_terms"] / dets if dets else 0.0,
            "symfunc.eh.calls": c["symfunc.eh"],
            "symfunc.eh.self_s": s["symfunc.eh"],
            "formulas.dual_jt.s": self.total["formulas.dual_jt"],
            "formulas.jt.s": self.total["formulas.jt"],
            "formulas.giambelli.s": self.total["formulas.giambelli"],
            "formulas.assembly.self_s": sum(v for k, v in s.items() if k.startswith("formulas.")),
            "tableaux.s": self.total["tableaux"],
            "tableaux.count": self.counts["tableaux.count"],
            "paths.lgv.s": self.total["paths.lgv"],
            "paths.enumerate_paths.calls": self.counts["paths.enumerate_paths.calls"],
            "paths.paths": self.counts["paths.paths"],
            "paths.families": self.counts["paths.families"],
            "cli.self_s": s["cli.main"],
            "trace.overhead_s": overhead_s,
        }
        fam = self.counts["paths.families"]
        out["paths.useful_ratio"] = self.counts["tableaux.count"] / fam if fam else 0.0
        if "eh_tables" in self.caches:  # every miss since the tables were emptied: warm-up and ops
            out["symfunc.eh_table.builds"] = self._cache_totals("eh_tables")[1]
        if "block_cache" in self.caches:
            hits, misses = self.block_cache
            out["formulas.block_cache.lookups"] = hits + misses
            out["formulas.block_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        gone = set(self.missing)
        for dep, names in _DEPENDS.items():
            if dep in gone:
                for name in names:
                    out.pop(name, None)
        return {k: out[k] for k in PER_LAYER if k in out}

    def dump(self):
        return {
            "spans": {
                name: {"calls": self.calls[name], "total_s": self.total[name], "self_s": self.self_time[name]}
                for name in sorted(self.calls)
            },
            "counts": dict(sorted(self.counts.items())),
            "max": dict(sorted(self.max.items())),
            "missing": self.missing,
            "span_fields": ["op", "name", "start", "end", "parent"],
            "span_list": self.spans,
        }


# a target that could not be found -> the metrics it feeds
_DEPENDS = {
    "core.LaurentPoly.__mul__": ("core.mul.calls", "core.mul.term_pairs", "core.mul.peak_operand_terms",
                                 "core.mul.self_s", "core.det.result_over_peak"),
    "core.LaurentPoly.__add__": ("core.add.calls", "core.add.self_s"),
    "core.PolyMatrix.determinant": ("core.det.calls", "core.det.max_dim", "core.det.self_s",
                                    "core.det.result_over_peak"),
    "formulas.dual_jacobi_trudi": ("formulas.dual_jt.s",),
    "formulas.jacobi_trudi": ("formulas.jt.s",),
    "formulas.giambelli": ("formulas.giambelli.s",),
    "tableaux.character_by_tableaux": ("tableaux.s", "tableaux.count", "paths.useful_ratio"),
    "paths.lgv_signed_sum": ("paths.lgv.s",),
    "paths.enumerate_paths": ("paths.enumerate_paths.calls", "paths.paths"),
    "paths.enumerate_lgv_families": ("paths.families", "paths.useful_ratio"),
    "cli.main": ("cli.self_s",),
}


def skewchar_modules():
    """Short name -> module for every loaded skewchar module."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "skewchar" or name.startswith("skewchar."):
            out[name.split(".")[-1]] = mod
    return out
