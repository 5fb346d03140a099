"""Tracing the package from outside: wrap public callables, keep spans in memory.

:class:`Tracer` replaces selected functions and methods of ``kgraphs`` with
wrappers and puts the originals back on :meth:`Tracer.uninstall`.  A
function imported by name into another module (``kp`` and ``cli`` import
``copy_path``, ``validate`` and friends that way) is patched at every
module-level binding, so no call path escapes.

Each timed call pushes a frame on a stack; at exit its duration is added to
its parent's child time, so self time is the duration minus the part its
wrapped children cover (spans nest strictly in a single thread).  Layer
boundaries are kept as spans ``(id, name, start, end, parent)``; the hot
callables (normal forms, path enumeration, MCE, products, ``is_zero``) are
only aggregated, because keeping a span per call would hold millions of
records.  Bookkeeping done by the hooks (counting 3-paths, remembering MCE
keys) is clocked and subtracted from every span open at the time, so it
does not land in any layer's time.
"""

from __future__ import annotations

import sys
import time
import weakref
from collections import Counter, defaultdict

SWEEPS = ("universal-family", "kp-family", "swap-identities", "diagonal", "corner", "grading")
BASELINE_SWEEP = "kp-family"


def count_two_and_three_paths(skeleton) -> tuple[int, int]:
    """Bicolored 2-paths and 3-colored 3-paths of a skeleton.

    These are the paths ``validate`` examines: every 2-path whose edges
    differ in color, and (for k >= 3) every 3-path in three distinct colors.
    """
    out_colors: dict[str, Counter] = defaultdict(Counter)
    out_degree: Counter = Counter()
    for e in skeleton.edges:
        out_colors[e.source][e.color] += 1
        out_degree[e.source] += 1
    two = three = 0
    for inner in skeleton.edges:
        for outer in skeleton.edges_from(inner.range):
            if outer.color == inner.color:
                continue
            two += 1
            if skeleton.k >= 3:
                far = out_colors[outer.range]
                three += out_degree[outer.range] - far[outer.color] - far[inner.color]
    return two, three


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self._stack: list[list] = []  # [span id, start, child seconds, paused at start]
        self._next_id = 0
        self._paused = 0.0
        self._patches: list[tuple[object, str, object]] = []
        self._sweep: str | None = None
        self._mce_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- wrapping ----------------------------------------------------------------

    def _timed(self, name, fn, keep_span, after=None):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, clock(), 0.0, self._paused]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1] - (self._paused - frame[3])
                if stack:
                    stack[-1][2] += duration
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[2]
                if keep_span:
                    parent = stack[-1][0] if stack else None
                    self.spans.append((span_id, name, frame[1], end, parent))
            if after is not None:
                began = clock()
                after(args, result)
                self._paused += clock() - began
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch_function(self, module, attr, wrapper_for):
        original = getattr(module, attr)
        wrapper = wrapper_for(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "kgraphs" or mod_name.startswith("kgraphs.")):
                continue
            for binding, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, binding, original))
                    setattr(mod, binding, wrapper)

    def _patch_method(self, cls, attr, wrapper_for):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, wrapper_for(original))

    # -- hooks -------------------------------------------------------------------

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[key] += n
        if self._sweep is not None:
            self.counts[f"{key}@{self._sweep}"] += n

    def _after_parse(self, args, result) -> None:
        self.counts["parse_bytes"] += len(args[0].encode("utf-8"))

    def _after_serialize(self, args, result) -> None:
        self.counts["serialize_bytes"] += len(result.encode("utf-8"))

    def _after_validate(self, args, result) -> None:
        two, three = count_two_and_three_paths(args[0])
        self.counts["two_paths"] += two
        self.counts["three_paths"] += three

    def _after_mce(self, args, result) -> None:
        algebra, mu, nu = args
        seen = self._mce_seen.setdefault(algebra, set())
        key = (mu, nu)
        if key in seen:
            self._count("mce_hits")
        else:
            seen.add(key)
        self._count("mce_calls")
        if not result:
            self._count("mce_empty")
        if mu.range != nu.range:
            self._count("mce_range_mismatch")

    def _after_product(self, args, result) -> None:
        left, right = args
        self._count("products")
        self._count("term_pairs", len(left) * len(right))
        self._count("product_terms", len(result))

    def _after_sweep(self, args, report) -> None:
        self.counts[f"checks@{report.name}"] += report.checked

    # -- install / uninstall -----------------------------------------------------

    def install(self) -> None:
        from kgraphs import cli, fileformat, kp, skeleton, splitting

        def span(name, after=None):
            return lambda fn: self._timed(name, fn, True, after)

        def agg(name, after=None):
            return lambda fn: self._timed(name, fn, False, after)

        self._patch_function(cli, "main", span("cli.main"))
        self._patch_function(fileformat, "parse", span("fileformat.parse", self._after_parse))
        self._patch_function(fileformat, "parse_partition_file",
                             span("fileformat.parse_partition_file", self._after_parse))
        self._patch_function(fileformat, "serialize",
                             span("fileformat.serialize", self._after_serialize))
        self._patch_function(fileformat, "sidecar_text", span("fileformat.sidecar_text"))
        self._patch_function(fileformat, "parse_sidecar", span("fileformat.parse_sidecar"))
        self._patch_function(skeleton, "validate", span("skeleton.validate", self._after_validate))
        self._patch_method(skeleton.KGraph, "normal_form",
                           lambda fn: self._counted("skeleton.normal_form", fn))
        self._patch_method(skeleton.KGraph, "paths_with_range", agg("skeleton.paths_with_range"))
        self._patch_function(splitting, "outsplit", span("splitting.outsplit"))
        self._patch_function(splitting, "reconstruct_split", span("splitting.reconstruct_split"))
        self._patch_function(splitting, "pairing_report", span("splitting.pairing_report"))
        self._patch_function(splitting, "copy_path",
                             lambda fn: self._counted("splitting.copy_path", fn))
        self._patch_method(kp.KumjianPask, "__init__", span("kp.KumjianPask"))
        self._patch_method(kp.KumjianPask, "minimal_common_extensions",
                           agg("kp.mce", self._after_mce))
        self._patch_method(kp.KPElement, "is_zero", agg("kp.is_zero"))

        element = kp.KPElement
        product = self._timed("kp.product", element.__mul__, False, self._after_product)
        scalar_mul = element.__mul__

        def mul(a, b):
            return product(a, b) if isinstance(b, element) else scalar_mul(a, b)

        self._patches.append((element, "__mul__", scalar_mul))
        element.__mul__ = mul

        equal = element.__eq__
        calls = self.calls

        def eq(a, b):
            before = calls["kp.is_zero"]
            result = equal(a, b)
            calls["kp.eq"] += 1
            if calls["kp.is_zero"] == before:
                calls["kp.eq_fast"] += 1
            return result

        self._patches.append((element, "__eq__", equal))
        element.__eq__ = eq

        for attr in ("verify_universal_family", "verify_family", "verify_swap_identities",
                     "verify_diagonal", "verify_corner", "verify_grading"):
            self._patch_function(kp, attr, self._sweep_wrapper)

    def _sweep_wrapper(self, fn):
        sweep = fn.__name__.removeprefix("verify_").replace("_", "-")
        sweep = "kp-family" if sweep == "family" else sweep
        timed = self._timed(f"kp.sweep.{sweep}", fn, True, self._after_sweep)

        def wrapper(*args, **kwargs):
            self._sweep = sweep
            try:
                return timed(*args, **kwargs)
            finally:
                self._sweep = None

        wrapper.__wrapped__ = fn
        return wrapper

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Every aggregate so far, as plain numbers; diff two to get one iteration."""
        out: dict[str, float] = {}
        for name, n in self.calls.items():
            out[f"calls:{name}"] = n
        for name, s in self.total_s.items():
            out[f"total:{name}"] = s
        for name, s in self.self_s.items():
            out[f"self:{name}"] = s
        for name, n in self.counts.items():
            out[f"count:{name}"] = n
        return out


def layer_metrics(delta: dict) -> tuple[dict, dict]:
    """Per-layer metrics of one iteration from a snapshot difference.

    Returns ``(times, counts)``: times in seconds, counts and ratios exact.
    """
    def get(key):
        return delta.get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    times = {
        "cli.self_s": get("self:cli.main"),
        "fileformat.parse_s": get("total:fileformat.parse") + get("total:fileformat.parse_partition_file"),
        "fileformat.serialize_s": get("total:fileformat.serialize"),
        "fileformat.sidecar_s": get("total:fileformat.sidecar_text") + get("total:fileformat.parse_sidecar"),
        "skeleton.validate_s": get("total:skeleton.validate"),
        "skeleton.paths_with_range_s": get("total:skeleton.paths_with_range"),
        "splitting.outsplit_s": get("self:splitting.outsplit"),
        "splitting.reconstruct_s": get("total:splitting.reconstruct_split"),
        "splitting.pairing_s": get("total:splitting.pairing_report"),
        "kp.product_s": get("total:kp.product"),
        "kp.mce_s": get("total:kp.mce"),
        "kp.is_zero_s": get("total:kp.is_zero"),
    }
    for sweep in SWEEPS:
        times[f"kp.sweep_s.{sweep}"] = get(f"total:kp.sweep.{sweep}")
    products = get("count:products")
    mce_calls = get("count:mce_calls")
    counts = {
        "fileformat.parse_bytes": get("count:parse_bytes"),
        "fileformat.serialize_bytes": get("count:serialize_bytes"),
        "skeleton.validate_calls": get("calls:skeleton.validate"),
        "skeleton.two_paths": get("count:two_paths"),
        "skeleton.three_paths": get("count:three_paths"),
        "skeleton.normal_form_calls": get("calls:skeleton.normal_form"),
        "skeleton.paths_with_range_calls": get("calls:skeleton.paths_with_range"),
        "splitting.copy_path_calls": get("calls:splitting.copy_path"),
        "kp.algebra_contexts": get("calls:kp.KumjianPask"),
        "kp.products": products,
        "kp.term_pairs": get("count:term_pairs"),
        "kp.terms_per_product": ratio(get("count:product_terms"), products),
        "kp.mce_calls": mce_calls,
        "kp.mce_hit_ratio": ratio(get("count:mce_hits"), mce_calls),
        "kp.mce_empty_ratio": ratio(get("count:mce_empty"), mce_calls),
        "kp.mce_range_mismatch": get("count:mce_range_mismatch"),
        "kp.is_zero_calls": get("calls:kp.is_zero"),
        "kp.eq_fast_ratio": ratio(get("calls:kp.eq_fast"), get("calls:kp.eq")),
    }
    for sweep in SWEEPS:
        counts[f"kp.sweep_checks.{sweep}"] = get(f"count:checks@{sweep}")
    for key in ("products", "mce_calls", "mce_empty", "mce_range_mismatch", "mce_hits"):
        counts[f"kp.sweep_{key}.{BASELINE_SWEEP}"] = get(f"count:{key}@{BASELINE_SWEEP}")
    return times, counts
