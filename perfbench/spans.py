"""Span tracing of powerstruct from outside the package.

Each traced function is replaced, at every binding that refers to it (module
globals such as ``cli.power_op`` or ``applications.power``, class attributes
including aliases such as ``__rmul__ = __mul__``), by a wrapper that records
a span: name, request id, parent span, start and end.  Spans stay in memory
and are written out when the run ends; self times and counts are derived
from them.  Nothing under ``src/`` changes.

The span clock stops while the tracer scans a ``rings.mul`` result for its
term and coefficient-size statistics, so that scan counts in no span.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter_ns

# (span name, module, attribute path) of each function timed; a span name may
# cover several functions.
TARGETS = [
    ("rings.mul", "rings", "LaurentPoly.__mul__"),
    ("rings.add", "rings", "LaurentPoly.__add__"),
    ("rings.exact_div", "rings", "LaurentPoly.exact_div"),
    ("rings.adams", "rings", "LaurentPoly.adams"),
    ("series.mul", "series", "TruncSeries.__mul__"),
    ("series.div", "series", "TruncSeries.__truediv__"),
    ("series.exp", "series", "TruncSeries.exp"),
    ("series.log", "series", "TruncSeries.log"),
    ("series.usual_power", "series", "TruncSeries.usual_power"),
    ("power.power", "power", "power"),
    ("power.factorize", "power", "factorize"),
    ("power.lambda_t", "power", "lambda_t"),
    ("symfunc.mul", "symfunc", "SymFunc.__mul__"),
    ("symfunc.p_to_schur", "symfunc", "p_to_schur"),
    ("symfunc.adams", "symfunc", "SymFunc.adams"),
    ("applications.moduli_g2_series", "applications", "moduli_g2_series"),
    ("parsing.parse", "parsing", "parse_expression"),
    ("cli.main", "cli", "main"),
    ("cli.render", "cli", "value_to_text"),
    ("cli.render", "symfunc", "schur_expansion_str"),
]
SPAN_NAMES = list(dict.fromkeys(name for name, _, _ in TARGETS))

# Per-layer metrics: the call count of every span but cli.main (one per
# request); the self time of the spans every workload reaches (a function a
# workload never calls would report exactly 0 s on every run; those self
# times are printed, not reported); inclusive time of parsing and rendering.
COUNTS = [f"{name}.calls" for name in SPAN_NAMES if name != "cli.main"]
SELF_TIMES = ["rings.mul", "rings.add", "series.mul", "series.div", "series.exp", "cli.main"]
INCLUSIVE_TIMES = ["parsing.parse", "cli.render"]


def _resolve(module, path: str):
    for name in path.split("."):
        module = getattr(module, name)
    return module


def _bindings(originals: dict) -> list:
    """Every (owner, attribute, original) in powerstruct that refers to one
    of the original functions."""
    found = []
    owners = []
    for name, module in list(sys.modules.items()):
        if name == "powerstruct" or name.startswith("powerstruct."):
            owners.append(module)
            owners.extend(
                v for v in vars(module).values()
                if isinstance(v, type) and v.__module__.startswith("powerstruct")
            )
    seen = set()
    for owner in owners:
        if id(owner) in seen:
            continue
        seen.add(id(owner))
        for attr, value in list(vars(owner).items()):
            if id(value) in originals:
                found.append((owner, attr, value))
    return found


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` swap every
    binding between the original function and its wrapper."""

    def __init__(self):
        self.spans: list = []  # (name, request, parent, start_ns, end_ns)
        self.mul_stats: dict = {}  # span index -> (|a|*|b|, terms, coeff bits)
        self.request = -1
        self._stack: list = []
        self._paused_ns = 0  # span clock = perf_counter_ns() - _paused_ns
        import powerstruct.cli  # noqa: F401  (loads every module to patch)

        originals = {}
        for name, module, path in TARGETS:
            fn = _resolve(sys.modules[f"powerstruct.{module}"], path)
            originals[id(fn)] = self._wrap(name, fn)
        self._swaps = [
            (owner, attr, fn, originals[id(fn)]) for owner, attr, fn in _bindings(originals)
        ]

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        is_mul = name == "rings.mul"

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns() - self._paused_ns
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns() - self._paused_ns
                stack.pop()
                spans[index] = (name, self.request, parent, start, end)
            if is_mul and result is not NotImplemented:
                paused_at = perf_counter_ns()
                self.mul_stats[index] = _mul_stats(args[0], args[1], result)
                self._paused_ns += perf_counter_ns() - paused_at
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for owner, attr, _, wrapper in self._swaps:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._swaps:
            setattr(owner, attr, original)

    def binding_count(self) -> int:
        return len(self._swaps)

    def totals(self) -> dict:
        """span name -> (calls, inclusive seconds, self seconds).  Self time
        is a span's duration minus the durations of its direct children."""
        child_ns = [0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict = {}
        for index, (name, _, _, start, end) in enumerate(self.spans):
            calls, total, own = out.get(name, (0, 0, 0))
            out[name] = (calls + 1, total + end - start, own + end - start - child_ns[index])
        return {name: (c, t / 1e9, s / 1e9) for name, (c, t, s) in out.items()}

    def metrics(self) -> dict:
        """The per-layer metrics: name -> (unit, value)."""
        totals = self.totals()
        out = {}
        for metric in COUNTS:
            out[metric] = ("count", totals.get(metric[: -len(".calls")], (0, 0, 0))[0])
        for name in SELF_TIMES:
            out[f"{name}.self_s"] = ("s", totals.get(name, (0, 0, 0))[2])
        for name in INCLUSIVE_TIMES:
            out[f"{name}.s"] = ("s", totals.get(name, (0, 0, 0))[1])
        stats = list(self.mul_stats.values())
        products = sum(s[0] for s in stats)
        mul_self_s = totals.get("rings.mul", (0, 0, 0))[2]
        out["rings.mul.term_products"] = ("count", products)
        out["rings.mul.ns_per_term_product"] = (
            "ns", mul_self_s * 1e9 / products if products else 0.0
        )
        out["rings.mul.max_terms"] = ("count", max((s[1] for s in stats), default=0))
        out["rings.mul.max_coeff_bits"] = ("count", max((s[2] for s in stats), default=0))
        return out

    def write(self, path) -> None:
        """One JSON array per span: [id, request, parent, name, start_ns, end_ns]."""
        with open(path, "w") as fh:
            for index, (name, request, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps([index, request, parent, name, start, end]) + "\n")


def _mul_stats(a, b, result) -> tuple:
    size_b = len(b.terms) if hasattr(b, "terms") else (1 if b else 0)
    bits = 0
    for c in result.terms.values():
        bits = max(bits, abs(c.numerator).bit_length(), c.denominator.bit_length())
    return len(a.terms) * size_b, len(result.terms), bits
