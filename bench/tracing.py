"""Spans and counts around vsllt's public functions, installed from outside.

Nothing under ``src/`` is edited: each traced function is replaced, for the
length of a traced pass, by a wrapper in every module namespace where it is
looked up.  A module that did ``from .symfunc import e_mu_in_p`` holds its own
binding, so ``llt.e_mu_in_p`` is wrapped as well as ``symfunc.e_mu_in_p``.

A span is ``[name, start_ns, end_ns, parent_index, item]``.  Spans stay in
memory and are written out once, at the end of the pass.  A name's self time
is the sum over its spans of the duration minus the time covered by child
spans.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from math import comb, prod

from vsllt import dyckalgebra, llt, paths, qpoly, rewrite, symfunc

SPAN, COUNT = "span", "count"
GENERATOR = "generator"  # a span that also consumes the returned generator


def _fillings(args, _out):
    strips, nvars = args[0], args[1]
    return "llt.fillings", prod(comb(nvars, h) for _, h in strips)


def _terminal_words(_args, out):
    return "rewrite.terminal_words", len(out)


def _xpoly_terms(_args, out):
    return "symfunc.expand_in_vars.terms", len(out)


def _velement_terms(_args, out):
    return "dyckalgebra.velement_terms_max", len(out.terms)


# (metric name, kind, [namespaces where the name is looked up], attribute, hook)
# A hook maps (args, result) to (counter name, amount); names ending in
# "_max" keep the largest amount, all others add it up.
TARGETS = [
    ("paths.iter_paths", GENERATOR, [paths], "iter_paths", None),
    ("dyckalgebra.eval_word", SPAN, [dyckalgebra], "eval_word", None),
    ("dyckalgebra.op_dminus", SPAN, [dyckalgebra], "op_dminus", _velement_terms),
    ("dyckalgebra.op_dplus", SPAN, [dyckalgebra], "op_dplus", _velement_terms),
    ("dyckalgebra.op_phi", SPAN, [dyckalgebra], "op_phi", _velement_terms),
    ("dyckalgebra.op_t", COUNT, [dyckalgebra], "op_t", _velement_terms),
    ("rewrite.normalize", SPAN, [rewrite], "normalize", _terminal_words),
    ("rewrite.rewrite_case0", COUNT, [rewrite], "rewrite_case0", None),
    ("rewrite.rewrite_push_T", COUNT, [rewrite], "rewrite_push_T", None),
    ("rewrite.lincomb_to_e", SPAN, [rewrite], "lincomb_to_e", None),
    ("rewrite.e_positivity_report", SPAN, [rewrite], "e_positivity_report", None),
    ("symfunc.e_mu_in_p", SPAN, [symfunc, llt], "e_mu_in_p", None),
    ("symfunc.e_in_p", COUNT, [symfunc, dyckalgebra], "e_in_p", None),
    ("symfunc.expand_in_vars", SPAN, [symfunc, llt], "expand_in_vars", _xpoly_terms),
    ("llt.ssyt_generating_function", SPAN, [llt], "ssyt_generating_function", _fillings),
    ("llt.llt_in_vars", SPAN, [llt], "llt_in_vars", None),
    ("llt.to_schroeder_word", SPAN, [llt], "to_schroeder_word", None),
    ("qpoly.QPoly.mul", COUNT, [qpoly.QPoly], "__mul__", None),
    ("qpoly.QPoly.mul", COUNT, [qpoly.QPoly], "__rmul__", None),
    ("qpoly.QPoly.add", COUNT, [qpoly.QPoly], "__add__", None),
    ("qpoly.QPoly.add", COUNT, [qpoly.QPoly], "__radd__", None),
]

SPAN_NAMES = sorted({name for name, kind, *_ in TARGETS if kind != COUNT})
CALL_NAMES = sorted({name for name, *_ in TARGETS})
HOOK_NAMES = sorted(
    {"llt.fillings", "rewrite.terminal_words", "symfunc.expand_in_vars.terms",
     "dyckalgebra.velement_terms_max"}
)


def metric_names() -> list[str]:
    """Every per-layer metric a traced pass reports."""
    return sorted(
        [f"{name}.s" for name in SPAN_NAMES]
        + [f"{name}.calls" for name in CALL_NAMES]
        + HOOK_NAMES
    )


class Tracer:
    """Installs the wrappers, records spans and counts, removes the wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.item = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _record(self, calls_key, args, out, hook):
        self.counts[calls_key] += 1
        if hook is not None:
            key, amount = hook(args, out)
            if key.endswith("_max"):
                self.counts[key] = max(self.counts[key], amount)
            else:
                self.counts[key] += amount

    def _span(self, name, fn, hook, consume=False):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        calls_key = name + ".calls"

        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
                if consume:
                    out = iter(list(out))
            finally:
                rec[2] = clock()
                stack.pop()
            self._record(calls_key, args, out, hook)
            return out

        return wrapper

    def _count(self, name, fn, hook):
        calls_key = name + ".calls"

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self._record(calls_key, args, out, hook)
            return out

        return wrapper

    def install(self) -> None:
        for name, kind, namespaces, attr, hook in TARGETS:
            for ns in namespaces:
                fn = getattr(ns, attr)
                self._saved.append((ns, attr, fn))
                if kind == COUNT:
                    wrapper = self._count(name, fn, hook)
                else:
                    wrapper = self._span(name, fn, hook, consume=kind == GENERATOR)
                setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            ns, attr, fn = self._saved.pop()
            setattr(ns, attr, fn)

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _item in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        total = Counter()
        for (name, start, end, _parent, _item), covered in zip(self.spans, child_ns):
            total[name] += end - start - covered
        return {name: total[name] / 1e9 for name in SPAN_NAMES}

    def layer_metrics(self) -> dict[str, float]:
        out = {f"{name}.s": s for name, s in self.self_times().items()}
        for name in CALL_NAMES:
            out[name + ".calls"] = self.counts[name + ".calls"]
        for name in HOOK_NAMES:
            out[name] = self.counts[name]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps([name, start, end, parent, item]) + "\n")
