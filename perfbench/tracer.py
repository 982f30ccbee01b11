"""Outside-in tracing of the ``krc`` layers.

The program has no hooks of its own, so the tracer replaces each public
function of a layer module with a wrapper.  Modules import names directly
(``complexity`` and ``cli`` do ``from .semilocal import gm_quotient``), so a
wrapper is bound at every ``krc.*`` module attribute that holds the original
function, and ``uninstall`` puts every original back.

A wrapped call records a span ``(name, start, end, parent)``; spans stay in
memory until the run writes them out.  Functions called millions of times
per pass (``core.compose`` and the division search's ``_relation_closure``)
are only counted: their time stays with the calling span, and the memory for
the spans stays bounded.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("core", "semilocal", "spc", "flows", "products", "complexity", "fileformats", "cli")
COUNT_ONLY = {("core", "compose"), ("products", "_relation_closure")}
CLASSMETHODS = (("core", "FiniteSemigroup", "generate"), ("core", "FiniteSemigroup", "from_elements"))


def _is_witness(value) -> bool:
    return type(value).__name__ == "DivisionWitness"


def _counters():
    """Work counts taken at layer boundaries: name -> fn(counts, args, kwargs, result)."""

    def built(c, args, kw, result):
        c["core.semigroups_built"] += 1
        c["core.elements_enumerated"] += len(args[1])

    def gm(c, args, kw, result):
        c["semilocal.gm_quotient_calls"] += 1
        c["semilocal.gm_jclass_elements"] += len(args[1].members)

    def closure(c, args, kw, result):
        c["products.closures"] += 1

    def division(c, args, kw, result):
        c["products.division_checks"] += 1
        c["products.witnesses"] += _is_witness(result)

    def flow_verified(c, args, kw, result):
        c["flows.flows_verified"] += result is True

    def dumped(c, args, kw, result):
        c["fileformats.bytes_dumped"] += len(result)

    def simple(key):
        def count(c, args, kw, result):
            c[key] += 1
        return count

    return {
        "core.FiniteSemigroup.__init__": built,
        "core.compose": simple("core.compose_calls"),
        "semilocal.gm_quotient": gm,
        "semilocal.group_mapping_presentation": simple("semilocal.presentations"),
        "spc.enumerate_spcs": lambda c, a, k, r: c.update({"spc.spcs_enumerated": len(r)}),
        "flows.transition_semigroup": simple("flows.transition_semigroups"),
        "flows.verify_flow": flow_verified,
        "flows.presentation_construct": simple("flows.constructions"),
        "products.check_division": division,
        "products._relation_closure": closure,
        "complexity.estimate": simple("complexity.nodes"),
        "fileformats.parse_semigroup": simple("fileformats.parses"),
        "fileformats.dump_semigroup": dumped,
        "fileformats.dump_flow": dumped,
        "fileformats.dump_spc": dumped,
        "fileformats.dump_group": dumped,
        "fileformats.dump_automaton": dumped,
    }


class Tracer:
    """Spans and counts for one traced pass; ``install`` before, ``uninstall`` after."""

    def __init__(self, only=None):
        """``only``: the span names to wrap (e.g. ``{"products.check_division"}``);
        None wraps every layer."""
        self.only = only
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, count, record_span: bool):
        counts, stack, spans, clock = self.counts, self._stack, self.spans, time.perf_counter

        if not record_span:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                count(counts, args, kwargs, result)
                return result
            return counted

        def spanned(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return spanned

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        counters = _counters()
        modules = [m for n, m in sorted(sys.modules.items()) if n == "krc" or n.startswith("krc.")]
        for layer in LAYERS:
            mod = sys.modules[f"krc.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and (layer, attr) not in COUNT_ONLY:
                    continue
                name = f"{layer}.{attr}"
                if self.only is not None and name not in self.only:
                    continue
                wrapper = self._wrap(name, fn, counters.get(name), (layer, attr) not in COUNT_ONLY)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._patch(holder, key, wrapper)
        if self.only is not None:
            return
        for layer, cls_name, attr in CLASSMETHODS:
            cls = getattr(sys.modules[f"krc.{layer}"], cls_name)
            fn = cls.__dict__[attr].__func__
            name = f"{layer}.{cls_name}.{attr}"
            self._patch(cls, attr, classmethod(self._wrap(name, fn, None, True)))
        cls = sys.modules["krc.core"].FiniteSemigroup
        init = cls.__dict__["__init__"]
        self._patch(cls, "__init__", self._wrap("core.FiniteSemigroup.__init__", init,
                                                counters["core.FiniteSemigroup.__init__"], False))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layer_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per layer: self time (span minus child spans) and, per span name,
        the inclusive time."""
        # A span still None was cut off by the pass ceiling before it began.
        child = [0.0] * len(self.spans)
        for name, start, end, parent in filter(None, self.spans):
            if parent >= 0:
                child[parent] += end - start
        self_s = {layer: 0.0 for layer in LAYERS}
        total_s: dict[str, float] = {}
        for span, inner in zip(self.spans, child):
            if span is None:
                continue
            name, start, end, parent = span
            self_s[name.split(".", 1)[0]] += end - start - inner
            total_s[name] = total_s.get(name, 0.0) + end - start
        return self_s, total_s

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"spans": self.spans, "counts": dict(sorted(self.counts.items()))}, fh)
