"""Spans and counters around veroproj's public layer functions, from outside.

`Tracer.install` wraps each function named in LAYERS and rebinds every
attribute of every loaded ``veroproj`` module that holds it, so calls from
one module into another go through the wrapper as well.  Nothing under
``src/`` changes, and an untraced run wraps nothing.  A name the package
no longer exports is listed in `missing` and its metrics read 0.

A span records its name, its parent span and its start and end.  A span
opened in a worker thread with no open span of its own takes the main
thread's innermost open span as parent, which is where a survey submits
its rows from.  Self time is a span's duration minus that of its children.
Counters are computed from the wrapped calls' public arguments and results.
"""
from __future__ import annotations

import functools
import math
import sys
import threading
import time
from collections import Counter, defaultdict


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _buchberger(counts: Counter, args, kwargs, result, exc) -> None:
    if exc is not None:
        if type(exc).__name__ == "BuchbergerAborted":
            counts["aborted"] += 1
        return
    counts["elements"] += len(result.elements)
    counts["inputs"] += len(_arg(args, kwargs, 0, "gens"))


def _search(counts: Counter, args, kwargs, result, exc) -> None:
    if exc is None:
        counts["tried"] += result.tried
        counts["found"] += result.status == "found"
        counts["impossible"] += bool(result.impossible)


def _toric(counts: Counter, args, kwargs, result, exc) -> None:
    if exc is None:
        counts["binomials"] += len(result)


def _table(counts: Counter, args, kwargs, result, exc) -> None:
    if exc is None:
        mu = len(_arg(args, kwargs, 0, "omega"))
        counts["multisets"] += sum(
            math.comb(mu + k - 1, k) for k in range(2, result.verified_up_to + 1)
        )
        counts["generators"] += sum(result.degrees.values())


def _invariants(counts: Counter, args, kwargs, result, exc) -> None:
    if exc is None:
        counts["members"] += len(result)


# span name -> (names exported by veroproj that it wraps, counter observer)
LAYERS = {
    "groebner.buchberger": (("buchberger",), _buchberger),
    "groebner.search_quadratic_order": (("search_quadratic_order",), _search),
    "groebner.toric_generators": (("toric_generators",), _toric),
    "groebner.lift": (("lift_omega", "lift_order"), None),
    "groebner.parse_order": (("parse_order",), None),
    "fibers.minimal_generator_table": (("minimal_generator_table",), _table),
    "fibers.is_2_normal": (("is_2_normal",), None),
    "fibers.hilbert_values": (("hilbert_values",), None),
    "groups.invariants_of_degree": (("invariants_of_degree",), _invariants),
    "families.build": (("FamilySpec.build",), None),
    "families.koszul_label": (("koszul_label",), None),
    "survey.build_survey_row": (("build_survey_row",), None),
    "survey.survey_groups": (("survey_groups",), None),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index or None, start, end]
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.missing: list[str] = []
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._lock = threading.Lock()

    def install(self, vp) -> None:
        modules = [
            m for name, m in sys.modules.items() if name == vp.__name__ or name.startswith(vp.__name__ + ".")
        ]
        for span, (exported, observe) in LAYERS.items():
            for path in exported:
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(vp, owner_name, None) if owner_name else vp
                fn = getattr(owner, attr, None)
                if fn is None:
                    self.missing.append(path)
                    continue
                wrapper = self._wrap(span, fn, observe)
                if owner_name:
                    setattr(owner, attr, wrapper)
                    continue
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, name, wrapper)

    def _wrap(self, span: str, fn, observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(index)
                self._observe(span, observe, args, kwargs, None, exc)
                raise
            self._close(index)
            self._observe(span, observe, args, kwargs, result, None)
            return result

        return wrapper

    def _observe(self, span: str, observe, args, kwargs, result, exc) -> None:
        if observe is None:
            return
        try:
            observe(self.counts[span], args, kwargs, result, exc)
        except (AttributeError, IndexError, KeyError, TypeError):
            # the call's signature or result changed shape: its counters stop, the run goes on
            if span + ".counters" not in self.missing:
                self.missing.append(span + ".counters")

    def _open(self, name: str) -> int:
        ident = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(ident, [])
            main = self._stacks.get(self._main)
            parent = stack[-1] if stack else (main[-1] if main and ident != self._main else None)
            self.spans.append([name, parent, time.perf_counter(), None])
            stack.append(len(self.spans) - 1)
            return len(self.spans) - 1

    def _close(self, index: int) -> None:
        end = time.perf_counter()
        with self._lock:
            self.spans[index][3] = end
            self._stacks[threading.get_ident()].pop()

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced job that took wall_s seconds."""
        children = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent is not None:
                children[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        roots = 0.0
        for index, (name, parent, start, end) in enumerate(self.spans):
            self_s[name] += end - start - children[index]
            calls[name] += 1
            if parent is None:
                roots += end - start
        out = {f"{name}.self_s": self_s[name] for name in LAYERS}
        bb = self.counts["groebner.buchberger"]
        sq = self.counts["groebner.search_quadratic_order"]
        table = self.counts["fibers.minimal_generator_table"]
        decided = calls["groebner.search_quadratic_order"] - sq["impossible"]
        out.update({
            "groebner.buchberger.calls": calls["groebner.buchberger"],
            "groebner.buchberger.aborted": bb["aborted"],
            "groebner.buchberger.elements": bb["elements"],
            "groebner.buchberger.growth": bb["elements"] / bb["inputs"] if bb["inputs"] else 0.0,
            "groebner.search_quadratic_order.calls": calls["groebner.search_quadratic_order"],
            "groebner.search_quadratic_order.tried": sq["tried"],
            "groebner.search_quadratic_order.found_frac": sq["found"] / decided if decided else 0.0,
            "groebner.toric_generators.binomials": self.counts["groebner.toric_generators"]["binomials"],
            "fibers.minimal_generator_table.calls": calls["fibers.minimal_generator_table"],
            "fibers.minimal_generator_table.multisets": table["multisets"],
            "fibers.minimal_generator_table.generators": table["generators"],
            "groups.invariants_of_degree.calls": calls["groups.invariants_of_degree"],
            "groups.invariants_of_degree.members": self.counts["groups.invariants_of_degree"]["members"],
            "survey.build_survey_row.calls": calls["survey.build_survey_row"],
            "bench.unaccounted_s": wall_s - roots,
        })
        return out
