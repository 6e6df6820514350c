"""Spans around the calls into each ftakit layer, for the traced run.

Inside ``with traced(tracer):`` the names through which the workloads reach
each layer are replaced by recording wrappers: the ``generate_trim``,
``determinize``, ``minimize``, ``trim_ratio`` and ``language_fingerprint``
names that ``ftakit.experiment`` imports, the ``to_fta`` methods of the
determinized and canonical tables, and the experiment functions the
workloads call.  The originals are restored on exit, so untraced rounds run
the library untouched.  A span keeps its name, start, end, parent span, run
id and the counts read off the call's arguments and result.
"""

from __future__ import annotations

import functools
import json
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

from ftakit import constructions, experiment
from ftakit.errors import ExhaustionError


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; ``run`` tags the spans of the current round."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = ""
        self._stack: list[int] = []
        self._origin = perf_counter()

    def wrap(self, name, fn, attrs_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, 0.0, 0.0, parent, self.run)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except ExhaustionError as err:
                span.attrs = {"attempts": err.attempts, "exhausted": 1}
                raise
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if attrs_of is not None:
                span.attrs = attrs_of(result, *args)
            return result

        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps({
                    "name": s.name, "start": s.start - self._origin,
                    "end": s.end - self._origin, "parent": s.parent,
                    "run": s.run, **s.attrs,
                }) + "\n")


def _trees_up_to(alphabet, height: int) -> int:
    """Number of ground trees of height <= ``height``, as ``enumerate_trees`` lists them."""
    count = 0
    for _ in range(height + 1):
        count = sum(count ** rank for _, rank in alphabet.symbols)
    return count


def _table_counts(dfta) -> dict:
    return {"subsets": dfta.n_states,
            "pair_images": len(dfta.binary) * dfta.n_states ** 2}


# (owner, attribute, span name, counts from (result, *args))
_TARGETS = (
    (experiment, "generate_trim", "randgen.generate_trim",
     lambda res, *a: {"attempts": res[1], "exhausted": 0}),
    (experiment, "trim_ratio", "randgen.trim_ratio",
     lambda est, *a: {"draws": est.trials, "hits": est.hits}),
    (experiment, "determinize", "constructions.determinize",
     lambda dfta, *a: _table_counts(dfta)),
    (experiment, "minimize", "constructions.minimize",
     lambda can, dfta: {"canonical_states": can.n_states,
                        "table_bytes": 4 * _table_counts(dfta)["pair_images"]}),
    (constructions.Dfta, "to_fta", "constructions.to_fta", None),
    (constructions.CanonicalFta, "to_fta", "constructions.to_fta", None),
    (experiment, "language_fingerprint", "core.language_fingerprint",
     lambda fp, fta, height, *a: {"trees": _trees_up_to(fta.alphabet, height),
                                  "accepted": len(fp)}),
    (experiment, "run_point", "experiment.run_point",
     lambda rec, *a: {"x": rec.x, "exhausted": int(rec.exhausted)}),
    (experiment, "run_sweep", "experiment.run_sweep", None),
    (experiment, "table_trim", "experiment.table_trim", None),
    (experiment, "equivalence_failures", "experiment.equivalence_failures", None),
)


@contextmanager
def traced(tracer: Tracer):
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in _TARGETS]
    try:
        for owner, attr, name, attrs_of in _TARGETS:
            setattr(owner, attr, tracer.wrap(name, vars(owner)[attr], attrs_of))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def _children_seconds(spans: list[Span]) -> list[float]:
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.seconds
    return covered


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, as ``name -> (value, unit)``.

    Busy time is the summed duration of a layer's spans; no layer span
    nests inside another, so each is also that layer's self time.
    ``experiment.self_s`` is the experiment spans' duration minus their
    children's, which makes the layer busy times and ``experiment.self_s``
    add up to the root spans' duration.
    """
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def of(name):
        return by_name.get(name, [])

    def busy(name):
        return sum((s.seconds for s in of(name)), 0.0)

    def total(name, key):
        return sum(s.attrs.get(key, 0) for s in of(name))

    def ms(name, stat):
        times = [s.seconds * 1e3 for s in of(name)]
        return stat(times) if times else 0.0

    gen = of("randgen.generate_trim")
    attempts = total("randgen.generate_trim", "attempts")
    exhausted = total("randgen.generate_trim", "exhausted")
    covered = _children_seconds(spans)
    self_s = sum(s.seconds - covered[i] for i, s in enumerate(spans)
                 if s.name.startswith("experiment."))
    minimize = of("constructions.minimize")
    return {
        "randgen.generate_trim.busy_s": (busy("randgen.generate_trim"), "s"),
        "randgen.generate_trim.calls": (len(gen), "count"),
        "randgen.attempts": (attempts, "count"),
        "randgen.accept_ratio": ((len(gen) - exhausted) / attempts if attempts else 0.0,
                                 "ratio"),
        "randgen.exhausted": (exhausted, "count"),
        "randgen.trim_ratio.busy_s": (busy("randgen.trim_ratio"), "s"),
        "randgen.trim_ratio.draws": (total("randgen.trim_ratio", "draws"), "count"),
        "randgen.trim_ratio.hits": (total("randgen.trim_ratio", "hits"), "count"),
        "constructions.determinize.busy_s": (busy("constructions.determinize"), "s"),
        "constructions.determinize.p50_ms": (ms("constructions.determinize",
                                                statistics.median), "ms"),
        "constructions.determinize.max_ms": (ms("constructions.determinize", max), "ms"),
        "constructions.subsets": (total("constructions.determinize", "subsets"), "count"),
        "constructions.pair_images": (total("constructions.determinize", "pair_images"),
                                      "count"),
        "constructions.minimize.busy_s": (busy("constructions.minimize"), "s"),
        "constructions.minimize.max_ms": (ms("constructions.minimize", max), "ms"),
        "constructions.canonical_states": (total("constructions.minimize",
                                                 "canonical_states"), "count"),
        "constructions.table_bytes_max": (max((s.attrs["table_bytes"] for s in minimize),
                                              default=0), "bytes"),
        "constructions.to_fta.busy_s": (busy("constructions.to_fta"), "s"),
        "core.language_fingerprint.busy_s": (busy("core.language_fingerprint"), "s"),
        "core.language_fingerprint.calls": (len(of("core.language_fingerprint")), "count"),
        "core.trees_enumerated": (total("core.language_fingerprint", "trees"), "count"),
        "core.accepted_trees": (total("core.language_fingerprint", "accepted"), "count"),
        "experiment.self_s": (self_s, "s"),
        "experiment.points": (len(of("experiment.run_point")), "count"),
        "experiment.points_exhausted": (total("experiment.run_point", "exhausted"), "count"),
    }


POINT_COLUMNS = ("x", "points", "generate_s", "determinize_s", "minimize_s",
                 "attempts", "subsets")


def point_breakdown(spans: list[Span]) -> list[tuple]:
    """Per grid index x: points, layer busy seconds, trim attempts, subsets."""
    rows: dict[int, list] = {}
    column = {"randgen.generate_trim": 2, "constructions.determinize": 3,
              "constructions.minimize": 4}
    for s in spans:
        if s.name == "experiment.run_point":
            rows.setdefault(s.attrs["x"], [s.attrs["x"], 0, 0.0, 0.0, 0.0, 0, 0])[1] += 1
    for s in spans:
        if s.name not in column or s.parent is None:
            continue
        point = spans[s.parent]
        if point.name != "experiment.run_point":
            continue
        row = rows[point.attrs["x"]]
        row[column[s.name]] += s.seconds
        row[5] += s.attrs.get("attempts", 0)
        row[6] += s.attrs.get("subsets", 0)
    return [tuple(rows[x]) for x in sorted(rows)]
