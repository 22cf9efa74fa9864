"""Span tracing from outside the package, for the traced run only.

``Tracer.install`` replaces public linpath names where their callers look
them up (module globals, and ``Hypergraph.__init__`` / ``LinearPath.validate``
on the classes) with wrappers that time a span or count a call;
``uninstall`` puts the originals back.  Spans are kept in memory,
aggregated by (parent span, span) so that hundreds of thousands of calls
cost a few dictionary entries, and self time is the span's duration minus
the time of the spans it caused.  The untraced run never imports this.
"""

from __future__ import annotations

import json
import time
from collections import Counter

from linpath import constructions, finder, harness, hypergraph, oracle
from linpath.hypergraph import Hypergraph
from linpath.paths import LinearPath

ROOT = "-"


class Tracer:
    def __init__(self):
        self.stack = []  # [name, child seconds] per open span
        self.active = Counter()  # open spans per name, for inclusive time
        self.edges = {}  # (parent, name) -> [calls, seconds, self seconds]
        self.inclusive = Counter()  # name -> seconds, nested repeats once
        self.counts = Counter()
        self._undo = []

    # -- recording -------------------------------------------------------

    def _enter(self, name):
        self.stack.append([name, 0.0])
        self.active[name] += 1

    def _leave(self, name, seconds):
        """Close the innermost span, recording it under name (which may
        differ from the name it was opened with)."""
        opened, child_seconds = self.stack.pop()
        self.active[opened] -= 1
        parent = self.stack[-1][0] if self.stack else ROOT
        if self.stack:
            self.stack[-1][1] += seconds
        rec = self.edges.setdefault((parent, name), [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += seconds
        rec[2] += seconds - child_seconds
        if not self.active[opened]:
            self.inclusive[name] += seconds

    def span(self, name, fn, classify=None):
        """Wrap fn in a span; classify(result) may rename it on return."""
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            self._enter(name)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                final = name if classify is None else classify(result)
                self._leave(final, clock() - start)
        return wrapper

    def hits(self, name, fn):
        """Count calls of fn and the calls that return something."""
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[name + ".calls"] += 1
            self.counts[name + ".hits"] += result is not None
            return result
        return wrapper

    def counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def generator_span(self, name, fn):
        """Time every resumption of the generator fn returns; count yields."""
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                self._enter(name)
                start = clock()
                try:
                    value = next(gen)
                except StopIteration:
                    return
                finally:
                    self._leave(name, clock() - start)
                self.counts[name + ".yields"] += 1
                yield value
        return wrapper

    def with_moves(self, fn):
        """find_guaranteed with its on_move callback counting moves by kind."""
        counts = self.counts

        def wrapper(H, t, budget=None, on_move=None):
            def counting(kind, length, m):
                counts["finder.moves_" + kind] += 1
                if on_move is not None:
                    on_move(kind, length, m)
            return fn(H, t, budget, counting)
        return wrapper

    # -- installing ------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        path_kind = lambda r: "oracle.find_path_" + ("absent" if r is None else "present")
        wraps = {
            (Hypergraph, "__init__"): self.span("hypergraph.init", Hypergraph.__init__),
            (LinearPath, "validate"): self.counted("paths.validate", LinearPath.validate),
            (hypergraph, "parse"): self.span("hypergraph.parse", hypergraph.parse),
            (hypergraph, "serialize"): self.span("hypergraph.serialize", hypergraph.serialize),
            (oracle, "find_path"): self.span("oracle.find_path", oracle.find_path, path_kind),
            (oracle, "enumerate_hypergraphs"):
                self.generator_span("oracle.enumerate", oracle.enumerate_hypergraphs),
            (finder, "make_context"): self.span("finder.make_context", finder.make_context),
            (finder, "extend"): self.span("finder.extend", self.hits("finder.extend", finder.extend)),
            (finder, "improve_via_codegree"):
                self.span("finder.splice", self.hits("finder.splice", finder.improve_via_codegree)),
            (finder, "rotate"): self.span("finder.rotate", self.hits("finder.rotate", finder.rotate)),
            (finder, "closure_witness"): self.span("finder.closure", finder.closure_witness),
            (finder, "unfold_cycle_plus"):
                self.span("finder.unfold", self.hits("finder.unfold", finder.unfold_cycle_plus)),
        }
        found = self.span("finder.find_guaranteed", self.with_moves(finder.find_guaranteed))
        generate = self.span("harness.generate", harness.random_min_degree_graph)
        star = self.span("constructions.gen", constructions.gen_star)
        star_plus = self.span("constructions.gen", constructions.gen_star_plus)
        for module in (finder, harness):
            wraps[(module, "find_guaranteed")] = found
        for module in (harness, constructions):
            wraps[(module, "gen_star")] = star
            wraps[(module, "gen_star_plus")] = star_plus
        wraps[(harness, "random_min_degree_graph")] = generate
        wraps[(harness, "make_context")] = wraps[(finder, "make_context")]
        for (owner, attr), wrapper in wraps.items():
            self._patch(owner, attr, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------

    def snapshot(self):
        """Plain-data copy of everything recorded so far."""
        return {
            "spans": [
                {"parent": p, "name": n, "calls": c, "seconds": s, "self_seconds": own}
                for (p, n), (c, s, own) in sorted(self.edges.items())
            ],
            "inclusive_seconds": dict(self.inclusive),
            "counts": dict(self.counts),
        }


def layer_metrics(setup, timed, rounds):
    """Per-layer figures for one setup plus one round.

    setup and timed are snapshots of a tracer over the traced set-up and
    over `rounds` traced rounds; times are in ms.
    """
    def per(name, kind):
        a = _value(setup, name, kind)
        return a + _value(timed, name, kind) / rounds

    def ratio(num, den):
        d = per(den[0], den[1])
        return per(num[0], num[1]) / d if d else 0.0

    ms = lambda name: per(name, "inclusive") * 1e3
    calls = lambda name: per(name, "calls")
    count = lambda name: per(name, "count")
    out = {
        "hypergraph.init_ms": (ms("hypergraph.init"), "ms"),
        "hypergraph.init_calls": (calls("hypergraph.init"), "count"),
        "harness.generate_ms": (ms("harness.generate"), "ms"),
        "hypergraph.parse_ms": (ms("hypergraph.parse"), "ms"),
        "hypergraph.serialize_ms": (ms("hypergraph.serialize"), "ms"),
        "constructions.gen_ms": (ms("constructions.gen"), "ms"),
        "oracle.find_path_absent_ms": (ms("oracle.find_path_absent"), "ms"),
        "oracle.find_path_present_ms": (ms("oracle.find_path_present"), "ms"),
        "oracle.find_path_calls": (calls("oracle.find_path_absent")
                                   + calls("oracle.find_path_present"), "count"),
        "oracle.enumerate_ms": (ms("oracle.enumerate"), "ms"),
        "oracle.enumerate_kept_ratio": (
            ratio(("oracle.enumerate.yields", "count"),
                  ("oracle.enumerate>hypergraph.init", "edge_calls")), "ratio"),
        "finder.find_guaranteed_self_ms": (
            per("finder.find_guaranteed", "self") * 1e3, "ms"),
        "finder.make_context_ms": (ms("finder.make_context"), "ms"),
        "finder.make_context_calls": (calls("finder.make_context"), "count"),
    }
    for move in ("extend", "splice", "rotate", "unfold"):
        out[f"finder.moves_{move}"] = (count(f"finder.moves_{move}"), "count")
    for move in ("extend", "splice", "rotate", "unfold"):
        out[f"finder.{move}_hit_ratio"] = (
            ratio((f"finder.{move}.hits", "count"), (f"finder.{move}.calls", "count")),
            "ratio")
    out["paths.validate_calls"] = (count("paths.validate"), "count")
    return out


def _value(snap, name, kind):
    if kind == "inclusive":
        return snap["inclusive_seconds"].get(name, 0.0)
    if kind == "count":
        return snap["counts"].get(name, 0)
    if kind == "edge_calls":
        parent, child = name.split(">")
        return sum(s["calls"] for s in snap["spans"]
                   if s["parent"] == parent and s["name"] == child)
    field = {"calls": "calls", "self": "self_seconds"}[kind]
    return sum(s[field] for s in snap["spans"] if s["name"] == name)


def self_shares(snap, wall_seconds):
    """Each span's self time as a share of the traced wall time, and the
    share spent outside every span (the benchmark loop and untraced code)."""
    own = Counter()
    for s in snap["spans"]:
        own[s["name"]] += s["self_seconds"]
    top = sum(s["seconds"] for s in snap["spans"] if s["parent"] == ROOT)
    own["(outside spans)"] = wall_seconds - top
    return {name: sec / wall_seconds for name, sec in own.most_common()}


def write(path, record):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
