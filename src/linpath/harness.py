"""Verification campaigns: construction certificates, exhaustive small-order
checks, codegree-bound sweeps, and seeded random trials with CSV output.

Every campaign is replayable: regenerating from (kind, parameters, seed)
reproduces identical observations, and any failing instance is preserved in
the core text format.
"""

from __future__ import annotations

import csv
import io
import math
import random
import time
from dataclasses import dataclass, field
from functools import cache
from itertools import islice
from math import comb
from pathlib import Path
from typing import List, Optional, Tuple

from . import oracle
from .constructions import (
    g_bound,
    gen_star,
    gen_star_plus,
    star_min_degree,
    star_plus_min_degree,
    theorem_threshold,
)
from .errors import InvalidParameterError
from .finder import find_guaranteed, improve_via_codegree
from .hypergraph import Hypergraph, all_triples, one_based, serialize
from .paths import CyclePlusWitness, LinearPath, PathContext, make_context
from .report import VerificationReport

CSV_COLUMNS = (
    "trial_id",
    "seed",
    "n",
    "delta1",
    "t",
    "finder_result",
    "moves_used",
    "oracle_agrees",
    "wall_time",
)


@dataclass
class ExperimentConfig:
    n: int
    t: int
    min_degree: int
    trials: int
    seed: int
    out: Optional[str] = None
    oracle_checks: int = 0
    # wall_time is left blank unless timing is requested, so that replays
    # with the same seed produce byte-identical CSV
    timing: bool = False

    def validate(self) -> "ExperimentConfig":
        if self.trials < 1:
            raise InvalidParameterError("trial count must be >= 1")
        if self.oracle_checks < 0:
            raise InvalidParameterError("oracle check count must be >= 0")
        return self


@dataclass
class TrialsResult:
    rows: List[List[str]]
    success_rate: float
    counterexamples: List[Tuple[str, str]] = field(default_factory=list)

    def csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(self.rows)
        return buf.getvalue()


def random_min_degree_graph(n: int, delta: int, seed: int) -> Hypergraph:
    """A seeded random simple 3-graph with min degree >= delta.

    One ``random()`` draw per triple, in lexicographic order, keeps each
    triple with probability calibrated so the expected degree is about
    d + 3*sqrt(d), where d = max(delta, 1), so a host with no degree bound
    still has edges.  That draw is the host unless some vertex falls short
    of delta; vertices still short are then repaired with uniformly random
    missing triples.  The random numbers, and so the host, depend
    only on (n, delta, seed): replays are byte-identical.  The repair bias
    is acceptable: downstream claims quantify over all graphs meeting the
    degree bound.
    """
    if n < 3:
        raise InvalidParameterError(f"need n >= 3 for 3-graphs, got {n}")
    _check_min_degree(n, delta)
    rng = random.Random(seed)
    d = max(delta, 1)
    p = min(1.0, (d + 3 * math.sqrt(d)) / comb(n - 1, 2))
    H = _random_3graph(n, p, rng)
    if H.min_degree() >= delta:
        return H
    chosen = set(H.edges)
    deg = [H.degree(v) for v in range(n)]
    for low in range(n):  # degrees only grow: low is the least short vertex
        while deg[low] < delta:
            candidates = [tr for tr in all_triples(n) if low in tr and tr not in chosen]
            tr = rng.choice(candidates)
            chosen.add(tr)
            for v in tr:
                deg[v] += 1
    return Hypergraph(n, tuple(sorted(chosen)))


def _check_min_degree(n: int, delta: int) -> None:
    """Refuse a degree bound below 0 or, for n >= 3, above C(n-1, 2): no
    vertex of a 3-graph on n vertices has more."""
    if delta < 0:
        raise InvalidParameterError(f"need min degree >= 0, got {delta}")
    if n >= 3 and delta > comb(n - 1, 2):
        raise InvalidParameterError(f"delta={delta} exceeds C({n - 1},2)={comb(n - 1, 2)}")


def verify_construction(kind: str, r: int, n: int, k: int) -> VerificationReport:
    """Certify a star or star-plus instance: exact minimum degree, the
    promised path present, the next length provably absent (oracle)."""
    if kind == "star":
        H = gen_star(r, n, k)
        expected_delta = star_min_degree(n, k)
        free_len = 2 * k + 1
    elif kind == "star_plus":
        H = gen_star_plus(r, n, k)
        expected_delta = star_plus_min_degree(n, k)
        free_len = 2 * k + 2
    else:
        raise InvalidParameterError(f"no certification defined for kind {kind!r}")
    present_len = free_len - 1  # the longest path, where n fits it
    report = VerificationReport(subject=f"{kind}(r={r}, n={n}, k={k})")
    observed_delta = H.min_degree()
    report.add("min_degree", expected_delta, observed_delta, observed_delta == expected_delta)
    absent = oracle.find_path(H, free_len)
    report.add(f"no_path_len_{free_len}", "absent",
               "absent" if absent is None else "present", absent is None)
    if n >= 2 * present_len + 1:
        hit = oracle.find_path(H, present_len)
        report.add(f"path_len_{present_len}", "present",
                   "present" if hit is not None else "absent", hit is not None)
        if hit is not None:
            report.witnesses.append(one_based(hit.vertices))
    return report


def exhaustive_check(n: int, delta: int, t: int) -> VerificationReport:
    """Over every labeled 3-graph on n vertices (n <= 6) with min degree at
    least delta, confirm a linear t-path exists; every counterexample is
    counted, and the first five are serialized and kept.

    No host is searched.  The hosts are one set, ``oracle.edge_mask_set``,
    with a bit per passing edge mask, and ``oracle.masks_with_path`` is the
    set of masks whose host has a t-path.  The counterexamples are the
    hosts minus that set; ``oracle.enumerate_hypergraphs`` builds the five
    least, which are serialized.
    """
    if t < 1:
        raise InvalidParameterError(f"path length t={t} must be >= 1")
    _check_min_degree(n, delta)  # an order below 3 is refused by edge_mask_set
    hosts = oracle.edge_mask_set(n, delta)
    missing = hosts & ~oracle.masks_with_path(n, t)
    total = hosts.bit_count()
    passed = total - missing.bit_count()
    counterexamples = [serialize(H) for H in islice(oracle.enumerate_hypergraphs(n, missing), 5)]
    report = VerificationReport(subject=f"exhaustive n={n} delta>={delta} t={t}")
    report.add("graphs_checked", ">=1", total, total >= 1)
    report.add("all_contain_path", total, passed, passed == total)
    report.witnesses.extend(counterexamples)
    return report


def run_trials(config: ExperimentConfig) -> TrialsResult:
    """One row per trial; a summary row with the success rate closes the
    CSV.  The host of every trial reported LemmaStepFailed (a move broke,
    or the degree hypotheses held and no move applied) is preserved beside
    the CSV in the core text format."""
    config.validate()
    rows: List[List[str]] = []
    counterexamples: List[Tuple[str, str]] = []
    successes = 0
    for trial in range(config.trials):
        tseed = (config.seed * 1_000_003 + trial) & 0xFFFFFFFFFFFFFFFF
        H = random_min_degree_graph(config.n, config.min_degree, tseed)
        moves = [0]
        start = time.perf_counter()
        result = find_guaranteed(
            H, config.t, on_move=lambda *_args: moves.__setitem__(0, moves[0] + 1)
        )
        elapsed = time.perf_counter() - start
        ok = isinstance(result, LinearPath)
        successes += ok
        agrees = ""
        if trial < config.oracle_checks:
            agrees = str((oracle.find_path(H, config.t) is not None) == ok).lower()
        rows.append([
            str(trial),
            str(tseed),
            str(config.n),
            str(H.min_degree()),
            str(config.t),
            "path" if ok else result.reason,
            str(moves[0]),
            agrees,
            f"{elapsed:.3f}" if config.timing else "",
        ])
        if not ok and result.reason == "LemmaStepFailed":
            counterexamples.append(
                (f"counterexample_s{tseed}_t{trial}.h3", serialize(H))
            )
    rate = successes / config.trials
    rows.append([
        "summary", str(config.seed), str(config.n), str(config.min_degree),
        str(config.t), f"success_rate={rate:.6f}", "", "", "",
    ])
    result = TrialsResult(rows, rate, counterexamples)
    if config.out:
        out = Path(config.out)
        out.write_text(result.csv_text())
        for name, text in counterexamples:
            (out.parent / name).write_text(text)
    return result


def _random_3graph(n: int, p: float, rng: random.Random) -> Hypergraph:
    """Each triple kept with probability p: one ``rng.random()`` draw per
    triple, in lexicographic order."""
    draw = rng.random
    return Hypergraph(n, tuple([tr for tr in all_triples(n) if draw() < p]))


def lemma_sweep(
    n_range, t: int, samples: int, seed: int,
    max_paths: int = 40, family: str = "random",
) -> VerificationReport:
    """Sweep sampled hosts and check the codegree machinery both ways.

    On hosts certified (t+1)-path-free with degree >= g_bound (and order
    past the floor 2t+17), run the strong arm: the host has no
    (t+1)-cycle-plus, and every enumerated t-path must satisfy all
    codegree bounds.  A cycle-plus found there fails the report and keeps
    the host, serialized, among its witnesses.  On all other hosts, run
    the contrapositive arm: each overloaded configuration with a repair
    must be repaired into a longer path or a cycle-plus witness.  Both
    arms read one table of configurations, ``_codegree_rows``.

    family="star" (even t only) sweeps star(n, t//2) instead of random
    hosts, ignoring samples.  The star's longest path has exactly t edges
    and can be written down in closed form, so freeness is a construction
    guarantee and its t-paths are generated directly; exhaustive search is
    priced out at the orders where the star meets the degree bound.  With
    k = t/2 it meets g_bound(n, t) exactly from n >= (13k^2 - 7k + 12)/2,
    that is n >= 25, 54 and 96 for t = 4, 6 and 8; below that order the
    star family runs no check at all.
    """
    if family not in ("random", "star"):
        raise InvalidParameterError(f"no lemma sweep defined for family {family!r}")
    rng = random.Random(seed)
    report = VerificationReport(subject=f"lemma-sweep t={t} family={family}")
    if family == "star" and t % 2:
        raise InvalidParameterError(
            "star family needs even t: star(n, t//2) has longest path t"
        )
    for n in n_range:
        for j in range(1 if family == "star" else samples):
            if family == "star":
                H = gen_star(3, n, t // 2)
                paths = _star_sample_paths(n, t // 2, max_paths)
            else:
                p = rng.uniform(0.05, 0.5)
                H = _random_3graph(n, p, rng)
                paths = islice(oracle.iter_paths(H, t), max_paths)
            # the longest path in star(n, t//2) is t; a random host is
            # searched only once the cheap conditions hold
            strong = (
                t >= 3 and n >= theorem_threshold(n, t)[1] and H.min_degree() >= g_bound(n, t)
                and (family == "star" or oracle.find_path(H, t + 1) is None)
            )
            if strong:
                plus = oracle.find_cycle_plus(H, t + 1)
                report.add(
                    f"n={n} sample={j} no {t + 1}-cycle-plus", "absent",
                    "absent" if plus is None else plus, plus is None,
                )
                if plus is not None:
                    report.witnesses.append(serialize(H))
            for path in paths:
                ctx = make_context(H, path)
                if strong:
                    sub = check_lemma_bounds(ctx).passed
                    report.add(
                        f"n={n} sample={j} bounds {path.vertices}", "all hold",
                        "all hold" if sub else "violated", sub,
                    )
                else:
                    _contrapositive_checks(ctx, report, f"n={n} sample={j}")
    return report


def _star_sample_paths(n: int, k: int, count: int):
    """Maximum paths of star(3, n, k), written down directly.

    A 2k-path in the star must spend each head vertex on two consecutive
    edges, i.e. place head j at position 4j + 2; every other position is a
    tail.  Samples shift the tail block, staying within range.
    """
    for s in range(max(0, min(count, n - 4 * k))):
        tails = iter(range(k + s, n))
        heads = iter(range(k))
        seq = tuple(
            next(heads) if pos % 4 == 2 else next(tails)
            for pos in range(4 * k + 1)
        )
        yield LinearPath(seq)


def _codegree_rows(ctx: PathContext):
    """One (name, value, bound, repair) row per codegree configuration of
    ctx's path, in the order both arms report them.

    On a (t+1)-path-free host with degree at least g_bound(n, t), every
    value stays within its bound.  An overloaded row with a repair is
    turned by it into a longer path's context or a (t+1)-cycle-plus; a
    repair returns None when it fails.  The two sum caps carry no repair
    of their own.  Each side of a sum counts vertices off the path, so it
    is at most cap; an overloaded sum therefore has both sides positive.
    With cap >= 2 an odd_sum_cap overload is then an odd_crossing overload,
    and with cap >= 4 an even_sum_cap overload an even_crossing one, and
    those rows are repaired.  With a smaller cap nothing is claimed.
    """
    t = ctx.path.length
    cap = ctx.host.n - 2 * t - 1
    d = ctx.d
    # the splice depends only on ctx: run it at the first overload, once
    splice = cache(lambda: improve_via_codegree(ctx))
    yield "endpoint_codegree", d(0, 2 * t), 1, lambda: oracle.closure_witness(ctx)
    for k in range(t):
        i, j = d(0, 2 * k + 1), d(2 * k + 1, 2 * t)
        if i > 0 and j > 0:
            yield f"odd_crossing k={k}", i + j, 2, splice
        for endpoint, tag in ((0, "left"), (2 * t, "right")):
            a, b = d(2 * k, 2 * k + 2), d(endpoint, 2 * k + 1)
            if a > 0 and b > 0:
                yield f"connector_vs_odd k={k} end={tag}", a + b, 2, splice
        i2, j2 = d(0, 2 * k + 2), d(2 * k, 2 * t)
        if i2 > 0 and j2 > 0:
            # both sides are positive, so an overload (sum >= 5) has its
            # larger side >= 3, as crossing_cycle_plus needs
            yield (f"even_crossing k={k}", i2 + j2, 4,
                   lambda k=k: crossing_cycle_plus(ctx, k))
        yield f"odd_sum_cap k={k}", i + j, cap, None
        yield f"even_sum_cap k={k}", i2 + j2, cap, None


def check_lemma_bounds(ctx: PathContext) -> VerificationReport:
    """Evaluate every codegree inequality the improvement moves rely on.

    Under the preconditions (host is (t+1)-path-free with degree at least
    g_bound(n,t)) all of them must hold; a violation under those
    preconditions is a LemmaStepFailed-grade finding for the caller.
    """
    report = VerificationReport(subject=f"path-bounds t={ctx.path.length}")
    for name, value, bound, _repair in _codegree_rows(ctx):
        report.add(name, f"<={bound}", value, value <= bound)
    return report


def _contrapositive_checks(ctx: PathContext, report: VerificationReport, tag: str) -> None:
    """Each overloaded configuration that has a repair must be repaired."""
    for name, value, bound, repair in _codegree_rows(ctx):
        if repair is not None and value > bound:
            hit = repair()
            report.add(f"{tag} {name} repaired", "present",
                       "present" if hit is not None else "absent", hit is not None)


def crossing_cycle_plus(ctx: PathContext, k: int) -> Optional[CyclePlusWitness]:
    """The cycle-plus built from an even-crossing overload.

    When d_P(0,2k+2) >= 3 and d_P(2t,2k) >= 1 (or the mirror), reroute the
    path through the endpoint-crossing witness z; the two remaining
    witnesses y1, y2 close it into a (t+1)-cycle with a parallel edge.
    """
    t = ctx.path.length
    # the mirror is the same move on the reversed path at t-1-k
    for end, kk in ((ctx, k), (ctx.reversed(), t - 1 - k)):
        seq = end.path.vertices
        ys = end.outside_set(0, 2 * kk + 2)
        zs = end.outside_set(2 * kk, 2 * t)
        if len(ys) < 3 or not zs:
            continue
        z = zs[0]
        y_pair = [y for y in ys if y != z][:2]
        if len(y_pair) < 2:
            continue
        # (x_0..x_{2k}, z, x_{2t}..x_{2k+2}) closed by {x_{2k+2}, y, x_0}
        body = seq[: 2 * kk + 1] + (z,) + tuple(reversed(seq[2 * kk + 2 :]))
        return CyclePlusWitness(LinearPath(body), y_pair[0], y_pair[1]).validate(ctx.host)
    return None
