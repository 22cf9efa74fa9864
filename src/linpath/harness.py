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
from .errors import InfeasibleDegreeError, InvalidParameterError, OrderTooLargeError
from .finder import (
    PathContext,
    check_lemma_bounds,
    crossing_cycle_plus,
    find_guaranteed,
    improve_via_codegree,
    make_context,
)
from .hypergraph import Hypergraph, all_triples, mask_edges, serialize
from .paths import LinearPath
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
    generator: str = "conditioned-random"  # | construction | exhaustive
    out: Optional[str] = None
    oracle_checks: int = 0
    # wall_time is left blank unless timing is requested, so that replays
    # with the same seed produce byte-identical CSV
    timing: bool = False

    def validate(self) -> "ExperimentConfig":
        if self.trials < 1:
            raise InvalidParameterError("trial count must be >= 1")
        if self.generator not in ("conditioned-random", "construction", "exhaustive"):
            raise InvalidParameterError(f"unknown generator {self.generator!r}")
        if self.generator == "exhaustive" and self.n > 6:
            raise OrderTooLargeError("exhaustive generator capped at n=6")
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
    delta + 3*sqrt(delta).  That draw is the host unless some vertex falls
    short of delta; vertices still short are then repaired with uniformly
    random missing triples.  The random numbers, and so the host, depend
    only on (n, delta, seed): replays are byte-identical.  The repair bias
    is acceptable: downstream claims quantify over all graphs meeting the
    degree bound.
    """
    if n < 3:
        raise InvalidParameterError(f"need n >= 3 for 3-graphs, got {n}")
    if delta < 0:
        raise InvalidParameterError(f"need min degree >= 0, got {delta}")
    ceiling = comb(n - 1, 2)
    if delta > ceiling:
        raise InfeasibleDegreeError(f"delta={delta} exceeds C({n - 1},2)={ceiling}")
    rng = random.Random(seed)
    draw = rng.random
    triples = all_triples(n)
    p = min(1.0, (delta + 3 * math.sqrt(delta)) / ceiling)
    H = Hypergraph(n, tuple([tr for tr in triples if draw() < p]))
    if H.min_degree() >= delta:
        return H
    chosen = set(H.edges)
    deg = [H.degree(v) for v in range(n)]
    while True:
        low = next((v for v in range(n) if deg[v] < delta), None)
        if low is None:
            break
        candidates = [tr for tr in triples if low in tr and tr not in chosen]
        tr = rng.choice(candidates)
        chosen.add(tr)
        for v in tr:
            deg[v] += 1
    return Hypergraph(n, tuple(sorted(chosen)))


def verify_construction(
    kind: str, r: int, n: int, k: int, hypergraph: Optional[Hypergraph] = None
) -> VerificationReport:
    """Certify a star or star-plus instance: exact minimum degree, the
    promised path present, the next length provably absent (oracle)."""
    if kind == "star":
        H = hypergraph if hypergraph is not None else gen_star(r, n, k)
        expected_delta = star_min_degree(n, k)
        free_len, present_len = 2 * k + 1, 2 * k
        present_needs = n >= 4 * k + 1
    elif kind == "star_plus":
        H = hypergraph if hypergraph is not None else gen_star_plus(r, n, k)
        expected_delta = star_plus_min_degree(n, k)
        free_len, present_len = 2 * k + 2, 2 * k + 1
        present_needs = n >= 4 * k + 3
    else:
        raise InvalidParameterError(f"no certification defined for kind {kind!r}")
    report = VerificationReport(
        subject=f"{kind}(r={r}, n={n}, k={k})",
        replay={"kind": kind, "r": r, "n": n, "k": k},
    )
    observed_delta = H.min_degree()
    report.add("min_degree", expected_delta, observed_delta, observed_delta == expected_delta)
    absent = oracle.find_path(H, free_len)
    report.add(f"no_path_len_{free_len}", "absent",
               "absent" if absent is None else "present", absent is None)
    if present_needs:
        hit = oracle.find_path(H, present_len)
        report.add(f"path_len_{present_len}", "present",
                   "present" if hit is not None else "absent", hit is not None)
        if hit is not None:
            report.witnesses.append(" ".join(str(v + 1) for v in hit.vertices))
    return report


def exhaustive_check(n: int, delta: int, t: int) -> VerificationReport:
    """Over every labeled 3-graph on n vertices (n <= 6) with min degree at
    least delta, confirm a linear t-path exists; every counterexample is
    counted, and the first five are serialized and kept.

    The hosts are one set: the int of ``oracle.edge_mask_set``, with a bit
    per passing edge mask.  The walk builds and searches the least pending
    mask.  On a hit, every pending mask at or above it that has all the
    path's triples (an AND of ``oracle.masks_with_triple`` sets) has that
    path too, its vertices being distinct, so the whole set is counted as
    passed and leaves the pending set.  On a miss the mask is a
    counterexample.  The cursor reads a binary string of the pending set,
    rebuilt only after a hit, so a miss costs no pass over all 2^C(n,3)
    bits.  A mask is searched exactly when no earlier witness lies in it,
    and ``find_path`` decides every host it searches, so the counts and
    counterexamples are those of a search of every host.
    """
    if t < 1:
        raise InvalidParameterError(f"path length t={t} must be >= 1")
    if delta < 0:
        raise InvalidParameterError(f"need min degree >= 0, got {delta}")
    pending = oracle.edge_mask_set(n, delta)
    has = oracle.masks_with_triple(n)
    total = pending.bit_count()
    passed = 0
    counterexamples: List[str] = []
    bits = bin(pending)[:1:-1]  # bit i at index i
    mask = bits.find("1")
    while mask >= 0:
        H = Hypergraph(n, mask_edges(n, mask))
        hit = oracle.find_path(H, t)
        if hit is not None:
            covered = pending >> mask << mask
            for e in hit.edges():
                covered &= has[all_triples(n).index(e)]
            passed += covered.bit_count()
            pending ^= covered
            bits = bin(pending)[:1:-1]
        elif len(counterexamples) < 5:
            counterexamples.append(serialize(H))
        mask = bits.find("1", mask + 1)
    report = VerificationReport(
        subject=f"exhaustive n={n} delta>={delta} t={t}",
        replay={"n": n, "delta": delta, "t": t},
    )
    report.add("graphs_checked", ">=1", total, total >= 1)
    report.add("all_contain_path", total, passed, passed == total)
    report.witnesses.extend(counterexamples)
    return report


def _hosts(config: ExperimentConfig):
    """(trial seed, host) for each trial in turn.  The exhaustive generator
    walks one filtered enumeration, so trial i gets its i-th graph."""
    if config.generator == "exhaustive":
        graphs = oracle.enumerate_hypergraphs(config.n, config.min_degree)
    for trial in range(config.trials):
        tseed = (config.seed * 1_000_003 + trial) & 0xFFFFFFFFFFFFFFFF
        if config.generator == "conditioned-random":
            H = random_min_degree_graph(config.n, config.min_degree, tseed)
        elif config.generator == "construction":
            H = gen_star(3, config.n, max(1, (config.t - 1) // 2))
        else:
            H = next(graphs, None)
            if H is None:
                raise InvalidParameterError(
                    f"exhaustive generator ran out of graphs at trial {trial}"
                )
        yield tseed, H


def run_trials(config: ExperimentConfig) -> TrialsResult:
    """One row per trial; a summary row with the success rate closes the
    CSV.  Failures on instances meeting the degree threshold are preserved
    beside the CSV in the core text format."""
    config.validate()
    rows: List[List[str]] = []
    counterexamples: List[Tuple[str, str]] = []
    successes = 0
    bound, min_n = theorem_threshold(config.n, config.t)
    for trial, (tseed, H) in enumerate(_hosts(config)):
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
        if not ok and H.min_degree() >= bound and config.n >= min_n:
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
    edges = tuple(tr for tr in all_triples(n) if rng.random() < p)
    return Hypergraph(n, edges)


def lemma_sweep(
    n_range, t: int, samples: int, seed: int,
    max_paths: int = 40, family: str = "random",
) -> VerificationReport:
    """Sweep sampled hosts and check the codegree machinery both ways.

    On hosts certified (t+1)-path-free with degree >= g_bound (and order
    past the floor 2t+17), run the strong arm: every enumerated t-path
    must satisfy all codegree bounds.  On all other hosts, run the
    contrapositive arm: each overloaded configuration must be convertible
    into a longer path or a cycle-plus witness.

    family="star" (even t only) sweeps star(n, t//2) instead of random
    hosts, ignoring samples.  The star's longest path has exactly t edges
    and can be written down in closed form, so freeness is a construction
    guarantee and its t-paths are generated directly; exhaustive search is
    priced out at the orders where the star meets the degree bound.

    The lemma also says such hosts have no (t+1)-cycle-plus.  The strong
    arm does not check that yet: it waits for a cycle-plus search that
    finishes at orders n >= 2t+17.
    """
    rng = random.Random(seed)
    report = VerificationReport(
        subject=f"lemma-sweep t={t} family={family}",
        replay={"n_range": list(n_range), "t": t, "samples": samples,
                "seed": seed, "family": family},
    )
    if family == "star" and t % 2:
        raise InvalidParameterError(
            "star family needs even t: star(n, t//2) has longest path t"
        )
    for n in n_range:
        for j in range(1 if family == "star" else samples):
            if family == "star":
                H = gen_star(3, n, t // 2)
                free = True  # longest path in star(n, t//2) is t
                paths = _star_sample_paths(n, t // 2, max_paths)
            else:
                p = rng.uniform(0.05, 0.5)
                H = _random_3graph(n, p, rng)
                free = oracle.find_path(H, t + 1) is None
                paths = islice(oracle.iter_paths(H, t), max_paths)
            strong = (
                free and t >= 3 and n >= 2 * t + 17
                and H.min_degree() >= g_bound(n, t)
            )
            for path in paths:
                ctx = make_context(H, path)
                if strong:
                    sub = check_lemma_bounds(H, ctx, True).passed
                    report.add(
                        f"n={n} sample={j} bounds {path.vertices}", "all hold",
                        "all hold" if sub else "violated", sub,
                    )
                else:
                    _contrapositive_checks(H, ctx, report, f"n={n} sample={j}")
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


def _contrapositive_checks(
    H: Hypergraph, ctx: PathContext, report: VerificationReport, tag: str
) -> None:
    t = ctx.path.length
    d = ctx.d
    # the splice depends only on ctx: run it at the first overload, once
    splice = cache(lambda: improve_via_codegree(H, ctx))
    for k in range(t):
        i, j = d(0, 2 * k + 1), d(2 * k + 1, 2 * t)
        if i > 0 and j > 0 and i + j >= 3:
            hit = splice()
            report.add(f"{tag} odd_overload k={k} improves", "present",
                       "present" if hit is not None else "absent", hit is not None)
        for endpoint in (0, 2 * t):
            a, b = d(2 * k, 2 * k + 2), d(endpoint, 2 * k + 1)
            if a > 0 and b > 0 and a + b >= 3:
                hit = splice()
                report.add(f"{tag} connector_overload k={k} improves", "present",
                           "present" if hit is not None else "absent", hit is not None)
        i2, j2 = d(0, 2 * k + 2), d(2 * k, 2 * t)
        if i2 > 0 and j2 > 0 and i2 + j2 >= 5 and max(i2, j2) >= 3:
            w = crossing_cycle_plus(H, ctx, k)
            report.add(f"{tag} even_overload k={k} cycle_plus", "present",
                       "present" if w is not None else "absent", w is not None)
