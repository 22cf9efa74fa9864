"""Independent oracles for cross-checking the package.

Deliberately share no code with the package's search: paths are found by
trying every injective vertex sequence, degrees by scanning the raw edge
list.  Only usable at tiny scale.  The one exception is
``reference_exhaustive_check``, which keeps ``oracle.find_path`` as the
decider and differs from the package only in how it walks the hosts: over
``reference_edge_masks``, a popcount per vertex and mask, each host built
and searched.
"""

import math
import random
from itertools import combinations, permutations
from math import comb

from linpath import oracle
from linpath.errors import InvalidParameterError, OrderTooLargeError
from linpath.hypergraph import Hypergraph, all_triples, build, mask_edges, serialize
from linpath.report import VerificationReport


def brute_force_paths(H, t):
    """Every injective sequence of 2t+1 vertices whose consecutive triples
    are all edges, in lexicographic order."""
    edge_set = set(H.edges)
    for seq in permutations(range(H.n), 2 * t + 1):
        if all(
            tuple(sorted(seq[i : i + 3])) in edge_set
            for i in range(0, 2 * t - 1, 2)
        ):
            yield seq


def brute_force_path(H, t):
    """First injective sequence of 2t+1 vertices whose consecutive triples
    are all edges, or None."""
    return next(brute_force_paths(H, t), None)


def brute_force_cycle(H, k):
    """First injective sequence z_0 .. z_{2k-1} whose connectors z_2, z_4,
    .., z_{2k-2} all lie above z_0 and whose cyclic triples
    {z_{2i}, z_{2i+1}, z_{2i+2 mod 2k}} are all edges, or None."""
    edge_set = set(H.edges)
    for seq in permutations(range(H.n), 2 * k):
        if all(seq[i] > seq[0] for i in range(2, 2 * k, 2)) and all(
            tuple(sorted((seq[i], seq[i + 1], seq[(i + 2) % (2 * k)]))) in edge_set
            for i in range(0, 2 * k, 2)
        ):
            return seq
    return None


def naive_degree(H, v):
    """Degree by scanning the edge list."""
    return sum(1 for e in H.edges if v in e)


def naive_set_degree(H, S):
    key = set(S)
    return sum(1 for e in H.edges if key.issubset(e))


def naive_outside_codegree(H, vertices, a, b):
    """d_P(a, b) for the path given as a raw vertex tuple, by scanning the
    edge list."""
    pair = {vertices[a], vertices[b]}
    inside = set(vertices)
    count = 0
    for e in H.edges:
        if pair.issubset(e):
            (w,) = set(e) - pair
            count += w not in inside
    return count


def naive_M(H, vertices):
    """Connector indices i with at least two outside common neighbors of
    x_{2i}, x_{2i+2}, recomputed from the raw edge list."""
    s = (len(vertices) - 1) // 2
    return {
        i
        for i in range(s)
        if naive_outside_codegree(H, vertices, 2 * i, 2 * i + 2) >= 2
    }


# -- references for the finder's and the oracle's mask-based code ----------
#
# The tuple-based forms that the pair-link masks replaced, reading only the
# raw edge list, so that differential tests compare the masks with code that
# shares nothing with them.


def naive_pair_neighborhood(H, u, v):
    """All w with {u, v, w} an edge, ascending, from the edge list."""
    pair = {u, v}
    return tuple(sorted(
        w for e in H.edges if pair.issubset(e) for w in set(e) - pair
    ))


def reference_extend(H, vertices):
    """Vertex sequence of the extended path, or None: the least fresh pair
    (w1, w2) over every edge at the right endpoint, else the same at the
    left endpoint of the reversed sequence."""
    for seq in (tuple(vertices), tuple(reversed(vertices))):
        used = set(seq)
        last = seq[-1]
        best = None
        for e in H.edges:
            if last not in e:
                continue
            rest = [v for v in e if v != last]
            for w1, w2 in ((rest[0], rest[1]), (rest[1], rest[0])):
                if w1 in used or w2 in used:
                    continue
                if best is None or (w1, w2) < best:
                    best = (w1, w2)
        if best is not None:
            return seq + best
    return None


def reference_context(H, vertices):
    """(outside, M, T, N_left, N_right) of a path context, with outside
    mapping each index pair to the ascending tuple of outside common
    neighbors."""
    x = tuple(vertices)
    s = (len(x) - 1) // 2
    inside = set(x)
    pairs = {(0, i) for i in range(1, 2 * s + 1)}
    pairs |= {(i, 2 * s) for i in range(2 * s)}
    pairs |= {(2 * i, 2 * i + 2) for i in range(s)}
    outside = {
        (a, b): tuple(w for w in naive_pair_neighborhood(H, x[a], x[b])
                      if w not in inside)
        for a, b in pairs
    }
    d = lambda a, b: len(outside[(a, b) if a < b else (b, a)])
    M = frozenset(i for i in range(s) if d(2 * i, 2 * i + 2) >= 2)
    T = frozenset(range(s)) - M
    N_left = frozenset({i for i in M if d(0, 2 * i + 2) >= 3}
                       | {i for i in T if d(0, 2 * i + 1) >= 2})
    N_right = frozenset({i for i in M if d(2 * i, 2 * s) >= 3}
                        | {i for i in T if d(2 * i + 1, 2 * s) >= 2})
    return outside, M, T, N_left, N_right


def reference_are_twins(H, u, v):
    """Whether swapping u and v maps edges onto edges: equal degrees, and
    {v, a, b} is an edge for every edge {u, a, b} that misses v."""
    edge_set = set(H.edges)
    if naive_degree(H, u) != naive_degree(H, v):
        return False
    return all(
        v in e or tuple(sorted(v if x == u else x for x in e)) in edge_set
        for e in H.edges
        if u in e
    )


def reference_twins_below(H):
    """For each vertex v, the bitmask of its twins u < v, pair by pair."""
    return [
        sum(1 << u for u in range(v) if reference_are_twins(H, u, v))
        for v in range(H.n)
    ]


def reference_random_min_degree_graph(n, delta, seed):
    """Edge tuple of ``harness.random_min_degree_graph(n, delta, seed)``, by
    the per-triple loop it replaced: a set of kept triples and a degree
    count updated per triple, then the same repair, then a sort."""
    ceiling = comb(n - 1, 2)
    if delta > ceiling:
        raise ValueError(f"delta={delta} exceeds C({n - 1},2)={ceiling}")
    rng = random.Random(seed)
    triples = list(combinations(range(n), 3))
    p = min(1.0, (delta + 3 * math.sqrt(delta)) / ceiling) if ceiling else 0.0
    chosen = set()
    deg = [0] * n
    for tr in triples:
        if rng.random() < p:
            chosen.add(tr)
            for v in tr:
                deg[v] += 1
    while True:
        low = next((v for v in range(n) if deg[v] < delta), None)
        if low is None:
            break
        candidates = [tr for tr in triples if low in tr and tr not in chosen]
        tr = rng.choice(candidates)
        chosen.add(tr)
        for v in tr:
            deg[v] += 1
    return tuple(sorted(chosen))


# -- references for the construction generators ----------------------------
#
# The generators as they were before each became a prefix of the
# lexicographic triple table: the edges are listed by their defining
# property and validated and sorted by ``build``.


def reference_gen_star(r, n, k):
    """All r-subsets of {0..n-1} meeting A = {0..k-1}."""
    return build(r, n, (e for e in combinations(range(n), r) if e[0] < k))


def reference_gen_core(r, n, s):
    """All r-subsets containing S = {0..s-1}."""
    head = tuple(range(s))
    return build(r, n, (head + tail for tail in combinations(range(s, n), r - s)))


def reference_gen_star_plus(r, n, k):
    """The star plus the 2-core {k, k+1} u T, T an (r-2)-subset of
    B \\ {k, k+1}, built a second time from the star's edges."""
    star = reference_gen_star(r, n, k)
    extra = [(k, k + 1) + tail for tail in combinations(range(k + 2, n), r - 2)]
    return build(r, n, list(star.edges) + extra)


def reference_gen_complete(r, n):
    """All C(n,r) edges."""
    return build(r, n, combinations(range(n), r))


# -- references for the exhaustive check -----------------------------------


def reference_enumerate_hypergraphs(n, min_degree=0):
    """Every labeled 3-graph on n vertices with minimum degree at least
    min_degree: each subset of the sorted triples, in increasing order of
    its bitmask, built by ``build`` and filtered on the raw edge list."""
    triples = list(combinations(range(n), 3))
    for mask in range(1 << len(triples)):
        H = build(3, n, [tr for i, tr in enumerate(triples) if mask >> i & 1])
        if all(naive_degree(H, v) >= min_degree for v in range(n)):
            yield H


def reference_edge_masks(n, min_degree=0):
    """``oracle.edge_masks`` as the flat scan it replaced: every mask is
    tested, with one popcount per vertex."""
    if n > 6:
        raise OrderTooLargeError(f"exhaustive enumeration capped at n=6, got {n}")
    if n < 3:
        raise InvalidParameterError(f"need n >= 3 for 3-graphs, got {n}")
    triples = all_triples(n)
    m = len(triples)
    at = [0] * n  # per vertex, the mask of the triples that contain it
    for i, e in enumerate(triples):
        for v in e:
            at[v] |= 1 << i
    for mask in range(1 << m):
        if all((mask & a).bit_count() >= min_degree for a in at):
            yield mask


def reference_exhaustive_check(n, delta, t):
    """``harness.exhaustive_check`` as a walk over hosts: every host of the
    flat scan is built and searched by ``oracle.find_path``, and no
    witness is reused."""
    total = 0
    passed = 0
    counterexamples = []
    for mask in reference_edge_masks(n, delta):
        H = Hypergraph(n, mask_edges(n, mask))
        total += 1
        if oracle.find_path(H, t) is not None:
            passed += 1
        elif len(counterexamples) < 5:
            counterexamples.append(serialize(H))
    report = VerificationReport(
        subject=f"exhaustive n={n} delta>={delta} t={t}",
        replay={"n": n, "delta": delta, "t": t},
    )
    report.add("graphs_checked", ">=1", total, total >= 1)
    report.add("all_contain_path", total, passed, passed == total)
    report.witnesses.extend(counterexamples)
    return report
