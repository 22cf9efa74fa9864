"""Independent oracles for cross-checking the package.

Deliberately share no code with the package's search: paths are found by
trying every injective vertex sequence, degrees by scanning the raw edge
list.  Only usable at tiny scale.  The exceptions are
``reference_exhaustive_check``, which keeps ``oracle.find_path`` as the
decider and differs from the package only in how it walks the hosts: over
``reference_edge_masks``, a popcount per vertex and mask, each host built
and searched; the two cycle references, the package's former cycle
searches, kept to test the shared search that replaced them; the
finder's former full-mask scans in ``reference_extend`` and
``reference_distinct_pair``, which read the pair links; and the unfold
reference at the end, the former edge scan of ``finder.unfold_cycle_plus``.
"""

import math
import random
from itertools import combinations, permutations
from math import comb
from typing import Optional

from linpath import oracle
from linpath.errors import InvalidParameterError, SearchExhaustedError
from linpath.hypergraph import (
    Hypergraph, all_triples, build, least_vertex, mask_edges, mask_vertices, serialize,
)
from linpath.paths import CyclePlusWitness, LinearCycle, make_context
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


def naive_extend(H, vertices):
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


# -- references for the finder's lazy scans --------------------------------
#
# ``finder.extend`` and ``finder._distinct_pair`` as they were before they
# stopped decoding whole masks: each decodes a mask with ``mask_vertices``
# and scans it upwards.


def reference_extend(ctx):
    """Vertex sequence of ``finder.extend(ctx)``'s path, or None: every free
    vertex w1 is decoded and scanned upwards for the first whose link with
    the endpoint meets the free set, at the right end and then at the left
    end of the reversed sequence."""
    H, free = ctx.host, ctx.free
    for seq in (ctx.path.vertices, ctx.path.vertices[::-1]):
        last = seq[-1]
        for w1 in mask_vertices(free):
            fresh = H.link(last, w1) & free
            if fresh:
                return seq + (w1, least_vertex(fresh))
    return None


def reference_distinct_pair(first, second):
    """The first (y, z) with y in first, z in second and y != z, scanning
    every y of first upwards and then z; None when there is none."""
    for y in mask_vertices(first):
        z = second & ~(1 << y)
        if z:
            return y, least_vertex(z)
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
    d = max(delta, 1)  # delta = 0 is calibrated as delta = 1
    p = min(1.0, (d + 3 * math.sqrt(d)) / ceiling) if ceiling else 0.0
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
    """The set bits of ``oracle.edge_mask_set``, in increasing order, as
    the flat scan it replaced: every mask is tested, with one popcount per
    vertex."""
    if n > 6:
        raise InvalidParameterError(f"exhaustive enumeration capped at n=6, got {n}")
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
    report = VerificationReport(subject=f"exhaustive n={n} delta>={delta} t={t}")
    report.add("graphs_checked", ">=1", total, total >= 1)
    report.add("all_contain_path", total, passed, passed == total)
    report.witnesses.extend(counterexamples)
    return report

# -- references for the cycle searches -------------------------------------
#
# ``oracle.find_cycle`` and ``oracle.find_cycle_plus`` as they were before
# both became wrappers over the oracle's one memoised, twin-pruned search:
# an anchored depth-first search with no memo, and a scan of every
# (k-1)-path through ``oracle.iter_paths`` closed by
# ``oracle.closure_witness``.  Their budgets count the anchored states and
# the paths scanned.


def reference_find_cycle(H: Hypergraph, k: int, budget: Optional[int] = None) -> Optional[LinearCycle]:
    """A linear k-cycle, or None on proven absence.

    The cyclic sequence is anchored at its smallest connector vertex, which
    loses no cycles (rotation symmetry) and prunes the rest; the witness is
    the lexicographically least anchored sequence.  ``budget`` caps the
    expanded states: each partial sequence of one or more edges, the
    closing step included.
    """
    if k < 3:
        raise InvalidParameterError(f"cycle length k={k} must be >= 3")
    if H.n < 2 * k or len(H.edges) < k:
        return None
    full = (1 << H.n) - 1
    nodes = 0

    def dfs(seq, mask, i):
        nonlocal nodes
        if i:  # the bare anchor is not a state
            nodes += 1
            if budget is not None and nodes > budget:
                raise SearchExhaustedError(f"cycle search exceeded {budget} nodes")
        z0 = seq[0]
        if i == k - 1:
            # close with {z_{2k-2}, z_{2k-1}, z0}, w the least fresh choice
            closing = H.link(seq[-1], z0) & ~mask
            if closing:
                return seq + [least_vertex(closing)]
            return None
        free = full & ~mask
        above = -2 << z0  # every bit above z0: connectors stay above the anchor
        for w1 in mask_vertices(free):
            for w2 in mask_vertices(H.link(seq[-1], w1) & free & above):
                hit = dfs(seq + [w1, w2], mask | (1 << w1) | (1 << w2), i + 1)
                if hit is not None:
                    return hit
        return None

    try:
        for z0 in range(H.n):
            hit = dfs([z0], 1 << z0, 0)
            if hit is not None:
                return LinearCycle(tuple(hit)).validate(H)
        return None
    finally:
        del dfs  # the closure refers to itself


def reference_find_cycle_plus(H: Hypergraph, k: int, budget: Optional[int] = None) -> Optional[CyclePlusWitness]:
    """A k-cycle with a parallel edge, or None on proven absence.

    Canonical decomposition: the cycle minus the swappable edge is a linear
    (k-1)-path whose endpoint pair has two common neighbors outside the
    path; those supply the closing and parallel vertices.  Every C_k^+
    contains such a decomposition, so scanning all (k-1)-paths is complete.
    """
    if k < 3:
        raise InvalidParameterError(f"cycle length k={k} must be >= 3")
    if H.n < 2 * k + 1:
        return None
    count = 0
    for path in oracle.iter_paths(H, k - 1):
        count += 1
        if budget is not None and count > budget:
            raise SearchExhaustedError(f"cycle-plus scan exceeded {budget} paths")
        hit = oracle.closure_witness(make_context(H, path))
        if hit is not None:
            return hit
    return None


# -- reference for the unfold move -------------------------------------------


def reference_unfold_cycle_plus(H: Hypergraph, W: CyclePlusWitness) -> Optional[tuple]:
    """The vertex sequence ``finder.unfold_cycle_plus`` unfolds W into, or
    None, as it was before it read the pair links: W is validated, and the
    edges at the parallel vertex v are scanned in edge-list order, for the
    first one meeting the cycle's closure in at most one vertex."""
    W.validate(H)
    cyc = W.cycle_vertices()
    L = len(cyc)
    t = W.path.length
    X = set(cyc)
    v = W.parallel
    pos = {u: i for i, u in enumerate(cyc)}
    for e in (e for e in H.edges if v in e):
        rest = [u for u in e if u != v]
        inside = [u for u in rest if u in X]
        if len(inside) == 2:
            continue
        if len(inside) == 0:
            v1, v2 = sorted(rest)
            return (v2, v1, v, cyc[2 * t]) + cyc[: 2 * t - 1]
        xi = inside[0]
        vp = rest[0] if rest[1] == xi else rest[1]
        i = pos[xi]
        if i % 2 == 0:
            return (v, vp) + tuple(cyc[(i + j) % L] for j in range(2 * t + 1))
        return (v, vp, cyc[i], cyc[i - 1]) + tuple(
            cyc[(i + 1 + j) % L] for j in range(2 * t - 1)
        )
    return None
