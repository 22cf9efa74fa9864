"""Exhaustive search for linear paths, cycles, and cycle-plus patterns.

This module is the ground truth for everything else: searches are complete
backtracking with pruning that provably preserves exhaustiveness (a dead
partial state is memoized only as a function of its used-vertex set and
its extension endpoint, which determine all possible continuations).
Returned witnesses validate themselves before being handed out.

Every search grows a vertex sequence one edge at a time at its last
vertex, straight from the host's pair-link masks (``H.link``): the new
middle vertex w1 runs over the unused vertices in increasing order, and
the new endpoint w2 over the unused part of the link of (last, w1), also
increasing.  Sequences are therefore expanded in lexicographic order, and
each witness is the lexicographically least sequence the search accepts.

The path search also breaks symmetry between twins, vertices whose swap
is an automorphism (the tails, and the heads, of the star constructions).
At each step it tries a fresh vertex only if no smaller twin of it is
unused: a path through the skipped vertex maps, by swapping the two, onto
one with the same prefix that is lexicographically smaller, so the least
witness survives and the dead-state memo stays exact.  Twin classes are
computed lazily, at the first dead state, so searches that never backtrack
pay nothing for them, and a search budget counts the states of the pruned
search.  Twins have equal degree, so only such pairs are compared link by
link.  Path enumeration and the cycle searches are not pruned.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .errors import InvalidParameterError, OrderTooLargeError, SearchExhaustedError
from .hypergraph import Hypergraph, all_triples, least_vertex, mask_edges, mask_vertices
from .paths import CyclePlusWitness, LinearCycle, LinearPath


def _twins_below(H: Hypergraph):
    """For each vertex v, the bitmask of its twins u < v.

    u and v are twins when swapping them is an automorphism: {v, a, b} is
    an edge for every edge {u, a, b} with v outside it, and vice versa.
    Twinness is an equivalence relation, so each vertex is tested against
    one representative of every class found so far.
    """
    below = [0] * H.n
    classes = []  # [representative, bitmask of the class members so far]
    for v in range(H.n):
        for cls in classes:
            if _are_twins(H, cls[0], v):
                below[v] = cls[1]
                cls[1] |= 1 << v
                break
        else:
            classes.append([v, 1 << v])
    return below


def _are_twins(H: Hypergraph, u: int, v: int) -> bool:
    if H.degree(u) != H.degree(v):  # an automorphism keeps degrees
        return False
    # {u,a,b} -> {v,a,b} maps edges onto edges iff, for every other vertex
    # a, the links of (u, a) and (v, a) agree away from u and v
    other = ~((1 << u) | (1 << v))
    return all(
        H.link(u, a) & other == H.link(v, a) & other
        for a in range(H.n)
        if a != u and a != v
    )


def find_path(H: Hypergraph, t: int, budget: Optional[int] = None) -> Optional[LinearPath]:
    """A linear t-path, or None only when no such path exists.

    Depth-first from each start vertex in increasing order, over partial
    paths extended one edge at a time at the right end; dead (used-set,
    endpoint) states are memoized, which keeps the search complete while
    collapsing the exponential blowup on dense hosts.  The witness is the
    lexicographically least vertex sequence of a linear t-path.

    Twin classes are tried through one representative.  At each step the
    new middle vertex is skipped when one of its smaller twins is unused,
    and the new endpoint when one of its smaller twins is unused and is
    not that middle vertex; start vertices follow the same rule.  Swapping
    a skipped vertex with that twin maps any completion onto a path with
    the same prefix and a smaller vertex at this position, so no state is
    wrongly declared dead and the least witness is never skipped.  The
    twin classes are computed at the first dead state: a search that never
    backtracks already meets the least witness first.  ``budget`` caps the
    expanded states of this pruned search, start vertices included.
    """
    if t < 1:
        raise InvalidParameterError(f"path length t={t} must be >= 1")
    if H.n < 2 * t + 1 or len(H.edges) < t:
        return None
    full = (1 << H.n) - 1
    dead = set()
    below = [0] * H.n  # smaller twins per vertex, filled at the first dead state
    nodes = 0

    def dfs(seq, mask, s):
        nonlocal nodes
        if s == t:
            return seq
        last = seq[-1]
        key = (mask, last)
        if key in dead:
            return None
        nodes += 1
        if budget is not None and nodes > budget:
            raise SearchExhaustedError(f"path search exceeded {budget} nodes")
        free = full & ~mask
        for w1 in mask_vertices(free):
            if below[w1] & free:
                continue
            for w2 in mask_vertices(H.link(last, w1) & free):
                bits = (1 << w1) | (1 << w2)
                if below[w2] & free & ~bits:
                    continue
                hit = dfs(seq + [w1, w2], mask | bits, s + 1)
                if hit is not None:
                    return hit
        if not dead:
            below[:] = _twins_below(H)
        dead.add(key)
        return None

    try:
        for a in range(H.n):
            if below[a]:
                continue
            hit = dfs([a], 1 << a, 0)
            if hit is not None:
                return LinearPath(tuple(hit)).validate(H)
        return None
    finally:
        del dfs  # the closure refers to itself; free the memo now, not at gc


def iter_paths(H: Hypergraph, t: int) -> Iterator[LinearPath]:
    """Every linear t-path, as vertex sequences in lexicographic order
    (each subgraph appears once per traversal direction).  No memoization:
    all hits are wanted."""
    if t < 1:
        raise InvalidParameterError(f"path length t={t} must be >= 1")
    if H.n < 2 * t + 1 or len(H.edges) < t:
        return
    full = (1 << H.n) - 1

    def dfs(seq, mask, s):
        if s == t:
            yield LinearPath(tuple(seq))
            return
        free = full & ~mask
        for w1 in mask_vertices(free):
            for w2 in mask_vertices(H.link(seq[-1], w1) & free):
                yield from dfs(seq + [w1, w2], mask | (1 << w1) | (1 << w2), s + 1)

    try:
        for a in range(H.n):
            yield from dfs([a], 1 << a, 0)
    finally:
        del dfs  # the closure refers to itself; also runs when abandoned


def longest_path(H: Hypergraph, cap: int, budget: Optional[int] = None):
    """(max t <= cap with a linear t-path, witness); (0, None) if edgeless."""
    if cap < 1:
        raise InvalidParameterError(f"cap={cap} must be >= 1")
    best_t, best = 0, None
    for t in range(1, cap + 1):
        hit = find_path(H, t, budget=budget)
        if hit is None:
            break
        best_t, best = t, hit
    return best_t, best


def find_cycle(H: Hypergraph, k: int, budget: Optional[int] = None) -> Optional[LinearCycle]:
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


def find_cycle_plus(H: Hypergraph, k: int, budget: Optional[int] = None) -> Optional[CyclePlusWitness]:
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
    for path in iter_paths(H, k - 1):
        count += 1
        if budget is not None and count > budget:
            raise SearchExhaustedError(f"cycle-plus scan exceeded {budget} paths")
        hit = closure_witness(H, path)
        if hit is not None:
            return hit
    return None


def closure_witness(H: Hypergraph, P: LinearPath) -> Optional[CyclePlusWitness]:
    """The cheap cycle-plus closure of P: the two least common neighbors of
    its endpoints outside the path, if they exist."""
    outside = mask_vertices(
        H.link(P.vertices[0], P.vertices[-1]) & ~P.vertex_mask()
    )
    if len(outside) < 2:
        return None
    return CyclePlusWitness(P, outside[0], outside[1]).validate(H)


def edge_masks(n: int, min_degree: int = 0) -> Iterator[int]:
    """Every edge mask of a labeled 3-graph on n vertices (n <= 6) with
    minimum degree at least ``min_degree``, in increasing order.  Bit i of
    a mask stands for triple i of ``all_triples(n)``, and the degree of v
    is the number of set bits the mask shares with the triples at v."""
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


def enumerate_hypergraphs(n: int, min_degree: int = 0) -> Iterator[Hypergraph]:
    """Every labeled simple 3-graph on n vertices (n <= 6) with minimum
    degree at least ``min_degree``, each once: one host per mask of
    :func:`edge_masks`, in its order.  Only the graphs that pass are
    built.  ``harness.exhaustive_check`` walks the masks themselves, so
    that it builds only the hosts no earlier witness decides."""
    for mask in edge_masks(n, min_degree):
        yield Hypergraph(n, mask_edges(n, mask))
