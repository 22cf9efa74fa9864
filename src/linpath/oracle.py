"""Exhaustive search for linear paths, cycles, and cycle-plus patterns.

This module is the ground truth for everything else: searches are complete
backtracking with pruning that provably preserves exhaustiveness.
Each witness is validated once: a path by find_path, a cycle's or
cycle-plus's path by make_context, whose outside_mask of the endpoints
gives closing vertices that are distinct, off the path and on host edges.

One depth-first search serves paths, cycles and cycle-plus: a k-cycle, or
a k-cycle-plus, less one edge is a linear (k-1)-path whose endpoints have
one, or two, common neighbors off the path.  It grows a vertex sequence one
edge at a time at its last vertex, straight from the host's pair-link masks
(``H.link``): the new middle vertex w1 runs over the unused vertices in
increasing order, and the new endpoint w2 over the unused part of the link
of (last, w1), also increasing.  Sequences are therefore expanded in
lexicographic order, and each witness is the lexicographically least
sequence the search accepts.  A dead partial state is memoized by its
used-vertex set and its endpoint, which determine all its continuations,
and also by its start vertex when the endpoints must share neighbors.
Its test on partial sequences reads the host's links inline.

The search also breaks symmetry between twins, vertices whose swap is an
automorphism (the tails, and the heads, of the star constructions).  At
each step it tries a fresh vertex only if no smaller twin of it is unused:
a path through the skipped vertex maps, by swapping the two, onto one with
the same prefix that is lexicographically smaller and accepted alike, so
the least witness survives and the dead-state memo stays exact.  Twin
classes are computed lazily, at the first dead state, so searches that
never backtrack pay nothing for them, and a search budget counts the
states of the pruned search.  Twins have equal degree, so only such pairs
are compared link by link.  :func:`iter_paths` is the one other loop: it
must yield every path, so it keeps no memo and prunes no twin.
"""

from __future__ import annotations

from functools import cache, lru_cache
from itertools import permutations
from math import comb
from typing import Iterator, Optional

from .errors import InvalidParameterError, SearchExhaustedError
from .hypergraph import Hypergraph, all_triples, least_vertex, mask_edges, mask_vertices
from .paths import CyclePlusWitness, LinearCycle, LinearPath, PathContext, make_context


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
    """A linear t-path, or None only when no such path exists: the
    lexicographically least one, by the shared search with no closing
    condition.  ``budget`` caps the expanded states of that pruned search,
    start vertices included."""
    if t < 1:
        raise InvalidParameterError(f"path length t={t} must be >= 1")
    hit = _search(H, t, 0, budget)
    return None if hit is None else hit.validate(H)


def _search(H: Hypergraph, t: int, close: int, budget: Optional[int]) -> Optional[LinearPath]:
    """The lexicographically least linear t-path whose endpoints have at
    least ``close`` common neighbors off the path (0 for a path, 1 for a
    cycle, 2 for a cycle-plus), or None when there is none.

    Depth-first from each start vertex in increasing order.  The new middle
    vertex is skipped when one of its smaller twins is unused, and the new
    endpoint when one of its smaller twins is unused and is not that middle
    vertex; start vertices follow the same rule.  When ``close`` > 0 the
    memo key holds the start vertex as bit n + start of the used set, which
    no free set reaches.  ``budget`` caps the expanded states, start
    vertices included; the test at length t is not a state.  A negative
    budget raises InvalidParameterError.
    """
    if budget is not None and budget < 0:
        raise InvalidParameterError(f"budget={budget} must be >= 0")
    if H.n < 2 * t + 1 + close or len(H.edges) < t + close:
        return None
    full = (1 << H.n) - 1
    dead = set()
    below = [0] * H.n  # smaller twins per vertex, filled at the first dead state
    nodes = 0

    def dfs(seq, mask, s):
        nonlocal nodes
        if s == t:
            if close and (H.link(seq[0], seq[-1]) & ~mask).bit_count() < close:
                return None
            return seq
        last = seq[-1]
        key = (mask, last)
        if key in dead:
            return None
        nodes += 1
        if budget is not None and nodes > budget:
            kind = ("path", "cycle", "cycle-plus")[close]
            raise SearchExhaustedError(f"{kind} search exceeded {budget} nodes")
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
            start = (1 << a) | (1 << (H.n + a) if close else 0)
            hit = dfs([a], start, 0)
            if hit is not None:
                return LinearPath(tuple(hit))
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


def _closed(H: Hypergraph, k: int, close: int, budget: Optional[int]) -> Optional[PathContext]:
    """The context of the least (k-1)-path whose endpoints have ``close``
    common neighbors off it (1 for a k-cycle, 2 a k-cycle-plus), or None."""
    if k < 3:
        raise InvalidParameterError(f"cycle length k={k} must be >= 3")
    path = _search(H, k - 1, close, budget)
    return None if path is None else make_context(H, path)


def find_cycle(H: Hypergraph, k: int, budget: Optional[int] = None) -> Optional[LinearCycle]:
    """A linear k-cycle, or None on proven absence.

    A k-cycle less one edge is a linear (k-1)-path whose endpoints have a
    common neighbor off the path, so this is the shared search at length
    k-1 asking for one such neighbor, closed through the least of them.
    Rotating a cycle to start at its smallest connector makes its sequence
    smaller, so the witness is the lexicographically least cyclic sequence
    whose connectors z_2, z_4, .. all lie above z_0.  ``budget`` caps the
    expanded states of the shared search, as in :func:`find_path`.
    """
    ctx = _closed(H, k, 1, budget)
    return None if ctx is None else LinearCycle(
        ctx.path.vertices + (least_vertex(ctx.outside_mask(0, 2 * k - 2)),))


def find_cycle_plus(H: Hypergraph, k: int, budget: Optional[int] = None) -> Optional[CyclePlusWitness]:
    """A k-cycle with a parallel edge, or None on proven absence.

    Canonical decomposition: the cycle minus the swappable edge is a linear
    (k-1)-path whose endpoint pair has two common neighbors outside the
    path; those supply the closing and parallel vertices.  Every C_k^+
    contains such a decomposition, so the shared search at length k-1,
    asking for two such neighbors, is complete.  The witness is
    :func:`closure_witness` of the lexicographically least such path.
    ``budget`` caps the expanded states of the shared search, as in
    :func:`find_path`.
    """
    ctx = _closed(H, k, 2, budget)
    return None if ctx is None else closure_witness(ctx)


def closure_witness(ctx: PathContext) -> Optional[CyclePlusWitness]:
    """The cheap cycle-plus closure of ctx's path: the two least common
    neighbors of its endpoints outside the path, if they exist; valid
    because the context's path is, so it is not validated again."""
    outside = ctx.outside_set(0, 2 * ctx.path.length)
    if len(outside) < 2:
        return None
    return CyclePlusWitness(ctx.path, outside[0], outside[1])


@lru_cache(maxsize=1)
def masks_with_triple(n: int) -> tuple:
    """For each triple i of ``all_triples(n)``, the set of edge masks that
    have it, as an int of 2^C(n,3) bits: bit ``mask`` is set when bit i of
    ``mask`` is.  That is runs of 2^i zeros and 2^i ones, built from one
    pair of runs by doubling.  The table (2.5 MiB at n = 6) is cached for
    the last order asked for only, like ``all_triples``."""
    size = 1 << comb(n, 3)
    sets = []
    for i in range(comb(n, 3)):
        run = 1 << i
        pattern, width = ((1 << run) - 1) << run, 2 * run
        while width < size:
            pattern, width = pattern | pattern << width, 2 * width
        sets.append(pattern)
    return tuple(sets)


def _check_order(n: int) -> None:
    if n > 6:
        raise InvalidParameterError(f"exhaustive enumeration capped at n=6, got {n}")
    if n < 3:
        raise InvalidParameterError(f"need n >= 3 for 3-graphs, got {n}")


def edge_mask_set(n: int, min_degree: int = 0) -> int:
    """The edge masks of the labeled 3-graphs on n vertices (n <= 6) with
    minimum degree at least ``min_degree``, as one set: an int of 2^C(n,3)
    bits, with bit ``mask`` set when that host passes.

    Bit i of a mask stands for triple i of ``all_triples(n)``.  For each
    vertex v, ``at_least[k]`` is the set of passing masks so far that have
    at least k of the triples at v: adding triple i keeps every mask that
    already had k of them, and adds those with k - 1 that also have
    triple i.  The masks with at least ``min_degree`` triples at v pass on
    to the next vertex.  So the whole degree filter is a few hundred
    big-int operations, not one popcount per vertex and mask.
    """
    _check_order(n)
    passing = (1 << (1 << comb(n, 3))) - 1
    if min_degree <= 0:
        return passing
    has = masks_with_triple(n)
    triples = all_triples(n)
    for v in range(n):
        at_least = [passing] + [0] * min_degree
        at_v = [i for i, e in enumerate(triples) if v in e]
        for j, i in enumerate(at_v):
            for k in range(min(min_degree, j + 1), 0, -1):
                at_least[k] |= at_least[k - 1] & has[i]
        passing = at_least[min_degree]
    return passing


def enumerate_hypergraphs(n: int, masks: int) -> Iterator[Hypergraph]:
    """The 3-graph on n vertices of each set bit of ``masks``, a set of
    edge masks like :func:`edge_mask_set`, found in its binary string, in
    increasing order of the mask; only those hosts are built.  With
    ``edge_mask_set(n, d)`` it is every 3-graph of minimum degree >= d."""
    bits = bin(masks)[:1:-1]  # bit i at index i
    mask = bits.find("1")
    while mask >= 0:
        yield Hypergraph(n, mask_edges(n, mask))
        mask = bits.find("1", mask + 1)


@cache
def masks_with_path(n: int, t: int) -> int:
    """The edge masks on n vertices (n <= 6) whose host has a linear
    t-path, as an int of 2^C(n,3) bits like :func:`edge_mask_set`.

    The vertices of a linear path are distinct, so a host has the path
    exactly when it has the path's t edges.  The set is therefore the
    union, over the distinct edge sets of the t-paths of the complete host,
    of the AND of the ``masks_with_triple`` sets of their triples.  In the
    complete host every order of 2t+1 distinct vertices is a t-path, so
    these edge sets are read off the vertex orders, and no host is built.
    When n < 2t+1 there is no such order and the set is empty.  Each
    (n, t) is computed once, on its first call, and kept.
    """
    _check_order(n)
    if t < 1:
        raise InvalidParameterError(f"path length t={t} must be >= 1")
    has = masks_with_triple(n)
    index = {e: i for i, e in enumerate(all_triples(n))}
    found = 0
    for edges in {frozenset(LinearPath(seq).edges())
                  for seq in permutations(range(n), 2 * t + 1)}:
        with_edges = -1
        for e in edges:
            with_edges &= has[index[e]]
        found |= with_edges
    return found
