"""Independent oracles for cross-checking the package.

Deliberately share no code with the package's search: paths are found by
trying every injective vertex sequence, degrees by scanning the raw edge
list.  Only usable at tiny scale.
"""

from itertools import permutations


def brute_force_path(H, t):
    """First injective sequence of 2t+1 vertices whose consecutive triples
    are all edges, or None."""
    edge_set = set(H.edges)
    for seq in permutations(range(H.n), 2 * t + 1):
        if all(
            tuple(sorted(seq[i : i + 3])) in edge_set
            for i in range(0, 2 * t - 1, 2)
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
