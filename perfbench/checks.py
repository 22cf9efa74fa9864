"""Independent checkers for the benchmark's outputs.

Nothing here imports linpath: every check recomputes its answer from a
plain edge list, so a fault in the package cannot hide in its own check.
Each function returns None when the output is right and a one-line reason
when it is not.
"""

from __future__ import annotations

from itertools import combinations


def check_path(vertices, t: int, edges: frozenset, n: int):
    """A linear t-path: 2t+1 distinct vertices of [0, n), and every triple
    x_{2i} x_{2i+1} x_{2i+2} an edge of the host (edges as sorted tuples)."""
    v = tuple(vertices)
    if len(v) != 2 * t + 1:
        return f"path has {len(v)} vertices, a {t}-path has {2 * t + 1}"
    if len(set(v)) != len(v):
        return f"path repeats a vertex: {v}"
    if any(not isinstance(x, int) or not 0 <= x < n for x in v):
        return f"path leaves the vertex range [0, {n}): {v}"
    for i in range(t):
        e = tuple(sorted(v[2 * i : 2 * i + 3]))
        if e not in edges:
            return f"triple {e} of the path is not an edge"
    return None


def min_degree(n: int, edges) -> int:
    """delta_1 counted from the edge list."""
    deg = [0] * n
    for e in edges:
        for v in e:
            deg[v] += 1
    return min(deg)


def check_edge_list(n: int, edges) -> str | None:
    """Edges are distinct increasing triples inside [0, n)."""
    seen = set()
    for e in edges:
        if len(e) != 3 or not (0 <= e[0] < e[1] < e[2] < n):
            return f"bad edge {e} for n={n}"
        if e in seen:
            return f"edge {e} repeated"
        seen.add(e)
    return None


def threshold(n: int, t: int):
    """(degree bound, order floor) of the theorem, written out afresh:
    t = 2k+1 needs kn + 6k^2 - 3k + 3 for n >= 4k+19, and t = 2k+2 needs
    kn + 6k^2 + 7k + 6 for n >= 4k+21."""
    if t % 2:
        k = (t - 1) // 2
        return k * n + 6 * k * k - 3 * k + 3, 4 * k + 19
    k = (t - 2) // 2
    return k * n + 6 * k * k + 7 * k + 6, 4 * k + 21


def star_edges(n: int, k: int, plus: bool):
    """Edge list of star(3, n, k) (every triple meeting {0..k-1}) and, with
    plus, the extra triples {k, k+1, w} for w >= k+2."""
    edges = [e for e in combinations(range(n), 3) if e[0] < k]
    if plus:
        edges += [(k, k + 1, w) for w in range(k + 2, n)]
    return sorted(edges)


def has_linear_path(edges, t: int) -> bool:
    """Direct test for t <= 2: one edge, or two edges meeting in exactly one
    vertex."""
    if t == 1:
        return bool(edges)
    if t == 2:
        return any(len(set(a) & set(b)) == 1 for a, b in combinations(edges, 2))
    raise ValueError("direct path test covers t <= 2 only")


def sweep_table(n: int, deltas, ts):
    """Over all 2^C(n,3) labeled 3-graphs on n vertices: for each delta, the
    number with minimum degree >= delta, and for each (delta, t) how many of
    those contain a linear t-path."""
    triples = list(combinations(range(n), 3))
    kept = {d: 0 for d in deltas}
    with_path = {(d, t): 0 for d in deltas for t in ts}
    for mask in range(1 << len(triples)):
        edges = [tr for i, tr in enumerate(triples) if mask >> i & 1]
        md = min_degree(n, edges)
        hits = {t: None for t in ts}
        for d in deltas:
            if md < d:
                continue
            kept[d] += 1
            for t in ts:
                if hits[t] is None:
                    hits[t] = has_linear_path(edges, t)
                with_path[(d, t)] += hits[t]
    return kept, with_path
