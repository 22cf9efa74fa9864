"""Immutable simple 3-uniform hypergraph with exact degree queries.

Vertices are the integers 0..n-1.  Edges are stored as sorted triples, the
edge set itself sorted lexicographically, and the structure never mutates
after construction, so values are safe to share across threads.  Only
3-graphs exist: :func:`build` and the ``gen_*`` generators refuse r != 3.

The host also keeps the link of every vertex pair as an int bitmask:
bit w of ``link(u, v)`` is set exactly when {u, v, w} is an edge.  Pair
codegrees, edge tests and "common neighbours outside a vertex set" (the
link masked by the set's complement) are then single int operations;
``mask_vertices`` decodes a mask when the vertices themselves are needed.

The text format (1-based labels, LF line endings):

    c optional comment
    p h3 <n> <m>
    e v1 v2 v3        (strictly increasing, m such lines)

Only the header ``p h3`` is accepted; any other uniformity is refused.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

from .errors import InvalidGraphError, InvalidParameterError


class Hypergraph:
    """A simple 3-graph on vertex set {0,...,n-1}.

    Use :func:`build` rather than calling the constructor directly; the
    constructor assumes already-validated canonical triples.
    """

    r = 3
    __slots__ = ("n", "edges", "_degree", "_link")

    def __init__(self, n: int, edges: tuple):
        self.n = n
        self.edges = edges
        degree = [0] * n
        link = [[0] * n for _ in range(n)]
        for a, b, c in edges:
            degree[a] += 1
            degree[b] += 1
            degree[c] += 1
            la, lb, lc = link[a], link[b], link[c]
            la[b] = lb[a] = la[b] | (1 << c)
            la[c] = lc[a] = la[c] | (1 << b)
            lb[c] = lc[b] = lb[c] | (1 << a)
        self._degree = degree
        self._link = link

    # -- basic queries ----------------------------------------------------

    def degree(self, v: int) -> int:
        if not isinstance(v, int) or v < 0 or v >= self.n:
            raise InvalidParameterError(f"vertex {v} not in [0, {self.n})")
        return self._degree[v]

    def link(self, u: int, v: int) -> int:
        """Bitmask of all w with {u,v,w} an edge.

        Unchecked: u and v must be vertices; the link of (u, u) is 0.
        """
        return self._link[u][v]

    def min_degree(self) -> int:
        """delta_1(H); 0 when some vertex is isolated."""
        return min(self._degree)

    def has_edge(self, e: Iterable[int]) -> bool:
        """Whether e is an edge; False for anything not a triple of vertices."""
        e = tuple(e)
        if len(e) != 3:
            return False
        for v in e:
            if not (isinstance(v, int) and 0 <= v < self.n):
                return False
        a, b, c = e
        return (self._link[a][b] >> c) & 1 == 1

    # -- equality is (n, edge set); isomorphism is NOT equality ----------

    def __eq__(self, other):
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (self.n, self.edges) == (other.n, other.edges)

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Hypergraph(n={self.n}, m={len(self.edges)})"


def least_vertex(mask: int) -> int:
    """The lowest set bit of a nonzero vertex mask."""
    return (mask & -mask).bit_length() - 1


def mask_vertices(mask: int) -> tuple:
    """The set bits of a vertex mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def mask_edges(n: int, mask: int) -> tuple:
    """The triples of ``all_triples(n)`` at the set bits of an edge mask,
    in order: the sorted edge tuple of that 3-graph."""
    triples = all_triples(n)
    return tuple(triples[i] for i in range(len(triples)) if (mask >> i) & 1)


def require_3_uniform(r: int) -> None:
    """Refuse any uniformity r other than 3: only 3-graphs exist."""
    if r != 3:
        raise InvalidGraphError(f"uniformity r={r}: only 3-graphs are supported")


def build(r: int, n: int, edges: Iterable[Sequence[int]]) -> Hypergraph:
    """Validate and construct a simple 3-graph on n vertices.

    r is the uniformity the caller claims, e.g. a file header's h<r>.
    Raises InvalidGraphError for r other than 3, an order below 3, an
    edge that is not 3 distinct vertices in range, or an edge given twice
    (graphs are simple).
    """
    require_3_uniform(r)
    if n < r:
        raise InvalidGraphError(f"order n={n} smaller than r={r}")
    canon = []
    seen = set()
    for e in edges:
        t = tuple(e)
        if len(t) != r:
            raise InvalidGraphError(f"edge {t} has {len(t)} vertices, expected {r}")
        for v in t:
            if not isinstance(v, int) or v < 0 or v >= n:
                raise InvalidGraphError(f"vertex {v} not in [0, {n})")
        s = tuple(sorted(t))
        if len(set(s)) != r:
            raise InvalidGraphError(f"edge {t} repeats a vertex")
        if s in seen:
            raise InvalidGraphError(f"edge {s} supplied twice")
        seen.add(s)
        canon.append(s)
    return Hypergraph(n, tuple(sorted(canon)))


def serialize(H: Hypergraph) -> str:
    """Bit-exact text form: header then lexicographically sorted edges."""
    lines = [f"p h3 {H.n} {len(H.edges)}"]
    for e in H.edges:
        lines.append("e " + " ".join(str(v + 1) for v in e))
    return "\n".join(lines) + "\n"


def parse(text: str) -> Hypergraph:
    """Inverse of :func:`serialize`; accepts comments and any edge order."""
    r = n = m = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if r is not None:
                raise InvalidGraphError("duplicate header", lineno)
            parts = line.split()
            if len(parts) != 4 or not parts[1].startswith("h"):
                raise InvalidGraphError(f"bad header {line!r}", lineno)
            try:
                r = int(parts[1][1:])
                n = int(parts[2])
                m = int(parts[3])
            except ValueError:
                raise InvalidGraphError(f"bad header {line!r}", lineno) from None
        elif line.startswith("e"):
            if r is None:
                raise InvalidGraphError("edge before header", lineno)
            parts = line.split()[1:]
            try:
                vs = [int(p) - 1 for p in parts]
            except ValueError:
                raise InvalidGraphError(f"bad edge {line!r}", lineno) from None
            if any(v < 0 for v in vs):
                raise InvalidGraphError("labels are 1-based", lineno)
            edges.append(tuple(vs))
        else:
            raise InvalidGraphError(f"unrecognized line {line!r}", lineno)
    if r is None:
        raise InvalidGraphError("missing header")
    if len(edges) != m:
        raise InvalidGraphError(f"header promised {m} edges, found {len(edges)}")
    return build(r, n, edges)


@lru_cache(maxsize=1)
def all_triples(n: int) -> tuple:
    """All C(n,3) sorted triples on {0,...,n-1}, lexicographically.

    The table is cached for the last order asked for only.  Hosts are
    drawn many at a time at one order, so one entry saves the rebuild; an
    unbounded cache would keep the table of every order a process ever
    walked alive (the ``find`` benchmark draws hosts at 18 orders,
    n = 23..42, about 100k triples in all).
    """
    return tuple(combinations(range(n), 3))
