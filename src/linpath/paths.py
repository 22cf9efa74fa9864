"""Linear path, linear cycle, and cycle-with-parallel-edge witnesses.

A linear t-path in a 3-graph is written as a vertex sequence
x_0, x_1, ..., x_{2t}: the edges are the t consecutive triples
{x_{2i}, x_{2i+1}, x_{2i+2}}.  A linear k-cycle is the cyclic analogue on
2k vertices.  Every witness can validate itself against its host graph;
search and finder code validates one only where no validated context
vouches for it.

A PathContext is a validated path on its host.  make_context validates a
path and builds its context; no path built from a validated context is
validated again, the finder's extend included.  The context is the one
handle the finder's moves, the lemma's codegree checks and the
cycle-plus closure take, and its outside_mask is the one place a path's
outside common neighbourhoods are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import InvalidPathError
from .hypergraph import Hypergraph, mask_vertices


def _check_on_host(H: Hypergraph, vertices: tuple, edges) -> None:
    """Distinct vertices of H, and every triple of ``edges`` an edge of H."""
    if len(set(vertices)) != len(vertices):
        raise InvalidPathError(f"repeated vertex in {vertices}")
    for x in vertices:
        if not 0 <= x < H.n:
            raise InvalidPathError(f"vertex {x} outside host graph")
    for e in edges:
        if not H.has_edge(e):
            raise InvalidPathError(f"triple {e} is not an edge")


@dataclass(frozen=True)
class LinearPath:
    vertices: tuple

    @property
    def length(self) -> int:
        """Number of edges t; the sequence has 2t+1 vertices."""
        return (len(self.vertices) - 1) // 2

    def edges(self):
        v = self.vertices
        return [tuple(sorted(v[i : i + 3])) for i in range(0, len(v) - 2, 2)]

    def vertex_mask(self) -> int:
        """The vertices as a bitmask: bit v is set when v is on the path."""
        mask = 0
        for v in self.vertices:
            mask |= 1 << v
        return mask

    def reversed(self) -> "LinearPath":
        return LinearPath(tuple(reversed(self.vertices)))

    def validate(self, H: Hypergraph) -> "LinearPath":
        v = self.vertices
        if len(v) < 3 or len(v) % 2 == 0:
            raise InvalidPathError(f"sequence of {len(v)} vertices is not 2t+1")
        _check_on_host(H, v, self.edges())
        return self


@dataclass(frozen=True)
class PathContext:
    """A validated path on its host (make_context builds it, or
    finder.extend from a validated one).

    free masks the vertices off the path; outside_mask(a, b) reads the
    common neighbors of x_a, x_b outside the path from the host's pair
    links, d counts them and outside_set decodes them.  M and T partition
    [0, s-1]; N_left / N_right are the endpoint refinement sets; all four
    are derived from d when first read.  No caller reads whether N_left
    and N_right are disjoint; the finder compares their sizes only.
    """

    path: LinearPath
    host: Hypergraph
    free: int

    def reversed(self) -> "PathContext":
        """The context of the reversed path.  A linear path read backwards
        is a linear path on the same vertices, so nothing is validated."""
        return PathContext(self.path.reversed(), self.host, self.free)

    def outside_mask(self, a: int, b: int) -> int:
        x = self.path.vertices
        return self.host.link(x[a], x[b]) & self.free

    def outside_set(self, a: int, b: int) -> tuple:
        """The outside common neighbors of x_a and x_b, ascending."""
        return mask_vertices(self.outside_mask(a, b))

    def d(self, a: int, b: int) -> int:
        """d_P(a,b): outside codegree of path positions a and b."""
        return self.outside_mask(a, b).bit_count()

    @cached_property
    def M(self) -> frozenset:
        d = self.d
        return frozenset(i for i in range(self.path.length) if d(2 * i, 2 * i + 2) >= 2)

    @cached_property
    def T(self) -> frozenset:
        return frozenset(range(self.path.length)) - self.M

    @cached_property
    def N_left(self) -> frozenset:
        d = self.d
        return frozenset({i for i in self.M if d(0, 2 * i + 2) >= 3}
                         | {i for i in self.T if d(0, 2 * i + 1) >= 2})

    @cached_property
    def N_right(self) -> frozenset:
        """N_left of the reversed path, its indices mirrored."""
        s = self.path.length
        return frozenset(s - 1 - i for i in self.reversed().N_left)


def make_context(H: Hypergraph, P: LinearPath) -> PathContext:
    """P's context on H; raises InvalidPathError unless P is a linear path
    of H."""
    P.validate(H)
    return PathContext(P, H, ((1 << H.n) - 1) & ~P.vertex_mask())


@dataclass(frozen=True)
class LinearCycle:
    vertices: tuple  # cyclic sequence z_0 .. z_{2k-1}

    @property
    def length(self) -> int:
        return len(self.vertices) // 2

    def edges(self):
        v = self.vertices
        m = len(v)
        return [
            tuple(sorted((v[i], v[i + 1], v[(i + 2) % m])))
            for i in range(0, m, 2)
        ]

    def validate(self, H: Hypergraph) -> "LinearCycle":
        v = self.vertices
        if len(v) < 6 or len(v) % 2 == 1:
            raise InvalidPathError(f"cycle needs an even sequence >= 6, got {len(v)}")
        _check_on_host(H, v, self.edges())
        return self


@dataclass(frozen=True)
class CyclePlusWitness:
    """A linear (t+1)-cycle with a parallel edge, in canonical form.

    The cycle is the path x_0..x_{2t} closed by {x_{2t}, closing, x_0};
    the parallel edge is {x_{2t}, parallel, x_0} with a fresh vertex.
    """

    path: LinearPath
    closing: int
    parallel: int

    def cycle_vertices(self) -> tuple:
        """The underlying (t+1)-cycle as a cyclic sequence of 2t+2 vertices."""
        return self.path.vertices + (self.closing,)

    def validate(self, H: Hypergraph) -> "CyclePlusWitness":
        self.path.validate(H)
        v = self.path.vertices
        _check_on_host(
            H, self.cycle_vertices() + (self.parallel,),
            [(v[-1], x, v[0]) for x in (self.closing, self.parallel)],
        )
        return self
