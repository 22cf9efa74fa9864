"""Linear path, linear cycle, and cycle-with-parallel-edge witnesses.

A linear t-path in a 3-graph is written as a vertex sequence
x_0, x_1, ..., x_{2t}: the edges are the t consecutive triples
{x_{2i}, x_{2i+1}, x_{2i+2}}.  A linear k-cycle is the cyclic analogue on
2k vertices.  Every witness can validate itself against its host graph;
search and finder code asserts validity on every return.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidPathError
from .hypergraph import Hypergraph


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

    def prefix(self, t: int) -> "LinearPath":
        """The first t edges, itself a linear path."""
        if not 1 <= t <= self.length:
            raise InvalidPathError(f"no {t}-edge prefix of a {self.length}-path")
        return LinearPath(self.vertices[: 2 * t + 1])

    def validate(self, H: Hypergraph) -> "LinearPath":
        v = self.vertices
        if len(v) < 3 or len(v) % 2 == 0:
            raise InvalidPathError(f"sequence of {len(v)} vertices is not 2t+1")
        _check_on_host(H, v, self.edges())
        return self


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

    @property
    def cycle_length(self) -> int:
        return self.path.length + 1

    def cycle_vertices(self) -> tuple:
        """The underlying (t+1)-cycle as a cyclic sequence of 2t+2 vertices."""
        return self.path.vertices + (self.closing,)

    def validate(self, H: Hypergraph) -> "CyclePlusWitness":
        self.path.validate(H)
        v = self.path.vertices
        all_v = set(v) | {self.closing, self.parallel}
        if len(all_v) != len(v) + 2:
            raise InvalidPathError("closing/parallel vertices collide with path")
        for x in (self.closing, self.parallel):
            if not 0 <= x < H.n:
                raise InvalidPathError(f"vertex {x} outside host graph")
        if not H.has_edge((v[-1], self.closing, v[0])):
            raise InvalidPathError("closing triple is not an edge")
        if not H.has_edge((v[-1], self.parallel, v[0])):
            raise InvalidPathError("parallel triple is not an edge")
        return self
