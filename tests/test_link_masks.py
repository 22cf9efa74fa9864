"""Differential tests: the pair-link masks against the tuple-based code they
replaced (kept in bruteforce.py, reading only the raw edge list).

Three host sets: all 1,024 labeled 3-graphs on 5 vertices, seeded random
hosts with n <= 12, and the star and star-plus grid with k = 1..3, n <= 15.
"""

import random
from itertools import combinations, islice

import pytest

from linpath.constructions import gen_star, gen_star_plus
from linpath.errors import NotPairUniformError
from linpath.finder import extend, make_context
from linpath.hypergraph import Hypergraph, all_triples, build, mask_vertices
from linpath.oracle import (
    _are_twins,
    _twins_below,
    closure_witness,
    enumerate_hypergraphs,
    iter_paths,
)
from linpath.paths import LinearPath

from bruteforce import (
    naive_pair_neighborhood,
    reference_are_twins,
    reference_context,
    reference_extend,
    reference_twins_below,
)


def random_hosts():
    rng = random.Random(606)
    for _ in range(40):
        n = rng.randint(5, 12)
        p = rng.uniform(0.05, 0.6)
        yield Hypergraph(n, tuple(tr for tr in all_triples(n) if rng.random() < p))


def star_grid():
    for k in (1, 2, 3):
        for n in range(2 * k + 3, 16):
            yield gen_star(3, n, k)
            yield gen_star_plus(3, n, k)


def random_paths(H, rng, count):
    """Random linear paths grown from random edges by random fresh edges,
    each stopped at a random length or where it cannot grow."""
    if not H.edges:
        return
    for _ in range(count):
        seq = list(rng.choice(H.edges))
        rng.shuffle(seq)
        for _ in range(rng.randint(0, H.n // 2)):
            last = seq[-1]
            grow = [e for e in H.edges
                    if last in e and all(v == last or v not in seq for v in e)]
            if not grow:
                break
            w1, w2 = [v for v in rng.choice(grow) if v != last]
            if rng.random() < 0.5:
                w1, w2 = w2, w1
            seq += [w1, w2]
        yield LinearPath(tuple(seq))


def check_paths(H, paths):
    for P in paths:
        hit = extend(H, P)
        assert (hit.vertices if hit else None) == reference_extend(H, P.vertices)
        ctx = make_context(H, P)
        outside, M, T, N_left, N_right = reference_context(H, P.vertices)
        assert (ctx.M, ctx.T, ctx.N_left, ctx.N_right) == (M, T, N_left, N_right)
        assert set(ctx.outside) == set(outside)
        for (a, b), witnesses in outside.items():
            assert ctx.outside_set(a, b) == ctx.outside_set(b, a) == witnesses
            assert ctx.d(a, b) == len(witnesses)
        # the cycle-plus closure takes the endpoints' two least outside witnesses
        ends = outside[(0, 2 * P.length)]
        w = closure_witness(H, P)
        assert (w and (w.closing, w.parallel)) == (ends[:2] if len(ends) >= 2 else None)


def check_host(H):
    edge_set = set(H.edges)
    for tr in combinations(range(H.n), 3):
        assert H.has_edge(tr) == (tr in edge_set)
        assert H.has_edge(reversed(tr)) == (tr in edge_set)
    for u, v in combinations(range(H.n), 2):
        assert H.pair_neighborhood(u, v) == naive_pair_neighborhood(H, u, v)
        assert H.link(u, v) == H.link(v, u)
        assert mask_vertices(H.link(u, v)) == H.pair_neighborhood(v, u)
        assert _are_twins(H, u, v) == reference_are_twins(H, u, v)
    assert _twins_below(H) == reference_twins_below(H)


def test_all_hosts_on_five_vertices():
    # a 2-path spans all 5 vertices, so its context is empty and it cannot
    # grow; every 1-path, in both directions, is checked
    for H in enumerate_hypergraphs(5):
        check_host(H)
        check_paths(H, iter_paths(H, 1))


def test_random_hosts():
    rng = random.Random(17)
    for H in random_hosts():
        check_host(H)
        check_paths(H, random_paths(H, rng, 15))


def test_star_grid():
    rng = random.Random(29)
    for H in star_grid():
        check_host(H)
        check_paths(H, random_paths(H, rng, 6))
        check_paths(H, islice(iter_paths(H, 2), 10))


class TestHasEdge:
    def test_non_edges(self):
        H = build(3, 5, [(0, 1, 2)])
        assert H.has_edge([2, 0, 1])
        for e in ((0, 1), (0, 1, 2, 3), (0, 0, 1), (0, 1, 5), (-1, 0, 1), (0, 1, "2")):
            assert not H.has_edge(e)

    def test_other_uniformity(self):
        # only 3-graphs are built, so every host has pair links
        for r, n in ((4, 7), (2, 5)):
            with pytest.raises(NotPairUniformError):
                gen_star(r, n, 1)

    def test_link_needs_r3(self):
        # pair links exist only on 3-graphs: a 4-graph is refused before
        # any link could be asked of it
        with pytest.raises(NotPairUniformError):
            build(4, 7, [(0, 1, 2, 3)])
        H = gen_star(3, 7, 1)
        edge_set = set(H.edges)
        for u, v in combinations(range(7), 2):
            expected = [w for w in range(7) if tuple(sorted((u, v, w))) in edge_set]
            assert mask_vertices(H.link(u, v)) == tuple(expected)
            assert H.link(v, u) == H.link(u, v)
