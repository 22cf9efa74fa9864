from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from linpath.errors import InvalidGraphError, InvalidParameterError
from linpath.hypergraph import all_triples, build, mask_vertices, parse, serialize

from bruteforce import naive_degree, naive_set_degree


@st.composite
def small_3graphs(draw, max_n=8):
    n = draw(st.integers(min_value=3, max_value=max_n))
    triples = list(combinations(range(n), 3))
    edges = draw(st.lists(st.sampled_from(triples), unique=True, max_size=25))
    return build(3, n, edges)


def test_all_triples_is_the_lexicographic_table():
    for n in (0, 3, 5, 9, 5):
        assert all_triples(n) == tuple(combinations(range(n), 3))
        assert all_triples.cache_info().currsize <= 1


def k4():
    return build(3, 4, list(combinations(range(4), 3)))


class TestBuild:
    def test_complete_k4(self):
        H = k4()
        assert len(H.edges) == 4
        assert H.n == 4 and H.r == 3

    def test_single_edge(self):
        H = build(3, 3, [(0, 1, 2)])
        assert len(H.edges) == 1

    def test_duplicate_edge_rejected(self):
        with pytest.raises(InvalidGraphError, match=r"^edge \(0, 1, 2\) supplied twice$"):
            build(3, 4, [(0, 1, 2), (0, 2, 1)])

    def test_bad_arity(self):
        with pytest.raises(InvalidGraphError, match=r"^edge \(0, 1\) has 2 vertices, expected 3$"):
            build(3, 4, [(0, 1)])

    def test_vertex_out_of_range(self):
        with pytest.raises(InvalidGraphError, match=r"^vertex 4 not in \[0, 4\)$"):
            build(3, 4, [(0, 1, 4)])

    def test_repeated_vertex(self):
        with pytest.raises(InvalidGraphError, match=r"^edge \(0, 1, 1\) repeats a vertex$"):
            build(3, 4, [(0, 1, 1)])

    def test_unsorted_input_canonicalized(self):
        H = build(3, 5, [(4, 0, 2)])
        assert H.edges == ((0, 2, 4),)


class TestDegrees:
    def test_k4_vertex_degree(self):
        assert k4().degree(0) == 3

    def test_degree_of_a_non_vertex(self):
        for v in (-1, 4):
            with pytest.raises(InvalidParameterError, match=rf"^vertex {v} not in \[0, 4\)$"):
                k4().degree(v)

    def test_star_pair_degree(self):
        from linpath.constructions import gen_star

        assert len(mask_vertices(gen_star(3, 8, 1).link(1, 2))) == 1

    def test_min_degree_k4(self):
        assert k4().min_degree() == 3

    def test_min_degree_isolated_vertex(self):
        H = build(3, 5, [(0, 1, 2)])
        assert H.min_degree() == 0

    def test_min_degree_star(self):
        from linpath.constructions import gen_star

        assert gen_star(3, 8, 1).min_degree() == 6

    def test_incident_edges_all_hosts_on_five_vertices(self):
        from linpath.oracle import edge_mask_set, enumerate_hypergraphs

        hosts = 0
        for H in enumerate_hypergraphs(5, edge_mask_set(5)):
            hosts += 1
            for v in range(5):
                assert H.degree(v) == sum(v in e for e in H.edges)
        assert hosts == 1024


class TestPairNeighborhood:
    def test_k4(self):
        assert mask_vertices(k4().link(0, 1)) == (2, 3)

    def test_star(self):
        from linpath.constructions import gen_star

        assert mask_vertices(gen_star(3, 8, 1).link(0, 1)) == (2, 3, 4, 5, 6, 7)

    def test_empty(self):
        H = build(3, 5, [(0, 1, 2)])
        assert mask_vertices(H.link(3, 4)) == ()

    def test_requires_r3(self):
        # pair neighbourhoods exist only in 3-graphs, the only kind build makes
        with pytest.raises(InvalidGraphError, match=r"^uniformity r=4: only 3-graphs"):
            build(4, 5, [(0, 1, 2, 3)])


class TestSerialization:
    def test_single_edge_format(self):
        H = build(3, 3, [(0, 1, 2)])
        assert serialize(H) == "p h3 3 1\ne 1 2 3\n"

    def test_round_trip_star(self):
        from linpath.constructions import gen_star

        H = gen_star(3, 8, 1)
        assert parse(serialize(H)) == H

    def test_parse_repeated_vertex(self):
        with pytest.raises(InvalidGraphError, match=r"^edge \(0, 0, 1\) repeats a vertex$"):
            parse("p h3 3 1\ne 1 1 2\n")

    def test_parse_bad_header(self):
        with pytest.raises(InvalidGraphError, match=r"^line 1: bad header 'p x3 3 1'$"):
            parse("p x3 3 1\ne 1 2 3\n")

    def test_parse_other_uniformity(self):
        with pytest.raises(InvalidGraphError, match=r"^uniformity r=4: only 3-graphs"):
            parse("p h4 4 1\ne 1 2 3 4\n")

    def test_parse_edge_count_mismatch(self):
        with pytest.raises(InvalidGraphError, match=r"^header promised 2 edges, found 1$"):
            parse("p h3 4 2\ne 1 2 3\n")

    def test_parse_comments_ignored(self):
        H = parse("c a comment\np h3 3 1\ne 1 2 3\n")
        assert H == build(3, 3, [(0, 1, 2)])


@given(small_3graphs())
def test_index_matches_naive_scan(H):
    for v in range(H.n):
        assert H.degree(v) == naive_degree(H, v)


@given(small_3graphs())
def test_pair_neighborhood_size_is_codegree(H):
    for u in range(H.n):
        for v in range(u + 1, H.n):
            assert len(mask_vertices(H.link(u, v))) == naive_set_degree(H, [u, v])


@given(small_3graphs())
def test_min_degree_lower_bounds_all(H):
    md = H.min_degree()
    for v in range(H.n):
        assert md <= H.degree(v)


@given(small_3graphs())
def test_parse_serialize_identity(H):
    assert parse(serialize(H)) == H
