import gc
import random
from itertools import islice
from math import comb

import pytest

from linpath.constructions import gen_complete, gen_core, gen_star, gen_star_plus
from linpath.errors import InvalidParameterError, OrderTooLargeError, SearchExhaustedError
from linpath.hypergraph import Hypergraph, all_triples, build, mask_edges
from linpath.oracle import (
    edge_mask_set,
    edge_masks,
    enumerate_hypergraphs,
    find_cycle,
    find_cycle_plus,
    find_path,
    iter_paths,
    longest_path,
)

from bruteforce import (
    brute_force_cycle,
    brute_force_path,
    brute_force_paths,
    reference_edge_masks,
    reference_enumerate_hypergraphs,
)


def random_3graph(n, p, rng):
    edges = tuple(t for t in all_triples(n) if rng.random() < p)
    return Hypergraph(n, edges)


class TestFindPath:
    def test_k4_has_no_p2(self):
        assert find_path(gen_complete(3, 4), 2) is None

    def test_any_edge_is_a_p1(self):
        H = build(3, 6, [(1, 3, 5)])
        hit = find_path(H, 1)
        assert hit is not None and hit.length == 1

    def test_star_p2_present_p3_absent(self):
        H = gen_star(3, 8, 1)
        assert find_path(H, 2) is not None
        assert find_path(H, 3) is None

    def test_star_plus_p4_absent(self):
        assert find_path(gen_star_plus(3, 10, 1), 4) is None

    def test_too_few_vertices(self):
        assert find_path(gen_complete(3, 4), 2) is None
        assert find_path(build(3, 4, [(0, 1, 2)]), 2) is None

    def test_witness_is_deterministic(self):
        H = gen_star(3, 8, 1)
        assert find_path(H, 2).vertices == find_path(H, 2).vertices
        assert find_path(H, 2).vertices == (1, 2, 0, 3, 4)

    def test_monotonicity_on_random_graphs(self):
        rng = random.Random(101)
        for _ in range(40):
            H = random_3graph(rng.randint(5, 8), rng.uniform(0.1, 0.5), rng)
            for t in (3, 2):
                if find_path(H, t) is not None:
                    assert find_path(H, t - 1) is not None


class TestLongestPath:
    def test_k4(self):
        length, hit = longest_path(gen_complete(3, 4), 5)
        assert length == 1 and hit is not None

    def test_edgeless(self):
        assert longest_path(build(3, 5, []), 5) == (0, None)

    def test_star_k2(self):
        length, hit = longest_path(gen_star(3, 12, 2), 10)
        assert length == 4
        # both head vertices serve as connectors in the witness
        assert {0, 1} <= set(hit.vertices)


class TestFindCycle:
    def test_complete_6(self):
        cyc = find_cycle(gen_complete(3, 6), 3)
        assert cyc is not None and cyc.length == 3

    def test_core_has_no_cycle(self):
        for k in (3, 4):
            assert find_cycle(gen_core(3, 9, 2), k) is None

    def test_complete_5_too_small(self):
        assert find_cycle(gen_complete(3, 5), 3) is None


class TestFindCyclePlus:
    def test_complete_7(self):
        w = find_cycle_plus(gen_complete(3, 7), 3)
        assert w is not None and w.path.length + 1 == 3

    def test_complete_6_too_small(self):
        assert find_cycle_plus(gen_complete(3, 6), 3) is None

    def test_star_free(self):
        assert find_cycle_plus(gen_star(3, 12, 1), 3) is None


class TestIterPaths:
    def test_counts_both_directions(self):
        # one P_1 on 3 vertices: 6 ordered readings of the single edge
        H = build(3, 3, [(0, 1, 2)])
        assert len(list(iter_paths(H, 1))) == 6

    def test_all_yielded_paths_valid(self):
        H = gen_star(3, 8, 1)
        for p in islice(iter_paths(H, 2), 200):
            p.validate(H)


class TestEnumeration:
    def test_count_n4(self):
        assert sum(1 for _ in enumerate_hypergraphs(4)) == 16

    def test_degree_ceiling_n5(self):
        assert sum(1 for _ in enumerate_hypergraphs(5, 7)) == 0

    def test_frozen_count_n5_delta4(self):
        # regression value, first computed by this exhaustive enumeration
        count = sum(1 for _ in enumerate_hypergraphs(5, 4))
        assert count == 86

    def test_min_degree_filter(self):
        # same graphs, same order, as building every subset of triples and
        # filtering on the edge list
        for n in (3, 4, 5):
            for d in range(8):
                assert list(enumerate_hypergraphs(n, d)) == list(
                    reference_enumerate_hypergraphs(n, d)
                )

    def test_edge_masks_increase_and_decode_to_the_hosts(self):
        for d in (0, 3, 6):
            masks = list(edge_masks(5, d))
            assert masks == sorted(set(masks))
            assert [mask_edges(5, m) for m in masks] == [
                H.edges for H in reference_enumerate_hypergraphs(5, d)
            ]

    def test_edge_masks_match_the_flat_scan(self):
        # the set algebra against a popcount per vertex and mask, at every
        # degree bound from below 0 to above the largest possible degree
        for n in (3, 4, 5):
            for d in range(-1, comb(n - 1, 2) + 2):
                assert list(edge_masks(n, d)) == list(reference_edge_masks(n, d))
        for d in (9, 10):
            assert list(edge_masks(6, d)) == list(reference_edge_masks(6, d))

    def test_order_cap(self):
        with pytest.raises(OrderTooLargeError):
            next(enumerate_hypergraphs(7))
        with pytest.raises(OrderTooLargeError):
            next(edge_masks(7))
        with pytest.raises(OrderTooLargeError):
            edge_mask_set(7)

    def test_order_floor(self):
        for n in (0, 2):
            with pytest.raises(InvalidParameterError):
                next(enumerate_hypergraphs(n))
            with pytest.raises(InvalidParameterError):
                next(edge_masks(n))
            with pytest.raises(InvalidParameterError):
                edge_mask_set(n)


def witness(H, t):
    hit = find_path(H, t)
    return None if hit is None else hit.vertices


# Present-length witnesses of the certification grid (k = 1..3, n = 4k+3..15),
# as returned before twin-class pruning; they do not depend on n.
CERTIFY_WITNESSES = {
    ("star", 1): (1, 2, 0, 3, 4),
    ("star", 2): (2, 3, 0, 4, 5, 6, 1, 7, 8),
    ("star", 3): (3, 4, 0, 5, 6, 7, 1, 8, 9, 10, 2, 11, 12),
    ("star_plus", 1): (1, 2, 3, 4, 0, 5, 6),
    ("star_plus", 2): (2, 3, 4, 5, 0, 6, 7, 8, 1, 9, 10),
    ("star_plus", 3): (3, 4, 5, 6, 0, 7, 8, 9, 1, 10, 11, 12, 2, 13, 14),
}


class TestAgainstBruteForce:
    # brute_force_path scans vertex sequences in lexicographic order, so it
    # returns the least witness, which is the one find_path must return

    def test_small_random_graphs(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(4, 7)
            H = random_3graph(n, rng.uniform(0.1, 0.7), rng)
            for t in range(1, (n - 1) // 2 + 1):
                assert witness(H, t) == brute_force_path(H, t)

    def test_exhaustive_tiny(self):
        # every 3-graph on 5 vertices, both t values
        for H in enumerate_hypergraphs(5):
            for t in (1, 2):
                assert witness(H, t) == brute_force_path(H, t)

    def test_iter_paths_order(self):
        # every path, in the lexicographic order of the vertex sequences
        hosts = list(enumerate_hypergraphs(5))
        rng = random.Random(53)
        for _ in range(30):
            n = rng.randint(6, 8)
            hosts.append(random_3graph(n, rng.uniform(0.1, 0.6), rng))
        for H in hosts:
            for t in range(1, (H.n - 1) // 2 + 1):
                assert [p.vertices for p in iter_paths(H, t)] == list(
                    brute_force_paths(H, t)
                )

    def test_cycles(self):
        rng = random.Random(59)
        for _ in range(30):
            n = rng.randint(6, 8)
            H = random_3graph(n, rng.uniform(0.1, 0.6), rng)
            for k in (3, 4):
                cyc = find_cycle(H, k)
                assert (cyc and cyc.vertices) == brute_force_cycle(H, k)

    def test_twin_rich_constructions(self):
        for n in (7, 8, 9):
            for gen, lengths in ((gen_star, (2, 3)), (gen_star_plus, (3, 4))):
                H = gen(3, n, 1)
                for t in lengths:
                    assert witness(H, t) == brute_force_path(H, t)

    def test_frozen_certification_witnesses(self):
        for (kind, k), want in CERTIFY_WITNESSES.items():
            gen, t = (gen_star, 2 * k) if kind == "star" else (gen_star_plus, 2 * k + 1)
            for n in range(4 * k + 3, 16):
                assert witness(gen(3, n, k), t) == want

    # find_cycle at k = 3, 4 and find_cycle_plus at k = 3 on seeded random
    # hosts, frozen from the tuple-based code the link masks replaced
    CYCLE_WITNESSES = [
        ((0, 1, 3, 4, 5, 2), None, None),
        ((0, 1, 3, 2, 7, 4), (0, 1, 3, 2, 7, 5, 8, 4), ((0, 1, 3, 5, 7), 2, 4)),
        (None, None, None),
        ((0, 1, 3, 2, 5, 4), (0, 1, 3, 2, 6, 4, 5, 7), ((0, 1, 3, 2, 5), 4, 6)),
        ((0, 1, 4, 3, 7, 2), (0, 1, 4, 2, 6, 5, 7, 3), ((0, 1, 4, 3, 7), 2, 5)),
        ((0, 2, 8, 1, 3, 7), (0, 2, 8, 4, 5, 6, 3, 7), ((1, 3, 8, 4, 6), 2, 7)),
        ((0, 1, 2, 3, 4, 6), None, ((0, 2, 4, 6, 5), 1, 3)),
        ((1, 0, 2, 3, 4, 6), None, ((1, 0, 2, 3, 6), 4, 5)),
    ]

    def test_frozen_cycle_witnesses(self):
        rng = random.Random(31)
        for want in self.CYCLE_WITNESSES:
            n = rng.randint(6, 9)
            H = random_3graph(n, rng.uniform(0.2, 0.5), rng)
            c3, c4, cp = find_cycle(H, 3), find_cycle(H, 4), find_cycle_plus(H, 3)
            assert (c3 and c3.vertices, c4 and c4.vertices,
                    cp and (cp.path.vertices, cp.closing, cp.parallel)) == want


# (host, search, length, least budget at which the search finishes) on
# gen_star(3, 11, 2) and on seeded random hosts, frozen from the
# extension-table search that the link-mask expansion replaced: any change
# to the states a search expands moves one of these.
FROZEN_BUDGETS = [
    ("star", find_path, 4, 11), ("star", find_path, 5, 12),
    (102, find_path, 3, 12), (102, find_path, 4, 22),
    (102, find_cycle, 3, 5), (102, find_cycle, 4, 53),
    (104, find_path, 3, 5), (104, find_path, 4, 173),
    (104, find_cycle, 3, 4), (104, find_cycle, 4, 23),
    (110, find_path, 3, 3), (110, find_path, 4, 4),
    (110, find_cycle, 3, 38), (110, find_cycle, 4, 192),
]


def test_frozen_least_budgets():
    for host, search, length, least in FROZEN_BUDGETS:
        if host == "star":
            H = gen_star(3, 11, 2)
        else:
            H = random_3graph(9, 0.15, random.Random(host))
        search(H, length, least)
        with pytest.raises(SearchExhaustedError):
            search(H, length, least - 1)


class TestMemoRelease:
    def test_searches_leave_no_reference_cycles(self):
        H = gen_star(3, 11, 2)
        gc.collect()
        gc.disable()
        try:
            find_path(H, 5)
            find_path(H, 4)
            try:
                find_path(H, 5, budget=10)
            except SearchExhaustedError:
                pass
            find_cycle(H, 3)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("run", [
        lambda H: list(iter_paths(H, 2)),
        lambda H: list(islice(iter_paths(H, 2), 5)),
        lambda H: find_cycle_plus(H, 3),
    ], ids=["iter_paths_consumed", "iter_paths_abandoned", "find_cycle_plus"])
    def test_path_enumeration_leaves_no_reference_cycles(self, run):
        H = gen_star(3, 11, 2)
        gc.collect()
        gc.disable()
        try:
            run(H)
            assert gc.collect() == 0
        finally:
            gc.enable()
