import gc
import random
from functools import cache
from itertools import islice, permutations
from math import comb

import pytest

from linpath.constructions import gen_complete, gen_core, gen_star, gen_star_plus
from linpath.errors import InvalidParameterError, SearchExhaustedError
from linpath.hypergraph import Hypergraph, all_triples, build, mask_edges
from linpath.oracle import (
    edge_mask_set,
    enumerate_hypergraphs,
    find_cycle,
    find_cycle_plus,
    find_path,
    iter_paths,
    longest_path,
    masks_with_path,
    masks_with_triple,
)
from linpath.paths import CyclePlusWitness

from bruteforce import (
    brute_force_cycle,
    brute_force_path,
    brute_force_paths,
    reference_edge_masks,
    reference_enumerate_hypergraphs,
    reference_find_cycle,
    reference_find_cycle_plus,
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


@cache
def three_cycles_on_six():
    """(the edge sets of the linear 3-cycles on 6 vertices, the set of edge
    masks whose host has one of them), by the bit-per-mask algebra of
    ``masks_with_path``; a 3-cycle spans all 6 vertices, so each is a
    permutation z_0..z_5 closed by {z_4, z_5, z_0}."""
    triples = all_triples(6)
    index = {e: i for i, e in enumerate(triples)}
    has = masks_with_triple(6)
    edge_sets = {
        frozenset(tuple(sorted((z[i], z[i + 1], z[(i + 2) % 6]))) for i in (0, 2, 4))
        for z in permutations(range(6))
    }
    found = 0
    for edges in edge_sets:
        with_edges = -1
        for e in edges:
            with_edges &= has[index[e]]
        found |= with_edges
    return edge_sets, found


class TestFindCycleAllHosts:
    """find_cycle at k = 3 against the exact set of 6-vertex hosts that
    have a linear 3-cycle."""

    def test_counts(self):
        edge_sets, with_cycle = three_cycles_on_six()
        # 20 connector triples, times 3! ways to give the other three
        # vertices to the connector pairs
        assert len(edge_sets) == 120
        free = [(edge_mask_set(6, d) & ~with_cycle).bit_count() for d in range(7)]
        assert free == [20_467, 14_533, 4_098, 396, 21, 0, 0]

    def test_no_cycle_on_cycle_free_hosts(self):
        with_cycle = three_cycles_on_six()[1]
        free = edge_mask_set(6, 2) & ~with_cycle
        bits = bin(free)[:1:-1]  # bit i at index i
        masks = [i for i, bit in enumerate(bits) if bit == "1"]
        assert len(masks) == 4_098
        assert all(find_cycle(Hypergraph(6, mask_edges(6, m)), 3) is None for m in masks)

    def test_random_masks_agree(self):
        edge_sets, with_cycle = three_cycles_on_six()
        rng = random.Random(6)
        for _ in range(2000):
            mask = rng.getrandbits(20)
            H = Hypergraph(6, mask_edges(6, mask))
            hit = find_cycle(H, 3)
            assert (hit is not None) == bool(with_cycle >> mask & 1)
            if hit is not None:
                assert frozenset(hit.edges()) in edge_sets


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
        # the set bits of edge_mask_set, read upwards, are the masks of the
        # reference hosts in their order
        for d in (0, 3, 6):
            found = edge_mask_set(5, d)
            masks = [m for m in range(1 << comb(5, 3)) if found >> m & 1]
            assert found == sum(1 << m for m in reference_edge_masks(5, d))
            assert [mask_edges(5, m) for m in masks] == [
                H.edges for H in reference_enumerate_hypergraphs(5, d)
            ]

    def test_edge_masks_match_the_flat_scan(self):
        # the set algebra against a popcount per vertex and mask, at every
        # degree bound from below 0 to above the largest possible degree
        for n in (3, 4, 5):
            for d in range(-1, comb(n - 1, 2) + 2):
                assert edge_mask_set(n, d) == sum(1 << m for m in reference_edge_masks(n, d))
        for d in (9, 10):
            assert edge_mask_set(6, d) == sum(1 << m for m in reference_edge_masks(6, d))

    def test_order_cap(self):
        capped = r"^exhaustive enumeration capped at n=6, got 7$"
        with pytest.raises(InvalidParameterError, match=capped):
            next(enumerate_hypergraphs(7))
        with pytest.raises(InvalidParameterError, match=capped):
            edge_mask_set(7)
        with pytest.raises(InvalidParameterError, match=capped):
            masks_with_path(7, 2)

    def test_order_floor(self):
        for n in (0, 2):
            with pytest.raises(InvalidParameterError):
                next(enumerate_hypergraphs(n))
            with pytest.raises(InvalidParameterError):
                edge_mask_set(n)
            with pytest.raises(InvalidParameterError):
                masks_with_path(n, 1)


class TestMasksWithPath:
    """The set of edge masks whose host has a linear t-path, against the
    brute-force search over every injective vertex sequence."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_brute_force_on_every_host(self, n):
        for t in (1, 2, 3):
            found = masks_with_path(n, t)
            # the hosts of the flat scan, in increasing order of their mask
            for mask, H in enumerate(reference_enumerate_hypergraphs(n)):
                assert (found >> mask & 1) == (brute_force_path(H, t) is not None)
            assert found < 1 << (1 << comb(n, 3))

    def test_n6_counts(self):
        # of the 2^20 hosts on 6 vertices, all but the empty one have a
        # 1-path, 271 (the empty one among them) have no 2-path, and none
        # has a 3-path, which needs 7 vertices
        assert masks_with_path(6, 1).bit_count() == 1_048_575
        assert masks_with_path(6, 2).bit_count() == 1_048_305
        assert masks_with_path(6, 3) == 0

    def test_n6_two_edge_hosts_are_the_path_edge_sets(self):
        # a 2-edge host has a 2-path exactly when its edges are the edge set
        # of one, so these masks are the family the set is built from
        triples = all_triples(6)
        found = masks_with_path(6, 2)
        family = {
            frozenset((triples[i], triples[j]))
            for j in range(len(triples))
            for i in range(j)
            if found >> ((1 << i) | (1 << j)) & 1
        }
        complete = build(3, 6, all_triples(6))
        paths = {
            frozenset(tuple(sorted(seq[k : k + 3])) for k in (0, 2))
            for seq in brute_force_paths(complete, 2)
        }
        assert len(family) == 90
        assert family == paths

    def test_bad_length(self):
        with pytest.raises(InvalidParameterError):
            masks_with_path(5, 0)


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


def cycle_witness(w):
    """A find_cycle or find_cycle_plus result as plain tuples."""
    if isinstance(w, CyclePlusWitness):
        return w.path.vertices, w.closing, w.parallel
    return w and w.vertices


class TestAgainstReplacedCycleSearches:
    """find_cycle and find_cycle_plus, both run by the shared path search,
    against the anchored cycle search and the scan of every (k-1)-path they
    replaced: the same witness, or None, on every host."""

    def check(self, H):
        for k in (3, 4, 5):
            assert cycle_witness(find_cycle(H, k)) == cycle_witness(
                reference_find_cycle(H, k)
            )
        for k in (3, 4):
            assert cycle_witness(find_cycle_plus(H, k)) == cycle_witness(
                reference_find_cycle_plus(H, k)
            )

    def test_seeded_random_hosts(self):
        rng = random.Random(67)
        for _ in range(120):
            n = rng.randint(6, 10)
            self.check(random_3graph(n, rng.uniform(0.05, 0.5), rng))

    @pytest.mark.parametrize("gen", [gen_star, gen_star_plus, gen_core],
                             ids=["star", "star_plus", "core"])
    def test_constructions(self, gen):
        for n in range(6, 14):
            for k in (1, 2, 3):
                if gen is not gen_star_plus or n - k >= 3:
                    self.check(gen(3, n, k))


# (host, search, length, least budget at which the search finishes) on
# gen_star(3, 11, 2) and on seeded random hosts.  The find_path rows are
# frozen from the extension-table search that the link-mask expansion
# replaced; the cycle rows count the states of the shared search that
# find_cycle and find_cycle_plus run at length k-1.  Any change to the
# states a search expands moves one of these.
FROZEN_BUDGETS = [
    ("star", find_path, 4, 11), ("star", find_path, 5, 12),
    ("star", find_cycle_plus, 5, 16),
    (102, find_path, 3, 12), (102, find_path, 4, 22),
    (102, find_cycle, 3, 4), (102, find_cycle, 4, 112),
    (102, find_cycle_plus, 3, 50),
    (104, find_path, 3, 5), (104, find_path, 4, 173),
    (104, find_cycle, 3, 2), (104, find_cycle, 4, 13),
    (104, find_cycle_plus, 3, 21), (104, find_cycle_plus, 4, 283),
    (110, find_path, 3, 3), (110, find_path, 4, 4),
    (110, find_cycle, 3, 7), (110, find_cycle, 4, 30),
    (110, find_cycle_plus, 3, 10), (110, find_cycle_plus, 4, 113),
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
