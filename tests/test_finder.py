import random
from itertools import islice
from math import comb

import pytest

from linpath.constructions import gen_complete, gen_star, theorem_threshold
from linpath.errors import InvalidPathError
from linpath.finder import (
    check_lemma_bounds,
    closure_witness,
    crossing_cycle_plus,
    extend,
    find_guaranteed,
    improve_via_codegree,
    make_context,
    rotate,
    unfold_cycle_plus,
)
from linpath.harness import random_min_degree_graph
from linpath.hypergraph import Hypergraph, all_triples, build
from linpath.oracle import find_cycle_plus, find_path, iter_paths
from linpath.paths import CyclePlusWitness, LinearPath
from linpath.report import ViolationReport


def bare_path_graph(t, n=None):
    """Exactly the edges of one linear t-path on vertices 0..2t."""
    P = LinearPath(tuple(range(2 * t + 1)))
    return build(3, n or (2 * t + 1), P.edges()), P


class TestMakeContext:
    def test_bare_path_all_zero(self):
        H, P = bare_path_graph(3)
        ctx = make_context(H, P)
        assert ctx.M == frozenset()
        assert all(ctx.d(a, b) == 0 for (a, b) in ctx.outside)

    def test_star_context(self):
        H = gen_star(3, 20, 1)
        ctx = make_context(H, LinearPath((1, 2, 0, 3, 4)))
        assert ctx.d(0, 2) == 15
        assert ctx.d(2, 4) == 15
        assert ctx.d(0, 4) == 0
        assert ctx.M == frozenset({0, 1})
        assert ctx.N_left == frozenset({0})

    def test_invalid_path_rejected(self):
        H = gen_star(3, 20, 1)
        with pytest.raises(InvalidPathError):
            make_context(H, LinearPath((1, 2, 3)))


class TestExtend:
    def test_complete_extends(self):
        hit = extend(gen_complete(3, 7), LinearPath((0, 1, 2)))
        assert hit is not None and hit.length == 2

    def test_star_blocked(self):
        assert extend(gen_star(3, 8, 1), LinearPath((1, 3, 0, 4, 5))) is None

    def test_single_edge_graph_blocked(self):
        H, P = bare_path_graph(1)
        assert extend(H, P) is None

    def test_left_end_used_when_right_blocked(self):
        # the only growth edge sits at the left endpoint 0
        H = build(3, 7, [(0, 1, 2), (0, 5, 6)])
        hit = extend(H, LinearPath((0, 1, 2)))
        assert hit is not None
        assert hit.vertices == (2, 1, 0, 5, 6)
        hit.validate(H)


class TestRotate:
    def test_gate_arithmetic_absent(self):
        # all outside codegrees at most 2: threshold max(1,3)=3 unmet
        H = build(3, 9, [(0, 1, 2), (2, 3, 4), (0, 4, 5), (0, 4, 6)])
        ctx = make_context(H, LinearPath((0, 1, 2, 3, 4)))
        assert ctx.M == frozenset()
        assert rotate(H, ctx, "left") is None

    def test_no_candidate_index_absent(self):
        H = gen_star(3, 20, 1)
        ctx = make_context(H, LinearPath((1, 2, 0, 3, 4)))
        assert ctx.T == frozenset()
        assert rotate(H, ctx, "left") is None
        assert rotate(H, ctx, "right") is None

    def test_planted_rotation_fires(self):
        H = build(3, 9, [(0, 1, 2), (2, 3, 4), (0, 4, 5), (0, 4, 6), (0, 4, 7)])
        P = LinearPath((0, 1, 2, 3, 4))
        ctx = make_context(H, P)
        assert ctx.T == frozenset({0, 1})
        new = rotate(H, ctx, "left")
        assert new is not None
        assert new.vertices == (2, 1, 0, 5, 4)
        assert new.length == P.length
        new_ctx = make_context(H, new)
        assert len(new_ctx.M) >= len(ctx.M) + 1

    def test_vertex_set_relation(self):
        H = build(3, 9, [(0, 1, 2), (2, 3, 4), (0, 4, 5), (0, 4, 6), (0, 4, 7)])
        P = LinearPath((0, 1, 2, 3, 4))
        new = rotate(H, make_context(H, P), "left")
        dropped = set(P.vertices) - set(new.vertices)
        gained = set(new.vertices) - set(P.vertices)
        assert dropped == {3} and gained == {5}


class TestImprove:
    def test_bare_path_absent(self):
        H, P = bare_path_graph(3)
        assert improve_via_codegree(H, make_context(H, P)) is None

    def test_planted_odd_crossing(self):
        H = build(3, 7, [(0, 1, 2), (2, 3, 4), (0, 1, 5), (1, 4, 6)])
        ctx = make_context(H, LinearPath((0, 1, 2, 3, 4)))
        hit = improve_via_codegree(H, ctx)
        assert hit is not None
        assert hit.vertices == (2, 3, 4, 6, 1, 5, 0)
        assert hit.length == 3

    def test_shared_single_witness_absent(self):
        # y = z = 5 is the only candidate: distinctness fails
        H = build(3, 6, [(0, 1, 2), (2, 3, 4), (0, 1, 5), (1, 4, 5)])
        ctx = make_context(H, LinearPath((0, 1, 2, 3, 4)))
        assert improve_via_codegree(H, ctx) is None

    def test_planted_connector_left(self):
        # y sees the connector pair (x_0, x_2), z sees (x_0, x_1)
        H = build(3, 7, [(0, 1, 2), (2, 3, 4), (0, 2, 5), (0, 1, 6)])
        ctx = make_context(H, LinearPath((0, 1, 2, 3, 4)))
        hit = improve_via_codegree(H, ctx)
        assert hit is not None and hit.length == 3
        hit.validate(H)

    def test_planted_connector_right(self):
        # mirrored: witnesses attach at the right endpoint
        H = build(3, 7, [(0, 1, 2), (2, 3, 4), (2, 4, 5), (3, 4, 6)])
        ctx = make_context(H, LinearPath((0, 1, 2, 3, 4)))
        hit = improve_via_codegree(H, ctx)
        assert hit is not None and hit.length == 3
        hit.validate(H)


class TestUnfold:
    def test_complete_9(self):
        H = gen_complete(3, 9)
        w = find_cycle_plus(H, 3)
        hit = unfold_cycle_plus(H, w)
        assert hit is not None
        assert hit.length == w.path.length + 1
        hit.validate(H)

    def test_bare_cycle_plus_absent(self):
        P = LinearPath((0, 1, 2, 3, 4))
        edges = P.edges() + [(0, 4, 5), (0, 4, 6)]
        H = build(3, 7, edges)
        w = CyclePlusWitness(P, 5, 6).validate(H)
        assert unfold_cycle_plus(H, w) is None

    def test_absent_implies_degree_cap(self):
        rng = random.Random(23)
        checked = 0
        for _ in range(300):
            if checked >= 30:
                break
            n = rng.randint(7, 10)
            edges = tuple(tr for tr in all_triples(n) if rng.random() < 0.25)
            H = Hypergraph(n, edges)
            w = find_cycle_plus(H, 3)
            if w is None:
                continue
            checked += 1
            if unfold_cycle_plus(H, w) is None:
                t = w.path.length
                assert H.degree(w.parallel) <= comb(2 * t + 2, 2)
        assert checked >= 10


class TestCheckLemmaBounds:
    def test_bare_path_all_hold(self):
        H, P = bare_path_graph(3)
        report = check_lemma_bounds(H, make_context(H, P), True)
        assert report.passed

    def test_star_paths_pass(self):
        # star with k=1 is P_3-free, so every P_2 must satisfy the bounds
        H = gen_star(3, 9, 1)
        assert find_path(H, 3) is None
        for p in iter_paths(H, 2):
            assert check_lemma_bounds(H, make_context(H, p), True).passed

    def test_violation_pairs_with_improvement(self):
        H = build(3, 7, [(0, 1, 2), (2, 3, 4), (0, 1, 5), (0, 1, 6), (1, 4, 6)])
        ctx = make_context(H, LinearPath((0, 1, 2, 3, 4)))
        report = check_lemma_bounds(H, ctx, False)
        violated = [c.name for c in report.failures()]
        assert any(name.startswith("odd_crossing") for name in violated)
        assert improve_via_codegree(H, ctx) is not None


class TestCrossingCyclePlus:
    def test_planted_even_crossing(self):
        # d_P(0,4) = 3 and d_P(2t,2) = 1 overload the even-crossing bound
        base = LinearPath((0, 1, 2, 3, 4, 5, 6))
        edges = base.edges() + [(0, 4, 7), (0, 4, 8), (0, 4, 9), (2, 6, 10)]
        H = build(3, 11, edges)
        ctx = make_context(H, base)
        w = crossing_cycle_plus(H, ctx, 1)
        assert w is not None
        w.validate(H)
        assert w.cycle_length == base.length + 1


class TestClosureWitness:
    def test_present_in_complete(self):
        H = gen_complete(3, 9)
        w = closure_witness(H, LinearPath((0, 1, 2, 3, 4)))
        assert w is not None
        w.validate(H)

    def test_absent_without_outside_neighbors(self):
        H, P = bare_path_graph(2)
        assert closure_witness(H, P) is None


class TestFindGuaranteed:
    def test_star_below_threshold(self):
        result = find_guaranteed(gen_star(3, 23, 1), 3)
        assert isinstance(result, ViolationReport)
        assert result.reason == "HypothesisUnmet"
        assert find_path(gen_star(3, 23, 1), 3) is None

    def test_length_one_returns_an_edge(self):
        H = build(3, 6, [(1, 3, 5)])
        hit = find_guaranteed(H, 1)
        assert isinstance(hit, LinearPath) and hit.length == 1

    def test_length_two_base_case(self):
        hit = find_guaranteed(gen_complete(3, 5), 2)
        assert isinstance(hit, LinearPath) and hit.length == 2

    def test_base_case_hypothesis_unmet(self):
        result = find_guaranteed(gen_complete(3, 4), 2)
        assert isinstance(result, ViolationReport)
        assert result.reason == "HypothesisUnmet"

    def test_random_above_threshold(self):
        bound, _ = theorem_threshold(23, 3)
        for seed in range(20):
            H = random_min_degree_graph(23, bound, seed)
            hit = find_guaranteed(H, 3)
            assert isinstance(hit, LinearPath)
            assert hit.length == 3
            hit.validate(H)

    def test_moves_advance_lexicographically(self):
        bound, _ = theorem_threshold(25, 4)
        H = random_min_degree_graph(25, bound, 5)
        marks = []
        hit = find_guaranteed(H, 4, on_move=lambda k, l, m: marks.append((l, m)))
        assert isinstance(hit, LinearPath)
        assert marks == sorted(marks)
        assert all(a < b for a, b in zip(marks, marks[1:]))

    def test_edgeless(self):
        result = find_guaranteed(build(3, 25, []), 3)
        assert isinstance(result, ViolationReport)
        assert result.reason == "HypothesisUnmet"


class TestPathReversal:
    def test_reversal_is_a_path(self):
        H = gen_complete(3, 7)
        P = LinearPath((0, 1, 2, 3, 4))
        P.reversed().validate(H)
        assert P.reversed().vertices == (4, 3, 2, 1, 0)
