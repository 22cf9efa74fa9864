import hashlib
import random
from itertools import islice
from math import comb

import pytest

from linpath import finder
from linpath.constructions import gen_complete, gen_star, gen_star_plus, theorem_threshold
from linpath.errors import InvalidPathError, LinpathError
from linpath.finder import (
    closure_witness,
    extend,
    find_guaranteed,
    improve_via_codegree,
    make_context,
    rotate,
    unfold_cycle_plus,
)
from linpath.harness import check_lemma_bounds, crossing_cycle_plus, random_min_degree_graph
from linpath.hypergraph import Hypergraph, all_triples, build
from linpath.oracle import find_cycle_plus, find_path, iter_paths
from linpath.paths import CyclePlusWitness, LinearPath, PathContext
from linpath.report import ViolationReport

from bruteforce import reference_context, reference_distinct_pair, reference_extend


def bare_path_graph(t, n=None):
    """Exactly the edges of one linear t-path on vertices 0..2t."""
    P = LinearPath(tuple(range(2 * t + 1)))
    return build(3, n or (2 * t + 1), P.edges()), P


class TestMakeContext:
    def test_bare_path_all_zero(self):
        H, P = bare_path_graph(3)
        ctx = make_context(H, P)
        assert ctx.M == frozenset()
        outside = reference_context(H, P.vertices)[0]
        assert all(ctx.d(a, b) == 0 for (a, b) in outside)

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
        H = gen_complete(3, 7)
        hit = extend(make_context(H, LinearPath((0, 1, 2))))
        assert hit is not None and hit.path.length == 2

    def test_star_blocked(self):
        H = gen_star(3, 8, 1)
        assert extend(make_context(H, LinearPath((1, 3, 0, 4, 5)))) is None

    def test_single_edge_graph_blocked(self):
        H, P = bare_path_graph(1)
        assert extend(make_context(H, P)) is None

    def test_left_end_used_when_right_blocked(self):
        # the only growth edge sits at the left endpoint 0
        H = build(3, 7, [(0, 1, 2), (0, 5, 6)])
        hit = extend(make_context(H, LinearPath((0, 1, 2))))
        assert hit is not None
        assert hit.path.vertices == (2, 1, 0, 5, 6)
        hit.path.validate(H)

    def test_built_context_is_make_contexts(self, monkeypatch):
        # extend builds its context from its parts, unvalidated; at every
        # hit inside find_guaranteed it must be the context make_context
        # builds for the same path on the same host.  At every call, hit or
        # None, it must pick what the full-mask scan it replaced picks
        hits = []

        def compared(ctx):
            new = extend(ctx)
            assert (new and new.path.vertices) == reference_extend(ctx)
            if new is not None:
                ref = make_context(ctx.host, new.path)
                assert new.host is ctx.host
                assert (new.path, new.free, new.M) == (ref.path, ref.free, ref.M)
                hits.append(new.path.length)
            return new

        monkeypatch.setattr(finder, "extend", compared)
        for t in range(3, 9):
            floor = theorem_threshold(0, t)[1]
            bound = theorem_threshold(floor, t)[0]
            for seed in range(20):
                find_guaranteed(random_min_degree_graph(floor, bound, seed), t)
        assert len(hits) == 540
        # stars at the longest length they have and at the one they lack
        for k in range(1, 5):
            for n in (4 * k + 3, 4 * k + 6):
                for gen, longest in ((gen_star, 2 * k), (gen_star_plus, 2 * k + 1)):
                    for t in (longest, longest + 1):
                        find_guaranteed(gen(3, n, k), t)
        assert len(hits) == 540 + 102


class TestDistinctPair:
    """The closed-form pick against the scan over every y it replaced."""

    def test_all_six_bit_masks(self):
        for first in range(64):
            for second in range(64):
                want = reference_distinct_pair(first, second)
                assert finder._distinct_pair(first, second) == want

    def test_random_forty_bit_masks(self):
        # sparse masks, and second a single vertex of first, reach the
        # pair whose y is not the least vertex of first
        rng = random.Random(29)
        for _ in range(20_000):
            first = second = 0
            for v in range(40):
                first |= (rng.random() < 0.1) << v
                second |= (rng.random() < 0.05) << v
            if first and rng.random() < 0.3:
                second = 1 << rng.choice([v for v in range(40) if first >> v & 1])
            assert finder._distinct_pair(first, second) == reference_distinct_pair(first, second)


class TestRotate:
    def test_gate_arithmetic_absent(self):
        # all outside codegrees at most 2: threshold max(1,3)=3 unmet
        H = build(3, 9, [(0, 1, 2), (2, 3, 4), (0, 4, 5), (0, 4, 6)])
        ctx = make_context(H, LinearPath((0, 1, 2, 3, 4)))
        assert ctx.M == frozenset()
        assert rotate(ctx) is None

    def test_no_candidate_index_absent(self):
        H = gen_star(3, 20, 1)
        ctx = make_context(H, LinearPath((1, 2, 0, 3, 4)))
        assert ctx.T == frozenset()
        assert rotate(ctx) is None
        assert rotate(ctx.reversed()) is None

    def test_planted_rotation_fires(self):
        H = build(3, 9, [(0, 1, 2), (2, 3, 4), (0, 4, 5), (0, 4, 6), (0, 4, 7)])
        P = LinearPath((0, 1, 2, 3, 4))
        ctx = make_context(H, P)
        assert ctx.T == frozenset({0, 1})
        new = rotate(ctx)
        assert new is not None
        assert new.path.vertices == (2, 1, 0, 5, 4)
        assert new.path.length == P.length
        assert new.M == make_context(H, new.path).M
        assert len(new.M) >= len(ctx.M) + 1

    def test_planted_rotation_right_end(self):
        # the same host with the path read backwards: the rotation at its
        # right end is the left-end rotation of the reversed context
        H = build(3, 9, [(0, 1, 2), (2, 3, 4), (0, 4, 5), (0, 4, 6), (0, 4, 7)])
        P = LinearPath((4, 3, 2, 1, 0))
        new = rotate(make_context(H, P).reversed())
        assert new is not None
        assert new.path.vertices == (2, 1, 0, 5, 4)
        assert new.path == rotate(make_context(H, P.reversed())).path

    def test_vertex_set_relation(self):
        H = build(3, 9, [(0, 1, 2), (2, 3, 4), (0, 4, 5), (0, 4, 6), (0, 4, 7)])
        P = LinearPath((0, 1, 2, 3, 4))
        new = rotate(make_context(H, P)).path
        dropped = set(P.vertices) - set(new.vertices)
        gained = set(new.vertices) - set(P.vertices)
        assert dropped == {3} and gained == {5}


class TestImprove:
    def test_bare_path_absent(self):
        H, P = bare_path_graph(3)
        assert improve_via_codegree(make_context(H, P)) is None

    def test_planted_odd_crossing(self):
        H = build(3, 7, [(0, 1, 2), (2, 3, 4), (0, 1, 5), (1, 4, 6)])
        ctx = make_context(H, LinearPath((0, 1, 2, 3, 4)))
        hit = improve_via_codegree(ctx)
        assert hit is not None
        assert hit.path.vertices == (2, 3, 4, 6, 1, 5, 0)
        assert hit.path.length == 3

    def test_shared_single_witness_absent(self):
        # y = z = 5 is the only candidate: distinctness fails
        H = build(3, 6, [(0, 1, 2), (2, 3, 4), (0, 1, 5), (1, 4, 5)])
        ctx = make_context(H, LinearPath((0, 1, 2, 3, 4)))
        assert improve_via_codegree(ctx) is None

    def test_planted_connector_left(self):
        # y sees the connector pair (x_0, x_2), z sees (x_0, x_1)
        H = build(3, 7, [(0, 1, 2), (2, 3, 4), (0, 2, 5), (0, 1, 6)])
        ctx = make_context(H, LinearPath((0, 1, 2, 3, 4)))
        hit = improve_via_codegree(ctx)
        assert hit is not None and hit.path.length == 3
        hit.path.validate(H)

    def test_planted_connector_right(self):
        # mirrored: witnesses attach at the right endpoint
        H = build(3, 7, [(0, 1, 2), (2, 3, 4), (2, 4, 5), (3, 4, 6)])
        ctx = make_context(H, LinearPath((0, 1, 2, 3, 4)))
        hit = improve_via_codegree(ctx)
        assert hit is not None and hit.path.length == 3
        hit.path.validate(H)


class TestUnfold:
    def test_complete_9(self):
        H = gen_complete(3, 9)
        w = find_cycle_plus(H, 3)
        hit = unfold_cycle_plus(H, w)
        assert hit is not None
        assert hit.path.length == w.path.length + 1
        hit.path.validate(H)

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


class TestCyclePlusWitnessValidate:
    # the cycle 0 1 2 3 4 closed by 5, with parallel vertex 6; 7 is isolated
    P = LinearPath((0, 1, 2, 3, 4))
    H = build(3, 8, P.edges() + [(0, 4, 5), (0, 4, 6)])

    def test_valid(self):
        w = CyclePlusWitness(self.P, 5, 6)
        assert w.validate(self.H) is w

    @pytest.mark.parametrize("path, closing, parallel", [
        ((0, 1, 2, 3, 4), 2, 6),
        ((0, 1, 2, 3, 4), 5, 5),
        ((0, 1, 2, 3, 4), 5, 8),
        ((0, 1, 2, 3, 4), 7, 6),
        ((0, 1, 2, 3, 4), 5, 7),
        ((0, 1, 2, 3, 7), 5, 6),
    ], ids=["closing-on-path", "parallel-is-closing", "out-of-range",
            "closing-not-edge", "parallel-not-edge", "broken-path"])
    def test_invalid(self, path, closing, parallel):
        with pytest.raises(InvalidPathError):
            CyclePlusWitness(LinearPath(path), closing, parallel).validate(self.H)


class TestCheckLemmaBounds:
    def test_bare_path_all_hold(self):
        H, P = bare_path_graph(3)
        report = check_lemma_bounds(make_context(H, P))
        assert report.passed

    def test_star_paths_pass(self):
        # star with k=1 is P_3-free, so every P_2 must satisfy the bounds
        H = gen_star(3, 9, 1)
        assert find_path(H, 3) is None
        for p in iter_paths(H, 2):
            assert check_lemma_bounds(make_context(H, p)).passed

    def test_violation_pairs_with_improvement(self):
        H = build(3, 7, [(0, 1, 2), (2, 3, 4), (0, 1, 5), (0, 1, 6), (1, 4, 6)])
        ctx = make_context(H, LinearPath((0, 1, 2, 3, 4)))
        report = check_lemma_bounds(ctx)
        violated = [c.name for c in report.checks if not c.passed]
        assert any(name.startswith("odd_crossing") for name in violated)
        assert improve_via_codegree(ctx) is not None


class TestCrossingCyclePlus:
    def test_planted_even_crossing(self):
        # d_P(0,4) = 3 and d_P(2t,2) = 1 overload the even-crossing bound
        base = LinearPath((0, 1, 2, 3, 4, 5, 6))
        edges = base.edges() + [(0, 4, 7), (0, 4, 8), (0, 4, 9), (2, 6, 10)]
        H = build(3, 11, edges)
        ctx = make_context(H, base)
        w = crossing_cycle_plus(ctx, 1)
        assert w is not None
        w.validate(H)
        assert w.path.length == base.length  # so the cycle has one edge more


class TestClosureWitness:
    def test_present_in_complete(self):
        H = gen_complete(3, 9)
        w = closure_witness(make_context(H, LinearPath((0, 1, 2, 3, 4))))
        assert w is not None
        w.validate(H)

    def test_absent_without_outside_neighbors(self):
        H, P = bare_path_graph(2)
        assert closure_witness(make_context(H, P)) is None


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

    def test_extend_only_run_reads_no_codegree(self, monkeypatch):
        # every step of this run lengthens the path, so |M| decides none
        # of them: with no on_move, no outside codegree is counted
        calls = []
        d = PathContext.d
        monkeypatch.setattr(PathContext, "d", lambda ctx, a, b: calls.append(a) or d(ctx, a, b))
        hit = find_guaranteed(random_min_degree_graph(27, 75, 0), 5)
        assert isinstance(hit, LinearPath) and hit.length == 5
        assert calls == []

    @pytest.mark.parametrize("make_host, t", [
        (lambda: random_min_degree_graph(27, 75, 0), 5),
        (lambda: gen_star_plus(3, 15, 3), 7),
    ], ids=["random-n27-t5", "star_plus-n15-t7"])
    def test_reported_m_is_the_paths(self, monkeypatch, make_host, t):
        # on_move gets each accepted path's |M| as make_context counts it
        H = make_host()
        paths = []

        def recording(move):
            def wrapper(ctx):
                new = move(ctx)
                if new is not None:
                    paths.append(new.path)
                return new
            return wrapper

        for name in ("extend", "improve_via_codegree", "_rotate_either_end", "_unfold"):
            monkeypatch.setattr(finder, name, recording(getattr(finder, name)))
        steps = []
        find_guaranteed(H, t, on_move=lambda *step: steps.append(step))
        assert len(steps) == len(paths) > 0
        assert [step[1:] for step in steps] == [
            (P.length, len(make_context(H, P).M)) for P in paths
        ]

    def test_edgeless(self):
        result = find_guaranteed(build(3, 25, []), 3)
        assert isinstance(result, ViolationReport)
        assert result.reason == "HypothesisUnmet"

    @staticmethod
    def threshold_hosts():
        for t in range(3, 9):
            n = theorem_threshold(0, t)[1]
            bound = theorem_threshold(n, t)[0]
            for seed in range(10):
                yield random_min_degree_graph(n, bound, seed), t

    @staticmethod
    def construction_hosts():
        for gen in (gen_star, gen_star_plus):
            for k in range(1, 5):
                for n in (4 * k + 3, 4 * k + 6):
                    for t in range(2 * k + 1, 2 * k + 4):
                        yield gen(3, n, k), t

    @pytest.mark.parametrize("hosts", ["threshold", "construction"])
    def test_accepted_moves_within_state_count(self, hosts):
        # with no budget the run is capped by its states: M lies in
        # range(length) and each move raises (length, |M|) below length t
        for H, t in getattr(self, f"{hosts}_hosts")():
            moves = []
            find_guaranteed(H, t, on_move=lambda *step: moves.append(step))
            assert len(moves) <= (t - 1) * (t + 2) // 2


class TestLemmaStepFailed:
    """Every way a t >= 3 run, or the base case, reports LemmaStepFailed.
    The move table is built per call, so a move replaced on the finder
    module is the one tried."""

    @staticmethod
    def refuse(monkeypatch, *names):
        for name in names:
            monkeypatch.setattr(finder, name, lambda *args: None)

    def test_splice_sequence_not_a_path(self, monkeypatch):
        H = gen_complete(3, 7)
        self.refuse(monkeypatch, "extend")
        # the odd configuration at k = 0, witnesses y = 3 and z = 4
        monkeypatch.setattr(finder, "_splice_odd", lambda x, k, y, z: x + (y, x[0]))
        result = find_guaranteed(H, 3)
        assert isinstance(result, ViolationReport)
        assert (result.reason, result.detail) == (
            "LemmaStepFailed", "spliced sequence invalid: repeated vertex in (0, 1, 2, 3, 0)"
        )
        assert result.snapshot.path == LinearPath((0, 1, 2))

    def test_unfold_sequence_not_a_path(self, monkeypatch):
        class Unchecked(CyclePlusWitness):
            def validate(self, H):
                return self

        # the closing edge {2, 4, 0} is missing, and the edge {2, 3, 5} at
        # the parallel vertex 3 reopens the cycle through it
        H = build(3, 6, [(0, 1, 2), (0, 2, 3), (2, 3, 5)])
        self.refuse(monkeypatch, "extend", "improve_via_codegree", "rotate")
        monkeypatch.setattr(finder, "closure_witness",
                            lambda ctx: Unchecked(ctx.path, 4, 3))
        result = find_guaranteed(H, 3)
        assert isinstance(result, ViolationReport)
        assert (result.reason, result.detail) == (
            "LemmaStepFailed", "unfolded sequence invalid: triple (0, 2, 4) is not an edge"
        )
        assert result.snapshot.path == LinearPath((0, 1, 2))

    def test_move_that_does_not_advance(self, monkeypatch):
        H = gen_complete(3, 7)
        monkeypatch.setattr(finder, "extend", lambda ctx: ctx)
        result = find_guaranteed(H, 3)
        assert isinstance(result, ViolationReport)
        assert (result.reason, result.detail) == (
            "LemmaStepFailed", "move extend did not advance (length, |M|): (1, 1) -> (1, 1)"
        )
        assert result.snapshot.path == LinearPath((0, 1, 2))

    def test_move_that_shortens_the_path(self, monkeypatch):
        # the second extend hands back the path's first edge: a shorter
        # path fails the advance check whatever its |M|
        H = gen_complete(3, 7)
        monkeypatch.setattr(finder, "extend", lambda ctx: (
            extend(ctx) if ctx.path.length < 2
            else make_context(ctx.host, LinearPath(ctx.path.vertices[:3]))))
        result = find_guaranteed(H, 3)
        assert isinstance(result, ViolationReport)
        assert (result.reason, result.detail) == (
            "LemmaStepFailed", "move extend did not advance (length, |M|): (2, 2) -> (1, 1)"
        )
        assert result.snapshot.path == LinearPath((0, 1, 2, 3, 4))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_no_move_at_the_threshold(self, monkeypatch, seed):
        bound, floor = theorem_threshold(23, 3)
        assert (bound, floor) == (29, 23)
        H = random_min_degree_graph(23, bound, seed)
        self.refuse(monkeypatch, "extend", "improve_via_codegree", "rotate",
                    "unfold_cycle_plus")
        result = find_guaranteed(H, 3)
        assert isinstance(result, ViolationReport)
        assert (result.reason, result.detail) == (
            "LemmaStepFailed", "no move at length 1 although delta_1 >= 29"
        )
        assert result.snapshot.path == LinearPath(H.edges[0])

    def test_base_case_oracle_finds_nothing(self, monkeypatch):
        H = gen_complete(3, 5)
        assert H.min_degree() == 6
        monkeypatch.setattr(finder.oracle, "find_path", lambda H, t, budget=None: None)
        result = find_guaranteed(H, 2)
        assert isinstance(result, ViolationReport)
        assert (result.reason, result.detail, result.snapshot) == (
            "LemmaStepFailed",
            "base-case hypotheses hold for t=2 yet the oracle found no path",
            None,
        )


class TestValidateOnce:
    """No path built from a validated context is validated again, extend
    included: validations equal make_context calls, and extend, the
    closure and the result make none."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"validate": 0, "make_context": 0}

        def counting(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(LinearPath, "validate",
                            counting("validate", LinearPath.validate))
        monkeypatch.setattr(finder, "make_context",
                            counting("make_context", finder.make_context))
        return counts

    @pytest.mark.parametrize("make_host, t, kinds, contexts", [
        # the starting context only
        (lambda: random_min_degree_graph(27, 75, 0), 5, ["extend"] * 4, 1),
        # the starting context and the splice's; the rotate attempts at
        # both ends read ctx and ctx.reversed(), neither validated
        (lambda: gen_star_plus(3, 15, 3), 7,
         ["extend", "extend", "splice", "extend", "extend"], 2),
    ], ids=["random-n27-t5", "star_plus-n15-t7"])
    def test_counts(self, counts, make_host, t, kinds, contexts):
        H = make_host()
        moves = []
        find_guaranteed(H, t, on_move=lambda kind, length, m: moves.append(kind))
        assert moves == kinds
        assert counts == {"validate": contexts, "make_context": contexts}

    def test_unfold_step(self, counts):
        # the unfolded path only: neither the closure nor its path again
        ctx = make_context(gen_complete(3, 7), LinearPath((0, 1, 2)))
        counts["validate"] = 0
        assert finder._unfold(ctx).path.length == 2
        assert counts == {"validate": 1, "make_context": 1}

    def test_find_cycle_plus(self, counts):
        # the least 2-path, by make_context; not the witness built on it
        assert find_cycle_plus(gen_complete(3, 7), 3) is not None
        assert counts["validate"] == 1


def move_outcome(fn):
    try:
        return repr(fn())
    except LinpathError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_frozen_move_outputs():
    # sha256 of rotate at both ends, the splice and crossing_cycle_plus at
    # every k, over the first 2- and 3-paths of seeded random hosts; the
    # value was computed before the right end became ctx.reversed()
    rng = random.Random(73)
    digest = hashlib.sha256()
    fired = 0
    for _ in range(40):
        n = rng.randint(7, 11)
        p = rng.uniform(0.2, 0.7)
        H = Hypergraph(n, tuple(tr for tr in all_triples(n) if rng.random() < p))
        for t in (2, 3):
            for P in islice(iter_paths(H, t), 12):
                ctx = make_context(H, P)
                outs = [move_outcome(lambda c=c: (r := rotate(c)) and r.path.vertices)
                        for c in (ctx, ctx.reversed())]
                outs.append(move_outcome(
                    lambda: (r := improve_via_codegree(ctx)) and r.path.vertices))
                outs += [move_outcome(lambda k=k: crossing_cycle_plus(ctx, k))
                         for k in range(t)]
                fired += sum(out != "None" for out in outs)
                digest.update("\n".join(outs).encode())
    assert fired == 70 + 742 + 521
    assert digest.hexdigest() == (
        "90b1ae25b22ab4a94ec1641ebf421811edbec988ddb1f2178fc494934197eb36"
    )


class TestPathReversal:
    def test_reversal_is_a_path(self):
        H = gen_complete(3, 7)
        P = LinearPath((0, 1, 2, 3, 4))
        P.reversed().validate(H)
        assert P.reversed().vertices == (4, 3, 2, 1, 0)
