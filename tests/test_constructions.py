from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from linpath import constructions
from linpath.constructions import (
    g_bound,
    gen_complete,
    gen_core,
    gen_star,
    gen_star_plus,
    star_min_degree,
    star_plus_min_degree,
    theorem_threshold,
)
from linpath.errors import InvalidGraphError, InvalidParameterError
from linpath.oracle import _twins_below

from bruteforce import (
    reference_gen_complete,
    reference_gen_core,
    reference_gen_star,
    reference_gen_star_plus,
    reference_twins_below,
)


class TestStar:
    def test_edge_count(self):
        assert len(gen_star(3, 8, 1).edges) == comb(8, 3) - comb(7, 3)

    def test_degenerate_k(self):
        with pytest.raises(InvalidParameterError):
            gen_star(3, 4, 4)

    def test_min_degree_formula(self):
        assert gen_star(3, 12, 1).min_degree() == 10

    def test_every_edge_meets_head(self):
        H = gen_star(3, 9, 2)
        assert all(e[0] < 2 for e in H.edges)


class TestCore:
    def test_pair_core(self):
        H = gen_core(3, 9, 2)
        assert len(H.edges) == 7
        assert all(e[:2] == (0, 1) for e in H.edges)

    def test_full_core_single_edge(self):
        assert gen_core(3, 3, 3).edges == ((0, 1, 2),)

    def test_bad_parameters(self):
        with pytest.raises(InvalidParameterError):
            gen_core(3, 9, 4)


class TestStarPlus:
    def test_min_degree(self):
        assert gen_star_plus(3, 10, 1).min_degree() == 9

    def test_added_edge_count(self):
        plus = len(gen_star_plus(3, 10, 1).edges)
        star = len(gen_star(3, 10, 1).edges)
        assert plus - star == 7

    def test_embedded_core_location(self):
        H = gen_star_plus(3, 9, 2)
        extra = [e for e in H.edges if e[0] >= 2]
        assert extra == [(2, 3, t) for t in range(4, 9)]


class TestOtherUniformity:
    @pytest.mark.parametrize("gen, args", [
        (gen_star, (8, 26, 1)),
        (gen_core, (8, 26, 1)),
        (gen_star_plus, (8, 26, 1)),
        (gen_complete, (8, 26)),
    ], ids=["star", "core", "star_plus", "complete"])
    def test_refused_before_listing_subsets(self, monkeypatch, gen, args):
        # build refuses r != 3 before it draws an edge, so a wrong r costs
        # nothing even where C(n, r) is large
        drawn = []

        def counting(items, r):
            for subset in combinations(items, r):
                drawn.append(subset)
                yield subset

        monkeypatch.setattr(constructions, "combinations", counting)
        with pytest.raises(InvalidGraphError, match=r"^uniformity r=\d+: only 3-graphs"):
            gen(*args)
        assert drawn == []


class TestAgainstReferenceGenerators:
    """Each generator against the build-based one it replaced, on every
    valid parameter for n = 3..18."""

    @staticmethod
    def cases(n):
        for k in range(1, n):
            yield gen_star(3, n, k), reference_gen_star(3, n, k), k
        for k in range(1, n - 2):
            yield gen_star_plus(3, n, k), reference_gen_star_plus(3, n, k), k
        for s in (1, 2, 3):
            yield gen_core(3, n, s), reference_gen_core(3, n, s), None
        yield gen_complete(3, n), reference_gen_complete(3, n), None

    @pytest.mark.parametrize("n", range(3, 19))
    def test_same_hosts(self, n):
        for H, ref, k in self.cases(n):
            assert H.n == ref.n and H.edges == ref.edges
            assert [H.degree(v) for v in range(n)] == [ref.degree(v) for v in range(n)]
            assert all(H.link(u, v) == ref.link(u, v)
                       for u in range(n) for v in range(n))
            # the certification grid: twin classes on the star hosts
            if k is not None and k <= 3 and n <= 15:
                assert _twins_below(H) == reference_twins_below(ref)


class TestLazyDraw:
    """Each generator draws only the prefix it keeps, not the whole table."""

    @pytest.fixture
    def drawn(self, monkeypatch):
        drawn = []

        def counting(items, r):
            for subset in combinations(items, r):
                drawn.append(subset)
                yield subset

        monkeypatch.setattr(constructions, "combinations", counting)
        return drawn

    @pytest.mark.parametrize("gen, args, count", [
        (gen_core, (3, 3000, 2), 2998),
        (gen_core, (3, 3000, 3), 1),
        (gen_star, (3, 60, 1), comb(59, 2)),
        (gen_star_plus, (3, 60, 1), comb(59, 2) + 57),
        (gen_complete, (3, 20), comb(20, 3)),
    ], ids=["core2", "core3", "star", "star_plus", "complete"])
    def test_draws_exactly_the_prefix(self, drawn, gen, args, count):
        H = gen(*args)
        assert len(drawn) == len(H.edges) == count


class TestComplete:
    def test_k4(self):
        assert len(gen_complete(3, 4).edges) == 4

    def test_single_edge(self):
        assert len(gen_complete(3, 3).edges) == 1

    def test_min_degree(self):
        assert gen_complete(3, 6).min_degree() == comb(5, 2)


class TestClosedForms:
    def test_star_min_degree_values(self):
        assert star_min_degree(12, 1) == 10
        assert star_plus_min_degree(10, 1) == 9

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_star_formula_matches_brute_force(self, k):
        for n in range(k + 4, 16):
            assert star_min_degree(n, k) == gen_star(3, n, k).min_degree()
            assert star_plus_min_degree(n, k) == gen_star_plus(3, n, k).min_degree()

    def test_threshold_odd(self):
        assert theorem_threshold(23, 3) == (29, 23)

    def test_threshold_even(self):
        assert theorem_threshold(25, 4) == (44, 25)

    def test_threshold_length_one(self):
        for n in (10, 50, 100):
            assert theorem_threshold(n, 1)[0] == 3

    def test_g_bound_odd_agrees_with_threshold(self):
        for n in range(23, 40):
            assert g_bound(n, 3) == theorem_threshold(n, 3)[0]

    def test_g_bound_even_off_by_one(self):
        assert g_bound(25, 4) == 45
        for n in range(25, 40):
            assert g_bound(n, 4) == theorem_threshold(n, 4)[0] + 1

    def test_g_bound_dominates_pair_count(self):
        # at the order floor the bound can meet C(2t+2, 2) exactly (t=4);
        # above it the inequality is strict
        for t in range(3, 11):
            floor = 2 * t + 17
            assert g_bound(floor, t) >= comb(2 * t + 2, 2)
            for n in range(floor + 1, floor + 6):
                assert g_bound(n, t) > comb(2 * t + 2, 2)

    def test_formulas_exact_on_a_grid(self):
        # the docstring formulas in exact arithmetic: every halving in the
        # integer code is exact, so nothing is rounded
        half = Fraction(1, 2)
        for n in range(1, 201):
            for k in range(1, 21):
                star = k * n - k * k * half - 3 * k * half
                assert star_min_degree(n, k) == star
                assert star_plus_min_degree(n, k) == star + 1
            for t in range(3, 41):
                if t % 2:
                    g = (t - 1) * half * n + 3 * half * t * t - 9 * half * t + 6
                else:
                    g = (t - 2) * half * n + 3 * half * t * t - 5 * half * t + 6
                assert g_bound(n, t) == g

    def test_threshold_exceeds_extremal_degree(self):
        for k in (1, 2):
            for n in range(4 * k + 19, 4 * k + 40):
                assert theorem_threshold(n, 2 * k + 1)[0] >= star_min_degree(n, k) + 1
