"""Extremal construction generators and closed-form degree thresholds.

Three families on a fixed canonical vertex layout so serialized output is
reproducible byte-for-byte:

* star(r, n, k): vertex set A u B with A = {0..k-1}; all triples meeting A.
* core(r, n, s): S = {0..s-1}; all triples containing S.
* star_plus(r, n, k): the star plus a 2-core embedded on the first two
  B-vertices {k, k+1}.

The generators keep the uniformity r as their first argument and hand it
to ``hypergraph.build``, which accepts only r = 3.
"""

from __future__ import annotations

from itertools import combinations

from .errors import InvalidParameterError, NonIntegralError
from .hypergraph import Hypergraph, build


def gen_star(r: int, n: int, k: int) -> Hypergraph:
    """All r-subsets of {0..n-1} meeting A = {0..k-1}."""
    if not (n >= r >= 2 and 1 <= k < n):
        raise InvalidParameterError(f"gen_star needs n >= r >= 2, 1 <= k < n; got r={r} n={n} k={k}")
    edges = [e for e in combinations(range(n), r) if e[0] < k]
    return build(r, n, edges)


def gen_core(r: int, n: int, s: int) -> Hypergraph:
    """All r-subsets containing S = {0..s-1}."""
    if not (1 <= s <= r <= n):
        raise InvalidParameterError(f"gen_core needs 1 <= s <= r <= n; got r={r} n={n} s={s}")
    head = tuple(range(s))
    edges = [head + tail for tail in combinations(range(s, n), r - s)]
    return build(r, n, edges)


def gen_star_plus(r: int, n: int, k: int) -> Hypergraph:
    """The star plus a 2-core on B-vertices {k, k+1}.

    The added edges {k, k+1} u T with T an (r-2)-subset of B \\ {k, k+1}
    avoid A, so the union is duplicate-free.
    """
    if not (k >= 1 and n - k >= r):
        raise InvalidParameterError(f"gen_star_plus needs k >= 1 and n-k >= r; got r={r} n={n} k={k}")
    star = gen_star(r, n, k)
    extra = [
        (k, k + 1) + tail
        for tail in combinations(range(k + 2, n), r - 2)
    ]
    return build(r, n, list(star.edges) + extra)


def gen_complete(r: int, n: int) -> Hypergraph:
    """All C(n,r) edges."""
    if n < r or r < 2:
        raise InvalidParameterError(f"gen_complete needs n >= r >= 2; got r={r} n={n}")
    return build(r, n, combinations(range(n), r))


def _half(numerator: int, what: str) -> int:
    if numerator % 2:
        raise NonIntegralError(f"{what} evaluated to {numerator}/2")
    return numerator // 2


def star_min_degree(n: int, k: int) -> int:
    """delta_1 of the 3-uniform star: kn - k^2/2 - 3k/2."""
    return _half(k * (2 * n - k - 3), f"star_min_degree({n},{k})")


def star_plus_min_degree(n: int, k: int) -> int:
    """delta_1 of the 3-uniform star-plus: one more than the star's."""
    return star_min_degree(n, k) + 1


def theorem_threshold(n: int, t: int):
    """Minimum-degree bound forcing a linear t-path, with its order bound.

    Returns (degree bound, minimum n at which the bound applies).  Odd
    t = 2k+1 gives kn + 6k^2 - 3k + 3 for n >= 4k+19; even t = 2k+2 gives
    kn + 6k^2 + 7k + 6 for n >= 4k+21.
    """
    if t < 1:
        raise InvalidParameterError(f"path length t={t} must be >= 1")
    if t % 2:
        k = (t - 1) // 2
        return k * n + 6 * k * k - 3 * k + 3, 4 * k + 19
    k = (t - 2) // 2
    return k * n + 6 * k * k + 7 * k + 6, 4 * k + 21


def g_bound(n: int, t: int) -> int:
    """The intermediate degree bound g(n,t), quadratic reading.

    Odd t: ((t-1)/2)n + (3/2)t^2 - (9/2)t + 6; even t: ((t-2)/2)n +
    (3/2)t^2 - (5/2)t + 6.  Agrees with theorem_threshold for odd t and
    exceeds it by exactly one for even t.
    """
    if t < 3:
        raise InvalidParameterError(f"g_bound needs t >= 3, got {t}")
    if t % 2:
        return _half((t - 1) * n, "g_bound") + _half(3 * t * t - 9 * t, "g_bound") + 6
    return _half((t - 2) * n, "g_bound") + _half(3 * t * t - 5 * t, "g_bound") + 6

