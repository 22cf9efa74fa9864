"""Extremal construction generators and closed-form degree thresholds.

Three families on a fixed canonical vertex layout so serialized output is
reproducible byte-for-byte:

* star(r, n, k): vertex set A u B with A = {0..k-1}; all triples meeting A.
* core(r, n, s): S = {0..s-1}; all triples containing S.
* star_plus(r, n, k): the star plus a 2-core embedded on the first two
  B-vertices {k, k+1}.

Each family, like the complete 3-graph, is a prefix of the lexicographic
triple table on {0..n-1}, so each generator builds its host once from the
first m triples, with no validation pass.  They are drawn lazily:
``gen_core(3, n, 2)`` needs n-2 of them, and slicing ``all_triples(n)``
would build all C(n,3) and evict the table the campaign caches.  The
uniformity r stays the first argument; any r other than 3 is refused.
"""

from __future__ import annotations

from itertools import combinations, islice
from math import comb

from .errors import InvalidParameterError
from .hypergraph import Hypergraph, require_3_uniform


def _prefix(r: int, n: int, m: int) -> Hypergraph:
    require_3_uniform(r)
    return Hypergraph(n, tuple(islice(combinations(range(n), 3), m)))


def gen_star(r: int, n: int, k: int) -> Hypergraph:
    """All triples meeting A = {0..k-1}: the first C(n,3) - C(n-k,3)."""
    if not (n >= r >= 2 and 1 <= k < n):
        raise InvalidParameterError(f"gen_star needs n >= r >= 2, 1 <= k < n; got r={r} n={n} k={k}")
    return _prefix(r, n, comb(n, 3) - comb(n - k, 3))


def gen_core(r: int, n: int, s: int) -> Hypergraph:
    """All triples containing S = {0..s-1}: the first C(n-s, 3-s)."""
    if not (1 <= s <= r <= n):
        raise InvalidParameterError(f"gen_core needs 1 <= s <= r <= n; got r={r} n={n} s={s}")
    return _prefix(r, n, comb(n - s, 3 - s))


def gen_star_plus(r: int, n: int, k: int) -> Hypergraph:
    """The star plus a 2-core on B-vertices {k, k+1}: the star's triples
    and the n-k-2 triples {k, k+1, c} that follow them, which avoid A."""
    if not (k >= 1 and n - k >= r):
        raise InvalidParameterError(f"gen_star_plus needs k >= 1 and n-k >= r; got r={r} n={n} k={k}")
    return _prefix(r, n, comb(n, 3) - comb(n - k, 3) + n - k - 2)


def gen_complete(r: int, n: int) -> Hypergraph:
    """All C(n,3) triples: the whole table."""
    if n < r or r < 2:
        raise InvalidParameterError(f"gen_complete needs n >= r >= 2; got r={r} n={n}")
    return _prefix(r, n, comb(n, 3))


def star_min_degree(n: int, k: int) -> int:
    """delta_1 of the 3-uniform star: kn - k^2/2 - 3k/2.  k(2n-k-3) is
    even for every integer k, so the halving is exact."""
    return k * (2 * n - k - 3) // 2


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
    exceeds it by exactly one for even t.  Each halved numerator is even:
    (t-1)n and 3t(t-3) for odd t, (t-2)n and t(3t-5) for even t.
    """
    if t < 3:
        raise InvalidParameterError(f"g_bound needs t >= 3, got {t}")
    if t % 2:
        return (t - 1) * n // 2 + 3 * t * (t - 3) // 2 + 6
    return (t - 2) * n // 2 + t * (3 * t - 5) // 2 + 6

