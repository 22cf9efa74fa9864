"""Rotation-extension finder for linear paths in 3-graphs.

Maintains a current linear path and applies moves, each of which strictly
increases (length, |M|) lexicographically, where M is the set of connector
indices i with at least two common neighbors of x_{2i}, x_{2i+2} outside
the path:

* extend    -- append a fresh edge at either endpoint (length +1);
* splice    -- rewire through two distinct outside codegree witnesses
               (length +1);
* rotate    -- reverse a prefix through an outside vertex (same length,
               |M| +1);
* unfold    -- close the path into a cycle-with-parallel-edge and reopen
               it elsewhere (length +1).

Under the degree threshold of `constructions.theorem_threshold` some move
always applies until the target length is reached; when the threshold is
met and no move applies, the run reports LemmaStepFailed rather than
guessing, because that outcome would witness a bug.

Each accepted path gets one context, built from scratch rather than
patched: the index bookkeeping after a prefix reversal is error-prone, and
a context is O(s) int operations on the host's pair-link masks (outside
neighbours are a link masked by the path's complement).  find_guaranteed
hands the context built when a move is accepted to the next step; rotate
also builds one for the reversed path when it works at the right end, and
one to check its postcondition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from . import oracle
from .constructions import theorem_threshold
from .errors import (
    InvalidPathError,
    LemmaStepError,
    RotationPostconditionError,
    SplicePostconditionError,
    UnfoldPostconditionError,
)
from .hypergraph import Hypergraph, least_vertex, mask_vertices
from .oracle import closure_witness
from .paths import CyclePlusWitness, LinearPath
from .report import VerificationReport, ViolationReport


@dataclass(frozen=True)
class PathContext:
    """Per-path rotation state, built from scratch by make_context.

    outside maps an (a, b) index pair (a < b) to the bitmask of common
    neighbors of x_a, x_b lying outside the path; d counts its bits and
    outside_set decodes it.  M and T partition
    [0, s-1]; N_left / N_right are the endpoint refinement sets.  Their
    disjointness is a consequence derived under the theorem's hypotheses,
    so it is reported by callers, never asserted here.
    """

    path: LinearPath
    outside: dict
    M: frozenset
    T: frozenset
    N_left: frozenset
    N_right: frozenset

    def outside_mask(self, a: int, b: int) -> int:
        return self.outside[(a, b) if a < b else (b, a)]

    def outside_set(self, a: int, b: int) -> tuple:
        """The outside common neighbors of x_a and x_b, ascending."""
        return mask_vertices(self.outside_mask(a, b))

    def d(self, a: int, b: int) -> int:
        """d_P(a,b): outside codegree of path positions a and b."""
        return self.outside_mask(a, b).bit_count()


def make_context(H: Hypergraph, P: LinearPath) -> PathContext:
    P.validate(H)
    x = P.vertices
    s = P.length
    free = ~P.vertex_mask()
    pairs = set()
    for i in range(1, 2 * s + 1):
        pairs.add((0, i))
    for i in range(0, 2 * s):
        pairs.add((i, 2 * s))
    for i in range(s):
        pairs.add((2 * i, 2 * i + 2))
    outside = {(a, b): H.link(x[a], x[b]) & free for a, b in pairs}
    d = lambda a, b: outside[(a, b) if a < b else (b, a)].bit_count()
    M = frozenset(i for i in range(s) if d(2 * i, 2 * i + 2) >= 2)
    T = frozenset(range(s)) - M
    N_left = frozenset(
        {i for i in M if d(0, 2 * i + 2) >= 3}
        | {i for i in T if d(0, 2 * i + 1) >= 2}
    )
    N_right = frozenset(
        {i for i in M if d(2 * i, 2 * s) >= 3}
        | {i for i in T if d(2 * i + 1, 2 * s) >= 2}
    )
    return PathContext(P, outside, M, T, N_left, N_right)


def extend(H: Hypergraph, P: LinearPath) -> Optional[LinearPath]:
    """Append an edge with two fresh vertices at the right endpoint, or at
    the left one (via reversal); the lexicographically least fresh pair
    wins.  None when every edge at both endpoints re-enters the path."""
    P.validate(H)
    free = ((1 << H.n) - 1) & ~P.vertex_mask()
    for seq in (P.vertices, tuple(reversed(P.vertices))):
        last = seq[-1]
        for w1 in mask_vertices(free):
            fresh = H.link(last, w1) & free  # never holds w1 itself
            if fresh:
                return LinearPath(seq + (w1, least_vertex(fresh))).validate(H)
    return None


def rotate(H: Hypergraph, ctx: PathContext, end: str = "left") -> Optional[LinearPath]:
    """Reverse a prefix through an outside vertex, growing the M-set.

    Fires on the first k' in T (increasing) whose outside codegree with the
    chosen endpoint reaches max(2|M|+1, 3).  The bridging vertex v is the
    smallest one avoiding, for every k in M with exactly two outside
    witnesses, that pair's outside set; pigeonhole guarantees one exists.
    The result keeps the length, replaces x_{2k'+1} by v in the vertex set,
    and has strictly more M-members (asserted by brute recomputation).
    """
    if end == "right":
        ctx = make_context(H, ctx.path.reversed())
    elif end != "left":
        raise ValueError(f"end must be 'left' or 'right', got {end!r}")
    x = ctx.path.vertices
    gate = max(2 * len(ctx.M) + 1, 3)
    for kp in sorted(ctx.T):
        if ctx.d(0, 2 * kp + 2) < gate:
            continue
        avoid = 0
        for k in ctx.M:
            if ctx.d(2 * k, 2 * k + 2) == 2:
                avoid |= ctx.outside_mask(2 * k, 2 * k + 2)
        candidates = ctx.outside_mask(0, 2 * kp + 2) & ~avoid
        if not candidates:
            raise RotationPostconditionError(
                f"pigeonhole failed at k'={kp}: gate {gate}, "
                f"avoid {list(mask_vertices(avoid))}"
            )
        v = least_vertex(candidates)
        new_seq = tuple(reversed(x[: 2 * kp + 1])) + (v,) + x[2 * kp + 2 :]
        new_path = _checked(H, new_seq, ctx.path.length,
                            RotationPostconditionError, "rotated")
        expected_vset = (set(x) - {x[2 * kp + 1]}) | {v}
        if set(new_seq) != expected_vset:
            raise RotationPostconditionError("rotation vertex-set relation violated")
        new_M = make_context(H, new_path).M
        if len(new_M) < len(ctx.M) + 1:
            raise RotationPostconditionError(
                f"|M| did not grow: {len(ctx.M)} -> {len(new_M)}"
            )
        return new_path
    return None


def _checked(H: Hypergraph, seq: tuple, length: int, error: type, what: str) -> LinearPath:
    """seq as a validated linear path of the given length; a move whose
    output is anything else raises its own postcondition error."""
    try:
        new_path = LinearPath(seq).validate(H)
    except InvalidPathError as exc:
        raise error(f"{what} sequence invalid: {exc}") from exc
    if new_path.length != length:
        raise error(f"{what} sequence has length {new_path.length}, expected {length}")
    return new_path


def _splice_odd(x: tuple, k: int, y: int, z: int) -> tuple:
    # (x_{2k+2}, ..., x_{2t}, z, x_{2k+1}, y, x_0, ..., x_{2k})
    return x[2 * k + 2 :] + (z, x[2 * k + 1], y) + x[: 2 * k + 1]


def _splice_connector(x: tuple, k: int, y: int, z: int) -> tuple:
    # (x_{2k+1}, z, x_0, ..., x_{2k}, y, x_{2k+2}, ..., x_{2t})
    return (x[2 * k + 1], z) + x[: 2 * k + 1] + (y,) + x[2 * k + 2 :]


def _distinct_pair(first: int, second: int):
    """The first (y, z) with y in first, z in second and y != z, scanning y
    and then z upwards; None when there is none.  Both are vertex masks."""
    for y in mask_vertices(first):
        z = second & ~(1 << y)
        if z:
            return y, least_vertex(z)
    return None


def improve_via_codegree(H: Hypergraph, ctx: PathContext) -> Optional[LinearPath]:
    """Splice the path into one longer through two outside witnesses.

    Two configurations are scanned, in order and each by increasing k:

    * both endpoints see an odd position 2k+1 from outside, with two
      distinct witnesses y, z;
    * a connector pair (2k, 2k+2) and an endpoint both see outside
      vertices, again distinct.

    The returned path has length exactly t+1 and is validated; a failed
    splice raises SplicePostconditionError.
    """
    x = ctx.path.vertices
    t = ctx.path.length
    rx = tuple(reversed(x))

    def finish(seq: tuple) -> LinearPath:
        return _checked(H, seq, t + 1, SplicePostconditionError, "spliced")

    for k in range(t):
        pick = _distinct_pair(
            ctx.outside_mask(0, 2 * k + 1), ctx.outside_mask(2 * k + 1, 2 * t)
        )
        if pick is not None:
            y, z = pick
            return finish(_splice_odd(x, k, y, z))
    for k in range(t):
        for endpoint in (0, 2 * t):
            pick = _distinct_pair(
                ctx.outside_mask(2 * k, 2 * k + 2),
                ctx.outside_mask(endpoint, 2 * k + 1),
            )
            if pick is None:
                continue
            y, z = pick
            if endpoint == 0:
                return finish(_splice_connector(x, k, y, z))
            # mirrored configuration: same move on the reversed path
            return finish(_splice_connector(rx, t - 1 - k, y, z))
    return None


def unfold_cycle_plus(H: Hypergraph, W: CyclePlusWitness) -> Optional[LinearPath]:
    """Reopen a (t+1)-cycle-with-parallel-edge into a linear (t+1)-path.

    Scans the edges at the parallel vertex v for one meeting the cycle's
    closure in at most one vertex, then walks the cycle from the meeting
    point.  Absence means every such edge meets the closure twice, which
    caps d_H(v) at C(2t+2, 2).
    """
    W.validate(H)
    cyc = W.cycle_vertices()
    L = len(cyc)
    t = W.path.length
    X = set(cyc)
    v = W.parallel
    pos = {u: i for i, u in enumerate(cyc)}

    def finish(seq: tuple) -> LinearPath:
        return _checked(H, seq, t + 1, UnfoldPostconditionError, "unfolded")

    for e in H.incident_edges(v):
        rest = [u for u in e if u != v]
        inside = [u for u in rest if u in X]
        if len(inside) == 2:
            continue
        if len(inside) == 0:
            v1, v2 = sorted(rest)
            seq = (v2, v1, v, cyc[2 * t]) + cyc[: 2 * t - 1]
            return finish(seq)
        xi = inside[0]
        vp = rest[0] if rest[1] == xi else rest[1]
        i = pos[xi]
        if i % 2 == 0:
            seq = (v, vp) + tuple(cyc[(i + j) % L] for j in range(2 * t + 1))
        else:
            seq = (v, vp, cyc[i], cyc[i - 1]) + tuple(
                cyc[(i + 1 + j) % L] for j in range(2 * t - 1)
            )
        return finish(seq)
    return None


def find_guaranteed(
    H: Hypergraph,
    t: int,
    budget: Optional[int] = None,
    on_move: Optional[Callable[[str, int, int], None]] = None,
) -> Union[LinearPath, ViolationReport]:
    """Drive the moves until a linear t-path emerges or no move applies.

    Lengths 1 and 2 are delegated to the exact oracle.  For t >= 3 the
    loop tries extend, splice, rotate (at the endpoint with the smaller
    refinement set first), then unfold.  The context of the current path
    is built once, when its move is accepted, and serves every later step
    on that path.
    When stuck: LemmaStepFailed if the degree threshold promised a move,
    HypothesisUnmet otherwise.  Budget defaults to 16*n^2 accepted moves.
    """
    if t <= 2:
        hit = oracle.find_path(H, t)
        if hit is not None:
            return hit
        base_ok = (H.n >= 3 and H.min_degree() >= 1) if t == 1 else (
            H.n >= 5 and H.min_degree() >= 4
        )
        if base_ok:
            return ViolationReport(
                "LemmaStepFailed",
                f"base-case hypotheses hold for t={t} yet the oracle found no path",
            )
        return ViolationReport(
            "HypothesisUnmet", f"base-case degree/order hypotheses unmet for t={t}"
        )

    if not H.edges:
        return ViolationReport("HypothesisUnmet", "graph has no edges")
    if budget is None:
        budget = 16 * H.n * H.n

    ctx = make_context(H, LinearPath(H.edges[0]))
    moves = 0

    def accept(kind: str, new_path: LinearPath) -> PathContext:
        """The new path's context, once the move is shown to advance."""
        nonlocal moves
        new_ctx = make_context(H, new_path)
        mark = (ctx.path.length, len(ctx.M))
        new_mark = (new_path.length, len(new_ctx.M))
        if new_mark <= mark:
            raise LemmaStepError(
                f"move {kind} did not advance (length, |M|): {mark} -> {new_mark}"
            )
        moves += 1
        if on_move is not None:
            on_move(kind, new_mark[0], new_mark[1])
        return new_ctx

    while True:
        path = ctx.path
        if path.length >= t:
            return path.prefix(t).validate(H)
        if moves >= budget:
            return ViolationReport(
                "BudgetExhausted",
                f"{moves} accepted moves at length {path.length}",
                ctx,
            )
        try:
            longer = extend(H, path)
            if longer is not None:
                ctx = accept("extend", longer)
                continue
            longer = improve_via_codegree(H, ctx)
            if longer is not None:
                ctx = accept("splice", longer)
                continue
            ends = ("left", "right")
            if len(ctx.N_right) < len(ctx.N_left):
                ends = ("right", "left")
            rotated = None
            for end in ends:
                rotated = rotate(H, ctx, end)
                if rotated is not None:
                    break
            if rotated is not None:
                ctx = accept("rotate", rotated)
                continue
            witness = closure_witness(H, path)
            if witness is not None:
                longer = unfold_cycle_plus(H, witness)
                if longer is not None:
                    ctx = accept("unfold", longer)
                    continue
        except LemmaStepError as exc:
            return ViolationReport("LemmaStepFailed", str(exc), ctx)
        bound, min_n = theorem_threshold(H.n, t)
        if H.min_degree() >= bound and H.n >= min_n:
            return ViolationReport(
                "LemmaStepFailed",
                f"no move at length {path.length} although delta_1 >= {bound}",
                ctx,
            )
        return ViolationReport(
            "HypothesisUnmet",
            f"stuck at length {path.length}; delta_1={H.min_degree()} "
            f"threshold={bound} min_n={min_n}",
            ctx,
        )


def check_lemma_bounds(
    H: Hypergraph, ctx: PathContext, t_plus_one_free: bool
) -> VerificationReport:
    """Evaluate every codegree inequality the improvement moves rely on.

    Under the preconditions (host is (t+1)-path-free with degree at least
    g_bound(n,t)) all of them must hold; a violation under those
    preconditions is a LemmaStepFailed-grade finding for the caller.
    """
    t = ctx.path.length
    cap = H.n - 2 * t - 1
    report = VerificationReport(
        subject=f"path-bounds t={t}",
        replay={"t_plus_one_free": t_plus_one_free, "path": list(ctx.path.vertices)},
    )
    d = ctx.d
    report.add("endpoint_codegree", "<=1", d(0, 2 * t), d(0, 2 * t) <= 1)
    for k in range(t):
        i, j = d(0, 2 * k + 1), d(2 * k + 1, 2 * t)
        if i > 0 and j > 0:
            report.add(f"odd_crossing k={k}", "<=2", i + j, i + j <= 2)
        i2, j2 = d(0, 2 * k + 2), d(2 * k, 2 * t)
        if i2 > 0 and j2 > 0:
            report.add(f"even_crossing k={k}", "<=4", i2 + j2, i2 + j2 <= 4)
        for endpoint, tag in ((0, "left"), (2 * t, "right")):
            a, b = d(2 * k, 2 * k + 2), d(endpoint, 2 * k + 1)
            if a > 0 and b > 0:
                report.add(
                    f"connector_vs_odd k={k} end={tag}", "<=2", a + b, a + b <= 2
                )
        report.add(f"odd_sum_cap k={k}", f"<={cap}", i + j, i + j <= cap)
        report.add(f"even_sum_cap k={k}", f"<={cap}", i2 + j2, i2 + j2 <= cap)
    return report


def crossing_cycle_plus(
    H: Hypergraph, ctx: PathContext, k: int
) -> Optional[CyclePlusWitness]:
    """The cycle-plus built from an even-crossing overload.

    When d_P(0,2k+2) >= 3 and d_P(2t,2k) >= 1 (or the mirror), reroute the
    path through the endpoint-crossing witness z; the two remaining
    witnesses y1, y2 close it into a (t+1)-cycle with a parallel edge.
    """
    x = ctx.path.vertices
    t = ctx.path.length
    # second variant is the mirror image: same move on the reversed path,
    # whose outside sets map back to positions (2k, 2t) and (0, 2k+2)
    variants = (
        (x, k, ctx.outside_set(0, 2 * k + 2), ctx.outside_set(2 * k, 2 * t)),
        (
            tuple(reversed(x)),
            t - 1 - k,
            ctx.outside_set(2 * k, 2 * t),
            ctx.outside_set(0, 2 * k + 2),
        ),
    )
    for seq, kk, ys, zs in variants:
        if len(ys) < 3 or not zs:
            continue
        z = zs[0]
        y_pair = [y for y in ys if y != z][:2]
        if len(y_pair) < 2:
            continue
        # (x_0..x_{2k}, z, x_{2t}..x_{2k+2}) closed by {x_{2k+2}, y, x_0}
        body = seq[: 2 * kk + 1] + (z,) + tuple(reversed(seq[2 * kk + 2 :]))
        path = LinearPath(body).validate(H)
        return CyclePlusWitness(path, y_pair[0], y_pair[1]).validate(H)
    return None
