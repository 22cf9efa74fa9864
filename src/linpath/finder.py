"""Rotation-extension finder for linear paths in 3-graphs.

Maintains a current linear path and applies moves, each of which strictly
increases (length, |M|) lexicographically, where M is the set of connector
indices i with at least two common neighbors of x_{2i}, x_{2i+2} outside
the path.  find_guaranteed tries them from one ordered table, in this
order, and takes the first that applies:

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
guessing, because that outcome would witness a bug.  A move that breaks
its own postcondition (a sequence that is not a path of the promised
length, a rotation whose M-set does not grow) raises LemmaStepError, as
does a step that does not advance (length, |M|); find_guaranteed turns
each into a LemmaStepFailed report at the path it started from.  |M| is
read only when a step keeps its length, or when on_move asks for it: a
longer path has advanced whatever its M.

Every move takes a PathContext (paths.make_context) alone, reads its host
from it, and returns the new path's context (or None).  No path built from
a validated context is validated again, extend included; make_context
validates the start edge and, through _checked as their postcondition,
the rearranged paths of splice, rotate and unfold.  Moves work at the left
end; the right end is ctx.reversed(), which needs no validation.

This module holds only what find_guaranteed runs.  The lemma's codegree
bounds, and the repairs that check them from the other side, live beside
lemma_sweep in the harness.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from . import oracle
from .constructions import theorem_threshold
from .errors import InvalidParameterError, InvalidPathError, LemmaStepError, SearchExhaustedError
from .hypergraph import Hypergraph, least_vertex, mask_vertices
from .oracle import closure_witness
from .paths import CyclePlusWitness, LinearPath, PathContext, make_context
from .report import ViolationReport


def extend(ctx: PathContext) -> Optional[PathContext]:
    """Append an edge with two fresh vertices at the right endpoint, or at
    the left one (via reversal); the lexicographically least fresh pair
    wins.  Returns the longer path's context, built from its parts, or None
    when every edge at both endpoints re-enters the path."""
    H, free = ctx.host, ctx.free
    for seq in (ctx.path.vertices, ctx.path.vertices[::-1]):
        last = seq[-1]
        rest = free
        while rest:  # the free vertices, lowest first, decoded one at a time
            low = rest & -rest
            rest ^= low
            w1 = low.bit_length() - 1
            fresh = H.link(last, w1) & free  # never holds w1 itself
            if fresh:
                w2 = least_vertex(fresh)
                return PathContext(LinearPath(seq + (w1, w2)), H, free & ~(low | 1 << w2))
    return None


def rotate(ctx: PathContext) -> Optional[PathContext]:
    """Reverse a prefix through an outside vertex, growing the M-set.

    Works at x_0; rotate ctx.reversed() for the right end.  Fires on the
    first k' in T (increasing) with d(0, 2k'+2) >= max(2|M|+1, 3).  The
    bridging vertex v is the smallest one avoiding, for every k in M with
    exactly two outside witnesses, that pair's outside set; pigeonhole
    guarantees one exists.
    v replaces x_{2k'+1} in the vertex set by construction; that the length
    is kept and |M| grows is asserted on the context returned.
    """
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
            raise LemmaStepError(
                f"pigeonhole failed at k'={kp}: gate {gate}, "
                f"avoid {list(mask_vertices(avoid))}"
            )
        v = least_vertex(candidates)
        new_seq = tuple(reversed(x[: 2 * kp + 1])) + (v,) + x[2 * kp + 2 :]
        new_ctx = _checked(ctx.host, new_seq, ctx.path.length, "rotated")
        if len(new_ctx.M) < len(ctx.M) + 1:
            raise LemmaStepError(
                f"|M| did not grow: {len(ctx.M)} -> {len(new_ctx.M)}"
            )
        return new_ctx
    return None


def _checked(H: Hypergraph, seq: tuple, length: int, what: str) -> PathContext:
    """The context of seq as a linear path of the given length; a move
    whose output is anything else raises LemmaStepError, naming the move
    by what it did ("rotated", "spliced", "unfolded")."""
    try:
        new_ctx = make_context(H, LinearPath(seq))
    except InvalidPathError as exc:
        raise LemmaStepError(f"{what} sequence invalid: {exc}") from exc
    if new_ctx.path.length != length:
        raise LemmaStepError(
            f"{what} sequence has length {new_ctx.path.length}, expected {length}"
        )
    return new_ctx


def _splice_odd(x: tuple, k: int, y: int, z: int) -> tuple:
    # (x_{2k+2}, ..., x_{2t}, z, x_{2k+1}, y, x_0, ..., x_{2k})
    return x[2 * k + 2 :] + (z, x[2 * k + 1], y) + x[: 2 * k + 1]


def _splice_connector(ctx: PathContext, k: int) -> Optional[tuple]:
    # (x_{2k+1}, z, x_0, ..., x_{2k}, y, x_{2k+2}, ..., x_{2t}), where y
    # sees (x_{2k}, x_{2k+2}) and z sees (x_0, x_{2k+1}) from outside
    pick = _distinct_pair(ctx.outside_mask(2 * k, 2 * k + 2), ctx.outside_mask(0, 2 * k + 1))
    if pick is None:
        return None
    (y, z), x = pick, ctx.path.vertices
    return (x[2 * k + 1], z) + x[: 2 * k + 1] + (y,) + x[2 * k + 2 :]


def _distinct_pair(first: int, second: int):
    """The first (y, z) with y in first, z in second and y != z, scanning y
    and then z upwards; None when there is none.  Both are vertex masks.

    The least y of first fails only when second is exactly {y}; then the
    next y of first, if any, pairs with that y."""
    if not (first and second):
        return None
    y = least_vertex(first)
    z = second & ~(1 << y)
    if z:
        return y, least_vertex(z)
    others = first & ~(1 << y)
    return (least_vertex(others), y) if others else None


def improve_via_codegree(ctx: PathContext) -> Optional[PathContext]:
    """Splice the path into one longer through two outside witnesses.

    Two configurations are scanned, in order and each by increasing k:

    * both endpoints see an odd position 2k+1 from outside, with two
      distinct witnesses y, z;
    * a connector pair (2k, 2k+2) and an endpoint both see outside
      vertices, again distinct.

    Returns the context of the spliced path, which has length exactly t+1;
    a failed splice raises LemmaStepError.
    """
    x = ctx.path.vertices
    t = ctx.path.length
    for k in range(t):
        pick = _distinct_pair(
            ctx.outside_mask(0, 2 * k + 1), ctx.outside_mask(2 * k + 1, 2 * t)
        )
        if pick is not None:
            y, z = pick
            return _checked(ctx.host, _splice_odd(x, k, y, z), t + 1, "spliced")
    ends = (ctx, ctx.reversed())
    for k in range(t):
        # the right end's configuration at k is the left one's at t-1-k
        for end, kk in zip(ends, (k, t - 1 - k)):
            seq = _splice_connector(end, kk)
            if seq is not None:
                return _checked(ctx.host, seq, t + 1, "spliced")
    return None


def unfold_cycle_plus(H: Hypergraph, W: CyclePlusWitness) -> Optional[PathContext]:
    """Reopen a (t+1)-cycle-with-parallel-edge into a linear (t+1)-path.

    W must be a valid cycle-plus of H, as closure_witness returns; it is
    not validated again.  Scans the edges {v, a, b}, a < b, at the parallel
    vertex v, read from its pair links, for one meeting the cycle's closure
    in at most one vertex, then walks the cycle from the meeting point,
    and returns the linear (t+1)-path's context.  Absence means every such
    edge meets the closure twice, which caps d_H(v) at C(2t+2, 2).
    """
    cyc = W.cycle_vertices()
    L = len(cyc)
    t = W.path.length
    v = W.parallel
    pos = {u: i for i, u in enumerate(cyc)}
    for a in range(H.n):
        for b in mask_vertices(H.link(v, a) & (-2 << a)):  # b > a: each edge once
            inside = [u for u in (a, b) if u in pos]
            if len(inside) == 2:
                continue
            if len(inside) == 0:
                seq = (b, a, v, cyc[2 * t]) + cyc[: 2 * t - 1]
                return _checked(H, seq, t + 1, "unfolded")
            xi = inside[0]
            vp = b if xi == a else a
            i = pos[xi]
            if i % 2 == 0:
                seq = (v, vp) + tuple(cyc[(i + j) % L] for j in range(2 * t + 1))
            else:
                seq = (v, vp, cyc[i], cyc[i - 1]) + tuple(
                    cyc[(i + 1 + j) % L] for j in range(2 * t - 1)
                )
            return _checked(H, seq, t + 1, "unfolded")
    return None


def _rotate_either_end(ctx: PathContext) -> Optional[PathContext]:
    """rotate at the end with the smaller refinement set, then the other."""
    ends = (ctx, ctx.reversed())
    if len(ctx.N_right) < len(ctx.N_left):
        ends = ends[::-1]
    for end in ends:
        rotated = rotate(end)
        if rotated is not None:
            return rotated
    return None


def _unfold(ctx: PathContext) -> Optional[PathContext]:
    """Close the path into a cycle-plus, if it closes, and reopen it."""
    witness = closure_witness(ctx)
    return None if witness is None else unfold_cycle_plus(ctx.host, witness)


def find_guaranteed(
    H: Hypergraph,
    t: int,
    budget: Optional[int] = None,
    on_move: Optional[Callable[[str, int, int], None]] = None,
) -> Union[LinearPath, ViolationReport]:
    """Drive the moves until a linear t-path emerges or no move applies.

    Lengths 1 and 2 are delegated to the exact oracle, whose expanded
    states the budget then caps.  For t >= 3 each step tries one ordered
    table of moves, extend, splice, rotate (at the endpoint with the
    smaller refinement set first), unfold, and the first that returns a
    context wins.  That context serves every later step on its path, once
    the step is shown to advance (length, |M|); a move that raises
    LemmaStepError, or does not advance, ends the run as LemmaStepFailed.
    A longer path advances whatever its M, so |M| is read only when a step
    keeps its length, or for on_move, which gets (kind, length, |M|).
    When stuck: LemmaStepFailed if the degree threshold promised a move,
    HypothesisUnmet otherwise.  There the budget caps accepted moves; with
    none the run needs no cap, since M lies in range(length) and every
    step raises (length, |M|) with length < t, so at most (t-1)(t+2)/2
    moves are accepted.  Running out of either budget is BudgetExhausted;
    a negative budget raises InvalidParameterError.
    """
    if budget is not None and budget < 0:
        raise InvalidParameterError(f"budget={budget} must be >= 0")
    if t <= 2:
        try:
            hit = oracle.find_path(H, t, budget)
        except SearchExhaustedError as exc:
            return ViolationReport("BudgetExhausted", str(exc))
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
    # built per call, so that a move replaced on this module is the one tried
    table = (("extend", extend), ("splice", improve_via_codegree),
             ("rotate", _rotate_either_end), ("unfold", _unfold))
    ctx = make_context(H, LinearPath(H.edges[0]))
    moves = 0
    while True:
        path = ctx.path
        if path.length >= t:
            return path
        if budget is not None and moves >= budget:
            return ViolationReport(
                "BudgetExhausted",
                f"{moves} accepted moves at length {path.length}",
                ctx,
            )
        try:
            for kind, move in table:
                new_ctx = move(ctx)
                if new_ctx is not None:
                    break
            if new_ctx is None:
                break  # no move applies
            # |M| decides only a step that keeps the length
            if new_ctx.path.length <= path.length:
                mark = (path.length, len(ctx.M))
                new_mark = (new_ctx.path.length, len(new_ctx.M))
                if new_mark <= mark:
                    raise LemmaStepError(
                        f"move {kind} did not advance (length, |M|): {mark} -> {new_mark}"
                    )
        except LemmaStepError as exc:
            return ViolationReport("LemmaStepFailed", str(exc), ctx)
        moves += 1
        if on_move is not None:
            on_move(kind, new_ctx.path.length, len(new_ctx.M))
        ctx = new_ctx
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
