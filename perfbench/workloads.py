"""The four workloads: their items, built from a seed, and each item's check.

An item is one call of a public linpath function.  A round is the
workload's fixed list of items; a run repeats whole rounds.  Every item
carries a check that compares its output with a computation from
``checks`` (which does not use linpath) or with a property the method must
have, and a ``corrupt`` that spoils an output so the self-test can show the
check rejects it.
"""

from __future__ import annotations

import copy
import dataclasses
import random
from dataclasses import dataclass
from typing import Callable, List, Optional

from linpath import constructions, finder, harness, hypergraph
from linpath.paths import LinearPath
from linpath.report import ViolationReport

from checks import (
    check_edge_list,
    check_path,
    min_degree,
    star_edges,
    sweep_table,
    threshold,
)


@dataclass
class Item:
    label: str
    group: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]
    summary: Callable[[object], object]
    corrupt: Callable[[object], list]


class ItemError:
    """Stands in for the output of an item whose call raised."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"


def _guard(check):
    def guarded(out):
        if isinstance(out, ItemError):
            return f"raised {out.text}"
        return check(out)
    return guarded


def _report_summary(out):
    if isinstance(out, ItemError):
        return out.text
    return (tuple((c.name, c.observed, c.passed) for c in out.checks),
            tuple(out.witnesses))


def _with_check(report, name, **changes):
    """A copy of a VerificationReport with one check altered."""
    bad = copy.deepcopy(report)
    bad.checks = [dataclasses.replace(c, **changes) if c.name == name else c
                  for c in bad.checks]
    return bad


def _spoil_path(vertices, edges, n):
    """The path with its first vertex swapped for one that makes the first
    triple a non-edge, or, failing that, for a vertex already on the path."""
    v = list(vertices)
    for w in range(n):
        if w not in v and tuple(sorted((w, v[1], v[2]))) not in edges:
            return tuple([w] + v[1:])
    return tuple([v[2]] + v[1:])


# -- campaign ---------------------------------------------------------------

# (n, t, delta, trials per round, oracle cross-check on every k-th trial)
CAMPAIGN_SHAPES = ((23, 3, 29, 32, 8), (25, 4, 44, 64, 0))


def campaign(seed: int) -> List[Item]:
    rng = random.Random(seed)
    items = []
    for n, t, delta, count, every in CAMPAIGN_SHAPES:
        bound, floor = threshold(n, t)
        if bound != delta or n < floor:
            raise ValueError(f"campaign shape n={n} t={t} is not at the threshold")
        for i in range(count):
            s = rng.randrange(1 << 30)
            oc = int(bool(every) and i % every == 0)
            items.append(_campaign_item(n, t, delta, s, oc))
    return items


def _campaign_item(n, t, delta, s, oc):
    config = dict(n=n, t=t, min_degree=delta, trials=1, seed=s, oracle_checks=oc)

    def call():
        return harness.run_trials(harness.ExperimentConfig(**config))

    def check(out):
        if len(out.rows) != 2:
            return f"{len(out.rows)} CSV rows for one trial"
        row = out.rows[0]
        if row[5] != "path" or out.success_rate != 1.0:
            return f"theorem host gave {row[5]}, success rate {out.success_rate}"
        if (row[2], row[4]) != (str(n), str(t)):
            return f"row is for n={row[2]} t={row[4]}"
        if row[7] != ("true" if oc else ""):
            return f"oracle_agrees is {row[7]!r}"
        H = harness.random_min_degree_graph(n, delta, int(row[1]))
        bad = check_edge_list(n, H.edges)
        if bad:
            return bad
        md = min_degree(n, H.edges)
        if md < delta or row[3] != str(md):
            return f"delta1 column {row[3]}, counted {md}, asked {delta}"
        P = finder.find_guaranteed(H, t)
        if not isinstance(P, LinearPath):
            return f"replayed host gave {P.reason}"
        return check_path(P.vertices, t, frozenset(H.edges), n)

    def corrupt(out):
        off = copy.deepcopy(out)
        off.rows[0][3] = str(int(off.rows[0][3]) + 1)
        lost = copy.deepcopy(out)
        lost.rows[0][5] = "HypothesisUnmet"
        return [off, lost]

    return Item(f"trial n={n} t={t} seed={s}", f"n={n}", call, _guard(check),
                lambda out: out.text if isinstance(out, ItemError) else out.rows,
                corrupt)


# -- certify ----------------------------------------------------------------

# k -> orders; the grid starts at 4k+3, where both constructions promise a
# path one edge shorter than the length they lack
CERTIFY_GRID = ((1, range(7, 13)), (2, range(11, 15)), (3, range(15, 16)))


def certify(seed: int) -> List[Item]:
    del seed  # the constructions are fixed by (kind, n, k)
    return [_certify_item(kind, n, k)
            for k, orders in CERTIFY_GRID for n in orders
            for kind in ("star", "star_plus")]


def _certify_item(kind, n, k):
    plus = kind == "star_plus"
    free = 2 * k + 2 if plus else 2 * k + 1
    present = free - 1

    def call():
        return harness.verify_construction(kind, 3, n, k)

    def check(out):
        edges = star_edges(n, k, plus)
        by_name = {c.name: c for c in out.checks}
        names = {"min_degree", f"no_path_len_{free}", f"path_len_{present}"}
        if set(by_name) != names or len(out.checks) != 3:
            return f"checks {sorted(by_name)}, expected {sorted(names)}"
        md = min_degree(n, edges)
        if by_name["min_degree"].observed != str(md):
            return f"min degree {by_name['min_degree'].observed}, counted {md}"
        if by_name[f"no_path_len_{free}"].observed != "absent":
            return f"reports a {free}-path the construction cannot have"
        if by_name[f"path_len_{present}"].observed != "present" or len(out.witnesses) != 1:
            return f"no {present}-path witness"
        if not out.passed:
            return "report failed"
        witness = [int(x) - 1 for x in out.witnesses[0].split()]
        return check_path(witness, present, frozenset(edges), n)

    def corrupt(out):
        edges = frozenset(star_edges(n, k, plus))
        md = _with_check(out, "min_degree",
                         observed=str(int(out.checks[0].observed) + 1))
        absent = _with_check(out, f"no_path_len_{free}", observed="present")
        witness = copy.deepcopy(out)
        spoilt = _spoil_path([int(x) - 1 for x in out.witnesses[0].split()], edges, n)
        witness.witnesses = [" ".join(str(v + 1) for v in spoilt)]
        return [md, absent, witness]

    return Item(f"{kind} n={n} k={k}", kind, call, _guard(check),
                _report_summary, corrupt)


# -- sweep ------------------------------------------------------------------

SWEEP_ORDER = 5
SWEEP_CASES = tuple((1, d) for d in range(1, 7)) + tuple((2, d) for d in range(2, 7))


def sweep(seed: int) -> List[Item]:
    del seed  # every labeled graph of the order is covered
    table = []  # filled on first check, outside the timed section

    def counts():
        if not table:
            table.append(sweep_table(SWEEP_ORDER, range(1, 7), (1, 2)))
        return table[0]

    return [_sweep_item(t, d, counts) for t, d in SWEEP_CASES]


def _sweep_item(t, d, counts):
    def call():
        return harness.exhaustive_check(SWEEP_ORDER, d, t)

    def check(out):
        kept, with_path = counts()
        want, hit = kept[d], with_path[(d, t)]
        by_name = {c.name: c for c in out.checks}
        if set(by_name) != {"graphs_checked", "all_contain_path"}:
            return f"checks {sorted(by_name)}"
        if by_name["graphs_checked"].observed != str(want):
            return f"{by_name['graphs_checked'].observed} graphs checked, counted {want}"
        got = by_name["all_contain_path"]
        if (got.expected, got.observed) != (str(want), str(hit)):
            return f"{got.observed}/{got.expected} with a {t}-path, counted {hit}/{want}"
        if out.passed != (hit == want) or len(out.witnesses) != min(5, want - hit):
            return "verdict or counterexamples disagree with the counts"
        return None

    def corrupt(out):
        checked = out.checks[0]
        contained = out.checks[1]
        return [
            _with_check(out, "graphs_checked", observed=str(int(checked.observed) + 1)),
            _with_check(out, "all_contain_path", observed=str(int(contained.observed) - 1)),
        ]

    return Item(f"exhaustive n={SWEEP_ORDER} delta>={d} t={t}", f"t={t}", call,
                _guard(check), _report_summary, corrupt)


# -- find -------------------------------------------------------------------

FIND_LENGTHS = range(3, 12)
FIND_ORDER_STEPS = (0, 3)  # n = order floor + step
FIND_STAR_KS = range(1, 5)
FIND_STAR_STEPS = (3, 6)  # n = 4k + step


def find(seed: int) -> List[Item]:
    rng = random.Random(seed)
    items = []
    for t in FIND_LENGTHS:
        for step in FIND_ORDER_STEPS:
            n = threshold(0, t)[1] + step
            host = harness.random_min_degree_graph(n, threshold(n, t)[0],
                                                   rng.randrange(1 << 30))
            items.append(_find_item(host, t, host.edges, "random", False))
    for k in FIND_STAR_KS:
        for step in FIND_STAR_STEPS:
            n = 4 * k + step
            for plus, gen in ((False, constructions.gen_star),
                              (True, constructions.gen_star_plus)):
                host = gen(3, n, k)
                edges = star_edges(n, k, plus)
                free = 2 * k + 2 if plus else 2 * k + 1
                group = "star_plus" if plus else "star"
                items.append(_find_item(host, free - 1, edges, group, False))
                items.append(_find_item(host, free, edges, group + " lacking", True))
    return items


def _find_item(host, t, edge_list, group, lacks):
    n = host.n
    H = hypergraph.parse(hypergraph.serialize(host))
    edges = frozenset(edge_list)

    def call():
        return finder.find_guaranteed(H, t)

    def check(out):
        if H.n != n or set(H.edges) != edges or len(H.edges) != len(edges):
            return "parsed host differs from the edge list it was written from"
        if isinstance(out, LinearPath):
            bad = check_path(out.vertices, t, edges, n)
            if bad is None and lacks:
                return f"{t}-path in a construction that has none"
            return bad
        if out.reason != "HypothesisUnmet":
            return f"{out.reason}: {out.detail}"
        bound, floor = threshold(n, t)
        if min_degree(n, edges) >= bound and n >= floor:
            return f"HypothesisUnmet on a host at the threshold ({out.detail})"
        return None

    def corrupt(out):
        if isinstance(out, LinearPath):
            spoilt = LinearPath(_spoil_path(out.vertices, edges, n))
            return [spoilt] + ([] if lacks or group != "random" else
                               [ViolationReport("HypothesisUnmet", "corrupted")])
        return [ViolationReport("LemmaStepFailed", out.detail)]

    def summary(out):
        if isinstance(out, LinearPath):
            return out.vertices
        if isinstance(out, ViolationReport):
            return (out.reason, out.detail)
        return out.text

    return Item(f"find {group} n={n} t={t}", group, call, _guard(check),
                summary, corrupt)


WORKLOADS = {"campaign": campaign, "certify": certify, "sweep": sweep, "find": find}
