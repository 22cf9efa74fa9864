"""End-to-end acceptance checks, one per guaranteed property of the package.

Each test prints exactly one verdict line (ACCEPTANCE <name>: PASS/FAIL)
before asserting, so a plain `pytest -s tests/test_acceptance.py` reads as a
checklist.  All numeric expectations are exact; no tolerances.
"""

import random
from collections import Counter
from itertools import chain, islice, permutations

from linpath.cli import main as cli_main
from linpath.constructions import gen_complete, gen_star, gen_star_plus
from linpath.finder import (
    improve_via_codegree,
    make_context,
    rotate,
    unfold_cycle_plus,
)
from linpath.harness import ExperimentConfig, exhaustive_check, run_trials
from linpath.hypergraph import Hypergraph, all_triples, build, serialize
from linpath.oracle import find_path, iter_paths
from linpath.paths import CyclePlusWitness, LinearPath

from bruteforce import brute_force_path, naive_M, reference_unfold_cycle_plus


def verdict(name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_01_exhaustive_small_order():
    # every labeled 3-graph on 5 vertices with min degree >= 4 has a 2-path;
    # the enumeration covers all 2^10 graphs and filters exactly 86
    report = exhaustive_check(5, 4, 2)
    counts = {c.name: c.observed for c in report.checks}
    ok = report.passed and counts["graphs_checked"] == "86"
    verdict("exhaustive-min-degree-forces-path", ok)


def test_02_tight_example_k4():
    H = gen_complete(3, 4)
    ok = H.min_degree() == 3 and find_path(H, 2) is None
    verdict("tight-example-k4", ok)


def test_03_construction_grid():
    ok = True
    for k in (1, 2, 3, 4):
        expected_delta = lambda n: k * n - (k * k + 3 * k) // 2
        for n in range(4 * k + 3, 23):
            S = gen_star(3, n, k)
            ok &= S.min_degree() == expected_delta(n)
            ok &= find_path(S, 2 * k + 1) is None
            ok &= find_path(S, 2 * k) is not None
            P = gen_star_plus(3, n, k)
            ok &= P.min_degree() == expected_delta(n) + 1
            ok &= find_path(P, 2 * k + 2) is None
            ok &= find_path(P, 2 * k + 1) is not None
            if not ok:
                break
    verdict("construction-certification-grid", ok)


def test_04_random_trials_odd_target():
    # 500 seeded graphs at the degree bound for a 3-path, first 20 trials
    # cross-checked against the exact oracle
    cfg = ExperimentConfig(
        n=23, t=3, min_degree=29, trials=500, seed=2026, oracle_checks=20
    )
    result = run_trials(cfg)
    agrees = [row[7] for row in result.rows[:20]]
    ok = result.success_rate == 1.0 and agrees == ["true"] * 20
    verdict("random-trials-length-3", ok)


def test_05_random_trials_even_target():
    cfg = ExperimentConfig(n=25, t=4, min_degree=44, trials=500, seed=2027)
    result = run_trials(cfg)
    ok = result.success_rate == 1.0
    verdict("random-trials-length-4", ok)


def _planted_rotation_instances():
    """(H, P) pairs engineered so the prefix-reversal move fires.

    The host is a bare s-path plus planted outside witnesses: m connector
    pairs receive exactly two witnesses each (putting them in M), and one
    further index receives max(2m+1, 3) + extra witnesses against the left
    endpoint, which meets the firing threshold.
    """
    rng = random.Random(606)
    for s in (2, 3, 4):
        n = 2 * s + 9
        pool = list(range(2 * s + 1, n))
        x = tuple(range(2 * s + 1))
        base_edges = LinearPath(x).edges()
        for kp in range(1, s):
            for m in range(0, min(3, s - 1)):
                for extra in (0, 1):
                    for _ in range(40):
                        edges = list(base_edges)
                        others = [i for i in range(s) if i != kp]
                        for i in rng.sample(others, m):
                            for w in rng.sample(pool, 2):
                                edges.append((x[2 * i], x[2 * i + 2], w))
                        gate = max(2 * m + 1, 3)
                        for w in rng.sample(pool, gate + extra):
                            edges.append((x[0], x[2 * kp + 2], w))
                        yield build(3, n, sorted(set(
                            tuple(sorted(e)) for e in edges
                        ))), LinearPath(x)


def test_06_rotation_invariants():
    fired = 0
    ok = True
    for H, P in _planted_rotation_instances():
        ctx = make_context(H, P)
        new_ctx = rotate(ctx)
        if new_ctx is None:
            continue
        new = new_ctx.path
        fired += 1
        try:
            new.validate(H)
        except Exception:
            ok = False
            break
        ok &= new.length == P.length
        dropped = set(P.vertices) - set(new.vertices)
        gained = set(new.vertices) - set(P.vertices)
        # exactly one odd-position vertex traded for an outside vertex
        ok &= len(dropped) == 1 and len(gained) == 1
        ok &= P.vertices.index(dropped.pop()) % 2 == 1
        ok &= gained.pop() not in P.vertices
        ok &= len(naive_M(H, new.vertices)) >= len(naive_M(H, P.vertices)) + 1
        if not ok:
            break
    ok &= fired >= 1000
    verdict(f"rotation-invariants ({fired} instances)", ok)


def test_07_oracle_vs_bruteforce():
    rng = random.Random(31)
    ok = True
    for _ in range(200):
        n = rng.randint(4, 6)
        edges = tuple(tr for tr in all_triples(n) if rng.random() < rng.uniform(0.1, 0.8))
        H = Hypergraph(n, edges)
        for t in (1, 2):
            ours = find_path(H, t)
            # brute force scans in lexicographic order: the least witness
            ok &= (ours and ours.vertices) == brute_force_path(H, t)
            if ours is not None:
                ours.validate(H)
    verdict("oracle-vs-bruteforce", ok)


def _relabel(H, P, perm):
    edges = [tuple(sorted(perm[v] for v in e)) for e in H.edges]
    return build(3, H.n, edges), LinearPath(tuple(perm[v] for v in P.vertices))


def _planted_splice_instances():
    """Hosts where a codegree overload guarantees a length-(t+1) splice.

    Pattern A: both endpoints see an odd position from outside (two distinct
    witnesses).  Pattern B: a connector pair and one endpoint do.  Each
    instance is replicated under 50 random vertex relabelings.
    """
    rng = random.Random(707)
    for t in (2, 3, 4):
        n = 2 * t + 4
        x = tuple(range(2 * t + 1))
        y, z = 2 * t + 1, 2 * t + 2
        for k in range(t):
            variants = [[(x[0], x[2 * k + 1], y), (x[2 * t], x[2 * k + 1], z)]]
            for endpoint in (0, 2 * t):
                variants.append(
                    [(x[2 * k], x[2 * k + 2], y), (x[endpoint], x[2 * k + 1], z)]
                )
            for extra in variants:
                edges = LinearPath(x).edges() + [
                    tuple(sorted(e)) for e in extra
                ]
                H = build(3, n, sorted(set(edges)))
                P = LinearPath(x)
                yield H, P
                for _ in range(50):
                    perm = list(range(n))
                    rng.shuffle(perm)
                    yield _relabel(H, P, perm)


def test_08a_planted_splice_succeeds():
    total = 0
    ok = True
    for H, P in _planted_splice_instances():
        total += 1
        hit = improve_via_codegree(make_context(H, P))
        ok &= hit is not None
        if hit is not None:
            hit.path.validate(H)
            ok &= hit.path.length == P.length + 1
        if not ok:
            break
    verdict(f"planted-splice-succeeds ({total} instances)", ok)


def _complete_witnesses(n, t, sample=None, seed=0):
    """Cycle-plus witnesses of the complete 3-graph on n vertices.

    Any injective sequence is a path there, so enumeration reduces to
    ordered vertex selections; sample=None enumerates all of them.
    """
    H = gen_complete(3, n)
    if sample is None:
        seqs = permutations(range(n), 2 * t + 1)
    else:
        rng = random.Random(seed)
        seqs = (
            tuple(rng.sample(range(n), 2 * t + 1)) for _ in range(sample)
        )
    for seq in seqs:
        outside = [v for v in range(n) if v not in seq]
        for closing in outside:
            for parallel in outside:
                if parallel != closing:
                    yield H, CyclePlusWitness(LinearPath(seq), closing, parallel)


def test_08b_unfold_on_complete_hosts():
    total = 0
    ok = True
    # exhaustive at t=2; seeded sample of the ~20M instances at t=3
    cases = [(9, 2, None), (11, 3, 170)]
    for n, t, sample in cases:
        for H, w in _complete_witnesses(n, t, sample=sample, seed=808):
            total += 1
            hit = unfold_cycle_plus(H, w)
            ok &= hit is not None
            if hit is not None:
                ok &= hit.path.length == t + 1
            if not ok:
                break
        if not ok:
            break
    verdict(f"unfold-on-complete-hosts ({total} witnesses)", ok)


def _random_witnesses(hosts, seed):
    """Closures of the first 2- and 3-paths of seeded random hosts, one
    per ordered pair of distinct outside common neighbors of the ends."""
    rng = random.Random(seed)
    for _ in range(hosts):
        n = rng.randint(7, 11)
        p = rng.uniform(0.1, 0.5)
        H = Hypergraph(n, tuple(tr for tr in all_triples(n) if rng.random() < p))
        for t in (2, 3):
            for P in islice(iter_paths(H, t), 20):
                outside = make_context(H, P).outside_set(0, 2 * t)
                for closing in outside:
                    for parallel in outside:
                        if parallel != closing:
                            yield H, CyclePlusWitness(P, closing, parallel)


def test_08c_unfold_matches_edge_scan():
    # the pair-link scan against the edge-list scan it replaced, on the
    # witnesses of test_08b (each unfolds) and on random hosts, where some
    # do not
    witnesses = chain(
        _complete_witnesses(9, 2),
        _complete_witnesses(11, 3, sample=170, seed=808),
        _random_witnesses(200, 808),
    )
    outcomes = Counter()
    ok = True
    for H, w in witnesses:
        hit = unfold_cycle_plus(H, w)
        got = None if hit is None else hit.path.vertices
        ok &= got == reference_unfold_cycle_plus(H, w)
        outcomes[got is None] += 1
        if not ok:
            break
    ok &= outcomes == {False: 183480 + 6556, True: 342}
    verdict(f"unfold-matches-edge-scan ({sum(outcomes.values())} witnesses)", ok)


def test_09_cli_determinism(capsys, tmp_path):
    graph_file = tmp_path / "g.h3"
    from linpath.harness import random_min_degree_graph

    graph_file.write_text(serialize(random_min_degree_graph(23, 29, seed=12)))
    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    invocations = [
        ["gen", "--kind", "star", "--n", "12", "--k", "2"],
        ["oracle", "-i", str(graph_file), "--path", "3"],
        ["find", "-i", str(graph_file), "--length", "3", "--trace"],
        ["experiment", "--n", "23", "--length", "3", "--min-degree", "29",
         "--trials", "5", "--seed", "7"],
        ["verify", "--construction", "star", "--n", "12", "--k", "1"],
    ]
    ok = True
    for argv in invocations:
        cli_main(list(argv))
        first = capsys.readouterr().out
        cli_main(list(argv))
        second = capsys.readouterr().out
        ok &= first == second and first != ""
    base = ["experiment", "--n", "23", "--length", "3", "--min-degree", "29",
            "--trials", "5", "--seed", "7", "--out"]
    cli_main(base + [str(csv_a)])
    cli_main(base + [str(csv_b)])
    capsys.readouterr()
    ok &= csv_a.read_bytes() == csv_b.read_bytes()
    verdict("cli-determinism", ok)
