import hashlib
import random
from itertools import islice

import pytest

from linpath import harness, oracle
from linpath.constructions import gen_star, theorem_threshold
from linpath.errors import InfeasibleDegreeError, InvalidParameterError
from linpath.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    exhaustive_check,
    lemma_sweep,
    random_min_degree_graph,
    run_trials,
    verify_construction,
)
from linpath.hypergraph import Hypergraph, build, parse, serialize

from bruteforce import reference_exhaustive_check, reference_random_min_degree_graph


class TestRandomMinDegreeGraph:
    def test_contract(self):
        H = random_min_degree_graph(12, 10, seed=3)
        assert H.n == 12
        assert H.min_degree() >= 10

    def test_determinism(self):
        a = random_min_degree_graph(10, 8, seed=42)
        b = random_min_degree_graph(10, 8, seed=42)
        assert a == b

    def test_distinct_seeds_differ(self):
        a = random_min_degree_graph(10, 8, seed=1)
        b = random_min_degree_graph(10, 8, seed=2)
        assert a != b

    def test_infeasible_degree(self):
        with pytest.raises(InfeasibleDegreeError):
            random_min_degree_graph(5, 11, seed=0)

    def test_degree_ceiling_reachable(self):
        H = random_min_degree_graph(5, 6, seed=0)
        assert H.min_degree() >= 6

    @pytest.mark.parametrize("n, delta", [(0, 0), (2, 0), (8, -1)])
    def test_bad_order_or_degree(self, n, delta):
        with pytest.raises(InvalidParameterError, match=r"need "):
            random_min_degree_graph(n, delta, seed=0)


# (n, delta) grid for the differential test: the campaign shapes, the
# find workload's floor shapes for t = 3..5, sparse shapes where most
# draws leave a vertex short and repair fires, delta = 0, and
# delta = C(n-1, 2), where every triple is kept
CAMPAIGN_SHAPES = [(23, 29), (25, 44)]
FLOOR_SHAPES = [(26, 32), (28, 47), (27, 75), (30, 81)]
REPAIR_SHAPES = [(28, 1), (32, 2)]
EDGE_SHAPES = [(7, 0), (12, 0), (3, 1), (6, 10), (9, 28)]


class TestAgainstReferenceGenerator:
    """The one-pass generator against the per-triple loop it replaced."""

    SEEDS = range(60)

    @pytest.mark.parametrize(
        "n, delta", CAMPAIGN_SHAPES + FLOOR_SHAPES + REPAIR_SHAPES + EDGE_SHAPES
    )
    def test_same_hosts(self, n, delta):
        for seed in self.SEEDS:
            H = random_min_degree_graph(n, delta, seed)
            assert H.edges == reference_random_min_degree_graph(n, delta, seed)
            assert H.min_degree() >= delta

    @pytest.mark.parametrize("n, delta", REPAIR_SHAPES)
    def test_repair_branch_covered(self, monkeypatch, n, delta):
        # a repaired host is built twice: the draw, then the repaired one
        builds = []

        def counting(*args):
            builds.append(args)
            return Hypergraph(*args)

        monkeypatch.setattr(harness, "Hypergraph", counting)
        for seed in self.SEEDS:
            random_min_degree_graph(n, delta, seed)
        repaired = len(builds) - len(self.SEEDS)
        assert repaired >= len(self.SEEDS) / 3

    # (n, delta, seed): plain draws and repaired ones (seed 40 at (23, 29),
    # seed 1 at (25, 44), seed 2 at (28, 1)), p = 1 and delta = 0
    FROZEN = ((23, 29, 0), (23, 29, 40), (25, 44, 1), (28, 1, 0), (28, 1, 2),
              (9, 28, 0), (7, 0, 0))
    # sha256 of the serialized hosts above, concatenated, from the
    # per-triple loop
    FROZEN_SHA256 = "851154d8f338c2f63cbf1c7104718fcf58ee3d566b8e3d0cdb0370d3e74b9d92"

    def test_frozen_hosts(self):
        text = "".join(serialize(random_min_degree_graph(*a)) for a in self.FROZEN)
        assert hashlib.sha256(text.encode()).hexdigest() == self.FROZEN_SHA256


class TestVerifyConstruction:
    def test_star_passes(self):
        report = verify_construction("star", 3, 12, 1)
        assert report.passed
        names = [c.name for c in report.checks]
        assert names == ["min_degree", "no_path_len_3", "path_len_2"]
        assert report.witnesses  # the found path, 1-based

    def test_star_plus_passes(self):
        report = verify_construction("star_plus", 3, 12, 1)
        assert report.passed
        names = [c.name for c in report.checks]
        assert "no_path_len_4" in names and "path_len_3" in names

    def test_star_k2_passes(self):
        assert verify_construction("star", 3, 11, 2).passed

    def test_fault_injection_detected(self):
        H = gen_star(3, 8, 1)
        broken = build(3, 8, H.edges[1:])  # remove one edge
        report = verify_construction("star", 3, 8, 1, hypergraph=broken)
        assert not report.passed
        bad = [c for c in report.checks if not c.passed]
        assert any(c.name == "min_degree" and c.expected == "6" for c in bad)

    def test_unknown_kind(self):
        with pytest.raises(InvalidParameterError):
            verify_construction("ring", 3, 8, 1)


class TestExhaustiveCheck:
    def test_n5_delta4_t2_all_pass(self):
        report = exhaustive_check(5, 4, 2)
        assert report.passed
        counts = {c.name: c.observed for c in report.checks}
        assert counts["graphs_checked"] == "86"

    def test_k4_is_the_counterexample(self):
        # only one 3-graph on 4 vertices has min degree 3, and it has no P_2
        report = exhaustive_check(4, 3, 2)
        assert not report.passed
        counts = {c.name: c.observed for c in report.checks}
        assert counts["graphs_checked"] == "1"
        assert report.witnesses  # the counterexample, serialized
        H = parse(report.witnesses[0])
        assert len(H.edges) == 4 and H.n == 4

    def test_trivial_t1(self):
        assert exhaustive_check(3, 1, 1).passed

    # sha256 of to_text() at (5, 0, 2) and (5, 1, 2), which have 76 and 10
    # counterexamples, from the version that serialized every one of them
    FROZEN_TEXT_SHA256 = {
        (5, 0, 2): "fb15459cc3a3fae32a00ed847a11e41e15bc1e877756410b1f58e97632586c6e",
        (5, 1, 2): "1d4a8987968aea6cbc94aedcbf8d9bc9021018efaa2dac8c7535097eb876ffa1",
    }

    @pytest.mark.parametrize("args", sorted(FROZEN_TEXT_SHA256),
                             ids=lambda a: "n{}_delta{}_t{}".format(*a))
    def test_serializes_only_the_kept_counterexamples(self, monkeypatch, args):
        calls = []

        def counting(H):
            calls.append(H)
            return serialize(H)

        monkeypatch.setattr(harness, "serialize", counting)
        report = exhaustive_check(*args)
        text = report.to_text()
        assert hashlib.sha256(text.encode()).hexdigest() == self.FROZEN_TEXT_SHA256[args]
        assert len(report.witnesses) == len(calls) == 5

    @pytest.mark.parametrize("args", [(5, 7, 0), (5, 0, 0), (5, 4, -1), (5, -3, 2),
                                      (7, -1, 2), (7, 0, 0)])
    def test_bad_length_or_degree_rejected_before_enumerating(self, monkeypatch, args):
        def refuse(*_args):
            raise AssertionError("enumerated despite bad input")

        for name in ("edge_mask_set", "masks_with_triple", "edge_masks",
                     "enumerate_hypergraphs", "find_path"):
            monkeypatch.setattr(oracle, name, refuse)
        with pytest.raises(InvalidParameterError):
            exhaustive_check(*args)
        # the refusals cover what the walk calls: good input trips them
        with pytest.raises(AssertionError, match="enumerated despite bad input"):
            exhaustive_check(5, 4, 2)

    # delta = 2 is the least minimum degree that forces a linear 2-path on
    # 6 vertices; (hosts, hosts with a path, sha256 of to_text()), computed
    # by the walk that scanned every mask's degrees
    N6_THRESHOLD = {
        (6, 0, 1): (1_048_576, 1_048_575,
                    "3cbf784342e92e14e60b9329af018d97e87b22dbcbd165006f6a44acd6312558"),
        (6, 1, 2): (1_042_642, 1_042_617,
                    "815da5e353099babfee4d5ad2082f1baca3f14d2a23ebe837c725e413e9f8663"),
        (6, 2, 2): (990_687, 990_687,
                    "031944d1329b1033a313e531661ada047ec6cd6da6ae36899cb3a24269040817"),
    }

    @pytest.mark.parametrize("args", sorted(N6_THRESHOLD),
                             ids=lambda a: "n{}_delta{}_t{}".format(*a))
    def test_n6_threshold(self, args):
        total, with_path, digest = self.N6_THRESHOLD[args]
        report = exhaustive_check(*args)
        counts = {c.name: c.observed for c in report.checks}
        assert counts == {"graphs_checked": str(total), "all_contain_path": str(with_path)}
        assert report.passed == (total == with_path)
        assert len(report.witnesses) == min(5, total - with_path)
        assert hashlib.sha256(report.to_text().encode()).hexdigest() == digest


class TestExhaustiveWitnessReuse:
    """The walk over edge masks that reuses found witnesses, against the
    walk that builds and searches every host (bruteforce.py)."""

    # sha256 of to_text(), computed by the walk over every host; at n = 6
    # and delta = 4 and 8, by the walk that scanned every mask's degrees
    FROZEN_TEXT_SHA256 = {
        (4, 0, 1): "38898622bb3c23beeb3aae5ffc95c5f30dbd787288a9e0fa939990d2964ba66a",
        (5, 0, 3): "a422069c728618117771bfe97427854e0e5cf205ddaf7e14be4efcb29193932f",
        (5, 2, 2): "df10f149d50af558579943f8e6e46a0ccf0f79cc27fbb2440bb8a71edbec6933",
        (5, 7, 1): "36e0cdfa9a23e48ad037b1fe27ac387555a1857d60ad62517e580e993c35ad8e",
        (6, 4, 2): "fd2b2ee0d5f410dc226d261bb0a6ed8dfa58152ba6fc71bdf0e3816baec3ed96",
        (6, 6, 2): "5211677267301810ef0dd7b634daab41791785faf11db75ef4cae39ba3e7ad71",
        (6, 8, 3): "61a4de9258417e886a775bd5525b08417a76c8546306d480a95d3edcc19fe6f0",
    }
    # t = 1 with delta = 1..6 and t = 2 with delta = 2..6, on 5 vertices
    SWEEP_CASES = [(5, d, 1) for d in range(1, 7)] + [(5, d, 2) for d in range(2, 7)]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_text_matches_reference_walk(self, n):
        # (5, 0, 2) and (5, 0, 3) have more counterexamples than are kept
        for delta in range(8):
            for t in (1, 2, 3):
                got = exhaustive_check(n, delta, t).to_text()
                assert got == reference_exhaustive_check(n, delta, t).to_text()

    def test_n6_delta6_t2_matches_reference_walk(self):
        got = exhaustive_check(6, 6, 2).to_text()
        assert got == reference_exhaustive_check(6, 6, 2).to_text()
        assert hashlib.sha256(got.encode()).hexdigest() == self.FROZEN_TEXT_SHA256[(6, 6, 2)]

    @pytest.mark.parametrize("args", sorted(set(FROZEN_TEXT_SHA256) - {(6, 6, 2)}),
                             ids=lambda a: "n{}_delta{}_t{}".format(*a))
    def test_frozen_text(self, args):
        text = exhaustive_check(*args).to_text()
        assert hashlib.sha256(text.encode()).hexdigest() == self.FROZEN_TEXT_SHA256[args]

    def test_sweep_builds_and_searches_48_hosts(self, monkeypatch):
        # the walk over every host builds and searches 3,186
        searches, builds = [], []
        find_path, init = oracle.find_path, Hypergraph.__init__

        def counting_find_path(H, t, budget=None):
            searches.append(H)
            return find_path(H, t, budget)

        def counting_init(host, n, edges):
            builds.append(edges)
            init(host, n, edges)

        monkeypatch.setattr(oracle, "find_path", counting_find_path)
        monkeypatch.setattr(Hypergraph, "__init__", counting_init)
        reports = [exhaustive_check(*args) for args in self.SWEEP_CASES]
        assert all(report.passed for report in reports)
        assert len(searches) == len(builds) == 48


class TestRunTrials:
    def config(self, **kw):
        base = dict(n=23, t=3, min_degree=29, trials=4, seed=9)
        base.update(kw)
        return ExperimentConfig(**base)

    def test_success_and_shape(self):
        result = run_trials(self.config())
        assert result.success_rate == 1.0
        # 4 trial rows plus the summary row
        assert len(result.rows) == 5
        assert result.rows[-1][0] == "summary"
        assert not result.counterexamples

    def test_csv_text_replay_identical(self):
        a = run_trials(self.config()).csv_text()
        b = run_trials(self.config()).csv_text()
        assert a == b
        assert a.splitlines()[0] == ",".join(CSV_COLUMNS)

    def test_wall_time_blank_without_timing(self):
        result = run_trials(self.config())
        assert all(row[-1] == "" for row in result.rows)

    def test_wall_time_filled_with_timing(self):
        result = run_trials(self.config(timing=True, trials=2))
        assert result.rows[0][-1] != ""

    def test_oracle_checks_recorded(self):
        result = run_trials(self.config(trials=2, oracle_checks=1))
        assert result.rows[0][-2] == "true"
        assert result.rows[1][-2] == ""

    def test_construction_generator_below_threshold(self):
        cfg = self.config(generator="construction", min_degree=0, trials=1)
        result = run_trials(cfg)
        # star(23,1) has no 3-path and misses the degree bound: not a
        # counterexample, just an unmet hypothesis
        assert result.success_rate == 0.0
        assert result.rows[0][5] == "HypothesisUnmet"
        assert not result.counterexamples

    def test_out_written(self, tmp_path):
        out = tmp_path / "trials.csv"
        cfg = self.config(trials=2, out=str(out))
        result = run_trials(cfg)
        assert out.read_text() == result.csv_text()

    def test_bad_config(self):
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(n=5, t=2, min_degree=1, trials=0, seed=0).validate()
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(
                n=5, t=2, min_degree=1, trials=1, seed=0, generator="magic"
            ).validate()

    def test_exhaustive_generator(self):
        cfg = ExperimentConfig(
            n=5, t=2, min_degree=4, trials=3, seed=0, generator="exhaustive"
        )
        result = run_trials(cfg)
        assert result.success_rate == 1.0

    def test_exhaustive_generator_enumerates_once(self, monkeypatch):
        calls = []
        enumerate_hypergraphs = oracle.enumerate_hypergraphs

        def counting(*args):
            calls.append(args)
            return enumerate_hypergraphs(*args)

        monkeypatch.setattr(oracle, "enumerate_hypergraphs", counting)
        cfg = ExperimentConfig(
            n=5, t=1, min_degree=1, trials=40, seed=0, generator="exhaustive"
        )
        result = run_trials(cfg)
        assert len(calls) == 1
        # trial i is the i-th graph of the filtered enumeration
        graphs = enumerate_hypergraphs(5, 1)
        assert [row[3] for row in result.rows[:-1]] == [
            str(H.min_degree()) for H in islice(graphs, 40)
        ]

    def test_exhaustive_generator_runs_out(self):
        # exactly 86 graphs on 5 vertices have min degree >= 4
        cfg = ExperimentConfig(
            n=5, t=2, min_degree=4, trials=87, seed=0, generator="exhaustive"
        )
        with pytest.raises(InvalidParameterError, match="at trial 86"):
            run_trials(cfg)


class TestLemmaSweep:
    def test_star_family(self):
        # n >= 25 puts star(n,2) past the order floor with degree >= g(n,4)
        report = lemma_sweep(range(25, 28), t=4, samples=1, seed=0, family="star")
        assert report.passed
        assert any("bounds" in c.name for c in report.checks)
        assert len(report.checks) == 54  # the strong arm: bounds checks only

    def test_random_family(self):
        report = lemma_sweep(
            range(7, 10), t=2, samples=4, seed=5, max_paths=25, family="random"
        )
        assert report.passed
        assert len(report.checks) == 668  # the contrapositive arm fired

    def test_one_splice_per_path(self, monkeypatch):
        # the splice's answer depends only on the context, so a path with
        # several overloads still runs it once
        seen = []

        def recording(H, ctx):
            seen.append(ctx)
            return improve(H, ctx)

        improve = harness.improve_via_codegree
        monkeypatch.setattr(harness, "improve_via_codegree", recording)
        report = lemma_sweep(
            range(7, 10), t=2, samples=4, seed=5, max_paths=25, family="random"
        )
        assert len(report.checks) == 668
        assert seen and len({id(ctx) for ctx in seen}) == len(seen)
