import hashlib
import random
from itertools import islice
from math import comb

import pytest

from linpath import harness, oracle
from linpath.constructions import gen_star, theorem_threshold
from linpath.errors import InvalidParameterError
from linpath.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    exhaustive_check,
    lemma_sweep,
    random_min_degree_graph,
    run_trials,
    verify_construction,
)
from linpath.hypergraph import Hypergraph, all_triples, build, parse, serialize
from linpath.paths import CyclePlusWitness, LinearPath
from linpath.report import ViolationReport

from bruteforce import (
    naive_outside_codegree,
    reference_exhaustive_check,
    reference_random_min_degree_graph,
)


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
        with pytest.raises(InvalidParameterError, match=r"^delta=11 exceeds C\(4,2\)=6$"):
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
    # per-triple loop; the delta = 0 host is drawn as at delta = 1
    FROZEN_SHA256 = "f1dbd452b29d746a3fb388e93b802138e799a5bd6b3430eb88f2e03f4afa9079"

    def test_frozen_hosts(self):
        text = "".join(serialize(random_min_degree_graph(*a)) for a in self.FROZEN)
        assert hashlib.sha256(text.encode()).hexdigest() == self.FROZEN_SHA256

    @pytest.mark.parametrize("n", [3, 7, 12, 28])
    def test_no_degree_bound_still_draws_edges(self, n):
        # delta = 0 is calibrated as delta = 1, not as probability 0
        for seed in self.SEEDS:
            assert random_min_degree_graph(n, 0, seed).edges


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

    def test_fault_injection_detected(self, monkeypatch):
        H = gen_star(3, 8, 1)
        broken = build(3, 8, H.edges[1:])  # remove one edge
        monkeypatch.setattr(harness, "gen_star", lambda r, n, k: broken)
        report = verify_construction("star", 3, 8, 1)
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
                                      (7, -1, 2), (7, 0, 0), (5, 7, 1)])
    def test_bad_length_or_degree_rejected_before_enumerating(self, monkeypatch, args):
        def refuse(*_args):
            raise AssertionError("enumerated despite bad input")

        for name in ("edge_mask_set", "masks_with_triple", "masks_with_path",
                     "iter_paths", "enumerate_hypergraphs", "find_path"):
            monkeypatch.setattr(oracle, name, refuse)
        with pytest.raises(InvalidParameterError):
            exhaustive_check(*args)
        # the refusals cover what the check calls: good input trips them
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
    """The set difference of the hosts and the masks with a path, against
    the walk that builds and searches every host (bruteforce.py)."""

    # sha256 of to_text(), computed by the walk over every host; at n = 6
    # and delta = 4 and 8, by the walk that scanned every mask's degrees;
    # (6, 4, 3) and (6, 0, 3), where no host can hold the path, by the walk
    # that searched each host no earlier witness decided
    FROZEN_TEXT_SHA256 = {
        (6, 0, 3): "abe7b0477f0ed6a86940933890311aa8495347ffe7cb044b4148992f81399563",
        (6, 4, 3): "2ede69f45355a9bb05591573311627b47418283b2a67a3f00ffd08564fd981b0",
        (4, 0, 1): "38898622bb3c23beeb3aae5ffc95c5f30dbd787288a9e0fa939990d2964ba66a",
        (5, 0, 3): "a422069c728618117771bfe97427854e0e5cf205ddaf7e14be4efcb29193932f",
        (5, 2, 2): "df10f149d50af558579943f8e6e46a0ccf0f79cc27fbb2440bb8a71edbec6933",
        (6, 4, 2): "fd2b2ee0d5f410dc226d261bb0a6ed8dfa58152ba6fc71bdf0e3816baec3ed96",
        (6, 6, 2): "5211677267301810ef0dd7b634daab41791785faf11db75ef4cae39ba3e7ad71",
        (6, 8, 3): "61a4de9258417e886a775bd5525b08417a76c8546306d480a95d3edcc19fe6f0",
    }
    # t = 1 with delta = 1..6 and t = 2 with delta = 2..6, on 5 vertices
    SWEEP_CASES = [(5, d, 1) for d in range(1, 7)] + [(5, d, 2) for d in range(2, 7)]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_text_matches_reference_walk(self, n):
        # (5, 0, 2) and (5, 0, 3) have more counterexamples than are kept;
        # a degree above C(n-1, 2), which no host reaches, is refused
        for delta in range(8):
            for t in (1, 2, 3):
                if delta > comb(n - 1, 2):
                    with pytest.raises(InvalidParameterError, match="exceeds"):
                        exhaustive_check(n, delta, t)
                    continue
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

    def test_sweep_searches_no_host(self, monkeypatch):
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
        oracle.masks_with_path.cache_clear()
        reports = [exhaustive_check(*args) for args in self.SWEEP_CASES]
        assert all(report.passed for report in reports)
        # the paths' edge sets are read off vertex orders: no host is built
        assert (len(searches), len(builds)) == (0, 0)
        builds.clear()
        for args in self.SWEEP_CASES:
            exhaustive_check(*args)
        assert (len(searches), len(builds)) == (0, 0)
        # once the sets are cached, a check builds only the counterexamples
        # it keeps: 5 of the 76 at (5, 0, 2)
        report = exhaustive_check(5, 0, 2)
        assert (len(searches), len(builds), len(report.witnesses)) == (0, 5, 5)


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

    def test_out_written(self, tmp_path):
        out = tmp_path / "trials.csv"
        cfg = self.config(trials=2, out=str(out))
        result = run_trials(cfg)
        assert out.read_text() == result.csv_text()

    def test_bad_config(self):
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(n=5, t=2, min_degree=1, trials=0, seed=0).validate()

    @pytest.mark.parametrize("reason, kept", [("LemmaStepFailed", 1), ("HypothesisUnmet", 0)])
    def test_keeps_every_lemma_step_failure(self, monkeypatch, tmp_path, reason, kept):
        # below the theorem threshold, a report the finder reads as a broken
        # move is kept; one whose hypotheses are unmet is not
        hosts = []

        def failing(H, t, budget=None, on_move=None):
            hosts.append(H)
            return ViolationReport(reason, "injected")

        monkeypatch.setattr(harness, "find_guaranteed", failing)
        out = tmp_path / "trials.csv"
        config = self.config(min_degree=5, trials=1, out=str(out))
        assert config.min_degree < theorem_threshold(config.n, config.t)[0]
        result = run_trials(config)
        assert result.rows[0][5] == reason
        assert len(result.counterexamples) == kept
        for name, text in result.counterexamples:
            assert text == serialize(hosts[0])
            assert (tmp_path / name).read_text() == text
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["trials.csv"] + [name for name, _ in result.counterexamples])


class TestLemmaSweep:
    def test_star_family(self):
        # n >= 25 puts star(n,2) past the order floor with degree >= g(n,4)
        report = lemma_sweep(range(25, 28), t=4, samples=1, seed=0, family="star")
        assert report.passed
        assert any("bounds" in c.name for c in report.checks)
        # the strong arm: one cycle-plus check per host, then bounds checks
        assert len(report.checks) == 57
        assert [c.name for c in report.checks if "cycle-plus" in c.name] == [
            f"n={n} sample=0 no 5-cycle-plus" for n in (25, 26, 27)
        ]

    @pytest.mark.parametrize("n_range, t, checks, plus", [
        (range(54, 58), 6, 164, 4),
        (range(96, 98), 8, 82, 2),
        # below (13k^2 - 7k + 12)/2 = 54 for k = 3, star(n, 3) is under
        # g_bound(n, 6), so no host reaches the strong arm
        (range(29, 35), 6, 0, 0),
    ], ids=["t6", "t8", "t6-below-bound"])
    def test_star_family_longer_paths(self, n_range, t, checks, plus):
        report = lemma_sweep(n_range, t=t, samples=1, seed=0, family="star")
        assert report.passed
        assert len(report.checks) == checks
        assert sum("cycle-plus" in c.name for c in report.checks) == plus

    def test_strong_arm_reports_a_cycle_plus(self, monkeypatch):
        # a cycle-plus on a strong-arm host contradicts the lemma: the check
        # fails and the host is kept
        w = CyclePlusWitness(LinearPath((0, 2, 1, 3, 4)), 5, 6)
        monkeypatch.setattr(oracle, "find_cycle_plus", lambda H, k: w)
        report = lemma_sweep(range(25, 26), t=4, samples=1, seed=0, family="star")
        assert not report.passed
        failed = [c for c in report.checks if not c.passed]
        assert [c.name for c in failed] == ["n=25 sample=0 no 5-cycle-plus"]
        assert report.witnesses == [serialize(gen_star(3, 25, 2))]

    def test_unknown_family(self):
        with pytest.raises(InvalidParameterError, match="'randon'"):
            lemma_sweep(range(7, 8), t=2, samples=1, seed=0, family="randon")

    def test_random_family(self):
        report = lemma_sweep(
            range(7, 10), t=2, samples=4, seed=5, max_paths=25, family="random"
        )
        assert report.passed
        assert len(report.checks) == 746  # the contrapositive arm fired

    def test_random_family_below_the_floor_searches_no_host(self, monkeypatch):
        # at t = 2 no host can enter the strong arm, so none is searched
        # for a (t+1)-path
        searches = []
        find_path = oracle.find_path

        def counting_find_path(H, t, budget=None):
            searches.append(t)
            return find_path(H, t, budget)

        monkeypatch.setattr(oracle, "find_path", counting_find_path)
        report = lemma_sweep(
            range(7, 10), t=2, samples=4, seed=5, max_paths=25, family="random"
        )
        assert len(report.checks) == 746
        assert searches == []

    def test_endpoint_rows_repaired(self):
        # an endpoint overload d_P(0, 2t) >= 2 is closed into a cycle-plus;
        # the overloads are counted apart from linpath, from the edge lists
        # of the same draws (t = 2 keeps every host in the contrapositive arm)
        report = lemma_sweep(
            range(7, 10), t=2, samples=4, seed=5, max_paths=25, family="random"
        )
        rows = [c for c in report.checks if "endpoint_codegree" in c.name]
        assert rows and all(c.passed for c in rows)
        rng, overloads = random.Random(5), 0
        for n in range(7, 10):
            for _ in range(4):
                p = rng.uniform(0.05, 0.5)
                H = Hypergraph(n, tuple(tr for tr in all_triples(n) if rng.random() < p))
                for P in islice(oracle.iter_paths(H, 2), 25):
                    overloads += naive_outside_codegree(H, P.vertices, 0, 4) >= 2
        assert len(rows) == overloads == 78

    def test_one_splice_per_path(self, monkeypatch):
        # the splice's answer depends only on the context, so a path with
        # several overloads still runs it once
        seen = []

        def recording(ctx):
            seen.append(ctx)
            return improve(ctx)

        improve = harness.improve_via_codegree
        monkeypatch.setattr(harness, "improve_via_codegree", recording)
        report = lemma_sweep(
            range(7, 10), t=2, samples=4, seed=5, max_paths=25, family="random"
        )
        assert len(report.checks) == 746
        assert seen and len({id(ctx) for ctx in seen}) == len(seen)
