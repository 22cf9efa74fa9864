import hashlib
import io
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from linpath.cli import main
from linpath.constructions import gen_complete, gen_star, gen_star_plus
from linpath.hypergraph import serialize

REPO = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def star8(tmp_path):
    f = tmp_path / "star8.h3"
    f.write_text(serialize(gen_star(3, 8, 1)))
    return str(f)


@pytest.fixture
def k4(tmp_path):
    f = tmp_path / "k4.h3"
    f.write_text(serialize(gen_complete(3, 4)))
    return str(f)


class TestGen:
    def test_star_matches_serializer(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--kind", "star", "--n", "8", "--k", "1")
        assert code == 0
        assert out == serialize(gen_star(3, 8, 1))

    def test_complete(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--kind", "complete", "--n", "4")
        assert code == 0
        assert out.startswith("p h3 4 4\n")

    def test_core(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--kind", "core", "--n", "9", "--s", "2")
        assert code == 0
        assert out.startswith("p h3 9 7\n")

    def test_bad_parameters_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--kind", "star", "--n", "4", "--k", "4")
        assert code == 2
        assert "error:" in err

    def test_unknown_kind_lists_kinds_in_order(self, capsys):
        code, out, err = run_cli(capsys, "gen", "--kind", "ring", "--n", "9")
        assert (code, out) == (2, "")
        assert "--kind {star,core,star_plus,complete}" in err


class TestOracle:
    def test_path_present(self, capsys, star8):
        code, out, _ = run_cli(capsys, "oracle", "-i", star8, "--path", "2")
        assert code == 0
        assert out == "path: 2 3 1 4 5\n"

    def test_path_absent_exit_1(self, capsys, k4):
        code, out, _ = run_cli(capsys, "oracle", "-i", k4, "--path", "2")
        assert code == 1
        assert out == "absent\n"

    def test_cycle(self, capsys, tmp_path):
        f = tmp_path / "k6.h3"
        f.write_text(serialize(gen_complete(3, 6)))
        code, out, _ = run_cli(capsys, "oracle", "-i", str(f), "--cycle", "3")
        assert code == 0
        assert out.startswith("cycle: ")

    def test_cycleplus(self, capsys, tmp_path):
        f = tmp_path / "k7.h3"
        f.write_text(serialize(gen_complete(3, 7)))
        code, out, _ = run_cli(capsys, "oracle", "-i", str(f), "--cycleplus", "3")
        assert code == 0
        assert out.startswith("cycleplus: ")
        assert " closing " in out and " parallel " in out

    def test_longest(self, capsys, star8):
        code, out, _ = run_cli(capsys, "oracle", "-i", star8, "--longest", "5")
        assert code == 0
        assert out.splitlines()[0] == "longest: 2"

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(serialize(gen_star(3, 8, 1))))
        code, out, _ = run_cli(capsys, "oracle", "-i", "-", "--path", "2")
        assert code == 0 and out.startswith("path: ")

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "-i", "/nonexistent.h3", "--path", "2")
        assert code == 2
        assert "io error:" in err


class TestUndecodableInput:
    """Input that is not text, here a UTF-16 byte-order mark, is a parse
    error: exit 2 and an error line, never a traceback."""

    COMMANDS = [("oracle", "--path", "2"), ("find", "--length", "3")]

    @pytest.mark.parametrize("command", COMMANDS, ids=["oracle", "find"])
    def test_file(self, capsys, tmp_path, command):
        f = tmp_path / "bom.h3"
        f.write_bytes(b"\xff\xfep h3 7 0\n")
        name, *rest = command
        code, out, err = run_cli(capsys, name, "-i", str(f), *rest)
        assert (code, out) == (2, "")
        assert err.startswith("error: input is not text: ")

    @pytest.mark.parametrize("command", COMMANDS, ids=["oracle", "find"])
    def test_stdin(self, capsys, monkeypatch, command):
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfep h3 7 0\n"), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        name, *rest = command
        code, out, err = run_cli(capsys, name, "-i", "-", *rest)
        assert (code, out) == (2, "")
        assert err.startswith("error: input is not text: ")


class TestGraphFaults:
    """Each way a file's graph is refused: exit 2 and one error line."""

    @pytest.mark.parametrize("text, line", [
        ("p h3 4 1\ne 1 2\n", "edge (0, 1) has 2 vertices, expected 3"),
        ("p h3 4 1\ne 1 1 2\n", "edge (0, 0, 1) repeats a vertex"),
        ("p h3 4 2\ne 1 2 3\ne 3 2 1\n", "edge (0, 1, 2) supplied twice"),
        ("p h3 4 1\ne 0 1 2\n", "line 2: labels are 1-based"),
        ("p h3 4 1\ne 1 2 5\n", "vertex 4 not in [0, 4)"),
        ("e 1 2 3\np h3 4 1\n", "line 1: edge before header"),
        ("p h3 4 2\ne 1 2 3\n", "header promised 2 edges, found 1"),
        ("p h3 2 0\n", "order n=2 smaller than r=3"),
    ], ids=["arity", "repeated", "duplicate", "label-0", "label-above-n",
            "edge-before-header", "count-mismatch", "order-below-3"])
    def test_exit_2(self, capsys, tmp_path, text, line):
        f = tmp_path / "bad.h3"
        f.write_text(text)
        code, out, err = run_cli(capsys, "oracle", "-i", str(f), "--path", "1")
        assert (code, out, err) == (2, "", f"error: {line}\n")


class TestOrderTooLargeToIndex:
    """An order past sys.maxsize cannot size a list: exit 2 and an error
    line, refused before anything is allocated."""

    HUGE = "99999999999999999999"

    @pytest.mark.parametrize("argv", [
        ["gen", "--kind", "star", "--n", HUGE, "--k", "1"],
        ["verify", "--construction", "star", "--n", HUGE, "--k", "1"],
        ["experiment", "--n", HUGE, "--length", "3", "--min-degree", "1",
         "--trials", "1", "--seed", "1"],
    ], ids=["gen", "verify", "experiment"])
    def test_option(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: too large to index: ")

    def test_header(self, capsys, tmp_path):
        f = tmp_path / "huge.h3"
        f.write_text(f"p h3 {self.HUGE} 0\n")
        code, out, err = run_cli(capsys, "oracle", "-i", str(f), "--path", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error: too large to index: ")


class TestBudgetExhausted:
    """A search that runs out of its budget has no answer: it reads
    "unknown" on stdout and exits 3, apart from absence (1) and usage (2)."""

    @pytest.mark.parametrize("argv, reason", [
        (["oracle", "--path", "3"], "path search exceeded 2 nodes"),
        (["oracle", "--cycle", "3"], "cycle search exceeded 2 nodes"),
        (["oracle", "--cycleplus", "5"], "cycle-plus search exceeded 2 nodes"),
        (["oracle", "--longest", "5"], "path search exceeded 2 nodes"),
    ], ids=["path", "cycle", "cycleplus", "longest"])
    def test_unknown_exit_3(self, capsys, tmp_path, argv, reason):
        f = tmp_path / "star11.h3"
        f.write_text(serialize(gen_star(3, 11, 2)))
        code, out, err = run_cli(capsys, *argv, "-i", str(f), "--budget", "2")
        assert (code, out, err) == (3, f"unknown: {reason}\n", "")

    def test_finder_unknown_exit_3(self, capsys, tmp_path):
        # the finder's budget counts accepted moves; no oracle cross-check
        f = tmp_path / "k9.h3"
        f.write_text(serialize(gen_complete(3, 9)))
        code, out, err = run_cli(
            capsys, "find", "-i", str(f), "--length", "4", "--budget", "1"
        )
        assert (code, out, err) == (
            3, "unknown: BudgetExhausted 1 accepted moves at length 2\n", ""
        )


class TestBudgetRange:
    """A negative budget is bad input, exit 2 with a message; a zero
    budget is a search that runs out at once, exit 3."""

    SEARCHES = {
        "find": ["find", "--length", "4"],
        "path": ["oracle", "--path", "3"],
        "cycle": ["oracle", "--cycle", "3"],
        "cycleplus": ["oracle", "--cycleplus", "5"],
        "longest": ["oracle", "--longest", "5"],
    }

    @pytest.fixture
    def star11(self, tmp_path):
        f = tmp_path / "star11.h3"
        f.write_text(serialize(gen_star(3, 11, 2)))
        return str(f)

    @pytest.mark.parametrize("search", SEARCHES)
    def test_negative_budget_exit_2(self, capsys, star11, search):
        code, out, err = run_cli(capsys, *self.SEARCHES[search], "-i", star11,
                                 "--budget", "-1")
        assert (code, out, err) == (2, "", "error: budget=-1 must be >= 0\n")

    @pytest.mark.parametrize("search", SEARCHES)
    def test_zero_budget_exit_3(self, capsys, star11, search):
        code, out, err = run_cli(capsys, *self.SEARCHES[search], "-i", star11,
                                 "--budget", "0")
        assert (code, err) == (3, "")
        assert out.startswith("unknown: ")

    @pytest.mark.parametrize("length", ["1", "2"])
    def test_finder_base_case_zero_budget_exit_3(self, capsys, star11, length):
        # at lengths 1 and 2 the budget caps the exact search's states
        code, out, err = run_cli(capsys, "find", "-i", star11, "--length", length,
                                 "--budget", "0")
        assert (code, out, err) == (
            3, "unknown: BudgetExhausted path search exceeded 0 nodes\n", ""
        )


class TestFind:
    def test_finder_mode_success(self, capsys, tmp_path):
        from linpath.harness import random_min_degree_graph

        f = tmp_path / "rnd.h3"
        f.write_text(serialize(random_min_degree_graph(23, 29, seed=4)))
        code, out, _ = run_cli(capsys, "find", "-i", str(f), "--length", "3")
        assert code == 0
        assert out.startswith("path: ")
        assert len(out.split()) == 1 + 7  # "path:" plus 2t+1 vertices

    def test_trace_lines(self, capsys, tmp_path):
        from linpath.harness import random_min_degree_graph

        f = tmp_path / "rnd.h3"
        f.write_text(serialize(random_min_degree_graph(23, 29, seed=4)))
        code, out, _ = run_cli(
            capsys, "find", "-i", str(f), "--length", "3", "--trace"
        )
        assert code == 0
        lines = out.splitlines()
        assert all(l.startswith("move: ") for l in lines[:-1])
        assert lines[-1].startswith("path: ")

    def test_hypothesis_unmet_exit_1(self, capsys, star8):
        code, out, _ = run_cli(capsys, "find", "-i", star8, "--length", "3")
        assert code == 1
        assert out.startswith("absent: HypothesisUnmet")


class TestPinnedOutput:
    """User-visible output frozen as literals, so a change of the move
    sequence, an M value or a witness shows, not only a change between two
    runs of the same code."""

    STAR_PLUS_TRACE = (
        "move: extend length=2 M=2\n"
        "move: extend length=3 M=3\n"
        "move: splice length=4 M=4\n"
        "move: extend length=5 M=5\n"
        "move: extend length=6 M=6\n"
        "absent: HypothesisUnmet stuck at length 6; delta_1=37 threshold=93 min_n=31\n"
    )
    THRESHOLD_TRACE = (
        "move: extend length=2 M=2\n"
        "move: extend length=3 M=3\n"
        "move: extend length=4 M=4\n"
        "move: extend length=5 M=5\n"
        "path: 1 2 6 3 5 4 7 8 9 10 19\n"
    )
    # sha256 of `experiment --n 23 --length 3 --min-degree 29 --trials 20 --seed 1`
    EXPERIMENT_SHA256 = "86c2136c4eb22e812cfb291f27315149d9d4cb8769086e82cf278a356fe16d25"
    # sha256 of `gen` stdout, one invocation per kind
    GEN_SHA256 = {
        "star --n 9 --k 2": "ed8487d7c590452230683e87077508c256fedcbeac3512a9348cba3e43baf42a",
        "core --n 9 --s 2": "06dcc5407d6d0aef5a8692d73190cc801b1cbdf063bf9a53549ac89b23ea5468",
        "star_plus --n 11 --k 2": "822d4d6d7050538c2dcbb021b798bc4ede9c261ffd227d63eacd3f29902f001a",
        "complete --n 7": "999c9ea616cf31ffebfe3ea560695533fbab7d1b03b078a838eb2238ce5f692f",
    }
    VERIFY_STAR_PLUS = (
        "subject: star_plus(r=3, n=11, k=2)\n"
        "check min_degree: expected 18 observed 18 PASS\n"
        "check no_path_len_6: expected absent observed absent PASS\n"
        "check path_len_5: expected present observed present PASS\n"
        "witness: 3 4 5 6 1 7 8 9 2 10 11\n"
        "result: PASS\n"
    )

    def test_star_plus_trace(self, capsys, tmp_path):
        # splice fires, then every move is tried at length 6 and none applies
        f = tmp_path / "star_plus.h3"
        f.write_text(serialize(gen_star_plus(3, 15, 3)))
        code, out, _ = run_cli(capsys, "find", "-i", str(f), "--length", "7", "--trace")
        assert (code, out) == (1, self.STAR_PLUS_TRACE)

    def test_threshold_host_trace(self, capsys, tmp_path):
        from linpath.constructions import theorem_threshold
        from linpath.harness import random_min_degree_graph

        bound, floor = theorem_threshold(27, 5)
        assert (bound, floor) == (75, 27)
        f = tmp_path / "rnd.h3"
        f.write_text(serialize(random_min_degree_graph(27, bound, 0)))
        code, out, _ = run_cli(capsys, "find", "-i", str(f), "--length", "5", "--trace")
        assert (code, out) == (0, self.THRESHOLD_TRACE)

    def test_experiment_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "experiment", "--n", "23", "--length", "3", "--min-degree", "29",
            "--trials", "20", "--seed", "1",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.EXPERIMENT_SHA256

    @pytest.mark.parametrize("kind", sorted(GEN_SHA256))
    def test_gen(self, capsys, kind):
        code, out, _ = run_cli(capsys, "gen", "--kind", *kind.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.GEN_SHA256[kind]

    def test_verify_star_plus(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--construction", "star_plus", "--n", "11", "--k", "2"
        )
        assert (code, out) == (0, self.VERIFY_STAR_PLUS)


class TestVerify:
    def test_construction_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--construction", "star", "--n", "12", "--k", "1"
        )
        assert code == 0
        assert "check min_degree: expected 10 observed 10 PASS" in out
        assert out.rstrip().endswith("result: PASS")

    def test_exhaustive_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--exhaustive", "--n", "5",
            "--min-degree", "4", "--length", "2",
        )
        assert code == 0
        assert "check graphs_checked: expected >=1 observed 86 PASS" in out

    def test_exhaustive_counterexample_exit_1(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--exhaustive", "--n", "4",
            "--min-degree", "3", "--length", "2",
        )
        assert code == 1
        assert "result: FAIL" in out

    @pytest.mark.parametrize("delta, length", [("7", "0"), ("0", "0"), ("-3", "2"),
                                               ("99", "2")])
    def test_exhaustive_bad_length_or_degree_exit_2(self, capsys, delta, length):
        code, out, err = run_cli(
            capsys, "verify", "--exhaustive", "--n", "5",
            "--min-degree", delta, "--length", length,
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    def test_exhaustive_degree_ceiling(self, capsys):
        # C(4, 2) = 6 is the largest degree on 5 vertices: only the complete
        # 3-graph reaches it, and one degree more is refused as bad input
        code, out, _ = run_cli(
            capsys, "verify", "--exhaustive", "--n", "5",
            "--min-degree", "6", "--length", "2",
        )
        assert code == 0
        assert "check graphs_checked: expected >=1 observed 1 PASS" in out
        code, out, err = run_cli(
            capsys, "verify", "--exhaustive", "--n", "5",
            "--min-degree", "7", "--length", "1",
        )
        assert (code, out, err) == (2, "", "error: delta=7 exceeds C(4,2)=6\n")

    def test_needs_a_mode(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--n", "5")
        assert code == 2
        assert "one of the arguments --construction --exhaustive is required" in err

    def test_both_modes_exit_2(self, capsys):
        # one verify runs one check; the exhaustive check would fail here
        code, out, err = run_cli(
            capsys, "verify", "--construction", "star", "--exhaustive",
            "--n", "6", "--min-degree", "1", "--length", "2",
        )
        assert (code, out) == (2, "")
        assert "not allowed with argument --construction" in err


class TestExperiment:
    ARGS = ("experiment", "--n", "23", "--length", "3", "--min-degree", "29",
            "--trials", "3", "--seed", "11")

    def test_csv_on_stdout(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("trial_id,seed,n,delta1,t,")
        assert len(lines) == 1 + 3 + 1  # header, trials, summary

    def test_replay_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, *self.ARGS)
        _, second, _ = run_cli(capsys, *self.ARGS)
        assert first == second

    @pytest.mark.parametrize("n, delta", [
        ("0", "0"), ("1", "0"), ("2", "0"), ("8", "-1"),
    ])
    def test_bad_order_or_degree_exit_2(self, capsys, n, delta):
        code, out, err = run_cli(
            capsys, "experiment", "--n", n, "--length", "3", "--min-degree", delta,
            "--trials", "2", "--seed", "1",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: need ")

    def test_negative_oracle_checks_exit_2(self, capsys):
        code, out, err = run_cli(capsys, *self.ARGS, "--oracle-checks", "-1")
        assert (code, out) == (2, "")
        assert err == "error: oracle check count must be >= 0\n"

    def test_no_generator_option(self, capsys):
        # conditioned-random hosts are the only kind of trial
        code, out, err = run_cli(capsys, *self.ARGS, "--generator", "exhaustive")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --generator exhaustive" in err

    def test_out_file(self, capsys, tmp_path):
        out_file = tmp_path / "trials.csv"
        code, out, _ = run_cli(capsys, *self.ARGS, "--out", str(out_file))
        assert code == 0
        assert out == "success_rate=1.000000\n"
        assert out_file.read_text().startswith("trial_id,")


class TestUsage:
    def test_no_command(self, capsys):
        assert run_cli(capsys, )[0] == 2

    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_missing_required(self, capsys):
        assert run_cli(capsys, "gen", "--kind", "star")[0] == 2

    def test_help_exit_0(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0


def declared_script(name):
    """The ``module:function`` target of a ``[project.scripts]`` entry."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def run_process(cmd, cwd=None):
    """Run ``cmd`` with ``src/`` importable, however pytest was started."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=60,
                          cwd=cwd)


def test_readme_cli_examples_run(tmp_path):
    # every linpath line of the README's CLI block, in order, in one
    # directory: a line ending in "> file" writes that file for later lines
    block = (REPO / "README.md").read_text().split("## CLI\n", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("linpath ")]
    assert len(lines) == 9
    for line in lines:
        command, _, out = line.partition(" > ")
        argv = shlex.split(command)[1:]
        proc = run_process([sys.executable, "-m", "linpath", *argv], cwd=tmp_path)
        assert proc.returncode in (0, 1), (line, proc.stderr)
        assert "Traceback" not in proc.stderr, line
        if out:
            (tmp_path / out).write_text(proc.stdout)


class TestOtherUniformity:
    """Only 3-graphs exist: another uniformity is refused with exit 2 and a
    message, never a traceback."""

    @pytest.fixture
    def h4(self, tmp_path):
        f = tmp_path / "h4.h3"
        f.write_text("p h4 4 1\ne 1 2 3 4\n")
        return str(f)

    @pytest.mark.parametrize("command", [("find", "--length", "1"), ("oracle", "--path", "1")])
    def test_input_refused(self, h4, command):
        name, *rest = command
        proc = run_process([sys.executable, "-m", "linpath", name, "-i", h4, *rest])
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    def test_gen_has_no_r_option(self, capsys):
        code, out, err = run_cli(capsys, "gen", "--kind", "star", "--r", "4", "--n", "7")
        assert (code, out) == (2, "")
        assert "--r" in err


class TestEntryPoint:
    GOOD = ["gen", "--kind", "complete", "--n", "4"]
    BAD = ["gen", "--kind", "star", "--n", "4", "--k", "4"]

    def check(self, launcher):
        proc = run_process([*launcher, *self.GOOD])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("p h3 4 4\n")
        proc = run_process([*launcher, *self.BAD])
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    def test_installed_script(self):
        # Load the declared target the way a console script does, so a
        # wrong name in pyproject.toml or a lost exit code fails here
        # even where the package cannot be installed.
        target = declared_script("linpath")
        loader = (
            "import sys; from importlib.metadata import EntryPoint; "
            f"sys.exit(EntryPoint('linpath', {target!r}, 'console_scripts').load()())"
        )
        self.check([sys.executable, "-c", loader])
        script = shutil.which("linpath")
        if script is not None:
            self.check([script])

    def test_module_entry(self, capsys):
        proc = run_process([sys.executable, "-m", "linpath", *self.GOOD])
        assert (proc.returncode, proc.stdout) == run_cli(capsys, *self.GOOD)[:2]
        assert run_process([sys.executable, "-m", "linpath", *self.BAD]).returncode == 2
