"""Command-line surface: gen, oracle, find, verify, experiment.

Exit codes: 0 success / witness found; 1 absent or verification failed;
2 usage or I/O error; 3 unknown, when a search runs out of its --budget
before it can answer ("unknown: <reason>" on stdout).  Results
go to stdout in a stable line-oriented form, diagnostics to stderr;
identical invocations on identical inputs produce byte-identical stdout.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import constructions, harness, oracle
from .errors import InvalidGraphError, LinpathError, SearchExhaustedError
from .finder import find_guaranteed
from .hypergraph import Hypergraph, parse, serialize
from .paths import LinearPath


def _one_based(vertices) -> str:
    return " ".join(str(v + 1) for v in vertices)


def _read_graph(path: str) -> Hypergraph:
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise InvalidGraphError(f"input is not text: {exc}") from exc
    return parse(text)


# gen --kind -> the construction it prints, built from the parsed options
_GEN_KINDS = {
    "star": lambda args: constructions.gen_star(3, args.n, args.k),
    "core": lambda args: constructions.gen_core(3, args.n, args.s),
    "star_plus": lambda args: constructions.gen_star_plus(3, args.n, args.k),
    "complete": lambda args: constructions.gen_complete(3, args.n),
}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="linpath")
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit a construction in the text format")
    gen.add_argument("--kind", required=True, choices=list(_GEN_KINDS))
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--k", type=int, default=1)
    gen.add_argument("--s", type=int, default=1)

    orc = sub.add_parser("oracle", help="exhaustive search for one pattern")
    orc.add_argument("--input", "-i", required=True)
    sel = orc.add_mutually_exclusive_group(required=True)
    sel.add_argument("--path", type=int, metavar="T")
    sel.add_argument("--cycle", type=int, metavar="K")
    sel.add_argument("--cycleplus", type=int, metavar="K")
    sel.add_argument("--longest", type=int, metavar="CAP")
    orc.add_argument("--budget", type=int, default=None)

    fnd = sub.add_parser("find", help="guaranteed path search")
    fnd.add_argument("--input", "-i", required=True)
    fnd.add_argument("--length", type=int, required=True)
    fnd.add_argument("--budget", type=int, default=None)
    fnd.add_argument("--trace", action="store_true")

    ver = sub.add_parser("verify", help="certify a construction or a small order")
    mode = ver.add_mutually_exclusive_group(required=True)
    mode.add_argument("--construction", choices=["star", "star_plus"])
    mode.add_argument("--exhaustive", action="store_true")
    ver.add_argument("--n", type=int, required=True)
    ver.add_argument("--k", type=int, default=1)
    ver.add_argument("--min-degree", type=int, default=0)
    ver.add_argument("--length", type=int, default=2)

    exp = sub.add_parser("experiment", help="seeded random trials, CSV output")
    exp.add_argument("--n", type=int, required=True)
    exp.add_argument("--length", type=int, required=True)
    exp.add_argument("--min-degree", type=int, required=True)
    exp.add_argument("--trials", type=int, default=100)
    exp.add_argument("--seed", type=int, required=True)
    exp.add_argument("--oracle-checks", type=int, default=0)
    exp.add_argument("--out", default=None)
    exp.add_argument("--timing", action="store_true")
    return top


def _cmd_gen(args) -> int:
    sys.stdout.write(serialize(_GEN_KINDS[args.kind](args)))
    return 0


# oracle option -> (search, line printed for its witness)
_ORACLE_SEARCHES = {
    "path": (oracle.find_path, lambda hit: f"path: {_one_based(hit.vertices)}"),
    "cycle": (oracle.find_cycle, lambda hit: f"cycle: {_one_based(hit.vertices)}"),
    "cycleplus": (oracle.find_cycle_plus, lambda hit: (
        f"cycleplus: {_one_based(hit.path.vertices)} "
        f"closing {hit.closing + 1} parallel {hit.parallel + 1}")),
}


def _cmd_oracle(args) -> int:
    H = _read_graph(args.input)
    for option, (search, line) in _ORACLE_SEARCHES.items():
        size = getattr(args, option)
        if size is not None:
            hit = search(H, size, budget=args.budget)
            print("absent" if hit is None else line(hit))
            return 1 if hit is None else 0
    length, hit = oracle.longest_path(H, args.longest, budget=args.budget)
    print(f"longest: {length}")
    if hit is None:
        return 1
    print(f"path: {_one_based(hit.vertices)}")
    return 0


def _cmd_find(args) -> int:
    H = _read_graph(args.input)
    on_move = None
    if args.trace:
        on_move = lambda kind, length, m: print(f"move: {kind} length={length} M={m}")
    result = find_guaranteed(H, args.length, budget=args.budget, on_move=on_move)
    if isinstance(result, LinearPath):
        print(f"path: {_one_based(result.vertices)}")
        return 0
    if result.reason == "BudgetExhausted":
        print(f"unknown: {result.reason} {result.detail}")
        return 3
    print(f"absent: {result.reason} {result.detail}")
    if H.n <= 12:
        cross = oracle.find_path(H, args.length)
        if cross is not None:
            print(f"oracle disagrees, path: {_one_based(cross.vertices)}",
                  file=sys.stderr)
    return 1


def _cmd_verify(args) -> int:
    if args.construction:
        report = harness.verify_construction(args.construction, 3, args.n, args.k)
    else:
        report = harness.exhaustive_check(args.n, args.min_degree, args.length)
    sys.stdout.write(report.to_text())
    return 0 if report.passed else 1


def _cmd_experiment(args) -> int:
    config = harness.ExperimentConfig(
        n=args.n,
        t=args.length,
        min_degree=args.min_degree,
        trials=args.trials,
        seed=args.seed,
        out=args.out,
        oracle_checks=args.oracle_checks,
        timing=args.timing,
    )
    result = harness.run_trials(config)
    if args.out is None:
        sys.stdout.write(result.csv_text())
    else:
        print(f"success_rate={result.success_rate:.6f}")
    return 0 if result.success_rate == 1.0 else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handlers = {
        "gen": _cmd_gen,
        "oracle": _cmd_oracle,
        "find": _cmd_find,
        "verify": _cmd_verify,
        "experiment": _cmd_experiment,
    }
    try:
        return handlers[args.command](args)
    except SearchExhaustedError as exc:
        print(f"unknown: {exc}")
        return 3
    except LinpathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:  # an order too large to index a list by
        print(f"error: too large to index: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())
