"""Command-line interface: run sweeps, generate scenarios, solve single realizations."""

from __future__ import annotations

import argparse
import json
import logging
import sys

from .algorithms import ALGORITHM_NAMES, run_algorithm
from .bench import ExperimentSpec, run_experiment, write_csv, write_json
from .scenario import ScenarioConfig, make_scenario

logger = logging.getLogger("uavee")


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on bad arguments, with usage on stderr."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_pairs(text: str) -> tuple[int, ...]:
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part[1:]:
            lo, hi = (int(end) for end in part.split("-", 1))
            if hi < lo:
                raise ValueError(f"pair range {part!r} runs backwards")
            out.extend(range(lo, hi + 1))
        else:
            out.append(int(part))
    return tuple(out)


def _build_parser() -> _Parser:
    parser = _Parser(prog="uavee", description=__doc__)
    parser.add_argument("--verbose", action="store_true", help="debug logging to stderr")
    # Accepted after run/solve too. SUPPRESS keeps the subcommand's default
    # from overwriting a --verbose given before the subcommand.
    verbose = dict(action="store_true", default=argparse.SUPPRESS, help="debug logging to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="Monte Carlo sweep over numbers of D2D pairs")
    pairs = ",".join(map(str, ExperimentSpec.pair_counts))
    run.add_argument("--pairs", default=pairs, help="comma list or a-b ranges")
    run.add_argument("--trials", type=int, default=ExperimentSpec.trials_per_point)
    run.add_argument("--algorithms", default=",".join(ExperimentSpec.algorithms))
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--config", help="base scenario JSON (overrides --seed)")
    run.add_argument("--out", help="output file path")
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.add_argument("--jobs", type=int, default=1, help="worker processes")
    run.add_argument("--verbose", **verbose)

    gen = sub.add_parser("gen-scenario", help="emit a scenario config as JSON")
    gen.add_argument("--pairs", type=int, default=5)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", help="write to file instead of stdout")

    solve = sub.add_parser("solve", help="run one algorithm on one scenario file")
    solve.add_argument("--scenario", required=True, help="scenario JSON path")
    solve.add_argument("--algorithm", required=True, choices=ALGORITHM_NAMES)
    solve.add_argument("--trace", action="store_true", help="include the objective trace")
    solve.add_argument("--verbose", **verbose)
    return parser


def _cmd_run(args) -> int:
    if args.config:
        with open(args.config) as fh:
            base = ScenarioConfig.from_json(fh.read())
    else:
        base = ScenarioConfig(num_pairs=1, seed=args.seed)  # run_trial sets num_pairs
    try:
        spec = ExperimentSpec(
            base_config=base,
            pair_counts=_parse_pairs(args.pairs),
            trials_per_point=args.trials,
            algorithms=tuple(a.strip() for a in args.algorithms.split(",") if a.strip()),
        )
    except ValueError as exc:
        print(f"uavee run: error: {exc}", file=sys.stderr)
        return 1
    rows, summary = run_experiment(spec, jobs=args.jobs)
    if args.out:
        if args.format == "csv":
            write_csv(rows, args.out)
        else:
            write_json(rows, summary, args.out)
        logger.info("wrote %d rows to %s", len(rows), args.out)
    print(json.dumps({"summary": summary}, indent=2))
    return 0


def _cmd_gen_scenario(args) -> int:
    config = ScenarioConfig(num_pairs=args.pairs, seed=args.seed)
    text = config.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _cmd_solve(args) -> int:
    with open(args.scenario) as fh:
        config = ScenarioConfig.from_json(fh.read())
    _, ch = make_scenario(config)
    report = run_algorithm(args.algorithm, ch, config)
    print(report.to_json(include_trace=args.trace))
    return 0


_COMMANDS = {"run": _cmd_run, "gen-scenario": _cmd_gen_scenario, "solve": _cmd_solve}


def cli_main(argv: list[str] | None = None) -> int:
    """Entry point; returns 0 on success, 1 on invalid arguments, 2 on runtime failure."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    if args.verbose:
        logging.basicConfig(level=logging.DEBUG, stream=sys.stderr)

    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"uavee: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
