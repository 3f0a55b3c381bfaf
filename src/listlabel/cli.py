"""llabench: run labeling benchmarks from the command line.

Each subcommand maps onto one harness protocol, named once beside its
flags as the parser's `run(args, structures)` default, and writes CSV to
--out (default stdout).  Exit codes: 0 on success, 2 for configuration
problems (bad flags, an --out that cannot be opened for writing, not enough
rows, inconsistent parameters), 3 for data problems (missing or malformed
dataset files).  On exit 2 or 3 an --out file this run created is removed;
one that existed before is left as it was.
"""

from __future__ import annotations

import argparse
import os
import sys

from .harness import (
    STRUCTURES,
    SYNTHETIC_KINDS,
    ConfigError,
    DataError,
    DatasetSpec,
    emit_csv,
    run_learning_curve,
    run_robustness,
    run_scaling,
    run_synthetic,
    run_table,
)


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _dataset(args) -> DatasetSpec:
    return DatasetSpec(
        args.dataset, value_column=args.value_col, timestamp_column=args.ts_col
    )


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--structure",
        choices=[*STRUCTURES, "all"],
        default="all",
        help="which configuration to run (default: all)",
    )
    shared.add_argument(
        "--out",
        default="-",
        metavar="CSV",
        help="CSV output path (default: stdout)",
    )

    dataset = argparse.ArgumentParser(add_help=False)
    dataset.add_argument("--dataset", required=True, help="path to a text table")
    dataset.add_argument(
        "--value-col",
        type=int,
        default=0,
        metavar="I",
        help="0-based column holding the key value (default: 0)",
    )
    dataset.add_argument(
        "--ts-col",
        type=int,
        default=None,
        metavar="I",
        help="0-based timestamp column; rows are stably sorted by it",
    )

    parser = argparse.ArgumentParser(
        prog="llabench",
        description="benchmark list-labeling structures with and without "
        "rank predictions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "table",
        parents=[dataset, shared],
        help="train on the first 2^k rows, insert the next 2^k",
    )
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(run=lambda a, st: run_table(_dataset(a), a.k, st))

    p = sub.add_parser(
        "scaling",
        parents=[dataset, shared],
        help="repeat the table protocol for every k in a range",
    )
    p.add_argument("--k-min", type=int, required=True)
    p.add_argument("--k-max", type=int, required=True)

    def scaling(a, st):
        if a.k_min > a.k_max:
            raise ConfigError(f"--k-min {a.k_min} exceeds --k-max {a.k_max}")
        return run_scaling(_dataset(a), range(a.k_min, a.k_max + 1), st)

    p.set_defaults(run=scaling)

    p = sub.add_parser(
        "curve",
        parents=[dataset, shared],
        help="fixed test slice, shrinking training window",
    )
    p.add_argument("--test-k", type=int, required=True)
    p.add_argument(
        "--fractions",
        type=_int_list,
        default=[5, 10, 25, 50, 100],
        metavar="F,F,...",
        help="training window sizes as %% of the test slice "
        "(default: 5,10,25,50,100)",
    )
    p.set_defaults(
        run=lambda a, st: run_learning_curve(_dataset(a), a.test_k, a.fractions, st)
    )

    p = sub.add_parser(
        "robustness",
        parents=[dataset, shared],
        help="corrupt a fraction of predictions to a far end",
    )
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--t",
        type=_int_list,
        default=[0, 10, 25, 50],
        metavar="T,T,...",
        help="corruption percentages (default: 0,10,25,50)",
    )
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument(
        "--seed",
        type=int,
        default=0,
        help="base seed; repeat r corrupts with seed+r (default: 0)",
    )
    p.set_defaults(
        run=lambda a, st: run_robustness(
            _dataset(a), a.k, a.t, repeats=a.repeats, base_seed=a.seed, structures=st
        )
    )

    p = sub.add_parser(
        "synth",
        parents=[shared],
        help="generated workloads with known true ranks",
    )
    p.add_argument("--kind", choices=SYNTHETIC_KINDS, required=True)
    p.add_argument("--n", type=int, required=True, help="stream length, power of two")
    p.add_argument("--eta", type=int, default=None, help="noise bound for noisy-eta")
    p.add_argument("--mu", type=float, default=None, help="error mean for stochastic")
    p.add_argument(
        "--s", type=float, default=None, help="error stddev for stochastic"
    )
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(
        run=lambda a, st: run_synthetic(
            a.kind, a.n, seed=a.seed, eta=a.eta, mu=a.mu, s=a.s, structures=st
        )
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    structures = STRUCTURES if args.structure == "all" else (args.structure,)

    created = False  # whether this run made the --out file
    try:
        if args.out != "-":
            # Opened for appending, like `touch`, so that an unwritable path
            # fails before any run and an existing file is not yet truncated.
            existed = os.path.lexists(args.out)
            try:
                open(args.out, "a").close()
            except OSError as exc:
                raise ConfigError(f"--out {args.out}: {exc.strerror or exc}") from None
            created = not existed
        emit_csv(args.run(args, structures), args.out)
    except (ConfigError, DataError) as exc:
        print(f"llabench: {exc}", file=sys.stderr)
        if created:
            os.remove(args.out)  # a failed run leaves no empty CSV behind
        return 2 if isinstance(exc, ConfigError) else 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
