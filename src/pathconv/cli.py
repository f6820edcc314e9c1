"""Command-line interface.

Subcommands: ``train`` runs a nested cross-validation experiment and
writes ``folds.csv`` plus ``summary.txt``; ``inspect-dataset`` prints
benchmark-table statistics; ``gradcheck`` runs the finite-difference
suite and exits nonzero on failure.

Exit codes: 0 success, 1 configuration error (usage errors included),
2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .data import dataset_summary, encode_degree_features, load_tu_dataset
from .errors import ConfigError, DatasetError, NumericalError
from .gradcheck import main_report
from .model import MODES, ModelConfig
from .training import check_counts, emit_report, format_summary, run_experiment

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


def _load(args) -> "Dataset":
    dataset = load_tu_dataset(args.data_dir, args.dataset)
    if dataset.feature_dim == 1:
        # No informative node labels; fall back to degree one-hots.
        log.info("%s: encoding node degrees as features", dataset.name)
        dataset = encode_degree_features(dataset)
    return dataset


def int_or_auto(text: str) -> int | None:
    """``--k``: an integer, or ``auto`` (None) to pick k per training set."""
    return None if text == "auto" else int(text)


def cmd_train(args) -> int:
    config = ModelConfig(r=args.r, mode=args.mode, sortpool_k=args.k, epochs=args.epochs,
                         seed=args.seed)
    check_counts(args.folds, args.repeats, args.jobs)
    Path(args.out).mkdir(parents=True, exist_ok=True)
    dataset = _load(args)
    report = run_experiment(dataset, config, folds=args.folds,
                            repeats=args.repeats, jobs=args.jobs)
    emit_report(report, args.out)
    print(format_summary(report), end="")
    return EXIT_OK


def cmd_inspect_dataset(args) -> int:
    dataset = load_tu_dataset(args.data_dir, args.dataset)
    stats = dataset_summary(dataset)
    print(f"dataset: {stats['name']}")
    print(f"graphs: {stats['num_graphs']}")
    print(f"classes: {stats['num_classes']}")
    print(f"node labels: {stats['feature_dim']}")
    print(f"nodes (max): {stats['max_nodes']}")
    print(f"nodes (avg): {stats['avg_nodes']:.2f}")
    print(f"edges (avg): {stats['avg_edges']:.2f}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    return EXIT_OK if main_report() else EXIT_NUMERICAL


class _Parser(argparse.ArgumentParser):
    """A usage error is a configuration error: exit 1, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pathconv",
        description="Graph classification with per-distance graph convolutions.",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log per-fold progress")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="run a nested cross-validation experiment")
    train.add_argument("--dataset", required=True, help="dataset name, e.g. MUTAG")
    train.add_argument("--data-dir", required=True, help="directory with the dataset files")
    train.add_argument("--mode", choices=MODES, default=ModelConfig.mode)
    train.add_argument("--r", type=int, default=ModelConfig.r, help="maximum propagation distance")
    train.add_argument("--folds", type=int, default=10)
    train.add_argument("--repeats", type=int, default=10)
    train.add_argument("--epochs", type=int, default=ModelConfig.epochs)
    train.add_argument("--k", type=int_or_auto, default=ModelConfig.sortpool_k,
                       help="sort-pooling size (int or 'auto')")
    train.add_argument("--seed", type=int, default=ModelConfig.seed)
    train.add_argument("--out", required=True, help="output directory for reports")
    train.add_argument("--jobs", type=int, default=1, help="parallel fold workers")
    train.set_defaults(func=cmd_train)

    inspect = sub.add_parser("inspect-dataset", help="print dataset statistics")
    inspect.add_argument("--dataset", required=True)
    inspect.add_argument("--data-dir", required=True)
    inspect.set_defaults(func=cmd_inspect_dataset)

    gradcheck = sub.add_parser("gradcheck", help="run the finite-difference gradient suite")
    gradcheck.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DatasetError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
