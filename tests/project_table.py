"""Project the paper's protocol over every row of its dataset table.

Each row of ``TABLE_STATS`` (``tests/test_acceptance.py``) gets a seeded
stand-in: the molecule, protein and IMDB shapes come from
``perfbench/synth.py`` at their size arguments, and COLLAB is a fifth
of ``synthetic.collab_like``, scaled up linearly.  Node labels become
bool one-hot rows, as ``load_tu_dataset`` stores them; the IMDB and
COLLAB rows get degree features.  For each row the script times the
shortest-path precompute and ``train_one_fold`` on fold 0 of a 10-fold
split at 1 and at ``TIMED_EPOCHS`` epochs; the difference, over the
extra epochs, is the seconds per epoch past the first, validation
included.  It takes that difference ``TRIALS`` times per row and uses
the median.  It projects the protocol from that: 10 folds x 3 repeats x
300 epochs at 2 jobs, plus one precompute, and prints the hours per row
and in total, each with its spread: the range the row's hours take over
its trials, and for the total the sum of the rows' lows and of their
highs.  The model is ``ModelConfig()``, every field at its default
(parametric, r = 2, float32), and the operators are built in its dtype.
Run from the repository root:

    PYTHONPATH=src python tests/project_table.py [--rows MUTAG DD]

Pointing ``PYTHONPATH`` at another checkout's ``src`` projects that
version on the same stand-ins.  All rows take three to six minutes,
the MUTAG row about a second.
"""

from __future__ import annotations

import argparse
import dataclasses
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "perfbench"))

import synth  # noqa: E402
from synthetic import collab_like  # noqa: E402

from pathconv import (  # noqa: E402
    Dataset,
    Graph,
    ModelConfig,
    encode_degree_features,
    precompute_sp_tensors,
    stratified_folds,
    train_one_fold,
)
from pathconv.model import distance_cutoff  # noqa: E402

FOLDS, REPEATS, EPOCHS, JOBS = 10, 3, 300, 2
TIMED_EPOCHS, TRIALS = 5, 3


def as_loaded(dataset: Dataset) -> Dataset:
    """The same graphs with their one-hot rows as bool, as the loader keeps them."""
    graphs = tuple(Graph(g.node_count, g.edges, g.features.astype(bool), g.target)
                   for g in dataset.graphs)
    return Dataset(dataset.name, graphs, dataset.num_classes, dataset.feature_dim)


# Row name -> (stand-in builder, how many stand-ins make the row).
ROWS = {
    "MUTAG": (lambda: as_loaded(synth.mutag_like(3)), 1),
    "PTC": (lambda: as_loaded(synth.mutag_like(3, 344, 109, 25.56)), 1),
    "NCI1": (lambda: as_loaded(synth.mutag_like(3, 4110, 111, 29.87)), 1),
    "PROTEINS": (lambda: as_loaded(synth.dd_like(3, 1113, 620, 39.06, 3)), 1),
    "DD": (lambda: as_loaded(synth.dd_like(3, 1178)), 1),
    "IMDB-B": (lambda: encode_degree_features(synth.imdb_like(3)), 1),
    "IMDB-M": (lambda: encode_degree_features(synth.imdb_like(3, 1500, 89, 13.0)), 1),
    "COLLAB": (lambda: encode_degree_features(collab_like(0, 1000)), 5),
}


def fold_seconds(dataset: Dataset, split, config: ModelConfig, sps, epochs: int) -> float:
    start = time.perf_counter()
    report = train_one_fold(dataset, split, dataclasses.replace(config, epochs=epochs), sps=sps)
    if report.error is not None:
        raise SystemExit(f"{dataset.name}: the fold failed: {report.error}")
    return time.perf_counter() - start


def epoch_seconds(dataset: Dataset, split, config: ModelConfig, sps) -> float:
    """Seconds per epoch past the first: a TIMED_EPOCHS fold less a 1-epoch fold."""
    one = fold_seconds(dataset, split, config, sps, 1)
    return (fold_seconds(dataset, split, config, sps, TIMED_EPOCHS) - one) / (TIMED_EPOCHS - 1)


def project(name: str, config: ModelConfig) -> np.ndarray:
    """Print one row's stand-in, timings and projected hours (the median
    and the range over its trials); return (median, low, high) hours."""
    build, scale = ROWS[name]
    dataset = build()
    start = time.perf_counter()
    sps = precompute_sp_tensors(dataset, distance_cutoff(config), config.dtype)
    precompute = time.perf_counter() - start
    split = stratified_folds(dataset, FOLDS, config.seed)[0]
    per_epoch = np.array([epoch_seconds(dataset, split, config, sps) for _ in range(TRIALS)])
    hours = scale * (precompute + per_epoch * FOLDS * REPEATS * EPOCHS / JOBS) / 3600
    row = np.array([np.median(hours), hours.min(), hours.max()])
    print(f"{name:<9} {len(dataset):>6} x{scale} {dataset.feature_dim:>4} "
          f"{precompute:>10.2f} {np.median(per_epoch):>8.3f} {row[0]:>7.2f} "
          f"{row[1]:>6.2f}-{row[2]:.2f}", flush=True)
    return row


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", nargs="+", choices=list(ROWS), default=list(ROWS))
    args = parser.parse_args()
    config = ModelConfig()
    print(f"# {config.mode}, r = {config.r}, {config.dtype}, {FOLDS} folds x {REPEATS} repeats x "
          f"{EPOCHS} epochs at {JOBS} jobs; epochs 2..{TIMED_EPOCHS} of fold 0 timed, "
          f"median of {TRIALS}")
    print(f"# python {platform.python_version()}, numpy {np.__version__}, "
          f"scipy {scipy.__version__}, {platform.machine()}")
    print(f"{'row':<9} {'graphs':>6} {'':>2} {'d':>4} {'precompute':>10} {'s/epoch':>8} "
          f"{'hours':>7} {'range':>11}")
    total = sum(project(name, config) for name in args.rows)
    print(f"total {total[0]:.2f} h (range {total[1]:.2f}-{total[2]:.2f} h)")


if __name__ == "__main__":
    main()
