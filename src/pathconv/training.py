"""Experiment driver: per-fold training, nested cross-validation, reports.

A fold trains on its training block for a fixed number of epochs,
evaluates the validation block after every epoch, restores the parameters
of the best validation epoch, and only then touches the test block once.
Experiments repeat the whole cross-validation with re-seeded partitions
and aggregate mean and standard deviation over all folds.

Graphs are processed in passes of at most NODE_BUDGET nodes: a minibatch
is cut, in order, into consecutive sub-batches whose gradients add up,
and evaluation walks its graphs the same way.  Each pass treats its
graphs as one disconnected graph (``batch_sp_tensors``).
"""

from __future__ import annotations

import csv
import ctypes
import logging
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from functools import cache
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .data import Dataset, stratified_folds
from .errors import ConfigError, NumericalError, check_count
from .layers import softmax_cross_entropy
from .model import Model, ModelConfig, distance_cutoff, resolve_sortpool_k
from .shortest_paths import SPTensor, batch_sp_tensors, check_fit, cut_runs, sp_tensors
from .shortest_paths import compute_sp_tensor  # unused here; perfbench/spans.py wraps it by name

log = logging.getLogger(__name__)

# Most nodes in one forward/backward pass.  It bounds the memory a pass
# holds, about 2.8 KB per node in float32 (under 6 MB at the budget); a
# graph larger than this gets a pass of its own.  Smaller passes pay
# scipy's per-call checks and each pass's Python work more often: on the
# DD-shaped benchmark workload (2-core x86-64) an epoch took 0.32 s at
# 256 against 0.25 s at 2048, and 4096 was no faster than 2048.
NODE_BUDGET = 2048


@dataclass
class FoldReport:
    """Outcome of one (repeat, fold) training."""

    fold_id: int
    repeat_id: int
    test_accuracy: float
    best_epoch: int
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    val_accuracies: list[float] = field(default_factory=list)
    wall_time_seconds: float = 0.0
    error: str | None = None


@dataclass
class ExperimentReport:
    """All fold reports of one experiment plus their aggregate accuracy.

    ``mean_accuracy`` and ``std_accuracy`` are computed over the folds
    that completed without error (population standard deviation, reported
    in the usual "mean +/- std" percent format by :func:`emit_report`).
    """

    dataset: str
    config: ModelConfig
    folds: int
    repeats: int
    fold_reports: list[FoldReport]
    mean_accuracy: float
    std_accuracy: float


def precompute_sp_tensors(dataset: Dataset, r: int,
                          dtype: str = ModelConfig.dtype) -> list[SPTensor]:
    """One shortest-path tensor per graph; r is fixed per experiment, and
    ``dtype``, the model's, defaults to :class:`ModelConfig`'s.
    ``sp_tensors`` builds them in runs bounded by what their products hold,
    not by NODE_BUDGET: a product over the whole dataset would leave more
    memory resident, which forked pool workers inherit."""
    return sp_tensors(list(dataset.graphs), r, dtype)


def sub_batches(dataset: Dataset, indices: np.ndarray) -> list[np.ndarray]:
    """``indices`` cut by :func:`cut_runs` into runs of at most NODE_BUDGET
    nodes, in order; a graph larger than the budget forms a run of its own."""
    runs = cut_runs([dataset.graphs[i].node_count for i in indices], NODE_BUDGET)
    return [indices[run] for run in runs]


def passes(dataset: Dataset, sps, indices):
    """Each run of :func:`sub_batches` as one pass's input: its graphs as
    one disconnected graph, their stacked feature rows and their targets."""
    for run in sub_batches(dataset, indices):
        graphs = [dataset.graphs[i] for i in run]
        yield (batch_sp_tensors([sps[i] for i in run]),
               np.concatenate([g.features for g in graphs]),
               np.array([g.target for g in graphs]))


def accumulate_gradients(model: Model, dataset: Dataset, sps, batch,
                         rng: np.random.Generator) -> np.ndarray:
    """Add the summed gradients, dropout on, of the graphs ``batch`` to
    the model's buffers, one pass at a time; returns their losses.

    Passes draw their dropout masks one after the other from ``rng``,
    so the draws do not depend on where the batch is cut.
    """
    return np.concatenate([model.loss_and_gradients(sp, x, targets, rng=rng)
                           for sp, x, targets in passes(dataset, sps, batch)])


def _evaluate(model: Model, dataset: Dataset, sps, indices) -> tuple[float, float]:
    """(accuracy, mean loss) over the given graph indices, dropout off."""
    correct = 0
    total_loss = 0.0
    for sp, x, targets in passes(dataset, sps, indices):
        logits, _ = model.forward(sp, x)
        total_loss += float(softmax_cross_entropy(logits, targets)[0].sum())
        correct += int((logits.argmax(axis=1) == targets).sum())
    n = len(indices)
    return correct / n, total_loss / n


@cache
def _openblas():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or
    None when numpy links another BLAS."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        get = getattr(handle, "scipy_openblas_get_num_threads64_", None)
        set_ = getattr(handle, "scipy_openblas_set_num_threads64_", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextmanager
def single_blas_thread():
    """Run the block with OpenBLAS on one thread, then restore the count.

    The weight-gradient products of a batch sum over thousands of rows,
    and with several threads their rounding depends on the thread count;
    one thread keeps every fold reproducible, in a pool worker or not,
    and is faster for matrices this small.
    """
    blas = _openblas()
    if blas is None:
        yield
        return
    get, set_ = blas
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


# glibc's mallopt parameters (malloc.h).  Setting either one switches off
# glibc's dynamic mmap threshold, so both are set: blocks up to 32 MiB,
# the largest mmap threshold glibc accepts on 64-bit, come from the heap,
# and up to 64 MiB of free memory at its top is kept rather than trimmed.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD, _TRIM_THRESHOLD = 32 << 20, 64 << 20
_LIBC = ctypes.CDLL(None) if os.name == "posix" else None


@cache
def keep_freed_memory() -> bool:
    """Once per process, tell glibc's allocator to keep the memory a
    training pass frees, so the next pass reuses its pages instead of
    faulting on fresh zero pages from the kernel.  True when glibc took
    both settings; without glibc's ``mallopt`` it does nothing and
    returns False.

    The settings stay for the rest of the process: ``mallopt`` has no
    getter, so there is nothing to restore.
    """
    mallopt = getattr(_LIBC, "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return all([mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD),
                mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)])


def check_split(dataset: Dataset, split) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (train, validation, test) index triple as int64 arrays, or
    ConfigError unless it is three 1-D blocks, each non-empty one holds
    integers, together they are a permutation of 0..n-1, the validation
    and test blocks are non-empty and training holds every class."""
    try:
        blocks = [np.asarray(s) for s in split]
    except (TypeError, ValueError):  # not iterable, or a ragged block
        blocks = []
    if len(blocks) != 3 or any(block.ndim != 1 for block in blocks):
        raise ConfigError("a split is three 1-D integer blocks (train, validation, test)")
    for block in blocks:
        if block.size and block.dtype.kind not in "iu":  # a cast would pick other graphs
            raise ConfigError(f"split indices must be integers, got {block.dtype}")
    train_idx, val_idx, test_idx = (block.astype(np.int64) for block in blocks)
    n = len(dataset.graphs)
    if not np.array_equal(np.sort(np.concatenate([train_idx, val_idx, test_idx])), np.arange(n)):
        raise ConfigError("split is not a disjoint cover of the dataset")
    if not (val_idx.size and test_idx.size):
        raise ConfigError("split has an empty validation or test block")
    train_targets = {dataset.graphs[i].target for i in train_idx}
    if len(train_targets) != dataset.num_classes:
        raise ConfigError("training block is missing at least one class")
    return train_idx, val_idx, test_idx


def train_one_fold(dataset: Dataset, split, config: ModelConfig,
                   fold_id: int = 0, repeat_id: int = 0,
                   sps: list[SPTensor] | None = None) -> FoldReport:
    """Train on one split and report test accuracy at the best epoch.

    ``split`` is a (train, validation, test) triple for :func:`check_split`;
    ``sps``, given or built here in the model's dtype, must pass
    :func:`check_fit`.  Training runs with one BLAS thread
    (:func:`single_blas_thread`), and the process keeps the memory each
    pass frees (:func:`keep_freed_memory`).
    """
    check_count("fold_id", fold_id, 0)
    check_count("repeat_id", repeat_id, 0)
    train_idx, val_idx, test_idx = check_split(dataset, split)

    start = time.perf_counter()
    cutoff = distance_cutoff(config)
    if sps is None:
        sps = precompute_sp_tensors(dataset, cutoff, config.dtype)
    check_fit(sps, dataset.graphs, cutoff, config.dtype)
    config = replace(config, sortpool_k=resolve_sortpool_k(
        config, [dataset.graphs[i].node_count for i in train_idx]))

    model = Model(config, dataset.feature_dim, dataset.num_classes)
    optimizer = model.make_optimizer()
    rng = np.random.default_rng([config.seed, fold_id, 0x7261])

    best_acc = -1.0
    best_epoch = 0
    best_state = model.get_state()
    train_losses: list[float] = []
    val_losses: list[float] = []
    val_accuracies: list[float] = []

    keep_freed_memory()
    with single_blas_thread():
        for epoch in range(1, config.epochs + 1):
            order = rng.permutation(train_idx)
            epoch_loss = 0.0
            for lo in range(0, len(order), config.batch_size):
                batch = order[lo: lo + config.batch_size]
                model.zero_gradients()
                losses = accumulate_gradients(model, dataset, sps, batch, rng)
                bad = np.flatnonzero(~np.isfinite(losses))
                if bad.size:
                    raise NumericalError(
                        f"non-finite loss on graph {batch[bad[0]]} "
                        f"(fold {fold_id}, repeat {repeat_id}, epoch {epoch})"
                    )
                epoch_loss += float(losses.sum())
                model.scale_gradients(1.0 / len(batch))
                optimizer.step(model.gradients())
            train_losses.append(epoch_loss / len(train_idx))

            val_acc, val_loss = _evaluate(model, dataset, sps, val_idx)
            val_losses.append(val_loss)
            val_accuracies.append(val_acc)
            if val_acc > best_acc:  # ties keep the earliest epoch
                best_acc = val_acc
                best_epoch = epoch
                best_state = model.get_state()

        model.set_state(best_state)
        test_acc, _ = _evaluate(model, dataset, sps, test_idx)
    return FoldReport(
        fold_id=fold_id,
        repeat_id=repeat_id,
        test_accuracy=test_acc,
        best_epoch=best_epoch,
        train_losses=train_losses,
        val_losses=val_losses,
        val_accuracies=val_accuracies,
        wall_time_seconds=time.perf_counter() - start,
    )


# Worker-process state: the dataset and its shortest-path tensors are
# shipped once per worker instead of once per task.
_worker_state: dict = {}


def _init_worker(dataset: Dataset, sps: list[SPTensor]) -> None:
    _worker_state["dataset"] = dataset
    _worker_state["sps"] = sps


def _run_fold(dataset: Dataset, sps, task) -> FoldReport:
    """Train one (split, config, fold, repeat) task and log its outcome;
    a numerical failure becomes the fold's recorded error."""
    split, config, fold, repeat = task
    try:
        report = train_one_fold(dataset, split, config, fold_id=fold,
                                repeat_id=repeat, sps=sps)
    except NumericalError as exc:
        log.error("fold %d repeat %d failed: %s", fold, repeat, exc)
        report = FoldReport(fold_id=fold, repeat_id=repeat,
                            test_accuracy=float("nan"), best_epoch=0, error=str(exc))
    log.info("repeat %d fold %d: accuracy %.4f (epoch %d, %.1fs)", repeat, fold,
             report.test_accuracy, report.best_epoch, report.wall_time_seconds)
    return report


def _fold_task(task) -> FoldReport:
    return _run_fold(_worker_state["dataset"], _worker_state["sps"], task)


def aggregate_accuracy(fold_reports: list[FoldReport]) -> tuple[float, float]:
    """Mean and population standard deviation over completed folds."""
    acc = np.array([fr.test_accuracy for fr in fold_reports if fr.error is None])
    if acc.size == 0:
        raise NumericalError("every fold failed; no accuracies to aggregate")
    return float(acc.mean()), float(acc.std())


def check_counts(folds: int, repeats: int, jobs: int) -> None:
    """ConfigError naming the first count :func:`run_experiment` cannot
    take: ``folds`` must be an int >= 2, ``repeats`` and ``jobs`` >= 1."""
    check_count("folds", folds, 2)
    check_count("repeats", repeats, 1)
    check_count("jobs", jobs, 1)


def run_experiment(dataset: Dataset, config: ModelConfig, folds: int = 10,
                   repeats: int = 10, jobs: int = 1) -> ExperimentReport:
    """Nested cross-validation: ``folds`` x ``repeats`` independent trainings.

    Partitions are re-drawn per repeat with seed ``config.seed + repeat``.
    A fold that fails numerically is recorded with its error and the
    experiment continues; aggregates cover the completed folds.
    """
    check_counts(folds, repeats, jobs)
    tasks = []
    for repeat in range(repeats):
        repeat_config = replace(config, seed=config.seed + repeat)
        splits = stratified_folds(dataset, folds, seed=config.seed + repeat)
        for fold, split in enumerate(splits):
            check_split(dataset, split)
            tasks.append((split, repeat_config, fold, repeat))

    sps = precompute_sp_tensors(dataset, distance_cutoff(config), config.dtype)
    if jobs > 1:
        # Folds are deterministic in (seed, repeat, fold), so scheduling
        # order cannot change the results.
        with ProcessPoolExecutor(max_workers=jobs, initializer=_init_worker,
                                 initargs=(dataset, sps)) as pool:
            fold_reports = list(pool.map(_fold_task, tasks, chunksize=1))
    else:
        fold_reports = [_run_fold(dataset, sps, task) for task in tasks]

    mean, std = aggregate_accuracy(fold_reports)
    return ExperimentReport(dataset=dataset.name, config=config, folds=folds,
                            repeats=repeats, fold_reports=fold_reports,
                            mean_accuracy=mean, std_accuracy=std)


def format_summary(report: ExperimentReport) -> str:
    failed = sum(1 for fr in report.fold_reports if fr.error is not None)
    lines = [
        f"dataset: {report.dataset}",
        f"mode: {report.config.mode}",
        f"r: {report.config.r}",
        f"folds: {report.folds}",
        f"repeats: {report.repeats}",
        f"fold reports: {len(report.fold_reports)} ({failed} failed)",
        f"accuracy: {report.mean_accuracy * 100:.2f} ± {report.std_accuracy * 100:.2f}",
    ]
    return "\n".join(lines) + "\n"


def emit_report(report: ExperimentReport, out_dir) -> tuple[Path, Path]:
    """Write ``folds.csv`` and ``summary.txt`` under ``out_dir``.

    The CSV holds one row per fold with full-precision floats (so parsing
    it back recovers every numeric field exactly) and, in its last column,
    the error a failed fold recorded (empty for completed folds); the
    summary carries the percent-formatted "mean +/- std" line.
    """
    if not report.fold_reports:
        raise ConfigError("refusing to write a report with no folds")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "folds.csv"
    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset", "mode", "r", "fold", "repeat",
                         "accuracy", "best_epoch", "seconds", "error"])
        for fr in report.fold_reports:
            writer.writerow([
                report.dataset, report.config.mode, report.config.r,
                fr.fold_id, fr.repeat_id, repr(fr.test_accuracy),
                fr.best_epoch, repr(fr.wall_time_seconds), fr.error or "",
            ])
    summary_path = out / "summary.txt"
    summary_path.write_text(format_summary(report))
    return csv_path, summary_path
