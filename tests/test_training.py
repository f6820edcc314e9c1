"""Fold training, nested cross-validation, and report emission."""

import csv
import dataclasses
import functools
import math
import multiprocessing
import os
import platform
import subprocess
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from pathconv import (
    ConfigError,
    Dataset,
    ExperimentReport,
    FoldReport,
    Graph,
    Model,
    ModelConfig,
    NumericalError,
    compute_sp_tensor,
    emit_report,
    load_tu_dataset,
    model_forward,
    precompute_sp_tensors,
    run_experiment,
    save_tu_dataset,
    stratified_folds,
    train_one_fold,
)
from pathconv.model import MODES, distance_cutoff
import pathconv.training as training
from pathconv.shortest_paths import batch_sp_tensors

from conftest import build_toy_dataset
from oracles import path_graph
from synthetic import distance_task

TOY_CONFIG = ModelConfig(r=2, sortpool_k=10, epochs=50, batch_size=16,
                         learning_rate=1e-3, seed=3)


def toy_splits(toy_dataset, folds=5, seed=0):
    return stratified_folds(toy_dataset, folds=folds, seed=seed)


class TestTrainOneFold:
    def test_toy_dataset_reaches_perfect_accuracy(self, toy_dataset):
        # Cycles and paths differ in their degree statistics alone, so the
        # classes are separable well inside 50 epochs.
        split = toy_splits(toy_dataset)[0]
        report = train_one_fold(toy_dataset, split, TOY_CONFIG)
        assert report.test_accuracy == 1.0
        assert report.best_epoch <= 50

    def test_zero_epochs_gives_chance_level(self, toy_dataset):
        split = toy_splits(toy_dataset, folds=2)[0]
        config = dataclasses.replace(TOY_CONFIG, epochs=0)
        report = train_one_fold(toy_dataset, split, config)
        assert report.best_epoch == 0
        assert report.train_losses == []
        # Untrained two-class model on a balanced block: near 1/2.
        assert 0.2 <= report.test_accuracy <= 0.8

    def test_determinism(self, toy_dataset):
        split = toy_splits(toy_dataset)[1]
        config = dataclasses.replace(TOY_CONFIG, epochs=8)
        a = train_one_fold(toy_dataset, split, config)
        b = train_one_fold(toy_dataset, split, config)
        # Identical in everything except measured wall time.
        assert a.test_accuracy == b.test_accuracy
        assert a.best_epoch == b.best_epoch
        assert a.train_losses == b.train_losses
        assert a.val_losses == b.val_losses
        assert a.val_accuracies == b.val_accuracies

    @pytest.mark.parametrize("mode", MODES)
    def test_loaded_bool_rows_train_as_float64_rows(self, toy_dataset, tmp_path, mode):
        """A saved and reloaded dataset, its rows stored as bool, gives the
        same bits as the same rows cast to float64: every loss, validation
        curve, test accuracy and model_forward probability."""
        save_tu_dataset(toy_dataset, tmp_path)
        compact = load_tu_dataset(tmp_path, toy_dataset.name)
        assert all(g.features.dtype == bool for g in compact.graphs)
        wide = Dataset(compact.name, tuple(
            Graph(g.node_count, g.edges, g.features.astype(np.float64), g.target)
            for g in compact.graphs), compact.num_classes, compact.feature_dim)
        config = dataclasses.replace(TOY_CONFIG, mode=mode, epochs=4)
        split = toy_splits(compact)[0]
        a, b = (train_one_fold(ds, split, config) for ds in (compact, wide))
        for field in ("train_losses", "val_losses", "val_accuracies", "test_accuracy"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field
        model = Model(config, compact.feature_dim, compact.num_classes)
        sps = precompute_sp_tensors(compact, distance_cutoff(config))
        for g, h, sp in zip(compact.graphs, wide.graphs, sps, strict=True):
            assert np.array_equal(model_forward(g, sp, model), model_forward(h, sp, model))

    def test_best_epoch_is_earliest_argmax(self, toy_dataset):
        split = toy_splits(toy_dataset)[0]
        config = dataclasses.replace(TOY_CONFIG, epochs=12)
        report = train_one_fold(toy_dataset, split, config)
        accs = report.val_accuracies
        best = max(accs)
        assert accs[report.best_epoch - 1] == best
        assert all(a < best for a in accs[: report.best_epoch - 1])

    def test_no_test_leakage(self, toy_dataset, monkeypatch):
        split = toy_splits(toy_dataset)[2]
        train_idx, val_idx, test_idx = split
        config = dataclasses.replace(TOY_CONFIG, epochs=4)
        # Count the graphs given to passes, per call of the training and
        # evaluation functions.
        calls = []  # (function name, passes per graph index)

        def track(name):
            real = getattr(training, name)

            def wrapper(*args, **kwargs):
                calls.append((name, Counter()))
                return real(*args, **kwargs)
            monkeypatch.setattr(training, name, wrapper)

        track("accumulate_gradients")
        track("_evaluate")
        real_passes = training.passes

        def passes(dataset, sps, indices):
            calls[-1][1].update(int(i) for i in indices)
            return real_passes(dataset, sps, indices)
        monkeypatch.setattr(training, "passes", passes)
        train_one_fold(toy_dataset, split, config)

        # One evaluation per epoch on validation, then the final one on test.
        evals = [seen for name, seen in calls if name == "_evaluate"]
        assert len(evals) == config.epochs + 1
        counters = {
            "train": sum((seen for name, seen in calls
                          if name == "accumulate_gradients"), Counter()),
            "val": sum(evals[:-1], Counter()),
            "test": evals[-1],
        }
        # Each test graph is evaluated exactly once, and never seen in
        # training or validation.
        assert set(counters["test"]) == {int(i) for i in test_idx}
        assert all(count == 1 for count in counters["test"].values())
        assert set(counters["train"]) == {int(i) for i in train_idx}
        assert set(counters["val"]) == {int(i) for i in val_idx}
        assert not (set(counters["train"]) & set(counters["test"]))
        assert not (set(counters["val"]) & set(counters["test"]))

    def test_test_block_cannot_influence_training(self, toy_dataset):
        """Replacing every test graph's features and target leaves the
        training and validation record bit-identical."""
        split = toy_splits(toy_dataset)[2]
        test_idx = set(int(i) for i in split[2])
        rng = np.random.default_rng(12)
        graphs = tuple(
            dataclasses.replace(g, features=rng.normal(size=g.features.shape),
                                target=1 - g.target) if i in test_idx else g
            for i, g in enumerate(toy_dataset.graphs))
        scrambled = dataclasses.replace(toy_dataset, graphs=graphs)
        config = dataclasses.replace(TOY_CONFIG, epochs=4)
        a = train_one_fold(toy_dataset, split, config)
        b = train_one_fold(scrambled, split, config)
        assert a.train_losses == b.train_losses
        assert a.val_losses == b.val_losses
        assert a.val_accuracies == b.val_accuracies
        assert a.best_epoch == b.best_epoch
        # The replacement reached the test block.
        assert a.test_accuracy != b.test_accuracy

    def test_overlapping_split_rejected(self, toy_dataset):
        train, val, test = toy_splits(toy_dataset)[0]
        bad = (np.concatenate([train, test[:1]]), val, test)
        with pytest.raises(ConfigError, match="disjoint"):
            train_one_fold(toy_dataset, bad, TOY_CONFIG)

    @pytest.mark.parametrize("bad", [-1, 20], ids=["negative", "past_end"])
    def test_out_of_range_index_rejected(self, toy_dataset, bad):
        """Graph 0 renamed -1 or n keeps the block sizes and the distinct
        count, but leaves graph 0 out; -1 also names graph n - 1 twice."""
        train, val, test = (np.array(b) for b in toy_splits(toy_dataset)[0])
        for block in (train, val, test):
            block[block == 0] = bad
        with pytest.raises(ConfigError, match="disjoint cover"):
            train_one_fold(toy_dataset, (train, val, test), TOY_CONFIG)

    @pytest.mark.parametrize("block", [[0.25, 1.25], [False, True]], ids=["float", "bool"])
    def test_non_integer_block_rejected(self, toy_dataset, block):
        """Cast to int64, either block would name graphs 0 and 1 and
        complete a valid split."""
        train, val, test = toy_splits(toy_dataset)[0]
        train = np.setdiff1d(np.concatenate([train, val]), [0, 1])
        split = (train, np.array(block), np.setdiff1d(test, [0, 1]))
        with pytest.raises(ConfigError, match="split indices must be integers"):
            training.check_split(toy_dataset, split)

    @pytest.mark.parametrize("shape", ["two_blocks", "four_blocks", "2d_block", "scalar_block",
                                       "ragged_block", "not_iterable"])
    def test_split_not_three_1d_blocks_rejected(self, toy_dataset, shape):
        train, val, test = toy_splits(toy_dataset)[0]
        split = {"two_blocks": (train, np.concatenate([val, test])),
                 "four_blocks": (train, val, test[:1], test[1:]),
                 "2d_block": (train, val, test.reshape(1, -1)),
                 "scalar_block": (train, val, 5),
                 "ragged_block": (train, val, [[0, 1], [2]]),
                 "not_iterable": 7}[shape]
        with pytest.raises(ConfigError, match=r"a split is three 1-D integer blocks"):
            training.check_split(toy_dataset, split)

    def test_empty_test_block_rejected(self, toy_dataset):
        train, val, test = toy_splits(toy_dataset)[0]
        split = (np.concatenate([train, test]), val, [])
        with pytest.raises(ConfigError, match="empty validation or test block"):
            train_one_fold(toy_dataset, split, TOY_CONFIG)

    def test_missing_class_in_training_rejected(self, toy_dataset):
        targets = toy_dataset.targets()
        class0 = np.flatnonzero(targets == 0)
        class1 = np.flatnonzero(targets == 1)
        split = (class0[:-1], np.array([class0[-1]]), class1)
        with pytest.raises(ConfigError, match="class"):
            train_one_fold(toy_dataset, split, TOY_CONFIG)

    def test_sps_one_short_rejected(self, toy_dataset):
        split = toy_splits(toy_dataset)[0]
        sps = training.precompute_sp_tensors(toy_dataset, TOY_CONFIG.r)
        with pytest.raises(ConfigError, match="19 shortest-path tensors .* 20 graphs"):
            train_one_fold(toy_dataset, split, TOY_CONFIG, sps=sps[:-1])

    def test_sps_node_count_mismatch_rejected(self, toy_dataset):
        split = toy_splits(toy_dataset)[0]
        sps = training.precompute_sp_tensors(toy_dataset, TOY_CONFIG.r)
        bigger = path_graph(toy_dataset.graphs[3].node_count + 1, target=0)
        sps[3] = compute_sp_tensor(bigger, TOY_CONFIG.r)
        with pytest.raises(ConfigError, match="do not fit"):
            train_one_fold(toy_dataset, split, TOY_CONFIG, sps=sps)

    def test_sps_joined_tensor_rejected(self, toy_dataset):
        """A join of two paths has a cycle's row count but describes two
        graphs."""
        split = toy_splits(toy_dataset)[0]
        sps = training.precompute_sp_tensors(toy_dataset, TOY_CONFIG.r)
        n = toy_dataset.graphs[2].node_count
        sps[2] = batch_sp_tensors([compute_sp_tensor(path_graph(m, target=0), TOY_CONFIG.r)
                                   for m in (n // 2, n - n // 2)])
        assert sps[2].node_count == n
        with pytest.raises(ConfigError, match="do not fit"):
            train_one_fold(toy_dataset, split, TOY_CONFIG, sps=sps)

    def test_sps_below_distance_cutoff_rejected(self, toy_dataset):
        split = toy_splits(toy_dataset)[0]
        sps = training.precompute_sp_tensors(toy_dataset, 1)
        with pytest.raises(ConfigError, match="stop short of distance 2"):
            train_one_fold(toy_dataset, split, TOY_CONFIG, sps=sps)

    def test_sps_narrower_than_model_rejected(self, toy_dataset):
        split = toy_splits(toy_dataset)[0]
        config = dataclasses.replace(TOY_CONFIG, dtype="float64")
        sps = training.precompute_sp_tensors(toy_dataset, TOY_CONFIG.r, "float32")
        with pytest.raises(ConfigError, match="float32 are narrower than the float64 model"):
            train_one_fold(toy_dataset, split, config, sps=sps)

    @pytest.mark.parametrize("mode", MODES)
    def test_sps_wider_than_model_accepted(self, toy_dataset, mode):
        """A float32 model rounds the products of float64 operators."""
        split = toy_splits(toy_dataset)[0]
        config = dataclasses.replace(TOY_CONFIG, mode=mode, epochs=2)
        sps = training.precompute_sp_tensors(toy_dataset, TOY_CONFIG.r, "float64")
        report = train_one_fold(toy_dataset, split, config, sps=sps)
        assert np.isfinite(report.train_losses + report.val_losses).all()

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_built_sps_follow_model_dtype(self, toy_dataset, monkeypatch, dtype):
        """The tensors train_one_fold and run_experiment build reach every
        pass in the model's dtype."""
        seen = set()
        join = training.batch_sp_tensors

        def recording(sps):
            joined = join(sps)
            seen.update(m.dtype for m in joined.mats)
            return joined

        monkeypatch.setattr(training, "batch_sp_tensors", recording)
        config = dataclasses.replace(TOY_CONFIG, epochs=1, dtype=dtype)
        train_one_fold(toy_dataset, toy_splits(toy_dataset)[0], config)
        assert seen == {np.dtype(dtype)}
        seen.clear()
        run_experiment(toy_dataset, config, folds=2, repeats=1)
        assert seen == {np.dtype(dtype)}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflows on purpose
    def test_exploding_update_raises_numerical_error(self, toy_dataset):
        split = toy_splits(toy_dataset)[0]
        config = dataclasses.replace(TOY_CONFIG, epochs=3, learning_rate=1e200)
        with pytest.raises(NumericalError):
            train_one_fold(toy_dataset, split, config)


# Trains a 120-tree distance-task set (r = 2, two epochs) twice in a fresh
# process and prints the minor page faults per training pass of the second
# fold, after the first has warmed the allocator up.
FAULTS_PER_PASS = """
import resource
from pathconv import Model, ModelConfig, precompute_sp_tensors, stratified_folds, train_one_fold
from synthetic import distance_task

dataset = distance_task(0, 120)
config = ModelConfig(r=2, epochs=2, seed=0)
sps = precompute_sp_tensors(dataset, config.r)
split = stratified_folds(dataset, 10, seed=0)[0]
passes = 0
pass_ = Model.loss_and_gradients

def counted(*args, **kwargs):
    global passes
    passes += 1
    return pass_(*args, **kwargs)

Model.loss_and_gradients = counted
train_one_fold(dataset, split, config, sps=sps)
passes = 0
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
train_one_fold(dataset, split, config, sps=sps)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / passes)
"""


class TestKeepFreedMemory:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc's mallopt")
    def test_training_pass_reuses_freed_pages(self):
        """A warmed-up training pass of up to 2048 nodes takes under 50
        minor page faults in a fresh process: 0.25-12.75 measured over 10
        processes, against 1165-1199 when glibc gave the freed temporaries
        back to the kernel after every pass."""
        tests = Path(__file__).resolve().parent
        path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")]
        done = subprocess.run([sys.executable, "-c", FAULTS_PER_PASS], capture_output=True,
                              text=True, timeout=300,
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(path)})
        assert done.returncode == 0, done.stderr[-2000:]
        faults = float(done.stdout.split()[-1])
        assert faults < 50, f"{faults:.1f} minor faults per training pass"

    def test_fold_runs_unchanged_without_mallopt(self, toy_dataset, monkeypatch):
        split = toy_splits(toy_dataset)[0]
        config = dataclasses.replace(TOY_CONFIG, epochs=6)
        normal = train_one_fold(toy_dataset, split, config)
        monkeypatch.setattr(training, "_LIBC", None)
        training.keep_freed_memory.cache_clear()
        try:
            assert training.keep_freed_memory() is False
            fallback = train_one_fold(toy_dataset, split, config)
        finally:
            training.keep_freed_memory.cache_clear()
        for field in ("train_losses", "val_losses", "val_accuracies", "test_accuracy"):
            assert np.array_equal(getattr(fallback, field), getattr(normal, field)), field


class TestRunExperiment:
    def test_workload_and_aggregates(self, toy_dataset):
        config = dataclasses.replace(TOY_CONFIG, epochs=2)
        report = run_experiment(toy_dataset, config, folds=2, repeats=3)
        assert len(report.fold_reports) == 6
        ids = {(fr.repeat_id, fr.fold_id) for fr in report.fold_reports}
        assert ids == {(r, f) for r in range(3) for f in range(2)}
        accs = np.array([fr.test_accuracy for fr in report.fold_reports])
        assert abs(report.mean_accuracy - accs.mean()) < 1e-12
        assert abs(report.std_accuracy - accs.std()) < 1e-12

    def test_failed_fold_recorded_and_experiment_continues(self, toy_dataset, monkeypatch):
        real = training.train_one_fold
        def flaky(dataset, split, config, fold_id=0, repeat_id=0, **kw):
            if fold_id == 0:
                raise NumericalError("synthetic failure")
            return real(dataset, split, config, fold_id=fold_id,
                        repeat_id=repeat_id, **kw)
        monkeypatch.setattr(training, "train_one_fold", flaky)
        config = dataclasses.replace(TOY_CONFIG, epochs=1)
        report = run_experiment(toy_dataset, config, folds=3, repeats=1)
        assert len(report.fold_reports) == 3
        failed = [fr for fr in report.fold_reports if fr.error is not None]
        assert len(failed) == 1 and failed[0].fold_id == 0
        assert math.isnan(failed[0].test_accuracy)
        assert math.isfinite(report.mean_accuracy)

    def test_empty_validation_block_rejected(self, monkeypatch):
        """Two folds over two graphs per class leave no graph for validation.
        The split is refused before the dataset-wide precompute, so never
        inside a pool worker."""
        def unreachable(*args):
            raise AssertionError("precompute ran")
        monkeypatch.setattr(training, "precompute_sp_tensors", unreachable)
        dataset = build_toy_dataset(n_graphs=4)
        assert [len(v) for _, v, _ in stratified_folds(dataset, 2, seed=0)] == [0, 0]
        config = dataclasses.replace(TOY_CONFIG, epochs=1)
        for jobs in (1, 2):
            with pytest.raises(ConfigError, match="empty validation or test block"):
                run_experiment(dataset, config, folds=2, repeats=1, jobs=jobs)

    def test_zero_repeats_rejected_before_precompute(self, toy_dataset, monkeypatch):
        def unreachable(*args):
            raise AssertionError("precompute ran")
        monkeypatch.setattr(training, "precompute_sp_tensors", unreachable)
        with pytest.raises(ConfigError, match="repeat"):
            run_experiment(toy_dataset, TOY_CONFIG, folds=2, repeats=0)

    def test_zero_jobs_rejected_before_precompute(self, toy_dataset, monkeypatch):
        def unreachable(*args):
            raise AssertionError("precompute ran")
        monkeypatch.setattr(training, "precompute_sp_tensors", unreachable)
        with pytest.raises(ConfigError, match="job"):
            run_experiment(toy_dataset, TOY_CONFIG, folds=2, repeats=1, jobs=0)

    @pytest.mark.parametrize("key, value", [("folds", 3.0), ("repeats", 1.0),
                                            ("jobs", 2.0), ("jobs", True)])
    def test_count_not_int_rejected(self, toy_dataset, key, value):
        counts = {"folds": 3, "repeats": 1, "jobs": 1, key: value}
        with pytest.raises(ConfigError, match=key):
            run_experiment(toy_dataset, TOY_CONFIG, **counts)

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_parallel_matches_sequential_under_start_method(self, method, monkeypatch):
        """Workers that import the package afresh (spawn, and forkserver,
        the Linux default from Python 3.14) give the sequential reports."""
        dataset = distance_task(0, n_graphs=60)
        config = ModelConfig(r=2, epochs=2, batch_size=16, learning_rate=1e-3)
        seq = run_experiment(dataset, config, folds=3, repeats=1, jobs=1)
        monkeypatch.setattr(training, "ProcessPoolExecutor", functools.partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context(method)))
        par = run_experiment(dataset, config, folds=3, repeats=1, jobs=2)
        for a, b in zip(seq.fold_reports, par.fold_reports, strict=True):
            assert (a.train_losses, a.val_losses, a.best_epoch, a.test_accuracy) == \
                   (b.train_losses, b.val_losses, b.best_epoch, b.test_accuracy)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflows on purpose
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_every_fold_failed_raises(self, toy_dataset, jobs):
        config = dataclasses.replace(TOY_CONFIG, epochs=3, learning_rate=1e200)
        with pytest.raises(NumericalError, match="every fold failed"):
            run_experiment(toy_dataset, config, folds=2, repeats=1, jobs=jobs)

    def test_parallel_matches_sequential(self, toy_dataset):
        config = dataclasses.replace(TOY_CONFIG, epochs=2)
        seq = run_experiment(toy_dataset, config, folds=2, repeats=1, jobs=1)
        par = run_experiment(toy_dataset, config, folds=2, repeats=1, jobs=2)
        assert [fr.test_accuracy for fr in seq.fold_reports] == \
               [fr.test_accuracy for fr in par.fold_reports]
        assert [fr.best_epoch for fr in seq.fold_reports] == \
               [fr.best_epoch for fr in par.fold_reports]


def _report_with(accuracies):
    fold_reports = [
        FoldReport(fold_id=i, repeat_id=0, test_accuracy=a, best_epoch=1,
                   wall_time_seconds=0.125 * (i + 1))
        for i, a in enumerate(accuracies)
    ]
    mean, std = training.aggregate_accuracy(fold_reports)
    return ExperimentReport(dataset="TOY", config=TOY_CONFIG, folds=len(accuracies),
                            repeats=1, fold_reports=fold_reports,
                            mean_accuracy=mean, std_accuracy=std)


class TestEmitReport:
    def test_summary_percent_format(self, tmp_path):
        report = _report_with([0.8, 0.9])
        _, summary_path = emit_report(report, tmp_path)
        text = summary_path.read_text()
        assert "accuracy: 85.00 ± 5.00" in text

    def test_empty_report_refused(self, tmp_path):
        report = _report_with([0.5])
        report.fold_reports.clear()
        with pytest.raises(ConfigError, match="no folds"):
            emit_report(report, tmp_path)

    def test_csv_round_trip_exact(self, tmp_path):
        accuracies = [2.0 / 3.0, 0.9, 0.12345678901234567]
        report = _report_with(accuracies)
        csv_path, _ = emit_report(report, tmp_path)
        with csv_path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        for row, fr in zip(rows, report.fold_reports):
            assert float(row["accuracy"]) == fr.test_accuracy
            assert int(row["best_epoch"]) == fr.best_epoch
            assert float(row["seconds"]) == fr.wall_time_seconds
            assert row["dataset"] == "TOY"
            assert row["mode"] == "parametric"
            assert int(row["r"]) == 2

    def test_failed_fold_error_in_csv(self, tmp_path):
        report = _report_with([0.5, 0.75])
        report.fold_reports[1] = FoldReport(fold_id=1, repeat_id=0,
                                            test_accuracy=float("nan"), best_epoch=0,
                                            error="non-finite loss on graph 3")
        csv_path, _ = emit_report(report, tmp_path)
        with csv_path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert [row["error"] for row in rows] == ["", "non-finite loss on graph 3"]
        assert math.isnan(float(rows[1]["accuracy"]))

    def test_aggregate_recomputable_from_csv(self, tmp_path, toy_dataset):
        config = dataclasses.replace(TOY_CONFIG, epochs=2)
        report = run_experiment(toy_dataset, config, folds=2, repeats=2)
        csv_path, _ = emit_report(report, tmp_path)
        with csv_path.open() as fh:
            accs = np.array([float(row["accuracy"]) for row in csv.DictReader(fh)])
        assert abs(accs.mean() - report.mean_accuracy) < 1e-12
        assert abs(accs.std() - report.std_accuracy) < 1e-12

    def test_deterministic_output(self, tmp_path):
        report = _report_with([0.5, 0.75])
        p1, s1 = emit_report(report, tmp_path / "a")
        p2, s2 = emit_report(report, tmp_path / "b")
        assert p1.read_text() == p2.read_text()
        assert s1.read_text() == s2.read_text()
