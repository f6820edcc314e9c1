"""Fold training, nested cross-validation, and report emission."""

import csv
import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from pathconv import (
    ConfigError,
    ExperimentReport,
    FoldReport,
    ModelConfig,
    NumericalError,
    compute_sp_tensor,
    emit_report,
    run_experiment,
    stratified_folds,
    train_one_fold,
)
import pathconv.training as training

from oracles import path_graph

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
        # Count the graphs stacked into passes, per call of the training
        # and evaluation functions.
        calls = []  # (function name, passes per graph index)

        def track(name):
            real = getattr(training, name)

            def wrapper(*args, **kwargs):
                calls.append((name, Counter()))
                return real(*args, **kwargs)
            monkeypatch.setattr(training, name, wrapper)

        track("accumulate_gradients")
        track("_evaluate")
        real_stack = training._stack

        def stack(dataset, sps, indices):
            calls[-1][1].update(int(i) for i in indices)
            return real_stack(dataset, sps, indices)
        monkeypatch.setattr(training, "_stack", stack)
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

    def test_sps_below_distance_cutoff_rejected(self, toy_dataset):
        split = toy_splits(toy_dataset)[0]
        sps = training.precompute_sp_tensors(toy_dataset, 1)
        with pytest.raises(ConfigError, match="stop short of distance 2"):
            train_one_fold(toy_dataset, split, TOY_CONFIG, sps=sps)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflows on purpose
    def test_exploding_update_raises_numerical_error(self, toy_dataset):
        split = toy_splits(toy_dataset)[0]
        config = dataclasses.replace(TOY_CONFIG, epochs=3, learning_rate=1e200)
        with pytest.raises(NumericalError):
            train_one_fold(toy_dataset, split, config)


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
