"""Command-line interface: commands, outputs, exit codes."""

import logging

import numpy as np
import pytest

from pathconv import ModelConfig, NumericalError, save_tu_dataset
from pathconv import cli
from pathconv.cli import main

from conftest import build_toy_dataset


@pytest.fixture(scope="module")
def toy_tu_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("toy_tu")
    save_tu_dataset(build_toy_dataset(), directory)
    return directory


class TestInspectDataset:
    def test_prints_statistics(self, toy_tu_dir, capsys):
        code = main(["inspect-dataset", "--dataset", "TOY",
                     "--data-dir", str(toy_tu_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "graphs: 20" in out
        assert "classes: 2" in out
        assert "nodes (max): 16" in out

    def test_missing_dataset_exits_2(self, tmp_path, capsys):
        code = main(["inspect-dataset", "--dataset", "NOPE",
                     "--data-dir", str(tmp_path)])
        assert code == 2
        assert "NOPE_A.txt" in capsys.readouterr().err

    def test_undecodable_file_exits_2(self, tmp_path, capsys):
        save_tu_dataset(build_toy_dataset(), tmp_path)
        with (tmp_path / "TOY_A.txt").open("ab") as fh:
            fh.write(b"\xff\xfe\n")
        code = main(["inspect-dataset", "--dataset", "TOY",
                     "--data-dir", str(tmp_path)])
        assert code == 2
        assert "TOY_A.txt" in capsys.readouterr().err


class TestTrain:
    def test_flag_defaults_are_model_config_defaults(self, tmp_path, monkeypatch):
        """A minimal command builds ``ModelConfig()``: every flag that sets
        a config field takes its default from the config."""
        class Built(Exception):
            pass

        def capture(dataset, config, **kwargs):
            raise Built(config)

        monkeypatch.setattr(cli, "_load", lambda args: None)
        monkeypatch.setattr(cli, "run_experiment", capture)
        with pytest.raises(Built) as built:
            main(["train", "--dataset", "X", "--data-dir", str(tmp_path),
                  "--out", str(tmp_path / "run")])
        assert built.value.args[0] == ModelConfig()

    def test_writes_report_files(self, toy_tu_dir, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code = main(["train", "--dataset", "TOY", "--data-dir", str(toy_tu_dir),
                     "--mode", "parametric", "--r", "1", "--folds", "3",
                     "--repeats", "1", "--epochs", "2", "--k", "10",
                     "--seed", "7", "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "folds.csv").exists()
        assert (out_dir / "summary.txt").exists()
        captured = capsys.readouterr().out
        assert "accuracy:" in captured
        lines = (out_dir / "folds.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 3  # header + one row per fold

    def test_dgcnn_mode(self, toy_tu_dir, tmp_path):
        out_dir = tmp_path / "run"
        code = main(["train", "--dataset", "TOY", "--data-dir", str(toy_tu_dir),
                     "--mode", "dgcnn_baseline", "--folds", "3", "--repeats", "1",
                     "--epochs", "1", "--k", "10", "--out", str(out_dir)])
        assert code == 0
        assert "dgcnn_baseline" in (out_dir / "folds.csv").read_text()

    def test_bad_k_exits_1(self, toy_tu_dir, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--dataset", "TOY", "--data-dir", str(toy_tu_dir),
                  "--folds", "3", "--repeats", "1", "--epochs", "1",
                  "--k", "many", "--out", str(tmp_path / "x")])
        assert exc.value.code == 1
        assert "argument --k: invalid int_or_auto value: 'many'" in capsys.readouterr().err

    def test_too_few_folds_exits_1(self, toy_tu_dir, tmp_path):
        code = main(["train", "--dataset", "TOY", "--data-dir", str(toy_tu_dir),
                     "--folds", "1", "--repeats", "1", "--epochs", "1",
                     "--k", "10", "--out", str(tmp_path / "x")])
        assert code == 1

    def test_empty_validation_block_exits_1(self, tmp_path, capsys):
        save_tu_dataset(build_toy_dataset(n_graphs=4), tmp_path)
        code = main(["train", "--dataset", "TOY", "--data-dir", str(tmp_path),
                     "--folds", "2", "--repeats", "1", "--epochs", "1",
                     "--k", "10", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "configuration error" in capsys.readouterr().err

    def test_zero_repeats_exits_1(self, toy_tu_dir, tmp_path, capsys):
        code = main(["train", "--dataset", "TOY", "--data-dir", str(toy_tu_dir),
                     "--folds", "3", "--repeats", "0", "--epochs", "1",
                     "--k", "10", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "repeat" in capsys.readouterr().err

    def test_zero_jobs_exits_1(self, toy_tu_dir, tmp_path, capsys):
        code = main(["train", "--dataset", "TOY", "--data-dir", str(toy_tu_dir),
                     "--folds", "3", "--repeats", "1", "--epochs", "1",
                     "--k", "10", "--jobs", "0", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "job" in capsys.readouterr().err

    def test_negative_r_exits_1(self, toy_tu_dir, tmp_path):
        code = main(["train", "--dataset", "TOY", "--data-dir", str(toy_tu_dir),
                     "--r", "-1", "--folds", "3", "--repeats", "1",
                     "--epochs", "1", "--k", "10", "--out", str(tmp_path / "x")])
        assert code == 1

    def test_usage_error_exits_1(self, toy_tu_dir, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--dataset", "TOY", "--data-dir", str(toy_tu_dir),
                  "--r", "abc", "--out", str(tmp_path / "x")])
        assert exc.value.code == 1
        assert "--r" in capsys.readouterr().err

    def test_bad_config_exits_1_before_reading_data(self, tmp_path, capsys):
        code = main(["train", "--dataset", "GONE", "--data-dir", str(tmp_path),
                     "--r", "-1", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "configuration error: need r >= 0, got r=-1" in capsys.readouterr().err

    def test_negative_seed_exits_1_before_reading_data(self, tmp_path, capsys):
        code = main(["train", "--dataset", "GONE", "--data-dir", str(tmp_path / "missing"),
                     "--seed", "-1", "--out", str(tmp_path / "x")])
        assert code == 1
        assert ("configuration error: need seed >= 0, got seed=-1"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("option, value", [
        ("--folds", "1"), ("--repeats", "0"), ("--jobs", "0"),
    ])
    def test_bad_count_exits_1_before_reading_data(self, tmp_path, capsys, option, value):
        code = main(["train", "--dataset", "GONE", "--data-dir", str(tmp_path / "missing"),
                     option, value, "--out", str(tmp_path / "x")])
        assert code == 1
        assert f"configuration error: need {option[2:]} >= " in capsys.readouterr().err

    def test_out_below_a_file_exits_2_before_training(self, toy_tu_dir, tmp_path,
                                                       capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("trained although --out cannot be made")

        monkeypatch.setattr("pathconv.cli.run_experiment", fail)
        (tmp_path / "file").write_text("")
        code = main(["train", "--dataset", "TOY", "--data-dir", str(toy_tu_dir),
                     "--folds", "3", "--repeats", "1", "--epochs", "1",
                     "--out", str(tmp_path / "file" / "run")])
        assert code == 2
        assert "i/o error" in capsys.readouterr().err

    def test_dataset_without_node_labels_trains_on_degrees(self, tmp_path, caplog):
        save_tu_dataset(build_toy_dataset(), tmp_path)
        (tmp_path / "TOY_node_labels.txt").unlink()
        with caplog.at_level(logging.INFO, logger="pathconv.cli"):
            code = main(["-v", "train", "--dataset", "TOY", "--data-dir", str(tmp_path),
                         "--folds", "3", "--repeats", "1", "--epochs", "1",
                         "--k", "10", "--out", str(tmp_path / "run")])
        assert code == 0
        assert "TOY: encoding node degrees as features" in caplog.messages

    def test_numerical_error_exits_3(self, toy_tu_dir, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise NumericalError("non-finite loss in fold 1")

        monkeypatch.setattr("pathconv.cli.run_experiment", fail)
        code = main(["train", "--dataset", "TOY", "--data-dir", str(toy_tu_dir),
                     "--folds", "3", "--repeats", "1", "--epochs", "1",
                     "--k", "10", "--out", str(tmp_path / "x")])
        assert code == 3
        assert "numerical failure: non-finite loss in fold 1" in capsys.readouterr().err

    def test_missing_data_exits_2(self, tmp_path):
        code = main(["train", "--dataset", "GONE", "--data-dir", str(tmp_path),
                     "--folds", "3", "--repeats", "1", "--epochs", "1",
                     "--k", "10", "--out", str(tmp_path / "x")])
        assert code == 2


def test_gradcheck_passes(capsys):
    code = main(["gradcheck"])
    out = capsys.readouterr().out
    assert code == 0
    assert "OK" in out
    assert "FAIL " not in out


def test_gradcheck_detects_broken_gradient(monkeypatch, capsys):
    import pathconv.gradcheck as gc

    def broken():
        return [gc.CheckResult("synthetic", rel_error=1.0, tolerance=1e-6)]

    monkeypatch.setattr(gc, "run_all", broken)
    monkeypatch.setattr("pathconv.cli.main_report",
                        lambda out=print: gc.main_report(out))
    code = main(["gradcheck"])
    assert code == 3
    assert "FAIL" in capsys.readouterr().out
