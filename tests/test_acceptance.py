"""Acceptance suite: one test per criterion, one PASS line per criterion.

The benchmark-data criteria (MUTAG, PTC, dataset statistics) run whenever
the dataset files are available under ``data/`` or ``PATHCONV_DATA_DIR``
and skip otherwise; everything else runs unconditionally.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import os
import time

import numpy as np
import pytest

from pathconv import (
    ModelConfig,
    compute_sp_tensor,
    load_tu_dataset,
    model_forward,
    run_experiment,
)
from pathconv.cli import main as cli_main
from pathconv.gradcheck import run_all
from pathconv.model import Model

from conftest import require_benchmark
from oracles import floyd_warshall_distances, normalized_from_distances, random_graph
from test_model import build, permute_graph

JOBS = max(1, min(4, os.cpu_count() or 1))
CV = dict(folds=10, repeats=3)


def _passed(name: str, detail: str) -> None:
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def _load_benchmark(*names: str):
    root, name = require_benchmark(*names)
    return load_tu_dataset(root, name)


@pytest.fixture(scope="session")
def mutag_runs():
    dataset = _load_benchmark("MUTAG")
    start = time.perf_counter()
    parametric = run_experiment(dataset, ModelConfig(r=2, mode="parametric"),
                                jobs=JOBS, **CV)
    elapsed = time.perf_counter() - start
    baseline = run_experiment(dataset, ModelConfig(r=2, mode="dgcnn_baseline"),
                              jobs=JOBS, **CV)
    return parametric, baseline, elapsed


@pytest.fixture(scope="session")
def ptc_runs():
    dataset = _load_benchmark("PTC", "PTC_MR")
    start = time.perf_counter()
    parametric = run_experiment(dataset, ModelConfig(r=2, mode="parametric"),
                                jobs=JOBS, **CV)
    elapsed = time.perf_counter() - start
    baseline = run_experiment(dataset, ModelConfig(r=2, mode="dgcnn_baseline"),
                              jobs=JOBS, **CV)
    return parametric, baseline, elapsed


class TestMutagReproduction:
    def test_mean_accuracy_and_runtime(self, mutag_runs):
        parametric, _, elapsed = mutag_runs
        assert parametric.mean_accuracy >= 0.82, (
            f"MUTAG parametric accuracy {parametric.mean_accuracy:.4f} < 0.82"
        )
        assert elapsed <= 15 * 60, f"MUTAG run took {elapsed:.0f}s > 15 minutes"
        _passed("mutag-reproduction",
                f"accuracy {parametric.mean_accuracy * 100:.2f}% in {elapsed:.0f}s")


class TestBaselineOrdering:
    def test_parametric_not_worse_on_mutag(self, mutag_runs):
        parametric, baseline, _ = mutag_runs
        assert parametric.mean_accuracy >= baseline.mean_accuracy - 0.005
        _passed("baseline-ordering-mutag",
                f"parametric {parametric.mean_accuracy * 100:.2f}% vs "
                f"baseline {baseline.mean_accuracy * 100:.2f}%")

    def test_parametric_not_worse_on_ptc(self, ptc_runs):
        parametric, baseline, _ = ptc_runs
        assert parametric.mean_accuracy >= baseline.mean_accuracy - 0.005
        _passed("baseline-ordering-ptc",
                f"parametric {parametric.mean_accuracy * 100:.2f}% vs "
                f"baseline {baseline.mean_accuracy * 100:.2f}%")


class TestPtcReproduction:
    def test_mean_accuracy_and_runtime(self, ptc_runs):
        parametric, _, elapsed = ptc_runs
        assert parametric.mean_accuracy >= 0.55, (
            f"PTC parametric accuracy {parametric.mean_accuracy:.4f} < 0.55"
        )
        assert elapsed <= 30 * 60, f"PTC run took {elapsed:.0f}s > 30 minutes"
        _passed("ptc-reproduction",
                f"accuracy {parametric.mean_accuracy * 100:.2f}% in {elapsed:.0f}s")


TABLE_STATS = [
    # dataset name candidates, graphs, max nodes, avg nodes
    (("MUTAG",), 188, 28, 17.93),
    (("PTC", "PTC_MR"), 344, 109, 25.56),
    (("NCI1",), 4110, 111, 29.87),
    (("PROTEINS",), 1113, 620, 39.06),
    (("DD", "D&D"), 1178, 5748, 284.32),
    (("COLLAB",), 5000, 492, 74.49),
    (("IMDB-B", "IMDB-BINARY"), 1000, 136, 19.77),
    (("IMDB-M", "IMDB-MULTI"), 1500, 89, 13.00),
]


class TestDatasetStatistics:
    @pytest.mark.parametrize("names,graphs,max_nodes,avg_nodes", TABLE_STATS,
                             ids=[t[0][0] for t in TABLE_STATS])
    def test_inspect_dataset_matches_table(self, names, graphs, max_nodes,
                                           avg_nodes, capsys):
        root, name = require_benchmark(*names)
        assert cli_main(["inspect-dataset", "--dataset", name,
                         "--data-dir", str(root)]) == 0
        out = capsys.readouterr().out
        fields = dict(line.split(": ") for line in out.strip().splitlines())
        assert int(fields["graphs"]) == graphs
        assert int(fields["nodes (max)"]) == max_nodes
        assert abs(float(fields["nodes (avg)"]) - avg_nodes) <= 0.01
        _passed(f"dataset-statistics[{name}]",
                f"{graphs} graphs, max {max_nodes}, avg {avg_nodes}")


def test_shortest_path_oracle():
    """200 random graphs: sparse-product tensors equal Floyd-Warshall, < 10s."""
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    for trial in range(200):
        n = int(rng.integers(1, 21))
        p = (0.1, 0.3, 0.6)[trial % 3]
        r = int(rng.integers(0, 5))
        g = random_graph(rng, n=n, edge_prob=p)
        sp = compute_sp_tensor(g, r)
        dist = floyd_warshall_distances(n, g.edges)
        for j in range(r + 1):
            assert np.array_equal(sp.mats[j].toarray(),
                                  normalized_from_distances(dist, j)), (trial, j)
    elapsed = time.perf_counter() - start
    assert elapsed <= 10.0, f"oracle comparison took {elapsed:.1f}s > 10s"
    _passed("shortest-path-oracle", f"200 graphs in {elapsed:.1f}s")


def test_gradient_suite():
    """Every layer and the composed model beat 1e-5 within 60 seconds."""
    start = time.perf_counter()
    results = run_all()
    elapsed = time.perf_counter() - start
    worst = max(results, key=lambda res: res.rel_error)
    for res in results:
        assert res.rel_error < 1e-5, f"{res.name}: rel_err={res.rel_error:.3e}"
        assert res.passed, f"{res.name} exceeded its own tolerance"
    assert elapsed <= 60.0, f"gradient suite took {elapsed:.1f}s > 60s"
    _passed("gradient-suite",
            f"{len(results)} checks, worst {worst.rel_error:.2e} "
            f"({worst.name}), {elapsed:.1f}s")


def test_permutation_invariance():
    """50 relabeled graphs with distinct sort keys agree within 1e-10."""
    rng = np.random.default_rng(77)
    model = build(seed=23)
    checked = 0
    attempts = 0
    worst = 0.0
    while checked < 50:
        attempts += 1
        assert attempts < 1000, "could not find 50 graphs with distinct keys"
        n = int(rng.integers(4, 16))
        g = random_graph(rng, n=n, edge_prob=0.35)
        sp = compute_sp_tensor(g, model.config.r)
        keys = np.sort(np.hstack(model.conv_activations(sp, g.features))[:, -1])
        if n > 1 and np.diff(keys).min() < 1e-8:
            continue  # verified-distinct-keys precondition
        perm = rng.permutation(n)
        pg = permute_graph(g, perm)
        psp = compute_sp_tensor(pg, model.config.r)
        delta = np.abs(model_forward(g, sp, model) - model_forward(pg, psp, model))
        assert np.all(delta < 1e-10), (n, delta.max())
        worst = max(worst, float(delta.max()))
        checked += 1
    _passed("permutation-invariance", f"50 graphs, worst delta {worst:.2e}")


def test_receptive_field_locality():
    """sp(u, v) > l*r leaves layer-l rows of v bitwise unchanged, r <= 3."""
    rng = np.random.default_rng(99)
    pairs_checked = 0
    for r in range(4):
        for trial in range(8):
            n = int(rng.integers(8, 16))
            g = random_graph(rng, n=n, edge_prob=0.15)
            model = build(r=r, conv_layers=3, seed=3)
            sp = compute_sp_tensor(g, r)
            dist = floyd_warshall_distances(n, g.edges)
            u = int(rng.integers(n))
            x2 = g.features.copy()
            x2[u] += rng.normal(size=x2.shape[1])
            base = model.conv_activations(sp, g.features)
            bumped = model.conv_activations(sp, x2)
            for layer_index, (a, b) in enumerate(zip(base, bumped), start=1):
                for v in range(n):
                    if dist[u, v] > layer_index * r:
                        assert np.array_equal(a[v], b[v]), (r, layer_index, u, v)
                        pairs_checked += 1
    assert pairs_checked > 500
    _passed("receptive-field-locality", f"{pairs_checked} distant pairs bitwise equal")
