"""Training benchmark for pathconv: end-to-end and per-layer metrics on
seeded synthetic datasets shaped like MUTAG, DD and IMDB-BINARY.

Run from the root of a repository checkout:

    python3 perfbench/run.py --workload mutag-fold --seed 1 --seconds 30 --trace 0

One run generates its dataset from ``--seed``, writes it with
``save_tu_dataset`` and then drives the package only through its public
API: ``load_tu_dataset``, ``encode_degree_features``,
``precompute_sp_tensors``, ``stratified_folds``, ``train_one_fold``,
``run_experiment`` and ``model_forward``.  Every workload is a closed
loop from this single client process: the next training call starts
when the previous one returns.

Before any timing, a correctness gate requires the finite-difference
gradient suite to pass and a warm-up fold to train with finite losses;
a gate failure exits with code 3 and prints no result.  After timing,
every training loss must be finite and every ``model_forward`` output a
probability vector summing to 1 within 1e-12, or the result says
``"correct": false`` and the run exits with code 3.  Failed folds are
counted in ``failed`` against ``attempted`` (fold trainings attempted).

Timings are reported at a fixed reference CPU speed.  On a shared host
the CPU speed drifts by tens of percent within a minute, more than the
metric bounds allow, so after every work unit the run times a fixed
reference probe (an interpreter loop plus small numpy calls), and each
timing median is multiplied by ``REF_PROBE_S`` over the median probe
time of the run.  The unscaled wall-clock samples, and the probe times,
are summarized on the ``# raw_samples`` line and in the result file.

``--trace 0`` prints the end-to-end metrics (``BENCHMARK.json``).
``--trace 1`` measures half the time untraced and half with spans around
the package's functions and layer methods (``spans.py``), and prints
the per-layer metrics plus the tracing overhead.

The benchmark leaves the BLAS thread variables as it finds them, and
records them.  The last line of standard output is the JSON result;
earlier lines describe the environment, the generated dataset and every
metric with its unit.  Generated files go to ``perfbench/_work/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

if not (SRC / "pathconv" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: package source not found at {SRC}; "
                     "run from the root of a repository checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import pathconv  # noqa: E402
from pathconv import gradcheck, training  # noqa: E402
from pathconv.errors import NumericalError  # noqa: E402

import synth  # noqa: E402
from spans import Tracer, last_column_tied  # noqa: E402

R = 2               # shortest-path cutoff for every workload
SETUP_REPEATS = 3   # setup_s is the median over this many full set-ups
TRAIN_SHARE = 0.75  # share of --seconds spent training; the rest is inference
PROB_TOL = 1e-12
REF_PROBE_S = 0.004  # reference speed: the speed at which reference_probe takes this long
CHUNK_NODES = 2000   # inference is timed and probed in chunks of about this many nodes


class GateError(Exception):
    """The program produced an output the benchmark cannot accept."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable[[int], pathconv.Dataset]
    table: tuple[str, int, int, float]  # TABLE_STATS row: name, graphs, max, avg
    mode: str
    epochs: int
    folds: int
    driver: str            # "fold": sequential train_one_fold; "cv": run_experiment
    min_calls: int         # training calls made even if --seconds is exceeded
    degree_features: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("mutag-fold",
             "188 MUTAG-shaped molecules, sequential train_one_fold: per-graph Python "
             "loop and scipy sparse dispatch outweigh the arithmetic",
             synth.mutag_like, ("MUTAG", 188, 28, 17.93), "parametric",
             epochs=4, folds=10, driver="fold", min_calls=3),
    Workload("dd-fold",
             "100 DD-shaped protein graphs up to 5748 nodes, sequential train_one_fold: "
             "DistanceConv SpMM/GEMM and Conv1D on a large k dominate",
             synth.dd_like, ("DD", 1178, 5748, 284.32),
             "parametric", epochs=2, folds=10, driver="fold", min_calls=3),
    Workload("imdb-cv",
             "1000 IMDB-B-shaped ego networks, degree one-hot, dgcnn_baseline via "
             "run_experiment(jobs=nproc): JointConv, SortPool ties, precompute, pool",
             synth.imdb_like, ("IMDB-BINARY", 1000, 136, 19.77), "dgcnn_baseline",
             epochs=1, folds=10, driver="cv", min_calls=1, degree_features=True),
)}


# ------------------------------------------------------------ environment

def _openblas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it is one."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None  # not a git checkout; src_sha256 identifies the code
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "pathconv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "pathconv": pathconv.__version__,
        "git_commit": _git_commit(), "src_sha256": digest.hexdigest()[:16],
    }


# ------------------------------------------------------------------ checks

def check_probabilities(probs: np.ndarray, num_classes: int) -> None:
    """Rows of ``probs`` must be finite, non-negative and sum to 1."""
    if probs.ndim != 2 or probs.shape[1] != num_classes:
        raise GateError(f"model_forward returned shape {probs.shape[1:]}, "
                        f"expected ({num_classes},)")
    if not np.all(np.isfinite(probs)) or np.any(probs < 0):
        raise GateError("model_forward returned a non-finite or negative probability")
    worst = float(np.abs(probs.sum(axis=1) - 1.0).max())
    if worst > PROB_TOL:
        raise GateError(f"model_forward probabilities sum to 1 only within {worst:.3e}")


def check_fold(report: pathconv.FoldReport, epochs: int) -> None:
    if report.error is not None:
        return  # a failed fold is counted, not hidden
    losses = report.train_losses
    if len(losses) != epochs or not all(math.isfinite(x) for x in losses):
        raise GateError(f"fold {report.fold_id}: training losses {losses} are not "
                        f"{epochs} finite values")
    if not 0.0 <= report.test_accuracy <= 1.0:
        raise GateError(f"fold {report.fold_id}: accuracy {report.test_accuracy}")


def gradient_gate() -> None:
    failed = [r.name for r in gradcheck.run_all() if not r.passed]
    if failed:
        raise GateError(f"gradient checks failed: {', '.join(failed)}")


# ------------------------------------------------------------------- phases

def write_dataset(w: Workload, seed: int) -> Path:
    """Generate the workload's dataset and write it in the benchmark layout."""
    dataset = w.make(seed)
    directory = WORK / f"{w.name}-{seed}"
    shutil.rmtree(directory, ignore_errors=True)
    pathconv.save_tu_dataset(dataset, directory)
    if w.degree_features:  # like IMDB: no node-label file at all
        (directory / f"{dataset.name}_node_labels.txt").unlink()
    return directory


def set_up(w: Workload, directory: Path, seed: int, call=lambda name, fn, *a: fn(*a)):
    """Load, featurize, precompute and split: everything before the first epoch."""
    dataset = call("data.load_tu_dataset", pathconv.load_tu_dataset, directory,
                   w.table[0])
    if w.degree_features:
        dataset = call("data.encode_degree_features", pathconv.encode_degree_features,
                       dataset)
    sps = call("training.precompute_sp_tensors", pathconv.precompute_sp_tensors,
               dataset, R)
    splits = call("data.stratified_folds", pathconv.stratified_folds, dataset,
                  w.folds, seed)
    return dataset, sps, splits


_PROBE_ARRAY = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64)


def reference_probe() -> float:
    """Seconds for a fixed mix of interpreter work and small numpy calls,
    the two kinds of work the program spends its time on."""
    t0 = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i
    for _ in range(150):
        np.tanh(_PROBE_ARRAY).sum()
    return time.perf_counter() - t0


@dataclass
class Samples:
    """Wall-clock timings of one run, plus reference probe times taken
    between work units (see ``scale``).  Only ``rates`` is already scaled
    to the reference speed, chunk by chunk (see ``inference_pass``); its
    probes are not in ``probes``, which sample the run as a whole."""

    setup_times: list[float] = field(default_factory=list)
    epoch_s: list[float] = field(default_factory=list)      # per fold: wall / epochs
    call_walls: list[float] = field(default_factory=list)   # per training call
    rates: list[float] = field(default_factory=list)        # graphs/s per pass, scaled
    raw_rates: list[float] = field(default_factory=list)    # graphs/s per pass
    probes: list[float] = field(default_factory=list)       # reference_probe seconds
    efficiency: list[float] = field(default_factory=list)   # fold time / (jobs * wall)
    first_losses: list[float] = field(default_factory=list)  # first min_calls calls
    outputs: list[np.ndarray] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def scale(self) -> float:
        """Run speed relative to the reference: median probe time over
        REF_PROBE_S.  Timing medians are divided by it."""
        return median(self.probes) / REF_PROBE_S


def training_call(w: Workload, config, dataset, sps, splits, jobs: int,
                  out: Samples) -> tuple[list[float], float]:
    """One ``run_experiment`` (cv) or one ``train_one_fold`` (fold); fold
    workloads walk the folds of one split in order.  Returns the raw
    seconds per epoch of each completed fold and the call's wall time."""
    calls = len(out.call_walls)
    t0 = time.perf_counter()
    if w.driver == "cv":
        try:
            reports = training.run_experiment(dataset, config, folds=w.folds,
                                              repeats=1, jobs=jobs).fold_reports
        except NumericalError:  # raised only when every fold failed
            reports = [pathconv.FoldReport(f, 0, math.nan, 0, error="failed")
                       for f in range(w.folds)]
    else:
        fold = calls % len(splits)
        try:
            reports = [training.train_one_fold(dataset, splits[fold], config,
                                               fold_id=fold, sps=sps)]
        except NumericalError as exc:
            reports = [pathconv.FoldReport(fold, 0, math.nan, 0, error=str(exc))]
    wall = time.perf_counter() - t0
    done = [r for r in reports if r.error is None]
    for r in reports:
        check_fold(r, config.epochs)
    out.attempted += len(reports)
    out.failed += len(reports) - len(done)
    out.efficiency.append(sum(r.wall_time_seconds for r in done) / (jobs * wall))
    if calls < w.min_calls:
        out.first_losses += [r.train_losses[-1] for r in done]
    if w.driver == "cv":
        return [r.wall_time_seconds / config.epochs for r in done], wall
    return ([wall / config.epochs] if done else []), wall


def inference_pass(model, dataset, sps, out: Samples) -> None:
    """Eval-mode ``model_forward`` over every graph, in chunks of about
    CHUNK_NODES nodes with a reference probe between chunks.  Each chunk
    time is scaled by the probes around it, since the CPU speed changes
    within a pass.  The outputs are kept and checked after timing."""
    probs = []
    raw_s = scaled_s = 0.0
    nodes = 0
    before = reference_probe()
    t0 = time.perf_counter()
    for i, (g, sp) in enumerate(zip(dataset.graphs, sps)):
        probs.append(pathconv.model_forward(g, sp, model))
        nodes += g.node_count
        if nodes >= CHUNK_NODES or i == len(sps) - 1:
            dt = time.perf_counter() - t0
            after = reference_probe()
            raw_s += dt
            scaled_s += dt * 2 * REF_PROBE_S / (before + after)
            before, nodes = after, 0
            t0 = time.perf_counter()
    out.raw_rates.append(len(sps) / raw_s)
    out.rates.append(len(sps) / scaled_s)
    out.outputs.append(np.array(probs))


def measure(w: Workload, config, dataset, sps, splits, jobs: int, seconds: float,
            model=None, setup=None, out: Samples | None = None) -> Samples:
    """Spend ``seconds`` on training calls and, given ``model``, inference
    passes in a TRAIN_SHARE ratio, interleaved; given ``setup``, repeat the
    set-up at evenly spaced points until SETUP_REPEATS are timed.

    On a shared host the CPU speed drifts by tens of percent over seconds
    to minutes.  Interleaving lets every metric sample the whole window,
    and a reference probe after every work unit samples the speed the
    run had, so timings can be reported at one reference speed."""
    out = out or Samples()
    train_t = infer_t = 0.0
    while True:
        spent = train_t + infer_t
        if (spent >= seconds and len(out.call_walls) >= w.min_calls
                and (model is None or len(out.rates) >= 3)
                and (setup is None or len(out.setup_times) >= SETUP_REPEATS)):
            if not out.epoch_s:
                raise GateError(f"all {out.attempted} fold trainings failed")
            return out
        t0 = time.perf_counter()
        if (setup is not None and len(out.setup_times) < SETUP_REPEATS
                and spent >= seconds * len(out.setup_times) / SETUP_REPEATS):
            setup()
            out.setup_times.append(time.perf_counter() - t0)
        elif model is None or train_t * (1 - TRAIN_SHARE) <= infer_t * TRAIN_SHARE:
            epochs, wall = training_call(w, config, dataset, sps, splits, jobs, out)
            out.epoch_s += epochs
            out.call_walls.append(wall)
            train_t += time.perf_counter() - t0
        else:
            inference_pass(model, dataset, sps, out)
            infer_t += time.perf_counter() - t0
        out.probes.append(reference_probe())


def peak_rss_mb(pool_workers: int) -> float:
    """Peak RSS of this process plus, per pool worker, the largest peak of
    any finished child (the workers are alike: each holds every tensor)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + pool_workers * child) / 1024.0


def nnz_per_distance(sps) -> list[int]:
    return [int(sum(sp.mats[j].nnz for sp in sps)) for j in range(R + 1)]


def dataset_record(w: Workload, dataset, sps, model) -> dict:
    """Measured shape of the generated set next to its TABLE_STATS target."""
    summary = pathconv.dataset_summary(dataset)
    tied = sum(last_column_tied(model.conv_activations(sp, g.features)[-1])
               for g, sp in zip(dataset.graphs, sps))
    name, graphs, max_nodes, avg_nodes = w.table
    return {
        "target": {"name": name, "graphs": graphs, "max_nodes": max_nodes,
                   "avg_nodes": avg_nodes},
        "graphs": summary["num_graphs"], "max_nodes": summary["max_nodes"],
        "avg_nodes": round(summary["avg_nodes"], 4),
        "avg_edges": round(summary["avg_edges"], 4),
        "feature_dim": summary["feature_dim"],
        "nnz": {f"j{j}": nnz for j, nnz in enumerate(nnz_per_distance(sps))},
        "tied_share": round(tied / len(dataset.graphs), 4),
    }


def median(values) -> float:
    return float(statistics.median(values))


def spread(values) -> str:
    """Sample count, median and quartiles of one timing, for the log."""
    if len(values) < 2:
        return f"n={len(values)} median={median(values):.6g}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} median={q2:.6g} q1={q1:.6g} q3={q3:.6g}"


# ----------------------------------------------------------------- metrics

def end_to_end(w, samples: Samples, jobs: int) -> dict:
    """Timing medians at the reference speed, plus the unscaled metrics."""
    scale = samples.scale()
    cv_wall = median(samples.call_walls) / scale
    if w.driver == "fold":  # one sequential pass over the split's folds
        cv_wall *= w.folds
    return {
        "setup_s": (median(samples.setup_times) / scale, "s"),
        "epoch_s": (median(samples.epoch_s) / scale, "s"),
        "cv_wall_s": (cv_wall, "s"),
        "pool_efficiency": (median(samples.efficiency), "ratio"),
        "infer_graphs_per_s": (median(samples.rates), "1/s"),
        "peak_rss_mb": (peak_rss_mb(jobs if w.driver == "cv" and jobs > 1 else 0), "MB"),
        "train_loss_final": (statistics.fmean(samples.first_losses), "nats"),
    }


def per_layer(tracer: Tracer, dataset, sps, untraced: Samples, traced: Samples,
              setup_sp: tuple[int, int]) -> dict:
    visits = max(tracer.stats("model.forward")[0], 1)
    calls = len(traced.call_walls)

    def us_per_call(name, own=False):
        c, total, self_ns = tracer.stats(name)
        return (self_ns if own else total) / c / 1e3 if c else 0.0

    m = {"training.loop_self_us": (
        tracer.stats("training.train_one_fold")[2] / visits / 1e3, "us/visit")}
    for name in ("propagate", "propagate_transpose"):
        m[f"shortest_paths.{name}.calls"] = (
            tracer.stats(f"shortest_paths.{name}")[0] / visits, "calls/visit")
        m[f"shortest_paths.{name}.us"] = (us_per_call(f"shortest_paths.{name}"), "us")
    for layer in ("gconv0", "gconv1", "gconv2", "sortpool", "conv1", "pool", "conv2",
                  "dense1", "dense2"):
        m[f"layers.{layer}.fwd_us"] = (us_per_call(f"layers.{layer}.fwd"), "us")
        m[f"layers.{layer}.bwd_us"] = (us_per_call(f"layers.{layer}.bwd"), "us")
    m["layers.gconv.flops"] = (tracer.gconv_flops / visits, "flop/visit")
    m["layers.sortpool.tied_share"] = (
        tracer.sortpool_tied / max(tracer.sortpool_inputs, 1), "ratio")
    m["layers.adam.step_us"] = (us_per_call("layers.adam.step"), "us")
    for name in ("forward", "backward"):
        m[f"model.{name}.us"] = (us_per_call(f"model.{name}"), "us")
        m[f"model.{name}.self_us"] = (us_per_call(f"model.{name}", own=True), "us")
    # Per dataset graph, for one set-up plus one training call.
    sp_calls, sp_ns, _ = tracer.stats("shortest_paths.compute_sp_tensor")
    setup_calls, setup_ns = setup_sp
    m["shortest_paths.compute_sp_tensor.calls"] = (
        (setup_calls + (sp_calls - setup_calls) / calls) / len(dataset.graphs),
        "calls/graph")
    m["shortest_paths.compute_sp_tensor.s"] = (
        (setup_ns + (sp_ns - setup_ns) / calls) / 1e9, "s")
    for j, nnz in enumerate(nnz_per_distance(sps)):
        m[f"shortest_paths.nnz.j{j}"] = (nnz, "count")
    m["data.load_tu_dataset.s"] = (tracer.stats("data.load_tu_dataset")[1] / 1e9, "s")
    m["data.stratified_folds.s"] = (us_per_call("data.stratified_folds") / 1e6, "s")
    m["tracing.overhead_epoch_s"] = (median(traced.epoch_s) / traced.scale()
                                     - median(untraced.epoch_s) / untraced.scale(), "s")
    return m


def trace_summary(tracer: Tracer, untraced: Samples, traced: Samples,
                  epochs: int) -> dict:
    """Shares of train_one_fold time, and the untraced time per graph visit
    (a forward pass, with or without backward), for comparison with hand
    measurements."""
    fold_ns = tracer.stats("training.train_one_fold")[1]
    visits_per_epoch = tracer.stats("model.forward")[0] / (len(traced.epoch_s) * epochs)

    def share(keep):
        return sum(t for n, t in zip(tracer.names, tracer.total_ns) if keep(n)) / fold_ns
    return {
        "graph_conv": share(lambda n: n.startswith("layers.gconv")),
        "graph_conv_backward": share(lambda n: n.startswith("layers.gconv")
                                     and n.endswith(".bwd")),
        "sparse_dispatch": share(lambda n: n.startswith("shortest_paths.propagate")),
        "conv1d": share(lambda n: n.startswith(("layers.conv1.", "layers.conv2."))),
        "untraced_us_per_visit": median(untraced.epoch_s) / visits_per_epoch * 1e6,
    }


# -------------------------------------------------------------------- main

def run(w: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, log record)."""
    env = environment()
    # Pool workers are not traced, so a traced CV runs sequentially.
    jobs = 1 if trace or w.driver == "fold" else env["nproc"]
    directory = write_dataset(w, seed)
    gradient_gate()
    try:
        return _run(w, seed, seconds, trace, env, jobs, directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _run(w, seed, seconds, trace, env, jobs, directory):
    tracer = Tracer() if trace else None
    t0 = time.perf_counter()
    if tracer:
        tracer.install()
        try:
            dataset, sps, splits = set_up(w, directory, seed, tracer.run)
        finally:
            tracer.uninstall()
        setup_sp = tracer.stats("shortest_paths.compute_sp_tensor")[:2]
    else:
        dataset, sps, splits = set_up(w, directory, seed)
    first_setup = Samples(setup_times=[time.perf_counter() - t0],
                          probes=[reference_probe()])

    config = pathconv.ModelConfig(r=R, mode=w.mode, epochs=w.epochs)
    try:
        warm = training.train_one_fold(dataset, splits[0], replace(config, epochs=1),
                                       sps=sps)
    except NumericalError as exc:
        raise GateError(f"warm-up fold failed: {exc}") from exc
    check_fold(warm, 1)
    k_config = replace(config, sortpool_k=pathconv.resolve_sortpool_k(
        config, [g.node_count for g in dataset.graphs]))
    model = pathconv.Model(k_config, dataset.feature_dim, dataset.num_classes)

    args = (w, config, dataset, sps, splits, jobs)
    record = {"workload": w.name, "why": w.why, "seed": seed, "seconds": seconds,
              "trace": int(trace), "jobs": jobs, "env": env}
    result_ok = True
    try:
        if trace:
            untraced = measure(*args, seconds / 2)
            tracer.install()
            try:
                traced = measure(*args, seconds / 2)
            finally:
                tracer.uninstall()
            metrics = per_layer(tracer, dataset, sps, untraced, traced, setup_sp)
            record["trace_summary"] = trace_summary(tracer, untraced, traced, w.epochs)
            attempted = untraced.attempted + traced.attempted
            failed = untraced.failed + traced.failed
            tracer.save(WORK / f"trace-{w.name}.npz")
        else:
            samples = measure(*args, seconds, model=model,
                              setup=lambda: set_up(w, directory, seed),
                              out=first_setup)
            for probs in samples.outputs:
                check_probabilities(probs, dataset.num_classes)
            metrics = end_to_end(w, samples, jobs)
            attempted, failed = samples.attempted, samples.failed
            record["raw_samples"] = {key: spread(getattr(samples, key)) for key in (
                "setup_times", "epoch_s", "call_walls", "raw_rates", "probes")}
        record["dataset"] = dataset_record(w, dataset, sps, model)
    except GateError as exc:
        print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
        result_ok = False
        metrics, attempted, failed = {}, 1, 1

    result = {"correct": result_ok, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    return result, record


def main(argv=None, workloads=WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = workloads[args.workload]
    WORK.mkdir(exist_ok=True)
    try:
        result, record = run(w, args.seed, args.seconds, bool(args.trace))
    except GateError as exc:
        print(f"perfbench: correctness gate failed before timing: {exc}", file=sys.stderr)
        return 3

    print(f"# workload {w.name}: {w.why}")
    for key in ("env", "dataset", "raw_samples", "trace_summary"):
        if key in record:
            print(f"# {key} {json.dumps(record[key], sort_keys=True)}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    (WORK / f"result-{w.name}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, **record}, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 3


if __name__ == "__main__":
    sys.exit(main())
