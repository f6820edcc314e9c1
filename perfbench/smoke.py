"""Smoke run of the benchmark itself on a tiny dataset.

    python3 perfbench/smoke.py

Runs both drivers (sequential ``train_one_fold`` calls, and
``run_experiment`` through the process pool) for one epoch on a few
small graphs, untraced and traced, and checks that every metric named in
``BENCHMARK.json`` is printed with its unit.  It then corrupts the
program's outputs (probabilities that do not sum to 1, a non-finite
training loss) and checks that the correctness gate fails the run.
Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys

import run  # checks that the package source is present
import synth
from pathconv import model as model_module
from pathconv import training

SMOKE = {w.name: w for w in (
    run.Workload("smoke-fold", "tiny molecules, sequential folds", synth.tiny_like,
                 ("TINY", 24, 16, 12.0), "parametric", epochs=1, folds=3,
                 driver="fold", min_calls=1),
    run.Workload("smoke-cv", "tiny molecules, degree features, process pool",
                 synth.tiny_like, ("TINY", 24, 16, 12.0), "dgcnn_baseline", epochs=1,
                 folds=3, driver="cv", min_calls=1, degree_features=True),
)}


def invoke(workload: str, trace: int) -> tuple[int, list[str]]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "1", "--seconds", "1",
                         "--trace", str(trace)], workloads=SMOKE)
    return code, buf.getvalue().strip().splitlines()


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in SMOKE:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = invoke(workload, trace)
            if code != 0:
                problems.append(f"{workload} trace={trace}: exit code {code}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{workload} trace={trace}: result keys {sorted(result)}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: {lines[-1]}")
            expected = {m["name"]: m["unit"] for m in spec[key]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != expected:
                problems.append(f"{workload} trace={trace}: metrics differ from "
                                f"BENCHMARK.json: {sorted(set(printed) ^ set(expected))}")
            for name, unit in expected.items():
                if not any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                           for line in lines):
                    problems.append(f"{workload} trace={trace}: {name} not printed")
            for name, m in result["metrics"].items():
                if not math.isfinite(m["value"]):
                    problems.append(f"{workload} trace={trace}: {name} = {m['value']}")

    softmax = model_module.softmax
    model_module.softmax = lambda z: softmax(z) * (1.0 + 1e-9)
    try:
        code, lines = invoke("smoke-fold", 0)
    finally:
        model_module.softmax = softmax
    if code == 0 or (lines and json.loads(lines[-1])["correct"]):
        problems.append("gate did not fire on probabilities off by 1e-9")

    train_one_fold = training.train_one_fold

    def nan_loss(*args, **kwargs):
        report = train_one_fold(*args, **kwargs)
        report.train_losses[-1] = math.nan
        return report
    training.train_one_fold = nan_loss
    try:
        code, _ = invoke("smoke-fold", 0)
    finally:
        training.train_one_fold = train_one_fold
    if code == 0:
        problems.append("gate did not fire on a non-finite training loss")

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: OK" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
