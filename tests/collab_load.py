"""Time loading and precomputing a COLLAB-shaped set and report its peak memory.

Writes ``synthetic.collab_like(0, graphs)`` to a temporary directory
without a node-label file, as COLLAB ships, and prints the write's
``tracemalloc`` peak.  Then it loads the set in ``--loads`` fresh
processes.  Each prints its load seconds and its peak resident set size
(``ru_maxrss``), then runs ``precompute_sp_tensors`` at r = 2 on the
loaded set and prints that step's seconds, untraced, the operators'
dtype, and the ``tracemalloc`` peak of a second, traced call, in MB and
per stored operator entry: the process's
``ru_maxrss`` after precompute would read as the load's wherever the
load peaked higher.  At the default 5000 graphs the edge file has about
25.4M lines (366 MB).
The directory is deleted on exit; ``--keep DIR`` keeps the set in DIR
instead, and reuses a set already there.  Run from the repository root:

    PYTHONPATH=src python tests/collab_load.py [--graphs 5000] [--loads 3]

The loading processes import ``pathconv`` through ``PYTHONPATH``, so
pointing it at another checkout's ``src`` measures that version on the
same files.
"""

from __future__ import annotations

import argparse
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from synthetic import collab_like  # noqa: E402

from pathconv import load_tu_dataset, precompute_sp_tensors, save_tu_dataset  # noqa: E402


def traced_peak(step, *args) -> float:
    """The ``tracemalloc`` peak, in MB, of one call of ``step(*args)``."""
    tracemalloc.start()
    try:
        step(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def load(root: str) -> None:
    """Load the set in ``root``, then precompute at r = 2; print both."""
    start = time.perf_counter()
    dataset = load_tu_dataset(root, "COLLAB")
    seconds = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"load {seconds:.2f} s, ru_maxrss {peak:.0f} MB, {len(dataset)} graphs", flush=True)
    start = time.perf_counter()
    sps = precompute_sp_tensors(dataset, 2)
    seconds = time.perf_counter() - start
    entries = sum(m.nnz for sp in sps for m in sp.mats)
    dtype = sps[0].mats[0].dtype
    del sps
    peak = traced_peak(precompute_sp_tensors, dataset, 2)
    print(f"precompute at r = 2 {seconds:.2f} s, {dtype} operators, traced peak {peak:.0f} MB, "
          f"{peak * 2**20 / entries:.1f} bytes per stored entry", flush=True)


# A loading process imports this file from its directory and calls load.
LOAD = "import sys; sys.path.insert(0, sys.argv[1]); import collab_load; collab_load.load(sys.argv[2])"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--graphs", type=int, default=5000)
    parser.add_argument("--loads", type=int, default=3)
    parser.add_argument("--keep", type=Path, help="keep the set in this directory, or reuse one there")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        root = args.keep or Path(tmp)
        if not (root / "COLLAB_A.txt").exists():
            peak = traced_peak(save_tu_dataset, collab_like(0, args.graphs), root)
            (root / "COLLAB_node_labels.txt").unlink()
            print(f"write traced peak {peak:.0f} MB", flush=True)
        with (root / "COLLAB_A.txt").open() as fh:
            print(f"{sum(1 for _ in fh)} edge lines in {root}", flush=True)
        for _ in range(args.loads):
            subprocess.run([sys.executable, "-c", LOAD, str(HERE), str(root)], check=True)


if __name__ == "__main__":
    main()
