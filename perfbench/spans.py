"""In-memory span tracer around pathconv's public functions and methods.

``Tracer.install`` replaces a fixed set of functions and layer methods
with wrappers that record one span per call: a name, a start and an end
(``perf_counter_ns``), the index of the enclosing span, and a group id
shared by every span of one ``train_one_fold`` call.  Spans live in flat
integer arrays until ``save`` writes them out; per-name call counts,
total time and self time (duration minus the time covered by direct
child spans) are aggregated as spans close.  ``uninstall`` restores the
originals, so an untraced measurement in the same process runs the
unmodified code.

Wrapping happens in the benchmark process only: pool workers started by
``run_experiment`` are not traced, which is why the cross-validation
workload is traced at ``jobs=1``.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

from pathconv import layers, training
from pathconv.layers import (
    Adam,
    Conv1D,
    Dense,
    DistanceConv,
    JointConv,
    MaxPool1D,
    SortPool,
)
from pathconv.model import Model

# Functions called by the program through these module attributes.
_FUNCTIONS = [
    (layers, "propagate", "shortest_paths.propagate"),
    (layers, "propagate_transpose", "shortest_paths.propagate_transpose"),
    (training, "compute_sp_tensor", "shortest_paths.compute_sp_tensor"),
    (training, "stratified_folds", "data.stratified_folds"),
    (training, "run_experiment", "training.run_experiment"),
]
_LAYER_CLASSES = (DistanceConv, JointConv, SortPool, Conv1D, MaxPool1D, Dense)


def gconv_flops(conv, sp, forward: bool) -> int:
    """Multiply-add work (2 flops each) of the sparse and dense products in
    one graph-convolution call; element-wise work is not counted."""
    n = sp.node_count
    if isinstance(conv, DistanceConv):
        spmm = sum(2 * sp.mats[j].nnz * conv.c_in for j in range(1, conv.r + 1))
        gemm = 2 * n * conv.c_in * conv.c_out * (conv.r + 1)
    else:
        spmm = 2 * sp.mats[1].nnz * conv.c_in
        gemm = 2 * n * conv.c_in * conv.c_out
    return spmm + gemm if forward else spmm + 2 * gemm


def last_column_tied(h: np.ndarray) -> bool:
    """True when two rows share the SortPool primary key."""
    return np.unique(h[:, -1]).size < h.shape[0]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.group = array("q")
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        self._stack: list[list[int]] = []  # [span index, ns covered by children]
        self._group = 0
        self._layer_names: dict[int, str] = {}
        self._undo: list[tuple[object, str, object]] = []
        self.gconv_flops = 0
        self.sortpool_inputs = 0
        self.sortpool_tied = 0

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
        return nid

    def run(self, name: str, fn, *args, new_group: bool = False, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        nid = self._id(name)
        if new_group:
            self._group += 1
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.group.append(self._group)
        self.end.append(0)
        entry = [idx, 0]
        self._stack.append(entry)
        t0 = time.perf_counter_ns()
        self.start.append(t0)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.end[idx] = t1
            dur = t1 - t0
            if self._stack:
                self._stack[-1][1] += dur
            self.calls[nid] += 1
            self.total_ns[nid] += dur
            self.self_ns[nid] += dur - entry[1]

    def _untimed(self, hook, *args) -> None:
        """Run a counting hook and hide its time from the enclosing span."""
        t0 = time.perf_counter_ns()
        hook(*args)
        if self._stack:
            self._stack[-1][1] += time.perf_counter_ns() - t0

    # ------------------------------------------------------------ patching

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap_function(self, owner, attr: str, name: str) -> None:
        orig = getattr(owner, attr)
        self._patch(owner, attr, lambda *a, **k: self.run(name, orig, *a, **k))

    def _wrap_method(self, cls, attr: str, suffix: str, hook=None,
                     fixed: str | None = None) -> None:
        """Span named ``fixed``, or the instance's layer name plus ``suffix``."""
        orig = getattr(cls, attr)
        names = self._layer_names

        def wrapper(obj, *a, **k):
            if hook is not None:
                self._untimed(hook, obj, *a)
            name = fixed or names.get(id(obj), "layers.unnamed") + suffix
            return self.run(name, orig, obj, *a, **k)
        self._patch(cls, attr, wrapper)

    def install(self) -> None:
        for owner, attr, name in _FUNCTIONS:
            self._wrap_function(owner, attr, name)
        orig_train = training.train_one_fold
        self._patch(training, "train_one_fold",
                    lambda *a, **k: self.run("training.train_one_fold", orig_train,
                                             *a, new_group=True, **k))
        orig_init = Model.__init__

        def init(model, *a, **k):
            orig_init(model, *a, **k)
            named = [(f"gconv{i}", c) for i, c in enumerate(model.graph_convs)]
            named += [("sortpool", model.sortpool), ("conv1", model.conv1),
                      ("pool", model.pool), ("conv2", model.conv2),
                      ("dense1", model.dense1), ("dense2", model.dense2)]
            for lname, layer in named:
                self._layer_names[id(layer)] = f"layers.{lname}"
        self._patch(Model, "__init__", init)
        self._wrap_method(Model, "forward", "", fixed="model.forward")
        self._wrap_method(Model, "backward", "", fixed="model.backward")
        self._wrap_method(Adam, "step", "", fixed="layers.adam.step")

        def conv_fwd(conv, sp, h):
            self.gconv_flops += gconv_flops(conv, sp, True)

        def conv_bwd(conv, cache, dout):
            self.gconv_flops += gconv_flops(conv, cache[0], False)

        def sortpool_fwd(pool, h):
            self.sortpool_inputs += 1
            self.sortpool_tied += last_column_tied(h)

        for cls in _LAYER_CLASSES:
            is_gconv = cls in (DistanceConv, JointConv)
            self._wrap_method(cls, "forward", ".fwd",
                              conv_fwd if is_gconv else sortpool_fwd if cls is SortPool else None)
            self._wrap_method(cls, "backward", ".bwd", conv_bwd if is_gconv else None)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # ------------------------------------------------------------- results

    def stats(self, name: str) -> tuple[int, int, int]:
        """(calls, total ns, self ns) for one span name; zeros if never seen."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0, 0
        return self.calls[nid], self.total_ns[nid], self.self_ns[nid]

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names, dtype=str),
                 name_id=np.frombuffer(self.name_id, dtype=np.int64),
                 start_ns=np.frombuffer(self.start, dtype=np.int64),
                 end_ns=np.frombuffer(self.end, dtype=np.int64),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 group=np.frombuffer(self.group, dtype=np.int64))
