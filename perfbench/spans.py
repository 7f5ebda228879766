"""Timing spans for the traced run, recorded from outside the package.

The tracer replaces public functions and methods of ``mscgc`` with wrappers
that record a span (name, start, end, parent) around each call, and restores
the originals afterwards. Nothing in ``src/`` is edited. A name bound by
``from x import y`` is patched in the module that looks it up, so
``softmax_cross_entropy``, ``evaluate_model``, ``clip_gradients`` and
``report_from_predictions`` are patched in ``mscgc.training``, and
``multiscale_fuse`` in ``mscgc.graph``. ``train_loop`` imports
``save_checkpoint``/``load_checkpoint`` from ``mscgc.data`` at call time, so
patching ``mscgc.data`` reaches it.

``Tensor.backward`` gets its own wrapper: before replaying the tape it wraps
each reachable node's backward closure in a ``tensor.backward.<op>`` span
keyed on the node's ``_op``, and counts the nodes the replay visits. The
tracer's own graph walks and closure swaps run in a ``trace.bookkeeping``
span, so their cost stays out of the program's spans.
"""

from __future__ import annotations

import os
import time
from collections import Counter

# Ops whose backward closures are reported one by one; every other op is
# summed into tensor.backward.other.
BACKWARD_OPS = ("conv1d", "batch_norm", "elu", "matmul", "reshape", "transpose",
                "pad_left", "add", "mul", "layer_norm", "concat", "silu")

# Every reported span, in table order.
SPAN_NAMES = (
    "bench.setup", "bench.round", "training.train_loop",
    "model.forward", "model.provider_encode", "model.zero_grads",
    "graph.mcr_block", "graph.multiscale_fuse", "graph.normalize_adjacency",
    "graph.graph_propagate", "graph.residual_postnorm",
    "layers.causal_branch_k3", "layers.causal_branch_k5", "layers.batch_norm",
    "kan.kan_layer", "kan.basis_expand", "kan.classifier",
    "tensor.softmax_cross_entropy", "tensor.backward",
    *(f"tensor.backward.{op}" for op in BACKWARD_OPS), "tensor.backward.other",
    "training.clip_gradients", "training.adamw_step", "training.evaluate_model",
    "metrics.report_from_predictions", "interpret.gradcam_temporal",
    "data.gen_synthetic", "data.split_dataset", "data.load_dataset",
    "data.load_checkpoint", "data.save_checkpoint", "trace.bookkeeping",
)

TRAIN = frozenset({"desk_train", "wide_head_train"})
MCR = frozenset({"desk_train", "checkpoint_eval"})
ALL = TRAIN | MCR

# Workloads in which each span must fire; in every other workload it must
# record 0 calls. A traced run checks its own spans against this table.
EXPECTED = {
    "bench.setup": ALL, "bench.round": ALL, "training.train_loop": TRAIN,
    "model.forward": ALL, "model.provider_encode": ALL, "model.zero_grads": ALL,
    "graph.mcr_block": MCR, "graph.multiscale_fuse": MCR, "graph.normalize_adjacency": MCR,
    "graph.graph_propagate": MCR, "graph.residual_postnorm": MCR,
    "layers.causal_branch_k3": MCR, "layers.causal_branch_k5": MCR, "layers.batch_norm": MCR,
    "kan.kan_layer": ALL, "kan.basis_expand": ALL, "kan.classifier": ALL,
    "tensor.softmax_cross_entropy": TRAIN, "tensor.backward": ALL,
    "tensor.backward.conv1d": MCR, "tensor.backward.batch_norm": MCR,
    "tensor.backward.elu": MCR, "tensor.backward.pad_left": MCR,
    "tensor.backward.matmul": ALL, "tensor.backward.reshape": ALL,
    "tensor.backward.transpose": ALL, "tensor.backward.add": ALL, "tensor.backward.mul": ALL,
    "tensor.backward.layer_norm": ALL, "tensor.backward.concat": ALL,
    "tensor.backward.silu": ALL, "tensor.backward.other": ALL,
    "training.clip_gradients": TRAIN, "training.adamw_step": TRAIN,
    "training.evaluate_model": ALL, "metrics.report_from_predictions": ALL,
    "interpret.gradcam_temporal": ALL,
    "data.gen_synthetic": TRAIN, "data.split_dataset": TRAIN,
    "data.load_dataset": {"checkpoint_eval"}, "data.load_checkpoint": ALL,
    "data.save_checkpoint": TRAIN, "trace.bookkeeping": ALL,
}

# |sum of self times - traced wall time| may be at most this share of the
# wall time. Spans nest strictly, so only clock reads outside the root spans
# separate the two; a larger gap means a span was left open or misparented.
SELF_SUM_TOLERANCE = 0.01


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._patches: list[tuple] = []  # (owner, attribute, original)

    # -- spans ----------------------------------------------------------

    def open(self, name: str) -> list:
        rec = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        self.stack.pop()
        rec[2] = time.perf_counter()

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def wrap(self, fn, name):
        """`name` is a string, or a callable of the call's arguments."""

        def traced(*args, **kwargs):
            rec = self.open(name if isinstance(name, str) else name(*args))
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(rec)

        return traced

    # -- patching -------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        from mscgc import data, graph, interpret, kan, layers, model, tensor, training

        plain = [
            (training, "train_loop", "training.train_loop"),
            (training, "evaluate_model", "training.evaluate_model"),
            (training, "clip_gradients", "training.clip_gradients"),
            (training.AdamW, "step", "training.adamw_step"),
            (training, "softmax_cross_entropy", "tensor.softmax_cross_entropy"),
            (training, "report_from_predictions", "metrics.report_from_predictions"),
            (model.FeatureProvider, "encode", "model.provider_encode"),
            (model.MscgcKanModel, "zero_grads", "model.zero_grads"),
            (graph.MCRBlock, "__call__", "graph.mcr_block"),
            (graph, "multiscale_fuse", "graph.multiscale_fuse"),
            (graph, "normalize_adjacency", "graph.normalize_adjacency"),
            (graph, "graph_propagate", "graph.graph_propagate"),
            (graph, "residual_postnorm", "graph.residual_postnorm"),
            (layers.BatchNorm1d, "__call__", "layers.batch_norm"),
            (kan.KanLayer, "__call__", "kan.kan_layer"),
            (kan, "basis_expand", "kan.basis_expand"),
            (kan.ClassifierHead, "__call__", "kan.classifier"),
            (interpret, "gradcam_temporal", "interpret.gradcam_temporal"),
            (data, "gen_synthetic", "data.gen_synthetic"),
            (data, "split_dataset", "data.split_dataset"),
            (data, "load_dataset", "data.load_dataset"),
            (data, "load_checkpoint", "data.load_checkpoint"),
        ]
        for owner, attr, name in plain:
            self._patch(owner, attr, self.wrap(vars(owner)[attr], name))
        self._patch(layers.CausalBranch, "__call__",
                    self.wrap(layers.CausalBranch.__call__,
                              lambda branch, *_: f"layers.causal_branch_k{branch.kernel_size}"))
        self._patch(data, "save_checkpoint", self._save_checkpoint(data.save_checkpoint))
        # `__call__ = forward` binds the same function twice; patch both names.
        forward = self._forward(model.MscgcKanModel.forward)
        self._patch(model.MscgcKanModel, "forward", forward)
        self._patch(model.MscgcKanModel, "__call__", forward)
        self._patch(tensor.Tensor, "backward", self._backward(tensor.Tensor.backward))

    def restore(self) -> bool:
        """Put every original back; True when each one is in place again."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        restored = all(vars(owner)[attr] is original for owner, attr, original in self._patches)
        self._patches.clear()
        return restored

    def _save_checkpoint(self, fn):
        traced = self.wrap(fn, "data.save_checkpoint")

        def save_checkpoint(path, *args, **kwargs):
            traced(path, *args, **kwargs)
            self.counts["data.save_checkpoint.bytes"] += os.path.getsize(path)

        return save_checkpoint

    def _forward(self, fn):
        traced = self.wrap(fn, "model.forward")

        def forward(model, x):
            logits = traced(model, x)
            if self.inside("training.evaluate_model"):
                # Eval builds tape nodes that no backward ever reads.
                rec = self.open("trace.bookkeeping")
                self.counts["eval_nodes"] += len(_tape_nodes(logits))
                self.counts["eval_batches"] += 1
                self.close(rec)
            return logits

        return forward

    def _backward(self, fn):
        traced = self.wrap(fn, "tensor.backward")

        def backward(root):
            rec = self.open("trace.bookkeeping")
            nodes = _tape_nodes(root)
            key = "saliency" if self.inside("interpret.gradcam_temporal") else "step"
            self.counts[f"{key}_nodes"] += len(nodes)
            self.counts[f"{key}_backwards"] += 1
            saved = [(node, node._backward) for node in nodes if node._backward is not None]
            for node, closure in saved:
                op = node._op if node._op in BACKWARD_OPS else "other"
                node._backward = self.wrap(closure, f"tensor.backward.{op}")
            self.close(rec)
            try:
                traced(root)
            finally:
                rec = self.open("trace.bookkeeping")
                for node, closure in saved:
                    node._backward = closure
                self.close(rec)

        return backward

    # -- results ----------------------------------------------------------

    def totals(self):
        """Per span name: (calls, self seconds). Self time is the span's
        duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for (name, start, end, _), inner in zip(self.spans, child):
            calls[name] += 1
            self_s[name] += (end - start) - inner
        return calls, self_s


def _tape_nodes(root) -> list:
    """Tensors reachable from `root` that require grad, parameters included:
    the nodes a backward pass from `root` visits."""
    seen, stack, nodes = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node._parents)
    return nodes


def coverage_problems(workload: str, calls) -> list[str]:
    """Spans that fired where they should not, or stayed silent where they should fire."""
    problems = []
    for name in SPAN_NAMES:
        should = workload in EXPECTED[name]
        if should and not calls[name]:
            problems.append(f"span {name} never fired")
        elif not should and calls[name]:
            problems.append(f"span {name} fired {calls[name]} times, expected 0")
    return problems
