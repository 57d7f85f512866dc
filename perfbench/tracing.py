"""Spans, counters and allocation peaks recorded from outside the program.

Every layer is timed by wrapping the name its caller looks up (for example
``dareid.trainer.sample_batch``), so the program itself carries no tracing
code. Spans stay in memory until the run ends.
"""

import contextlib
import time
import tracemalloc
from unittest import mock

import numpy as np

# Call site -> layer name. Modules import functions by name, so each entry
# patches the name in the calling module, not in the defining one.
LAYERS = (
    ("dareid.datagen", "write_dataset", "datagen.write_dataset"),
    ("dareid.datagen", "read_dataset", "datagen.read_dataset"),
    ("dareid.network", "save_checkpoint", "network.save_checkpoint"),
    ("dareid.network", "load_checkpoint", "network.load_checkpoint"),
    ("dareid.trainer", "sample_batch", "sampling.sample_batch"),
    ("dareid.trainer", "embed", "network.embed"),
    ("dareid.trainer", "head_logits", "network.head_logits"),
    ("dareid.network.ModelParams", "zero_grad", "network.zero_grad"),
    ("dareid.trainer", "total_loss", "losses.total_loss"),
    ("dareid.autodiff.Tensor", "backward", "autodiff.backward"),
    ("dareid.trainer", "amsgrad_step", "optimizer.amsgrad_step"),
    ("dareid.trainer", "embed_samples", "trainer.embed_samples"),
    ("dareid.evaluation", "pairwise_distances",
     "evaluation.pairwise_distances"),
    ("dareid.evaluation", "mean_average_precision",
     "evaluation.mean_average_precision"),
    ("dareid.evaluation", "cmc", "evaluation.cmc"),
    ("dareid.evaluation", "k_reciprocal_rerank",
     "evaluation.k_reciprocal_rerank"),
)

# Layers called only during set-up; reported per set-up, not per step.
SETUP_LAYERS = ("datagen.write_dataset", "datagen.read_dataset",
                "network.save_checkpoint", "network.load_checkpoint")

# Functions whose peak allocation is measured in the separate memory pass.
ALLOC_LAYERS = ("evaluation.pairwise_distances",
                "evaluation.k_reciprocal_rerank")


def resolve(path):
    """Look up a dotted path such as dareid.autodiff.Tensor; the package's
    __init__ has imported every module."""
    obj = __import__(path.partition(".")[0])
    for part in path.split(".")[1:]:
        obj = getattr(obj, part)
    return obj


def patch(stack, target, attr, make):
    """Replace target.attr with make(original) for the life of the stack."""
    owner = resolve(target)
    stack.enter_context(mock.patch.object(owner, attr,
                                          make(getattr(owner, attr))))


class Tracer:
    """In-memory spans: [name, start, end, parent index, op id, run id].

    The op id groups the spans of one operation, like a request id. Self
    time is a span's duration minus the durations of its direct children,
    which cover disjoint parts of it because the run is single-threaded.
    """

    def __init__(self, run_id):
        self.run_id = run_id
        self.op = None
        self.spans = []
        self.counts = {}
        self._open = []

    def wrap(self, name, fn):
        spans, open_spans = self.spans, self._open

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1,
                    self.op, self.run_id]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_spans.pop()
        return traced

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def install(self, stack):
        """Wrap every layer in LAYERS, plus the counters. A layer the
        program no longer has raises, rather than reading 0."""
        for target, attr, name in LAYERS:
            patch(stack, target, attr,
                  lambda fn, name=name: self.wrap(name, fn))
        patch(stack, "dareid.autodiff.Tensor", "__init__",
              self._count_tensors)
        patch(stack, "dareid.trainer", "amsgrad_step", self._count_params)

    def _count_tensors(self, init):
        def counted(*args, **kwargs):
            self.count("autodiff.tensors")
            init(*args, **kwargs)
        return counted

    def _count_params(self, step):
        def counted(state, named_params, *args, **kwargs):
            pairs = list(named_params)
            self.count("optimizer.param_tensors", len(pairs))
            return step(state, pairs, *args, **kwargs)
        return counted

    def summary(self, op_ids):
        """Per layer, summed self seconds and call count over the given ops."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s, calls = {}, {}
        for (name, start, end, _, op, _), covered in zip(self.spans, child):
            if op in op_ids:
                self_s[name] = self_s.get(name, 0.0) + (end - start - covered)
                calls[name] = calls.get(name, 0) + 1
        return self_s, calls


class AllocPeaks:
    """Peak tracemalloc bytes above the starting level, per wrapped function.

    Nested calls are handled by carrying the enclosing call's peak across
    the reset_peak() that each inner call needs.
    """

    def __init__(self):
        self.peaks = {}
        self._frames = []

    def wrap(self, name, fn):
        frames = self._frames

        def measured(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            if frames:
                frames[-1][1] = max(frames[-1][1], peak)
            tracemalloc.reset_peak()
            frames.append([current, 0])
            try:
                return fn(*args, **kwargs)
            finally:
                base, carried = frames.pop()
                peak = max(carried, tracemalloc.get_traced_memory()[1])
                self.peaks[name] = max(self.peaks.get(name, 0), peak - base)
                if frames:
                    frames[-1][1] = max(frames[-1][1], peak)
        return measured

    @contextlib.contextmanager
    def tracking(self):
        """Wrap ALLOC_LAYERS and trace allocations inside the block."""
        with contextlib.ExitStack() as stack:
            for target, attr, name in LAYERS:
                if name in ALLOC_LAYERS:
                    patch(stack, target, attr,
                          lambda fn, name=name: self.wrap(name, fn))
            tracemalloc.start()
            try:
                yield self
            finally:
                tracemalloc.stop()


def percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))
