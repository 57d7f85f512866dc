"""The measuring loop shared by the workloads, and the metrics it reports."""

import contextlib
import json
import os
import resource
import shutil
import statistics
import time

import tracing
from workloads import WORKLOADS

E2E_UNITS = {"setup_s": "s", "op_ms_p50": "ms", "rows_per_s": "1/s",
             "peak_rss_mb": "MB", "map_at_100": "fraction"}


def dumps(obj):
    return json.dumps(obj, separators=(",", ":"))


def run(name, seed, seconds, traced, root):
    """Run one workload; returns (result line, detail record)."""
    work_dir = os.path.join(root, ".perfbench", f"{name}-{seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        return _run(WORKLOADS[name](seed), seconds, traced, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work_dir))


def _run(wl, seconds, traced, work_dir):
    tracer = tracing.Tracer(f"{wl.name}-{wl.seed}-{os.getpid()}") \
        if traced else None
    digests, failures = [], []
    attempted = 0

    def one(op_id):
        """One operation; returns (start, end, step durations or None)."""
        nonlocal attempted
        attempted += 1
        if tracer:
            tracer.op = op_id
        start = time.perf_counter()
        try:
            out = root_op()
        except Exception as e:  # counted as a failed operation, not dropped
            failures.append(f"op {op_id}: {type(e).__name__}: {e}")
            return start, time.perf_counter(), None
        end = time.perf_counter()
        steps, digest = wl.digest(out, end)
        digests.append((op_id, digest))
        return start, end, [end - start] if steps is None else list(steps)

    def set_up():
        setup_dir = os.path.join(work_dir, f"setup{len(setup_s)}")
        os.makedirs(setup_dir)
        if tracer:
            tracer.op = "setup"
        start = time.perf_counter()
        wl.setup(setup_dir)
        setup_s.append(time.perf_counter() - start)

    with contextlib.ExitStack() as stack:
        if tracer:
            tracer.install(stack)
        wl.probes(stack, tracing.patch)
        root_op = tracer.wrap("trainer", wl.op) if tracer else wl.op

        setup_s = []
        set_up()
        one("warmup")               # lazy set-up and first-touch costs
        if tracer:
            tracer.counts.clear()
        steps, window_ops, busy, op_rates = [], [], 0.0, []
        window_start = time.perf_counter()
        while True:
            # The other set-ups are spread over the window, between
            # operations, so that their median samples the whole run
            # rather than the host's speed in one short stretch of it.
            while (len(setup_s) < wl.setups and time.perf_counter()
                    - window_start >= len(setup_s) * seconds / wl.setups):
                set_up()
            window_ops.append(len(window_ops))
            start, end, op_steps = one(window_ops[-1])
            busy += end - start
            if op_steps:
                steps += op_steps
                op_rates.append(wl.rows_per_step * len(op_steps)
                                / (end - start))
            if end - window_start >= seconds and len(setup_s) == wl.setups:
                break
        window = end - window_start
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        counts = dict(tracer.counts) if tracer else {}
        if tracer:
            alloc = tracing.AllocPeaks()
            with alloc.tracking():
                one("alloc")

    for op_id, digest in digests:
        try:
            problem = wl.check(digest)
        except Exception as e:  # a check that cannot run fails the op
            problem = f"check raised {type(e).__name__}: {e}"
        if problem:
            failures.append(f"op {op_id}: {problem}")

    n = len(steps)
    e2e = {
        "setup_s": statistics.median(setup_s),
        "op_ms_p50": statistics.median(steps) * 1e3 if n else float("nan"),
        "rows_per_s": statistics.median(op_rates) if n else float("nan"),
        "peak_rss_mb": peak_rss_mb,
        "map_at_100": wl.quality(work_dir),
    }
    record = {"workload": wl.name, "seed": wl.seed, "trace": int(traced),
              "attempted": attempted, "failed": len(failures),
              "failures": failures[:20], "seconds": window, "steps": n,
              "step": wl.step, "setup_s_each": setup_s,
              "tail": _tail(steps), "end_to_end": e2e}
    metrics, units = e2e, E2E_UNITS
    if tracer:
        metrics, units = _per_layer(wl, tracer, set(window_ops), steps,
                                    counts, alloc.peaks)
        self_s, _ = tracer.summary(set(window_ops))
        record.update(per_layer=metrics,
                      self_sum_ms=sum(self_s.values()) * 1e3 / n,
                      op_ms_mean=busy * 1e3 / n)
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": {k: {"value": float(v), "unit": units[k]}
                          for k, v in metrics.items()}}
    return result, record


def _tail(steps):
    """The highest of p99.9/p99/p90 with at least ten samples beyond it."""
    for p in (99.9, 99.0, 90.0):
        if len(steps) * (100.0 - p) / 100.0 >= 10:
            return {"percentile": p, "ms": tracing.percentile(steps, p) * 1e3,
                    "samples": len(steps)}
    return None


def _per_layer(wl, tracer, op_ids, steps, counts, peaks):
    """Per-layer metrics; times are self times, so they add up to the
    operation time. Set-up layers are per set-up, the rest per step."""
    self_s, calls = tracer.summary(op_ids)
    setup_self, _ = tracer.summary({"setup"})
    n = len(steps)
    m, u = {}, {}

    def put(key, value, unit):
        m[key], u[key] = value, unit

    for _, _, name in tracing.LAYERS:
        if name in tracing.SETUP_LAYERS:
            put(name + ".ms", setup_self.get(name, 0.0) * 1e3 / wl.setups,
                "ms")
            continue
        suffix = ".self_ms" if name == "evaluation.k_reciprocal_rerank" \
            else ".ms"
        put(name + suffix, self_s.get(name, 0.0) * 1e3 / n, "ms")
        put(name + ".calls", calls.get(name, 0) / n, "count")
    put("trainer.self.ms", self_s.get("trainer", 0.0) * 1e3 / n, "ms")
    put("trainer.iter_ms.p99", tracing.percentile(steps, 99) * 1e3, "ms")
    put("trace.op_ms_p50", statistics.median(steps) * 1e3, "ms")
    put("autodiff.tensors_per_iter", counts.get("autodiff.tensors", 0) / n,
        "count")
    put("optimizer.param_tensors_per_step",
        counts.get("optimizer.param_tensors", 0)
        / max(1, calls.get("optimizer.amsgrad_step", 0)), "count")
    put("network.checkpoint_bytes", wl.checkpoint_bytes, "bytes")
    for name in tracing.ALLOC_LAYERS:
        put(name + ".peak_alloc_mb", peaks.get(name, 0) / 2.0 ** 20, "MB")
    return m, u
