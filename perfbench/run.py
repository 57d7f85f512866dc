"""dareid benchmark: one closed-loop client in one process.

    python3 perfbench/run.py --workload {train,retrieval,rerank} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout. The program is imported from the
checkout's ``src/`` and the output checks use ``tests/oracles.py``. Each
operation starts after the previous one ends. With ``--trace 0`` the last
line of standard output holds the end-to-end metrics; with ``--trace 1``
every layer is wrapped from outside and the last line holds the per-layer
metrics. The line before it is a JSON record with the environment, the
per-operation failures and every metric measured.
"""

import argparse
import os
import sys

# BLAS threads are capped at the number of usable CPUs, before NumPy loads.
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(NPROC)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("train", "retrieval", "rerank"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import dareid and the oracles from this checkout, and nowhere else."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    import dareid
    import oracles
    for mod, sub in ((dareid, "src"), (oracles, "tests")):
        if not os.path.abspath(mod.__file__).startswith(
                os.path.join(ROOT, sub) + os.sep):
            raise ImportError(f"{mod.__name__} imported from {mod.__file__}, "
                              f"not from this checkout")


def git_sha():
    """HEAD of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import platform
    import numpy as np
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
            "nproc": NPROC}


def main(argv=None):
    args = parse_args(argv)
    import_program()
    import bench
    result, record = bench.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), ROOT)
    record["env"] = environment()
    print(bench.dumps(record))
    print(bench.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
