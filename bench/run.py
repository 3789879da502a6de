"""Benchmark entry point: one workload, one seed, one fresh process.

    python3 bench/run.py --workload train_paper --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory. Human-readable lines come first; the last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. With `--trace 0` the metrics are the end-to-end
ones, measured untraced; with `--trace 1` they are the per-layer ones from
a traced pass over the same jobs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# One BLAS thread: the process is single-threaded Python around small
# matrices, and a thread pool on a shared 2-core machine only adds noise.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def commit() -> str:
    """HEAD of the checkout's git directory, read without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def import_program():
    src = ROOT / "src"
    if not (src / "stglow" / "__init__.py").is_file():
        sys.exit(f"bench: no stglow sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import stglow

    if Path(stglow.__file__).resolve().parent != src / "stglow":
        sys.exit(f"bench: imported stglow from {stglow.__file__}, not from {src}")
    return stglow


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        os.environ[var] = str(min(BLAS_THREADS, nproc))
    stglow = import_program()  # first numpy import happens here
    import numpy as np

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import runner
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    env = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "stglow": stglow.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc,
        "blas_threads": int(os.environ[BLAS_ENV[0]]),
    }
    print("env " + json.dumps(env), flush=True)

    work = ROOT / ".bench_work" / workload.name
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = runner.traced_run if args.trace else runner.untraced_run
        return run(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.exists() and not any(work.parent.iterdir()):
            work.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
