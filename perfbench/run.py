"""Benchmark entry point: each workload in its own process.

Run from the root of a checkout::

    python3 perfbench/run.py --workload machine-paper --seed 1 \
        --seconds 30 --trace 0

``--workload all`` runs every workload of ``BENCHMARK.json``, one after
another; ``distributed-paper`` runs only by name.  Each
workload runs in a child interpreter (``workloads.py``) with the
checkout's ``src/`` on ``PYTHONPATH``, one BLAS/OpenMP/MKL thread, and
``TMPDIR`` under ``.perfbench/`` in the checkout, so the compiled-kernel
cache, job journals and checkpoints stay inside it and nothing but the
compiled kernel carries over between workloads.  The child's output is
passed through; its last line is the JSON result.  Without the
program's source next to the benchmark, this exits with code 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from metrics import HAND_WORKLOADS, WORKLOADS  # noqa: E402

#: The first run in a checkout compiles the C kernels; later runs take
#: well under the 180 s a run may last.
CHILD_TIMEOUT_S = 850
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_workload(root: str, name: str, args) -> int:
    """Run one workload in a child process; relay its output."""
    src = os.path.join(root, "src")
    work = os.path.join(root, ".perfbench")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        PYTHONPATH=src,
        PYTHONDONTWRITEBYTECODE="1",
        TMPDIR=tmp,
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    env.pop("REPRO_FORCE_IMPL", None)
    cmd = [
        sys.executable, os.path.join(HERE, "workloads.py"),
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", work,
    ]
    try:
        child = subprocess.run(
            cmd, env=env, cwd=root, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"{name}: exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = child.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if child.returncode == 0 else None
    except (IndexError, json.JSONDecodeError):
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write("".join(f"{line}\n" for line in lines[:-1]))
        print(f"{name}: exited with code {child.returncode} and no result",
              file=sys.stderr)
        return child.returncode if child.returncode > 0 else 3
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    names = [n for n, _ in WORKLOADS]
    parser = argparse.ArgumentParser(description="Run benchmark workloads.")
    parser.add_argument(
        "--workload", required=True,
        choices=names + [n for n, _ in HAND_WORKLOADS] + ["all"],
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print(f"no program source under {root}/src: run from a checkout root",
              file=sys.stderr)
        return 2
    rc = 0
    for name in names if args.workload == "all" else [args.workload]:
        rc = run_workload(root, name, args) or rc
    return rc


if __name__ == "__main__":
    sys.exit(main())
