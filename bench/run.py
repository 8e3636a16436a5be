"""bventropy benchmark launcher.

    python3 bench/run.py --workload {codec,pde,entropy} --seed N \
        --seconds S --trace {0,1}

Runs the workload in a child process with BLAS/OpenMP pinned to one thread,
prints every metric by name with its unit, writes a run record (and, when
traced, the spans) under ``bench/out/``, and prints as its last line the
result object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def git_commit() -> str:
    """HEAD of the repository this benchmark sits in, if it is one."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if (top.returncode != 0 or len(lines) != 2
            or os.path.realpath(lines[0]) != os.path.realpath(ROOT)):
        return "unknown"
    return lines[1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("codec", "pde", "entropy"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workdir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), args.workload,
           str(args.seed), str(args.seconds), str(args.trace), workdir]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload {args.workload} ran past {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: workload {args.workload} exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    payload = json.loads(lines[-1])
    result, record = payload["result"], payload["record"]
    record.update(commit=git_commit(), command=sys.argv, metrics=result["metrics"],
                  attempted=result["attempted"], failed=result["failed"])
    with open(os.path.join(OUT, f"record-{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    for op_id, msg in record["failures"]:
        print(f"FAILED {op_id}: {msg}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"commit={record['commit']} nproc={record['nproc']} "
          f"python={record['python']} numpy={record['numpy']} "
          f"passes={record['passes']} ops={result['attempted']} failed={result['failed']}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
