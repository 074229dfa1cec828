"""Benchmark of the mixtag tagger: one workload per run, seeded, checked.

    python3 perfbench/run.py --workload tag-stream --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --self-test

Run it from anywhere inside a checkout of the repository; it tags and trains
with the package under ``src/``.  It prints the environment, the workload's
input descriptors and every metric with its unit, and as its last line one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones from a traced run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def limit_blas_threads() -> None:
    """Cap the BLAS/OpenMP thread count at the cores this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))


def print_report(name: str, args, run: dict, env: dict) -> None:
    result = run["result"]
    print(f"mixtag benchmark: workload={name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} scale={args.scale}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for input_name, desc in run["inputs"].items():
        print(f"input {input_name}: " + " ".join(f"{k}={v:.6g}" for k, v in desc.items()))
    print("run: " + " ".join(f"{k}={v}" for k, v in run["extra"].items()))
    for key, m in result["metrics"].items():
        print(f"  {key:36s} {m['value']:.6g} {m['unit']}")
    share = result["failed"] / result["attempted"]
    print(f"  {'fail_share':36s} {share:.6g} share ({result['failed']} of {result['attempted']})")


def run_one(args, workloads) -> int:
    workdir = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        run = workloads.run_workload(ROOT, workdir, args.workload, args.seed, args.seconds,
                                     bool(args.trace), args.scale)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print_report(args.workload, args, run, workloads.environment(ROOT))
    print(json.dumps(run["result"]), flush=True)
    return 0


def run_all(args, workloads) -> int:
    """Each workload in its own process, so peak RSS is the workload's own."""
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="train-merged, tag-stream, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input size; 'tiny' is the self-test size")
    parser.add_argument("--self-test", action="store_true",
                        help="tiny pass of every workload plus generator and name checks")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    if not (ROOT / "src" / "mixtag" / "__init__.py").is_file():
        print(f"perfbench: no mixtag sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    limit_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))

    if args.self_test:
        import selftest

        return selftest.main(Path(__file__).resolve())
    import workloads

    if args.workload == "all":
        return run_all(args, workloads)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}, all")
    return run_one(args, workloads)


if __name__ == "__main__":
    sys.exit(main())
