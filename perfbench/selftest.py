"""Self-test of the benchmark: ``python3 perfbench/run.py --self-test``.

Checks that the generator is byte-identical for one seed and differs for
another, that every metric name is well formed and matches BENCHMARK.json,
and that a tiny pass of every workload, untraced and traced, completes
with no failed operation and prints every metric with its unit.
"""

from __future__ import annotations

import filecmp
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import gen
import workloads

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


class Report:
    def __init__(self):
        self.failures = 0

    def expect(self, ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'}: {what}", flush=True)
        self.failures += not ok


def check_generator(report: Report, scratch: Path) -> None:
    dirs = [scratch / "a", scratch / "b", scratch / "c"]
    for d, seed in zip(dirs, (7, 7, 8)):
        gen.generate(seed, d, "tiny")
    names = sorted(p.name for p in dirs[0].iterdir())
    same = filecmp.cmpfiles(dirs[0], dirs[1], names, shallow=False)
    report.expect(same[0] == names, f"generator is byte-identical for one seed ({len(names)} files)")
    other = filecmp.cmpfiles(dirs[0], dirs[2], names, shallow=False)
    report.expect(not other[0] and not other[2], "generator differs in every file for another seed")


def check_names(report: Report, bench: dict) -> None:
    declared = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]] + [w["name"] for w in bench["workloads"]]
    emitted = list(workloads.END_TO_END_UNITS) + list(workloads.PER_LAYER_UNITS)
    bad = [n for n in declared + emitted if not NAME_RE.match(n)]
    report.expect(not bad, f"metric and workload names use only letters, digits, _ . - {bad or ''}")
    report.expect(len(set(declared)) == len(declared), "names in BENCHMARK.json are unique")
    report.expect({m["name"]: m["unit"] for m in bench["end_to_end"]} == workloads.END_TO_END_UNITS,
                  "BENCHMARK.json end_to_end matches the metrics a run prints")
    report.expect({m["name"]: m["unit"] for m in bench["per_layer"]} == workloads.PER_LAYER_UNITS,
                  "BENCHMARK.json per_layer matches the metrics a traced run prints")
    report.expect([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS),
                  "BENCHMARK.json names the benchmark's workloads")


def check_workloads(report: Report, run_py: Path) -> None:
    for name in workloads.WORKLOADS:
        for trace, units in ((0, workloads.END_TO_END_UNITS), (1, workloads.PER_LAYER_UNITS)):
            cmd = [sys.executable, str(run_py), "--workload", name, "--seed", "3", "--seconds", "1",
                   "--trace", str(trace), "--scale", "tiny"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300)
            what = f"tiny {name} --trace {trace}"
            if proc.returncode != 0:
                report.expect(False, f"{what} exited {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            report.expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: result keys")
            report.expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                          f"{what}: fail_share 0 ({result['failed']} of {result['attempted']})")
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            report.expect(got == units, f"{what}: prints every metric with its unit")
            finite = all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                         for m in result["metrics"].values())
            report.expect(finite, f"{what}: every value is a finite number")
            printed = all(re.search(rf"^\s+{re.escape(k)}\s", proc.stdout, re.M) for k in units)
            report.expect(printed, f"{what}: every metric printed by name")


def main(run_py: Path) -> int:
    report = Report()
    root = run_py.parent.parent
    scratch = run_py.parent / "_work" / f"selftest-{os.getpid()}"
    try:
        check_generator(report, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    check_names(report, json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8")))
    check_workloads(report, run_py)
    print(f"self-test: {'ok' if not report.failures else f'{report.failures} failed'}")
    return 1 if report.failures else 0
