#!/usr/bin/env python3
"""Self-tests for the benchmark. Run from the root of a checkout:

  python3 perfbench/selftest.py

Checks that
  1. BENCHMARK.json names exactly the metrics run.py reports, and every
     metric name matches [A-Za-z0-9_.-]+;
  2. every exact count and every sim_* value repeats bit-for-bit across two
     separate processes, on every workload, and matches the stored digest
     for the default seed;
  3. a deliberately wrong expected digest is reported as failed repetitions;
  4. a measuring process that exits nonzero is reported as a failed run.
Exits nonzero on the first failed check.
"""

import argparse
import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def check_names():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    if e2e != run.END_TO_END:
        fail("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if layer != run.PER_LAYER:
        fail("BENCHMARK.json per_layer differs from run.PER_LAYER")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        fail("BENCHMARK.json workloads differ from run.WORKLOADS")
    for name in list(e2e) + list(layer) + list(run.WORKLOADS):
        if not NAME.fullmatch(name):
            fail(f"metric or workload name {name!r} does not match {NAME.pattern}")
    print(f"ok: {len(e2e)} end-to-end and {len(layer)} per-layer names")


def check_repeatable(binary):
    seed = json.loads(run.DIGESTS_FILE.read_text())["default_seed"]
    for w in run.WORKLOADS:
        a = run.run_binary(binary, w, seed, 0.001, min_reps=1)[0][0]
        b = run.run_binary(binary, w, seed, 0.001, min_reps=1)[0][0]
        if a["counts"] != b["counts"]:
            diff = [k for k in a["counts"] if a["counts"][k] != b["counts"][k]]
            fail(f"{w}: exact counts differ between processes: {diff}")
        for m in run.SIM_METRICS:
            if a[m] != b[m]:
                fail(f"{w}: {m} differs between processes: {a[m]!r} vs {b[m]!r}")
        expect = run.expected_digest(w, seed)
        if a["digest"] != b["digest"] or (expect and a["digest"] != expect):
            fail(f"{w}: digest {a['digest'][:16]} / {b['digest'][:16]} "
                 f"!= stored {str(expect)[:16]}")
        if not a["ok"]:
            fail(f"{w}: repetition failed: {a['fail']}")
        print(f"ok: {w} repeats exactly ({len(a['counts'])} counts, digest {a['digest'][:16]})")


def check_wrong_digest():
    cmd = [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", "rollback_open_n16",
           "--seed", "1", "--seconds", "0.5", "--trace", "0", "--expect-digest", "0" * 64]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT, timeout=300)
    if proc.returncode != 0:
        fail(f"run.py exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["correct"] or result["failed"] != result["attempted"]:
        fail(f"a wrong expected digest was not reported as failed runs: {result}")
    if result["metrics"]["run_ok_frac"]["value"] != 0.0:
        fail("a wrong expected digest left run_ok_frac above 0")
    print(f"ok: wrong digest -> {result['failed']}/{result['attempted']} repetitions failed")


def check_crash():
    """Stands `false` in for hs1perf: it exits 1 and prints nothing."""
    build = run.build
    run.build = lambda src_root, tag: Path(shutil.which("false"))
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.measure(argparse.Namespace(workload="lan_n128", seed=1, seconds=1,
                                                  trace=0, expect_digest=None))
    finally:
        run.build = build
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    if code != 0 or result["correct"] or result["failed"] != result["attempted"]:
        fail(f"a crashing hs1perf was not reported as a failed run: {result}")
    if result["attempted"] < 1 or result["metrics"]["run_ok_frac"]["value"] != 0.0:
        fail(f"a crashing hs1perf left attempted < 1 or run_ok_frac above 0: {result}")
    print("ok: crashing hs1perf -> failed run, run_ok_frac 0")


def main():
    check_names()
    check_crash()
    binary = run.build(run.ROOT, "perfbench")
    check_repeatable(binary)
    check_wrong_digest()
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
