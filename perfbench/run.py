#!/usr/bin/env python3
"""Benchmark for the HotStuff-1 simulator (see README.md in this directory).

Run one workload from the root of a checkout:

  python3 perfbench/run.py --workload lan_n128 --seed 1 --seconds 20 --trace 0

It builds perfbench/hs1perf (Release) under $CARGO_TARGET_DIR (default
.bench_build), runs it for --seconds, checks the outputs and prints the result
as one JSON object on the last line of stdout. --trace 1 gives the per-layer
metrics instead of the end-to-end ones.

Other modes:

  --ab BASE CAND        paired A/B of two checkouts, built with this benchmark
  --record-digests      refresh expected_digests.json for the listed seeds
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("lan_n128", "lan_n16_b1000", "rollback_open_n16")
DIGESTS_FILE = BENCH_DIR / "expected_digests.json"
RUN_TIMEOUT_S = 160

# End-to-end metrics: name -> (unit, better). The bounds live in BENCHMARK.json.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_wall_s": ("s", "lower"),
    "run_cpu_s": ("s", "lower"),
    "teardown_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "sim_tput_tps": ("tps", "higher"),
    "sim_lat_p50_ms": ("ms", "lower"),
    "sim_lat_p99_ms": ("ms", "lower"),
    "run_ok_frac": ("frac", "higher"),
}
HOST_TIMES = ("setup_s", "run_wall_s", "run_cpu_s", "teardown_s")
SIM_METRICS = ("sim_tput_tps", "sim_lat_p50_ms", "sim_lat_p99_ms")

# Per-layer metrics: name -> (unit, better). Exact counts come from every
# repetition and must repeat exactly: work counts are better lower for the
# same simulated outcome, progress counts higher. Probes are host ns per call
# of one layer's public function; the rest are derived.
COUNTS = {
    "sim.events": ("count", "lower"),
    "network.messages": ("count", "lower"),
    "network.bytes": ("B", "lower"),
    "consensus.views": ("count", "higher"),
    "consensus.timeouts": ("count", "lower"),
    "consensus.votes": ("count", "lower"),
    "consensus.proposals_received": ("count", "lower"),
    "consensus.fetches": ("count", "lower"),
    "core.slots": ("count", "higher"),
    "core.blocks_speculated": ("count", "higher"),
    "core.spec_accept_frac": ("frac", "higher"),
    "ledger.txns_executed": ("count", "higher"),
    "ledger.kv_keys": ("count", "lower"),
    "ledger.blocks_stored": ("count", "lower"),
    "ledger.blocks_rolled_back": ("count", "lower"),
    "client.accepted": ("count", "higher"),
    "client.resubmit_frac": ("frac", "lower"),
    "client.backlog": ("count", "lower"),
    "runtime.oracle_violations": ("count", "lower"),
    "runtime.liveness_violations": ("count", "lower"),
}
PROBES = {name: ("ns", "lower") for name in (
    "crypto.cert_verify_ns",
    "crypto.block_hash_ns",
    "ledger.exec_block_ns",
    "ledger.rollback_ns",
    "sim.event_ns",
    "network.broadcast_ns",
    "workload.generate_ns",
)}
DERIVED = {
    "sim.events_per_cpu_s": ("1/s", "higher"),
    "crypto.est_share": ("frac", "lower"),
    "ledger.est_share": ("frac", "lower"),
    "sim.est_share": ("frac", "lower"),
    "runtime.setup_self_s": ("s", "lower"),
    "runtime.run_self_s": ("s", "lower"),
    "runtime.teardown_self_s": ("s", "lower"),
    "trace.overhead_cpu_s": ("s", "lower"),
}
PER_LAYER = {**COUNTS, **PROBES, **DERIVED}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def median(values):
    return statistics.median(values) if values else 0.0


def fast_third(values):
    """A run's value of a host time: the mean of its fastest third of
    samples. Other tenants of a shared host only ever add time, in bursts of
    seconds that can cover a third of a run's repetitions and move its median;
    the fast third is what the program costs with the least of that. The cold
    first repetition, the slowest, is rarely in it. A slower program moves
    every sample, so it moves this too."""
    if not values:
        return 0.0
    fast = sorted(values)[:max(1, len(values) // 3)]
    return statistics.fmean(fast)


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# --- build ---------------------------------------------------------------------

def build_dir_for(tag):
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / tag


def build(src_root, tag):
    """Builds hs1perf against src_root's simulator sources; returns its path.
    The build directory is keyed by the resolved checkout and benchmark
    directories, because CMake freezes both at the first configure: two
    checkouts sharing one $CARGO_TARGET_DIR must not reuse each other's."""
    src_root = src_root.resolve()
    if not (src_root / "src" / "runtime" / "experiment.h").is_file():
        raise SystemExit(f"error: no simulator sources under {src_root}/src")
    key = hashlib.sha256(f"{src_root}\0{BENCH_DIR}".encode()).hexdigest()[:12]
    out = build_dir_for(f"{tag}-{key}")
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release", f"-DHS1_ROOT={src_root}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs, "--target", "hs1perf"],
                   check=True, stdout=sys.stderr)
    return out / "hs1perf"


# --- fingerprint -----------------------------------------------------------------

def source_digest(src_root):
    h = hashlib.sha256()
    for path in sorted((src_root / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(src_root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha(src_root):
    try:
        out = subprocess.run(["git", "-C", str(src_root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fingerprint(end_line, src_root):
    return {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "compiler": end_line.get("compiler", "unknown"),
        "build_type": end_line.get("build_type", "unknown"),
        "git_sha": git_sha(src_root),
        "source_sha256": source_digest(src_root),
    }


# Fields that must match before an A/B may compare the two sides' timings.
TIMING_FINGERPRINT = ("cpu", "nproc", "compiler", "build_type")


def fingerprint_mismatch(a, b):
    return [k for k in TIMING_FINGERPRINT if a.get(k) != b.get(k)]


# --- one run ---------------------------------------------------------------------

def run_binary(binary, workload, seed, seconds, trace_path=None, min_reps=3):
    """Runs hs1perf once. Returns (reps, setups, probes, end, crash): crash is
    None, or why the process did not finish cleanly (nonzero exit, timeout,
    no end line); the lines it printed before that are still returned."""
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}", f"--seconds={seconds}",
           f"--min-reps={min_reps}"]
    if trace_path is not None:
        cmd.append(f"--trace-out={trace_path}")
    crash = None
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        stdout, stderr = proc.stdout, proc.stderr
        if proc.returncode != 0:
            crash = f"hs1perf exited {proc.returncode}"
    except subprocess.TimeoutExpired as e:
        stdout = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        stderr = e.stderr.decode() if isinstance(e.stderr, bytes) else (e.stderr or "")
        crash = f"hs1perf timed out after {RUN_TIMEOUT_S} s"
    if stderr:
        log(stderr.rstrip())
    lines = []
    for line in stdout.splitlines():
        try:
            lines.append(json.loads(line))
        except ValueError:
            pass  # a line cut short by a crash
    reps = [l for l in lines if l.get("type") == "rep"]
    setups = [l["setup_s"] for l in lines if l.get("type") == "setup"]
    probes = {l["name"]: l["value"] for l in lines if l.get("type") == "probe"}
    ends = [l for l in lines if l.get("type") == "end"]
    if crash is None and (not reps or len(ends) != 1):
        crash = "hs1perf printed no complete result"
    return reps, setups, probes, (ends[0] if ends else {}), crash


def expected_digest(workload, seed):
    if not DIGESTS_FILE.is_file():
        return None
    table = json.loads(DIGESTS_FILE.read_text())["digests"]
    return table.get(workload, {}).get(str(seed))


def check_reps(reps, expect):
    """Returns (failed, reasons). A repetition fails if the program flagged it
    (safety, oracle, liveness, event cap, nothing accepted), if its digest
    differs from the expected one (or, for a seed without a stored digest,
    from the first repetition's), or if its exact counts or sim_* values
    differ from the first repetition's."""
    reference = expect or reps[0]["digest"]
    first = reps[0]
    failed, reasons = 0, []
    for i, rep in enumerate(reps):
        why = []
        if not rep["ok"]:
            why.append(rep["fail"])
        if rep["digest"] != reference:
            why.append(f"digest {rep['digest'][:16]} != expected {reference[:16]}")
        if rep["counts"] != first["counts"] or any(rep[m] != first[m] for m in SIM_METRICS):
            why.append("exact counts differ between repetitions")
        if why:
            failed += 1
            reasons.append(f"repetition {i}: " + "; ".join(why))
    return failed, reasons


def self_times(trace_path):
    """Per-span-name self time (duration minus the time its children cover),
    as a list of samples per name."""
    spans = json.loads(Path(trace_path).read_text())["spans"]
    child = [0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end_ns"] - s["start_ns"]
    out = {}
    for i, s in enumerate(spans):
        out.setdefault(s["name"], []).append((s["end_ns"] - s["start_ns"] - child[i]) / 1e9)
    return out


def measure(args):
    binary = build(ROOT, "perfbench")
    trace_path = None
    if args.trace:
        trace_path = build_dir_for("traces") / f"{args.workload}-{args.seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
    reps, setups, probes, end, crash = run_binary(binary, args.workload, args.seed,
                                                  args.seconds, trace_path)
    units = {m: u for m, (u, _) in (PER_LAYER if args.trace else END_TO_END).items()}
    fp = fingerprint(end, ROOT)
    if crash:
        # The process failing counts as every repetition failing; the metric
        # values are placeholders.
        log(f"FAILED {crash}")
        attempted = max(1, len(reps))
        print(json.dumps({"fingerprint": fp}))
        print(json.dumps({"correct": False, "attempted": attempted, "failed": attempted,
                          "metrics": {m: {"value": 0.0, "unit": u} for m, u in units.items()}}))
        return 0
    stored = expected_digest(args.workload, args.seed)
    expect = args.expect_digest or stored
    checked_against = ("--expect-digest" if args.expect_digest else
                       "stored" if stored else "first repetition")
    failed, reasons = check_reps(reps, expect)
    for r in reasons:
        log("FAILED " + r)
    attempted = len(reps)
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    first = reps[0]

    if args.trace:
        metrics = per_layer_metrics(first, untraced, traced, probes, end, trace_path)
    else:
        samples = {m: [r[m] for r in untraced] for m in HOST_TIMES}
        samples["setup_s"] += setups
        metrics = {m: fast_third(samples[m]) for m in HOST_TIMES}
        metrics["peak_rss_mb"] = first["peak_rss_kb"] / 1024.0
        for m in SIM_METRICS:
            metrics[m] = first[m]
        metrics["run_ok_frac"] = 1.0 - failed / attempted
        for m in HOST_TIMES:
            q1, q3 = quartiles(samples[m])
            log(f"{m:12s} fast third {metrics[m]:.6f} s  q1 {q1:.6f}  "
                f"median {median(samples[m]):.6f}  q3 {q3:.6f}  n={len(samples[m])}")
    print(json.dumps({"fingerprint": fp, "digest": first["digest"],
                      "digest_checked_against": checked_against}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
    }))
    return 0


def per_layer_metrics(first, untraced, traced, probes, end, trace_path):
    m = {name: first["counts"][name] for name in COUNTS}
    m.update({name: probes.get(name, 0.0) for name in PROBES})
    cpu = median([r["run_cpu_s"] for r in untraced])
    cpu_ns = cpu * 1e9
    m["sim.events_per_cpu_s"] = m["sim.events"] / cpu if cpu else 0.0
    m["crypto.est_share"] = (m["crypto.cert_verify_ns"] *
                             m["consensus.proposals_received"] / cpu_ns)
    m["ledger.est_share"] = (m["ledger.exec_block_ns"] *
                             (m["ledger.txns_executed"] / end["batch"]) / cpu_ns)
    m["sim.est_share"] = m["sim.event_ns"] * m["sim.events"] / cpu_ns
    selfs = self_times(trace_path)
    for span in ("setup", "run", "teardown"):
        m[f"runtime.{span}_self_s"] = median(selfs.get(f"runtime.{span}", []))
    m["trace.overhead_cpu_s"] = median([r["run_cpu_s"] for r in traced]) - cpu
    log("per-span self time (s, summed over the traced run):")
    for name, vals in sorted(selfs.items()):
        log(f"  {name:22s} {sum(vals):10.6f}  spans={len(vals)}")
    log(f"estimated shares of run_cpu_s: crypto {m['crypto.est_share']:.3f}  "
        f"ledger {m['ledger.est_share']:.3f}  sim {m['sim.est_share']:.3f}")
    log(f"tracing overhead: {m['trace.overhead_cpu_s']:+.6f} s of run_cpu_s "
        f"(traced {len(traced)} vs untraced {len(untraced)} repetitions)")
    return m


# --- paired A/B ----------------------------------------------------------------

def ab(args):
    sides = {"base": Path(args.ab[0]).resolve(), "cand": Path(args.ab[1]).resolve()}
    bins = {s: build(root, f"ab-{s}") for s, root in sides.items()}
    values = {s: {m: [] for m in END_TO_END} for s in sides}
    fps, digests = {}, {s: set() for s in sides}
    for i in range(args.pairs):
        order = ("base", "cand") if i % 2 == 0 else ("cand", "base")
        for side in order:
            reps, setups, _, end, crash = run_binary(bins[side], args.workload, args.seed,
                                                     args.seconds)
            if crash:
                raise SystemExit(f"error: {side}: {crash}")
            fps[side] = fingerprint(end, sides[side])
            failed, _ = check_reps(reps, None)
            digests[side].update(r["digest"] for r in reps)
            v = values[side]
            for m in HOST_TIMES:
                v[m].append(fast_third([r[m] for r in reps] +
                                       (setups if m == "setup_s" else [])))
            v["peak_rss_mb"].append(reps[0]["peak_rss_kb"] / 1024.0)
            for m in SIM_METRICS:
                v[m].append(reps[0][m])
            v["run_ok_frac"].append(1.0 - failed / len(reps))
        log(f"pair {i + 1}/{args.pairs} done ({order[0]} first)")
    bad = fingerprint_mismatch(fps["base"], fps["cand"])
    if bad:
        print(json.dumps({"refused": "fingerprints differ", "fields": bad,
                          "base": fps["base"], "cand": fps["cand"]}))
        return 1
    report = {"workload": args.workload, "seed": args.seed, "pairs": args.pairs,
              "fingerprint": fps, "outputs_identical": digests["base"] == digests["cand"],
              "metrics": {}}
    for m, (unit, better) in END_TO_END.items():
        b, c = values["base"][m], values["cand"][m]
        wins = sum((y < x) if better == "lower" else (y > x) for x, y in zip(b, c))
        row = {"unit": unit, "better": better, "cand_win_share": wins / args.pairs}
        for side, vals in (("base", b), ("cand", c)):
            q1, q3 = quartiles(vals)
            row[side] = {"median": median(vals), "q1": q1, "q3": q3}
        # The rule for claiming a gain: the candidate wins at least nine
        # tenths of the pairs and the medians differ by more than the base's
        # own quartile spread.
        base_iqr = row["base"]["q3"] - row["base"]["q1"]
        row["gain_supported"] = (args.pairs >= 10 and wins >= 0.9 * args.pairs and
                                 abs(row["cand"]["median"] - row["base"]["median"]) > base_iqr)
        report["metrics"][m] = row
        log(f"{m:15s} base {row['base']['median']:.6g} [{row['base']['q1']:.6g}, "
            f"{row['base']['q3']:.6g}]  cand {row['cand']['median']:.6g} "
            f"[{row['cand']['q1']:.6g}, {row['cand']['q3']:.6g}]  "
            f"cand wins {wins}/{args.pairs}")
    print(json.dumps(report))
    return 0


# --- expected digests -----------------------------------------------------------

def record_digests(args):
    binary = build(ROOT, "perfbench")
    seeds = [int(s) for s in args.seeds.split(",")]
    table = json.loads(DIGESTS_FILE.read_text()) if DIGESTS_FILE.is_file() else {
        "default_seed": 1, "held_out_seed": 9001, "digests": {}}
    for w in WORKLOADS:
        for seed in seeds:
            reps, _, _, _, crash = run_binary(binary, w, seed, 0.001, min_reps=2)
            failed, reasons = check_reps(reps, None) if not crash else (1, [crash])
            if failed:
                raise SystemExit(f"error: {w} seed {seed} fails: {reasons}")
            table["digests"].setdefault(w, {})[str(seed)] = reps[0]["digest"]
            log(f"{w} seed {seed}: {reps[0]['digest'][:16]}")
    for w in table["digests"]:
        table["digests"][w] = dict(sorted(table["digests"][w].items(), key=lambda kv: int(kv[0])))
    DIGESTS_FILE.write_text(json.dumps(table, indent=1) + "\n")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--expect-digest", help="override the stored expected digest")
    p.add_argument("--ab", nargs=2, metavar=("BASE", "CAND"),
                   help="paired A/B of two checkout roots")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--record-digests", action="store_true")
    p.add_argument("--seeds", default="1,9001")
    args = p.parse_args()
    start = time.monotonic()
    if args.record_digests:
        return record_digests(args)
    if not args.workload:
        p.error("--workload is required")
    if args.ab:
        return ab(args)
    code = measure(args)
    log(f"total {time.monotonic() - start:.1f} s")
    return code


if __name__ == "__main__":
    sys.exit(main())
