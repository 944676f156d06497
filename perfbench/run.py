#!/usr/bin/env python3
"""The repo benchmark: host time of the `nova_sim --serve` path.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds nova_perf and nova_sim (Release) under .bench_build/, then:
  1. runs the workload at the pinned seed and checks the report fingerprint
     in fingerprints.json;
  2. runs the workload at --seed in fresh nova_perf processes until --seconds
     have passed, each checked (exit status, hybrid tolerance, identical
     fingerprints; traced runs also the replay checks);
  3. runs the real nova_sim once with the same flags and checks its printed
     throughput, p99 and status rows equal nova_perf's report.
The last stdout line is the JSON result: end-to-end metrics (medians over
the untraced runs) with --trace 0, per-layer metrics with --trace 1.
See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"

COMMON = ["--serve", "--instances", "8", "--fusion", "off", "--threads", "2"]
WORKLOADS = {
    "whole-overload": COMMON + [
        "--requests", "1000000", "--pricing", "surrogate"],
    "continuous-faults": COMMON + [
        "--continuous", "--max-steps", "16", "--requests", "10000",
        "--pricing", "hybrid", "--faults", "--mtbf", "20000",
        "--mttr", "2000"],
    "exact-decode": COMMON + [
        "--decode", "--max-steps", "64", "--requests", "8000",
        "--pricing", "exact"],
}

GOLDEN_SEED = 42
MIN_RUNS = 3
# Traced runs pool their per-call samples; stop adding runs at this age
# even if a percentile is still unsupported.
TRACE_LIMIT_S = 120.0
RUN_TIMEOUT_S = 150.0


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log("run.py: no nova source tree next to perfbench/; nothing to build")
        return False
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    made = subprocess.run(
        ["cmake", "--build", str(BUILD), "-j", jobs,
         "--target", "nova_perf", "nova_sim"],
        stdout=sys.stderr, stderr=sys.stderr)
    return made.returncode == 0


def source_revision():
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if head.returncode == 0:
            return {"git_commit": head.stdout.strip()}
    except OSError:
        pass
    # Not a git checkout: identify the sources by content instead.
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted(
        p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*")
        if p.is_file() and "__pycache__" not in p.parts)
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"git_commit": None, "source_digest": digest.hexdigest()}


def run_process(argv, out_path):
    """Runs argv with stdout to out_path. Returns (exit code, wall seconds
    from exec to exit, peak resident set in MB)."""
    with open(out_path, "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out)
        timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    # Reaped here, so Popen must not wait for it again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def run_perf(flags, seed, spans=None):
    """One fresh nova_perf process. Returns (info, wall_s, peak_rss_mb), or
    None when it failed."""
    argv = [str(BUILD / "nova_perf")] + flags + ["--seed", str(seed)]
    if spans is not None:
        argv += ["--spans", str(spans)]
    out_path = BUILD / f"nova_perf-{os.getpid()}.out"
    try:
        code, wall, rss = run_process(argv, out_path)
        lines = out_path.read_text().strip().splitlines()
    finally:
        out_path.unlink(missing_ok=True)
    if code != 0 or not lines:
        log(f"run.py: nova_perf exited {code}")
        return None
    return json.loads(lines[-1]), wall, rss


def check_run(info, traced):
    """The per-run correctness gate beyond the exit status."""
    problems = []
    if not info["within_tolerance"]:
        problems.append("hybrid pricing drifted past its tolerance")
    if traced:
        if info["replay_distinct_shapes"] != info["distinct_shapes"]:
            problems.append(
                f"replay found {info['replay_distinct_shapes']} distinct "
                f"shapes, the report {info['distinct_shapes']}")
        if not info["hybrid_matches"]:
            problems.append("replayed hybrid samples differ from the report")
    return problems


def nova_sim_rows(text):
    """metric -> value for every two-column table row nova_sim printed."""
    rows = {}
    for line in text.splitlines():
        match = re.fullmatch(r"\|\s*(.+?)\s*\|\s*(.+?)\s*\|", line.strip())
        if match:
            rows.setdefault(match.group(1), match.group(2))
    return rows


def parity_problems(flags, seed, info):
    """Runs the real nova_sim with the workload's flags and compares its
    throughput, p99 and status rows with nova_perf's report."""
    out = subprocess.run([str(BUILD / "nova_sim")] + flags +
                         ["--seed", str(seed)],
                         capture_output=True, text=True,
                         timeout=RUN_TIMEOUT_S)
    if out.returncode != 0:
        return [f"nova_sim exited {out.returncode}"]
    rows = nova_sim_rows(out.stdout)
    expected = {"throughput (req/s)": info["throughput"],
                "latency p99 (us)": info["p99"]}
    for status, count in info["status"].items():
        expected[f"{status} requests"] = str(count)
    return [f"nova_sim prints {key} = {rows.get(key)}, nova_perf {value}"
            for key, value in expected.items() if rows.get(key) != value]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = manifest["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    golden = json.loads((HERE / "fingerprints.json").read_text())
    if not build():
        log("run.py: build failed")
        return 1
    flags = WORKLOADS[args.workload]
    traced = bool(args.trace)

    # Correctness at the pinned seed; also warms the page cache.
    problems = []
    pinned = run_perf(flags, GOLDEN_SEED)
    if pinned is None:
        problems.append(f"run at seed {GOLDEN_SEED} failed")
    elif pinned[0]["fingerprint"] != golden[args.workload]:
        problems.append(
            f"fingerprint at seed {GOLDEN_SEED} is {pinned[0]['fingerprint']},"
            f" pinned {golden[args.workload]}")

    attempted = failed = 0
    runs = []
    missing = []
    first = None
    spans_path = BUILD / f"spans-{os.getpid()}.jsonl"
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        enough = len(runs) >= MIN_RUNS or attempted >= 2 * MIN_RUNS
        if enough and elapsed >= args.seconds and (
                not missing or elapsed >= TRACE_LIMIT_S):
            break
        attempted += 1
        result = run_perf(flags, args.seed, spans_path if traced else None)
        run_problems = ["run failed"] if result is None else check_run(
            result[0], traced)
        if result is not None and first is not None and \
                result[0]["fingerprint"] != first["fingerprint"]:
            run_problems.append("fingerprint differs between runs")
        if run_problems:
            log("run.py: run discarded:", "; ".join(run_problems))
            failed += 1
            continue
        info, wall, rss = result
        first = first or info
        if traced:
            spans = summary.parse_spans(spans_path.read_text().splitlines())
            spans_path.unlink()
            runs.append(summary.layer_values(spans, info))
            _, missing = summary.combine_layers(runs)
        else:
            runs.append({"wall_s": wall, "setup_s": info["setup_s"],
                         "serve_s": info["serve_s"], "peak_rss_mb": rss})
    spans_path.unlink(missing_ok=True)
    if not runs:
        log("run.py: no run passed its checks")
        return 1
    problems += parity_problems(flags, args.seed, first)

    if traced:
        metrics, missing = summary.combine_layers(runs)
        if missing:
            log("run.py: too few samples for " + ", ".join(missing))
            return 1
    else:
        metrics = {name: statistics.median(r[name] for r in runs)
                   for name in units}
        print(json.dumps({"runs": len(runs), "quartiles": {
            name: summary.quartiles([r[name] for r in runs])
            for name in units}}))
    for problem in problems:
        log("run.py: FAILED:", problem)
    env = {key: first[key] for key in ("compiler", "build_type")}
    env.update(source_revision(), nproc=os.cpu_count(),
               workload=args.workload, seed=args.seed, flags=flags)
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
