#!/usr/bin/env python3
"""End-to-end benchmark of the m3dfl diagnosis flow.

Runs one workload: builds the e2ebench program from this checkout's sources
(CMake, Release) when the sources are newer than the binary, then runs the
three stages of the workload as separate processes:

  onboard  design builds, Syn-1 fault-dictionary campaign, datagen, training
           (plus the int8 twin for int8 workloads) -> framework file;
  pool     Syn-2 design build and the workload's fixed pool of failure logs
           -> pool file (and the Tier-predictor's accuracy on it);
  serve    loads both files, sets the service up several times, serves the
           pool in an open-loop and a backlog phase, and checks served
           responses against the sequential reference path.

Usage:
  python3 e2ebench/run.py --workload m3d100k --seed 1 --seconds 24 --trace 0

The last line of standard output is the result:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with every end_to_end metric of BENCHMARK.json (--trace 0) or every per_layer
metric (--trace 1). Full results, the run-environment record, the per-layer
report and Chrome traces go to <build dir>/results/. Exits non-zero on any
output-check failure, and with code 2 when the sources are missing.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "e2ebench"
STAGE_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
# Compute threads per stage (executor workers, campaign shards, training);
# mirrored by kComputeThreads in common.h.
COMPUTE_THREADS = 2


def die(msg, code=2):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def source_files():
    files = [p for p in (ROOT / "src").rglob("*") if p.is_file()]
    files += [p for p in BENCH_DIR.iterdir()
              if p.is_file() and p.suffix in (".cpp", ".h", ".txt")]
    return sorted(files)


def source_digest(files):
    h = hashlib.sha256()
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def ensure_built(files):
    cmake_dir = build_dir() / "cmake"
    binary = cmake_dir / "e2ebench"
    newest = max(p.stat().st_mtime for p in files)
    if binary.exists() and binary.stat().st_mtime >= newest:
        return binary
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(cmake_dir), "-j", jobs],
    ]
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        if r.returncode != 0:
            die(f"build step failed: {' '.join(cmd)}", 1)
    if not binary.exists():
        die("build produced no e2ebench binary", 1)
    os.utime(binary)
    return binary


def run_stage(binary, stage, args, out_dir):
    result = out_dir / f"{stage}.json"
    cmd = [str(binary), stage, "--workload", args.workload,
           "--seconds", str(args.seconds), "--seed", str(args.seed),
           "--trace", str(args.trace),
           "--framework", str(out_dir / "framework.m3dfl"),
           "--pool", str(out_dir / "pool.txt"), "--result", str(result)]
    if args.trace:
        cmd += ["--trace-file", str(out_dir / f"{stage}.trace.json")]
    if result.exists():
        result.unlink()
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=STAGE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{stage} stage exceeded {STAGE_TIMEOUT_S} s", 1)
    if r.returncode != 0 or not result.exists():
        die(f"{stage} stage failed with exit code {r.returncode}", 1)
    return json.loads(result.read_text())


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def cpu_jiffies():
    """(steal, total) jiffies of all CPUs so far, from /proc/stat."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        v = [int(x) for x in fields[1:9]]
        return v[7], sum(v)
    except (OSError, ValueError, IndexError):
        return 0, 0


def layer_report(metrics, workload):
    """Per-layer values plus the self-time accounting of the served path."""
    v = {k: m["value"] for k, m in metrics.items()}
    service = v.get("serve.service_ms_mean", 0.0)
    layers = {
        "diagnosis.diagnose_ms": v.get("diagnosis.diagnose_ms_mean", 0.0),
        "graphx.backtrace_ms (per miss)": v.get("graphx.backtrace_ms", 0.0),
        "core.policy_ms": v.get("core.policy_ms", 0.0),
    }
    diag_split = {k: v.get(k, 0.0) for k in
                  ("diagnosis.score_ms", "diagnosis.backtrace_ms",
                   "diagnosis.rank_ms")}
    p50 = v.get("latency_p50_ms", 0.0)
    return {
        "workload": workload,
        "self_time": {
            "serve.service_ms_mean": service,
            "replayed_layer_means_ms": layers,
            "explained_ratio": v.get("serve.explained_ratio", 0.0),
            "largest_diagnosis_stage": max(diag_split, key=diag_split.get),
            "diagnosis_stage_means_ms": diag_split,
        },
        "latency_split": {
            "latency_p50_ms": p50,
            "serve.queue_wait_ms_p50": v.get("serve.queue_wait_ms_p50", 0.0),
            "serve.service_ms_p50": v.get("serve.service_ms_p50", 0.0),
            "queue_share_of_p50": (v.get("serve.queue_wait_ms_p50", 0.0) / p50
                                   if p50 > 0 else 0.0),
        },
        "obs.tracing_overhead_ratio": v.get("obs.tracing_overhead_ratio", 0.0),
        "metrics": metrics,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no m3dfl sources under {ROOT / 'src'}; run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die(f"unknown workload {args.workload!r}")
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")

    files = source_files()
    binary = ensure_built(files)
    out_dir = (build_dir() / "results" /
               f"{args.workload}-seed{args.seed}-trace{args.trace}")
    out_dir.mkdir(parents=True, exist_ok=True)

    t0 = time.monotonic()
    steal0, total0 = cpu_jiffies()
    stages, stage_s = {}, {}
    for name in ("onboard", "pool", "serve"):
        t_stage = time.monotonic()
        stages[name] = run_stage(binary, name, args, out_dir)
        stage_s[name] = round(time.monotonic() - t_stage, 3)
    wall = time.monotonic() - t0
    steal1, total1 = cpu_jiffies()
    serve = stages["serve"]

    metrics, phases, notes, mismatches = {}, {}, {}, []
    for name, st in stages.items():
        metrics.update(st["metrics"])
        phases.update({f"{name}.{k}": p for k, p in st["phases"].items()})
        notes.update(st["notes"])
        mismatches += st["mismatches"]
    attempted = sum(p["attempted"] for p in phases.values())
    failed = sum(p["failed"] for p in phases.values())
    if mismatches and failed == 0:
        failed = len(mismatches)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    selected = {}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or not math.isfinite(got["value"]):
            mismatches.append(f"metric {m['name']} was not measured")
            continue
        if got["unit"] != m["unit"]:
            mismatches.append(f"metric {m['name']} has unit {got['unit']}")
        selected[m["name"]] = got
    correct = not mismatches and failed == 0 and attempted > 0

    env = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "simd_tier": serve["notes"].get("simd_tier"),
        "perf_counters": serve["notes"].get("perf_counters"),
        "build_type": serve["notes"].get("build_type"),
        "compiler": serve["notes"].get("compiler"),
        "commit": serve["notes"].get("git_hash"),
        "source_digest": source_digest(files),
        "threads": {"compute": COMPUTE_THREADS,
                    "serve_process": "2 executor workers + batcher + "
                                     "generator/collector"},
        "stage_wall_s": round(wall, 3),
        "stage_s": stage_s,
        # Share of all CPU time the hypervisor gave to other guests while
        # the stages ran: a noisy-neighbour marker for reading the figures.
        "host_steal_share": (round((steal1 - steal0) / (total1 - total0), 4)
                             if total1 > total0 else None),
    }
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "env": env,
        "correct": correct, "attempted": attempted, "failed": failed,
        "phases": phases, "mismatches": mismatches,
        "notes": notes,
        "metrics": metrics,
    }
    (out_dir / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        (out_dir / "layers.json").write_text(
            json.dumps(layer_report(metrics, args.workload), indent=2) + "\n")

    for msg in mismatches[:20]:
        print(f"e2ebench: output check: {msg}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": selected}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
