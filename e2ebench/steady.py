#!/usr/bin/env python3
"""Steadiness helper for the end-to-end benchmark.

Runs N sets of one or all workloads through run.py (set i uses seed
SEED0 + i; the workload order alternates between sets) and prints, for each
workload and end-to-end metric, the median, the quartiles and the
interquartile spread as a share of the median, against the metric's bound
in BENCHMARK.json. A spread under a third of the bound is steady; over the
bound the metric cannot resolve a change of that size.

Usage:
  python3 e2ebench/steady.py --sets 10 [--workloads m3d100k,tiny_hot]
      [--seed0 1] [--save sets.json] [--against earlier-sets.json]

--against compares the medians with a saved earlier set (same code: each
median must stay within its bound of the earlier one, in either direction). The default seed of
the benchmark is 1; seed 977 is held out for confirming claims.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "e2ebench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or len(lines) < 2:
        sys.stderr.write(r.stderr[-2000:])
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    env = json.loads(lines[-2].split(" ", 1)[1])
    return json.loads(lines[-1]), env


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--sets", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()
    chosen = [w for w in args.workloads.split(",") if w]
    for w in chosen:
        if w not in names:
            raise SystemExit(f"unknown workload {w!r}")
    if args.sets < 2:
        raise SystemExit("--sets must be >= 2 for quartiles")

    values = {w: {} for w in chosen}
    for i in range(args.sets):
        order = chosen if i % 2 == 0 else list(reversed(chosen))
        for w in order:
            res, env = run_once(w, args.seed0 + i, args.seconds)
            if not res["correct"]:
                raise SystemExit(f"{w} seed {args.seed0 + i}: outputs wrong")
            for name, m in res["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"set {i + 1}/{args.sets} {w} done, host steal share "
                  f"{env.get('host_steal_share')}", file=sys.stderr)

    earlier = json.loads(Path(args.against).read_text()) if args.against else {}
    out = {}
    worst = 0.0
    print(f"{'workload':10} {'metric':24} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} {'bound':>6} {'verdict':>8}"
          + ("  drift vs earlier" if earlier else ""))
    for w in chosen:
        out[w] = {}
        for m in spec["end_to_end"]:
            vals = values[w].get(m["name"])
            if not vals:
                continue
            s = summarize(vals)
            out[w][m["name"]] = s
            bound = m["bound"]
            worst = max(worst, s["spread"] / bound)
            verdict = ("steady" if s["spread"] < bound / 3 else
                       "ok" if s["spread"] <= bound else "NOISY")
            line = (f"{w:10} {m['name']:24} {s['median']:12.5g} "
                    f"{s['q1']:12.5g} {s['q3']:12.5g} {s['spread']:8.2%} "
                    f"{bound:6.2f} {verdict:>8}")
            prev = earlier.get(w, {}).get(m["name"])
            if prev:
                sign = 1 if m["better"] == "lower" else -1
                drift = sign * (s["median"] - prev["median"]) / prev["median"]
                line += (f"  {drift:+.2%} "
                         f"{'within' if abs(drift) <= bound else 'MOVED'}")
            print(line)
    print(f"largest spread/bound: {worst:.2f}")
    if args.save:
        Path(args.save).write_text(json.dumps(out, indent=2) + "\n")


if __name__ == "__main__":
    main()
