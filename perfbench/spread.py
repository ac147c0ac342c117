#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads serve_mix,ooc_factor --seeds 1-10

For every workload and end-to-end metric (or per-layer metric with
--trace 1) this prints the median over the seeds and the distance between
the first and third quartile (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound from BENCHMARK.json.  Run from the
repository root.  Exits non-zero if any run fails.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", default=None)
    args = ap.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or str(spec["run_seconds"])
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    ok = True
    for w in workloads:
        values = {}
        for seed in seeds_of(args.seeds):
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", seconds, "--trace", args.trace]
            p = subprocess.run(cmd, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                ok = False
                print(f"{w} seed {seed}: exit {p.returncode}\n{p.stdout}\n{p.stderr}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                ok = False
                print(f"{w} seed {seed}: incorrect\n{p.stdout}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
            share = (q3 - q1) / med if med else float("nan")
            b = bounds.get(name)
            flag = "" if b is None else ("  ok" if share < b / 3 else ("  WIDE" if share >= b else "  >b/3"))
            print(f"  {w:11s} {name:28s} median {med:12.6g}  iqr/median {share:7.4f}"
                  f"  bound {b}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
