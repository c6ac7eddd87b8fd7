#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts, summarized as a BENCH_*.json.

    python3 bench/pairs.py --parent DIR --change DIR --out BENCH_N.json

Per workload, PAIRS pairs (seeds FIRST_SEED on) each run `perfbench/run.py`
once in each checkout with the same seed and the run length of the change's
BENCHMARK.json, alternating which side runs first.  These values are fixed
so that every BENCH_*.json is made the same way.  Neither checkout may
hold a `__pycache__` at the start, so that both sides compile alike, and a
run with a failed verdict stops the script before any file is written.  Of
each run it keeps only what the summary reads (the metrics, the pass count,
the tail percentile and each job's raw seconds), since a child process reads
this script's RSS high-water mark as the start of its own `peak_rss_mb`.  Per
workload the summary holds, for every end-to-end metric, each side's median
and quartiles and the pairs the change won and lost; every run's pass count
and tail percentile; each job's median raw seconds per side; and, from one
`--trace 1` run per side at seed TRACE_SEED, every per-layer metric whose
unit is `count`, so that each work counter a change moves is on record.

`verdict_s_tail` reads the highest percentile with at least 10 samples
above it, so the job it reads depends on how many passes fit in the run.
`tail_job` names, per workload, the parent job at the percentile the
parent's median run read; `change_jobs_above_it` lists the change's jobs
whose median is slower than that job, which a faster change can make the
new tail.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("certify", "search", "readme")
PAIRS = 10
FIRST_SEED = 21
TRACE_SEED = 3


def run(root, workload, seed, seconds, trace=0):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{root}: {' '.join(argv)} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = json.loads(next(l for l in lines if l.startswith("# info "))[len("# info "):])
    record = json.loads((root / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, info, record


def refuse_failures(result, workload, seed, side):
    """Stop before any BENCH file is written if a run's verdicts failed: its
    timings would time failures, not the work."""
    if result["failed"]:
        raise SystemExit(f"{workload} seed {seed} {side}: {result['failed']} of "
                         f"{result['attempted']} verdicts failed; no BENCH file written")


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def job_seconds(record):
    """Raw seconds per job, over every pass of one run's record: the one part
    of the record that `summarize` reads."""
    times = {}
    for p in record["passes"]:
        for j, t in zip(p["jobs"], p["job_s"]):
            times.setdefault(record["jobs"][j], []).append(t)
    return times


def job_medians(runs):
    """Median raw seconds per job, over every pass of every run (`job_seconds`)."""
    times = {}
    for run_times in runs:
        for key, v in run_times.items():
            times.setdefault(key, []).extend(v)
    return {key: statistics.median(v) for key, v in sorted(times.items())}


def tail_rank(passes, jobs):
    """1-based rank, slowest first, of the job that the tail percentile of a
    run with `passes` passes of `jobs` jobs reads, if jobs are well apart."""
    n = passes * jobs
    for q in (99, 95, 90, 75, 50):
        idx = max(0, -(-q * n // 100) - 1)
        if n - 1 - idx >= 10:
            return -(-(n - idx) // passes)
    return 1


def summarize(rows, traced, end_to_end):
    side = {s: [r for r in rows if r["side"] == s] for s in ("parent", "change")}
    metrics = {}
    for m in end_to_end:
        name, sign = m["name"], (1 if m["better"] == "lower" else -1)
        pv = [r["metrics"][name] for r in side["parent"]]
        cv = [r["metrics"][name] for r in side["change"]]
        P, C = quartiles(pv), quartiles(cv)
        metrics[name] = {
            "parent": P, "change": C, "bound": m["bound"], "pairs": len(pv),
            "change_won": sum(sign * (c - p) < 0 for p, c in zip(pv, cv)),
            "change_lost": sum(sign * (c - p) > 0 for p, c in zip(pv, cv)),
            "change_over_parent": C["median"] / P["median"] if P["median"] else None,
        }
    jobs = {s: job_medians(r["job_s"] for r in side[s]) for s in side}
    slowest_first = sorted(jobs["parent"], key=jobs["parent"].get, reverse=True)
    passes = statistics.median_low(r["passes"] for r in side["parent"])
    tail_job = slowest_first[tail_rank(passes, len(slowest_first)) - 1]
    limit = jobs["parent"][tail_job]
    return {
        "metrics": metrics,
        "runs": [{k: r[k] for k in ("pair", "seed", "side", "ran_first", "passes",
                                    "tail_percentile", "attempted", "failed")}
                 | {"run_s": r["metrics"]["run_s"], "verdict_s_tail": r["metrics"]["verdict_s_tail"]}
                 for r in rows],
        "job_median_raw_s": jobs,
        "tail_job": {"parent_median_passes": passes, "job": tail_job, "parent_median_raw_s": limit,
                     "change_jobs_above_it": {k: v for k, v in jobs["change"].items() if v > limit}},
        "traced": traced,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    # a side that imports from bytecode an earlier run left in its checkout
    # skips compiling, which shows in its setup_s and peak_rss_mb
    cached = [str(d) for root in roots.values() for d in root.rglob("__pycache__")]
    if cached:
        raise SystemExit("remove the bytecode caches first: " + " ".join(cached))
    bench = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    out = {"python": sys.version.split()[0], "run_seconds": bench["run_seconds"],
           "sides": {}, "workloads": {}}
    for workload in WORKLOADS:
        rows = []
        for i in range(PAIRS):
            seed = FIRST_SEED + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for s in order:
                result, info, record = run(roots[s], workload, seed, bench["run_seconds"])
                refuse_failures(result, workload, seed, s)
                rows.append({"pair": i, "seed": seed, "side": s, "ran_first": s == order[0],
                             "passes": info["passes"], "tail_percentile": info["tail_percentile"],
                             "attempted": result["attempted"], "failed": result["failed"],
                             "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                             "job_s": job_seconds(record)})
                out["sides"].setdefault(s, {k: record["machine"][k] for k in ("git_sha", "src_sha256", "nproc")})
                # a child reads this script's RSS high-water mark as its own
                # peak_rss_mb, so no run's record is kept past this point
                del record
                print(f"{workload} seed {seed} {s}: run_s {rows[-1]['metrics']['run_s']:.3f} "
                      f"tail {rows[-1]['metrics']['verdict_s_tail']:.4f} passes {info['passes']}",
                      file=sys.stderr, flush=True)
        traced = {}
        for s, root in roots.items():
            result = run(root, workload, TRACE_SEED, bench["run_seconds"], trace=1)[0]
            refuse_failures(result, workload, TRACE_SEED, s)
            traced[s] = {k: v["value"] for k, v in result["metrics"].items()
                         if v["unit"] == "count"}
        out["workloads"][workload] = summarize(rows, traced, bench["end_to_end"])
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
