#!/usr/bin/env python3
"""hopfgal benchmark: one workload per process, a closed loop with one client.

    python3 perfbench/run.py --workload certify|search|readme --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; hopfgal is imported from ./src.
Whole passes over the seed's job list repeat until --seconds have elapsed
(at least one pass).  Every verdict is checked against the frozen answers in
perfbench/data/golden.json.  The last line of stdout is one JSON object with
the metrics; a fuller record (machine-drift data, per-job times, and in a
traced run the tracer summary and spans) goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench_out"
SETUP_PROBES = 5
# A traced run re-runs jobs untraced, as the overhead base, only while the
# process stays within this many seconds (each run must end within 180 s).
TRACE_DEADLINE_S = 120.0

END_TO_END = (
    ("setup_s", "s"), ("run_s", "s"), ("cpu_s", "s"), ("verdict_s_p50", "s"),
    ("verdict_s_tail", "s"), ("peak_rss_mb", "MB"), ("verdict_ok_ratio", "ratio"),
)

# (metric, unit): "<layer>.<callable>.<field>" read from the tracer summary,
# plus the tracer's own figures under "trace.".
PER_LAYER = (
    ("abelian.check_elem.calls", "count"),
    ("abelian.add.calls", "count"),
    ("abelian.scalar_mul.calls", "count"),
    ("nilring.mul.calls", "count"),
    ("nilring.circle.calls", "count"),
    ("abelian.additive_closure.calls", "count"),
    ("abelian.additive_closure.self_s", "s"),
    ("abelian.subgroup_from_elements.self_s", "s"),
    ("abelian.enumerate_subgroups.total_s", "s"),
    ("abelian.isomorphism_type.total_s", "s"),
    ("nilring.ideals.calls", "count"),
    ("nilring.ideals.total_s", "s"),
    ("nilring.ideals.self_s", "s"),
    ("nilring.circle_group.total_s", "s"),
    ("nilring.enumerate_structures.total_s", "s"),
    ("nilring.enumerate_structures.self_s", "s"),
    ("nilring.validate.calls", "count"),
    ("nilring.validate.total_s", "s"),
    ("nilring.validate.accept_ratio", "ratio"),
    ("holomorph.enumerate_regular_subgroups.total_s", "s"),
    ("holomorph.enumerate_regular_subgroups.self_s", "s"),
    ("holomorph.closure_under_composition.calls", "count"),
    ("holomorph.closure_under_composition.total_s", "s"),
    ("holomorph.closure_under_composition.useful_ratio", "ratio"),
    ("holomorph.enumerate_automorphisms.total_s", "s"),
    ("holomorph.compose.calls", "count"),
    ("holomorph.inverse.calls", "count"),
    ("holomorph.tau.calls", "count"),
    ("holomorph.is_invertible.calls", "count"),
    ("correspondence.lattice_report.total_s", "s"),
    ("correspondence.lattice_report.self_s", "s"),
    ("correspondence.circle_subgroup_count.total_s", "s"),
    ("correspondence.circle_subgroup_count.self_s", "s"),
    ("correspondence.invariant_subgroups.total_s", "s"),
    ("correspondence.invariant_subgroups.self_s", "s"),
    ("correspondence.holomorph_conjugation_report.total_s", "s"),
    ("correspondence.holomorph_conjugation_report.self_s", "s"),
    ("correspondence.Context.calls", "count"),
    ("correspondence.Context.total_s", "s"),
    ("correspondence.perm_compose.calls", "count"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("trace.run_s", "s"),
    ("trace.base_untraced_s", "s"),
    ("trace.base_traced_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.base_jobs", "count"),
    ("trace.uncovered_s", "s"),
    ("trace.spans", "count"),
    ("trace.raised", "count"),
)

# Where the ratios come from: (numerator field, denominator field).
RATIOS = {"accept_ratio": ("ok", "calls"), "useful_ratio": ("ok", "calls")}


class SetupError(Exception):
    """The checkout cannot run the benchmark (no sources, bad data)."""


# -- set-up ----------------------------------------------------------------

def import_hopfgal(root):
    src = root / "src"
    if not (src / "hopfgal" / "__init__.py").is_file():
        raise SetupError(f"no hopfgal sources under {src}")
    sys.path.insert(0, str(src))
    import hopfgal
    import hopfgal.cli
    import hopfgal.correspondence

    if Path(hopfgal.__file__).resolve().parent != (src / "hopfgal").resolve():
        raise SetupError(f"hopfgal imported from {hopfgal.__file__}, not {src}")
    return hopfgal


def setup(root, workload, seed):
    """Import hopfgal, load golden answers and inputs, build the job list."""
    hopfgal = import_hopfgal(root)
    golden = workloads.load_json(workloads.GOLDEN_PATH)
    catalogue = None
    if workload == "certify":
        digest = hashlib.sha256(workloads.CATALOGUE_PATH.read_bytes()).hexdigest()
        if digest != golden["catalogue_sha256"]:
            raise SetupError("catalogue.json does not match golden.json")
        catalogue = workloads.load_catalogue(hopfgal)
    jobs = workloads.build_jobs(workload, seed, catalogue)
    section = golden["cli" if workload != "certify" else "certify"]
    missing = [job.key for job in jobs if job.key not in section]
    if missing:
        raise SetupError(f"no golden verdict for {missing}")
    return hopfgal, golden, jobs


def setup_seconds(root, workload, seed):
    """(median, start, end): wall time of fresh processes that only do the set-up."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    times = []
    first = time.perf_counter()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=root, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.decode().strip()}")
    return statistics.median(times), first, time.perf_counter()


# -- machine speed ---------------------------------------------------------

# On a shared host the speed drifts by tens of percent within minutes.
# Timings are therefore reported at a reference speed: each is multiplied by
# CAL_REFERENCE_S / (time of a fixed pure-Python loop measured while it ran).
# The raw seconds and the slowdown are kept in the record.
CAL_ITERATIONS = 10_000
CAL_REFERENCE_S = 0.001
CAL_PERIOD_S = 0.05


def calibration_loop():
    """(start, end) of one run of the fixed calibration loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(CAL_ITERATIONS):
        acc = (acc * 31 + i) % 1_000_003
    return start, time.perf_counter()


class SpeedProbe:
    """Times the calibration loop every CAL_PERIOD_S in a background thread.

    Each sample holds the interpreter lock for about 1 ms, which pauses the
    measured thread by about 2%, the same on every commit.
    """

    def __init__(self):
        self.samples = [calibration_loop()]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self):
        while not self._stop.wait(CAL_PERIOD_S):
            self.samples.append(calibration_loop())

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.samples.append(calibration_loop())

    def slowdown(self, start=None, end=None):
        """Median loop time relative to the reference speed, over the samples
        taken within [start, end] (the speed changes within seconds); over the
        whole run without an interval or when none falls inside it."""
        chosen = [e - s for s, e in self.samples
                  if start is None or (s >= start and e <= end)]
        return statistics.median(chosen or [e - s for s, e in self.samples]) / CAL_REFERENCE_S


def git_sha(root):
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_sha256(root):
    """Digest of the package sources, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "hopfgal").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_record(root):
    return {
        "git_sha": git_sha(root),
        "src_sha256": src_sha256(root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "calibration_s": statistics.median(e - s for s, e in (calibration_loop() for _ in range(5))),
        "calibration_reference_s": CAL_REFERENCE_S,
    }


# -- measuring -------------------------------------------------------------

def run_pass(hopfgal, golden, jobs, tracer=None, deadline=None, estimate_s=None):
    """Run jobs in order, one at a time; per-job wall time and failed verdicts.

    With a deadline (a perf_counter value), skip each job whose estimated
    time (estimate_s, by job index) would cross it.
    """
    job_s, job_t, failed, done = [], [], [], []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for i, job in enumerate(jobs):
        if deadline is not None and time.perf_counter() + estimate_s[i] > deadline:
            continue
        if tracer is not None:
            tracer.job = i
        start = time.perf_counter()
        observed = workloads.run_job(hopfgal, job)
        end = time.perf_counter()
        job_s.append(end - start)
        job_t.append((start, end))
        done.append(i)
        if observed != workloads.expected(golden, job):
            failed.append({"job": job.key, "observed": observed})
    return {"wall_s": time.perf_counter() - wall0, "cpu_s": time.process_time() - cpu0,
            "t": (wall0, time.perf_counter()), "jobs": done, "job_s": job_s, "job_t": job_t,
            "failed": failed}


def tail(samples):
    """Highest of p99/p95/p90/p75/p50 with at least 10 samples above it.

    With fewer than 20 samples no such percentile exists and the slowest job
    is reported (as p100).
    """
    s = sorted(samples)
    n = len(s)
    for q in (99, 95, 90, 75, 50):
        idx = max(0, math.ceil(q / 100 * n) - 1)
        if n - 1 - idx >= 10:
            return s[idx], q
    return s[-1], 100


def end_to_end_metrics(passes, setup, probe):
    """Metrics at the reference speed; `setup` is (seconds, start, end)."""
    job_s = [t / probe.slowdown(*span)
             for p in passes for t, span in zip(p["job_s"], p["job_t"])]
    attempted = len(job_s)
    failed = sum(len(p["failed"]) for p in passes)
    tail_s, tail_q = tail(job_s)
    values = {
        "setup_s": setup[0] / probe.slowdown(*setup[1:]),
        "run_s": statistics.median(p["wall_s"] / probe.slowdown(*p["t"]) for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] / probe.slowdown(*p["t"]) for p in passes),
        "verdict_s_p50": statistics.median(job_s),
        "verdict_s_tail": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "verdict_ok_ratio": (attempted - failed) / attempted,
    }
    info = {"passes": len(passes), "tail_percentile": tail_q, "tail_samples": attempted,
            "slowdown": probe.slowdown(), "speed_sample_count": len(probe.samples),
            "raw_setup_s": setup[0],
            "raw_run_s": statistics.median(p["wall_s"] for p in passes)}
    return values, info


def per_layer_metrics(summary, traced, base, tracer):
    values = {}
    for name, _unit in PER_LAYER:
        if name.startswith("trace."):
            continue
        func, field = name.rsplit(".", 1)
        stat = summary.get(func, {})
        if field in RATIOS:
            num, den = RATIOS[field]
            values[name] = stat.get(num, 0) / stat[den] if stat.get(den) else 0.0
        else:
            values[name] = stat.get(field, 0)
    base_traced = sum(traced["job_s"][traced["jobs"].index(i)] for i in base["jobs"])
    base_untraced = sum(base["job_s"])
    covered = sum(tracer.root_span_seconds(i) for i in traced["jobs"])
    values.update({
        "trace.run_s": traced["wall_s"],
        "trace.base_untraced_s": base_untraced,
        "trace.base_traced_s": base_traced,
        "trace.overhead_ratio": base_traced / base_untraced if base_untraced else 0.0,
        "trace.base_jobs": len(base["jobs"]),
        "trace.uncovered_s": sum(traced["job_s"]) - covered,
        "trace.spans": len(tracer.spans),
        "trace.raised": sum(s.get("raised", 0) for s in summary.values()),
    })
    return values


def measure(root, args, process_start):
    hopfgal, golden, jobs = setup(root, args.workload, args.seed)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_record(root),
              "jobs": [job.key for job in jobs]}
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer = tracing.Tracer(hopfgal)
        tracer.install()
        try:
            traced = run_pass(hopfgal, golden, jobs, tracer)
        finally:
            tracer.uninstall()
        base = run_pass(hopfgal, golden, jobs, deadline=process_start + TRACE_DEADLINE_S,
                        estimate_s=traced["job_s"])
        summary = tracer.summary()
        values = per_layer_metrics(summary, traced, base, tracer)
        units = dict(PER_LAYER)
        passes = [traced, base]
        record["tracer_summary"] = summary
        tracer.write_spans(out_dir / f"{stem}-spans.csv")
        info = {"overhead": f"traced {values['trace.base_traced_s']:.3f} s / untraced "
                            f"{values['trace.base_untraced_s']:.3f} s over "
                            f"{values['trace.base_jobs']} of {len(jobs)} jobs"}
    else:
        passes = []
        with SpeedProbe() as probe:
            setup_s = setup_seconds(root, args.workload, args.seed)
            start = time.perf_counter()
            while not passes or time.perf_counter() - start < args.seconds:
                passes.append(run_pass(hopfgal, golden, jobs))
        values, info = end_to_end_metrics(passes, setup_s, probe)
        units = dict(END_TO_END)
        record["speed_samples"] = probe.samples
    attempted = sum(len(p["jobs"]) for p in passes)
    failures = [f for p in passes for f in p["failed"]]
    record.update(passes=passes, info=info, metrics=values)
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print("# machine " + json.dumps(record["machine"], sort_keys=True))
    print("# info " + json.dumps(info, sort_keys=True))
    for f in failures:
        print("# failed " + json.dumps(f, sort_keys=True))
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


# -- self-test -------------------------------------------------------------

SMOKE_CLI = {"readme": "verify conjugation --family fixture:klein",
             "search": "enumerate --p 2 --exp 2"}


def smoke(root):
    """One small job per workload, traced and untraced, against golden and a
    corrupted golden copy; and the metric names against BENCHMARK.json."""
    hopfgal = import_hopfgal(root)
    golden = workloads.load_json(workloads.GOLDEN_PATH)
    cheapest = min(workloads.load_catalogue(hopfgal), key=lambda e: e[2])
    jobs = {
        "certify": workloads.Job("certify", cheapest[0], cheapest[1]),
        **{w: workloads.Job("cli", cmd, cmd.split()) for w, cmd in SMOKE_CLI.items()},
    }
    problems = []
    for workload, job in jobs.items():
        plain = run_pass(hopfgal, golden, [job])
        tracer = tracing.Tracer(hopfgal)
        tracer.install()
        try:
            traced = run_pass(hopfgal, golden, [job], tracer)
        finally:
            tracer.uninstall()
        bad = copy.deepcopy(golden)
        entry = bad["cli" if job.kind == "cli" else "certify"][job.key]
        if job.kind == "cli":
            entry["stdout_sha256"] = "0" * 64
        else:
            entry["ideal_count"] += 1
        with SpeedProbe() as probe:
            corrupted = run_pass(hopfgal, bad, [job])
        values, _ = end_to_end_metrics([corrupted], (0.0, None, None), probe)
        ok = (not plain["failed"] and not traced["failed"]
              and values["verdict_ok_ratio"] < 1.0)
        print(f"{'PASS' if ok else 'FAIL'} {workload}: {job.key} "
              f"(golden ok, traced ok, corrupted golden caught: failed_ratio "
              f"{1.0 - values['verdict_ok_ratio']:.2f})")
        if not ok:
            problems.append(workload)
    spec = workloads.load_json(root / "BENCHMARK.json")
    for key, names in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in spec[key]]
        ok = declared == list(names)
        print(f"{'PASS' if ok else 'FAIL'} BENCHMARK.json {key} matches the emitted metrics")
        if not ok:
            problems.append(key)
    ok = [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    print(f"{'PASS' if ok else 'FAIL'} BENCHMARK.json workloads match")
    if not ok:
        problems.append("workloads")
    return 1 if problems else 0


def main(argv=None):
    process_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        if args.smoke:
            return smoke(root)
        if args.workload is None:
            parser.error("--workload is required")
        if args.setup_probe:
            setup(root, args.workload, args.seed)
            return 0
        result = measure(root, args, process_start)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
