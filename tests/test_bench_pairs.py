"""bench/pairs.py, the script that records BENCH_*.json, without running the
benchmark: `pairs.run` is replaced by a stub."""

import importlib.util
import json
import shutil
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_pairs():
    spec = importlib.util.spec_from_file_location("pairs", ROOT / "bench" / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_failed_verdict_stops_the_record(monkeypatch, tmp_path):
    # the change fails one verdict in its first run, on certify at the first
    # seed: the script names the workload, the seed and the side, and writes
    # no BENCH file
    pairs = _load_pairs()
    roots = {side: tmp_path / side for side in ("parent", "change")}
    for root in roots.values():
        root.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", root)

    def stub(root, workload, seed, seconds, trace=0):
        failed = int(root == roots["change"])
        result = {"attempted": 16, "failed": failed,
                  "metrics": {"run_s": {"value": 0.01, "unit": "s"},
                              "verdict_s_tail": {"value": 0.001, "unit": "s"}}}
        info = {"passes": 1, "tail_percentile": 50}
        record = {"machine": {"git_sha": "0", "src_sha256": "0", "nproc": 1}, "jobs": [], "passes": []}
        return result, info, record

    monkeypatch.setattr(pairs, "run", stub)
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit, match=f"^certify seed {pairs.FIRST_SEED} change: 1 of 16 verdicts failed"):
        pairs.main(["--parent", str(roots["parent"]), "--change", str(roots["change"]), "--out", str(out)])
    assert not out.exists()


def test_the_summary_reads_no_record(monkeypatch, tmp_path):
    # a child process reads the script's RSS high-water mark as its own
    # peak_rss_mb, so no run's full record is kept: summarize gets each job's
    # raw seconds per run, and its job medians are those of every pass of
    # every record, as when it read the records
    pairs = _load_pairs()
    roots = {side: tmp_path / side for side in ("parent", "change")}
    for root in roots.values():
        root.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", root)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = {side: [] for side in roots}

    def stub(root, workload, seed, seconds, trace=0):
        side = "change" if root == roots["change"] else "parent"
        scale = (2 if side == "change" else 3) * (1 + seed % 5)
        result = {"attempted": 6, "failed": 0,
                  "metrics": {m["name"]: {"value": scale / 100, "unit": m["unit"]} for m in bench["end_to_end"]}}
        info = {"passes": 2, "tail_percentile": 50}
        record = {"machine": {"git_sha": side, "src_sha256": "0", "nproc": 1}, "jobs": ["a", "b", "c"],
                  "passes": [{"jobs": [2, 0, 1], "job_s": [scale * 3.0, scale * 1.0, scale * 2.5]},
                             {"jobs": [0, 1, 2], "job_s": [scale * 1.5, scale * 2.0, scale * 3.5]}]}
        if not trace and workload == "search":
            records[side].append(record)
        return result, info, record

    summarized = []
    summarize = pairs.summarize
    monkeypatch.setattr(pairs, "run", stub)
    monkeypatch.setattr(pairs, "summarize", lambda rows, *args: summarized.append(rows) or summarize(rows, *args))
    out = tmp_path / "BENCH.json"
    pairs.main(["--parent", str(roots["parent"]), "--change", str(roots["change"]), "--out", str(out)])
    assert len(summarized) == len(pairs.WORKLOADS)
    assert not any("record" in row for rows in summarized for row in rows)
    for side, recs in records.items():
        assert len(recs) == pairs.PAIRS
        times = {}
        for rec in recs:
            for p in rec["passes"]:
                for j, t in zip(p["jobs"], p["job_s"]):
                    times.setdefault(rec["jobs"][j], []).append(t)
        expected = {job: statistics.median(v) for job, v in sorted(times.items())}
        written = json.loads(out.read_text())["workloads"]["search"]["job_median_raw_s"][side]
        assert written == expected
        assert json.loads(out.read_text())["sides"][side]["git_sha"] == side
