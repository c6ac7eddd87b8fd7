"""bench/pairs.py, the script that records BENCH_*.json, without running the
benchmark: `pairs.run` is replaced by a stub."""

import importlib.util
import shutil
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
