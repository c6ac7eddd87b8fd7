"""Workload definitions: the jobs of each workload and how a verdict is read.

A job is one unit a user waits for: one CLI command (through `cli.main`, with
stdout captured) or one two-sided certification of a catalogue structure
(library calls).  Its observed verdict is a small dict that is compared with
the frozen golden entry of the same key.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import statistics
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
CATALOGUE_PATH = DATA / "catalogue.json"
GOLDEN_PATH = DATA / "golden.json"

# The CLI section of README.md, exactly as written.
README_COMMANDS = (
    "enumerate --p 2 --exp 1,1",
    "verify lattice --p 3 --exp 1,1 --all-structures",
    "verify conjugation --family fixture:klein",
    "verify elementary --p 3 --n 2",
    "verify primitive --p 5 --n 4",
    "verify cyclic --p 3 --n 3 --all-d",
    "report --family primitive --p 5 --n 4 --format table",
)

# Structure search with the Hol(G) regular-subgroup cross-check (|Hol(G)| is
# within the default cap), then search only, with --cap-hol below |Hol(G)|.
# The near-instant C3 job makes the count even, so that verdict_s_p50 is the
# mean of the C9 x C3 and C3 x C3 jobs, which take about the same time; with
# an odd count it was whichever of them came second and moved by 20%.
SEARCH_COMMANDS = (
    "enumerate --p 3 --exp 1",
    "enumerate --p 2 --exp 1,1",
    "enumerate --p 2 --exp 2",
    "enumerate --p 2 --exp 3",
    "enumerate --p 3 --exp 2",
    "enumerate --p 2 --exp 4",
    "enumerate --p 5 --exp 2",
    "enumerate --p 3 --exp 3",
    "enumerate --p 2 --exp 2,1",
    "enumerate --p 3 --exp 1,1",
    "enumerate --p 2 --exp 2,2 --cap-hol 1000",
    "enumerate --p 5 --exp 1,1 --cap-hol 1000",
    "enumerate --p 3 --exp 2,1 --cap-hol 1000",
    "enumerate --p 2 --exp 3,2 --cap-hol 1000",
)

# Groups of the frozen certify catalogue: (p, exponents).
CATALOGUE_GROUPS = (
    (2, (1, 1)), (2, (2,)), (2, (3,)), (3, (2,)), (3, (1, 1)), (2, (2, 1)),
    (2, (4,)), (5, (2,)), (3, (3,)), (2, (3, 1)), (5, (1, 1)), (2, (2, 2)),
)

# certify draws one structure per catalogue group, and CERTIFY_EXTRA more from
# C4 x C4, which holds 112 of the 217 structures, so that the median job is a
# ~1 s job of the catalogue's bulk rather than one of the six tiny groups.
# Draws are among the structures whose frozen cost is within CERTIFY_CORE of
# the group's (upper) median.  Time per counted call differs between groups
# (a rank-1 element op is cheaper than a rank-2 one) but hardly within one, so
# every seed gets a different sample with the same work, and run_s and the
# per-job percentiles do not depend on the seed.
CERTIFY_CORE = 0.05
CERTIFY_EXTRA = {(2, (2, 2)): 4}

WORKLOADS = ("certify", "search", "readme")


def structure_key(p, exponents, index):
    return f"p={p} exp={','.join(map(str, exponents))} #{index}"


class Job:
    __slots__ = ("kind", "key", "payload")

    def __init__(self, kind, key, payload):
        self.kind = kind  # "cli" | "certify"
        self.key = key
        self.payload = payload  # argv list | RingStructure


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def load_catalogue(hopfgal):
    """Catalogue entries (key, structure, cost, group), each validated at load."""
    nilring = hopfgal.nilring
    entries = []
    for group in load_json(CATALOGUE_PATH)["groups"]:
        p, exps = group["p"], tuple(group["exponents"])
        for i, item in enumerate(group["structures"]):
            ring = nilring.RingStructure.from_json(
                {"spec": {"p": p, "exponents": list(exps)}, "constants": item["constants"]})
            violations = nilring.validate(ring)
            if violations:
                raise ValueError(f"catalogue structure {structure_key(p, exps, i)} "
                                 f"is invalid: {violations[0].axiom}")
            entries.append((structure_key(p, exps, i), ring, item["cost"], (p, exps)))
    return entries


def certify_sample(entries, rng):
    """Jobs drawn per catalogue group near the group's median cost, in random order."""
    groups = {}
    for entry in entries:
        groups.setdefault(entry[3], []).append(entry)
    picks = []
    for group, members in groups.items():
        median = statistics.median_high(e[2] for e in members)
        core = [e for e in members if abs(e[2] - median) <= CERTIFY_CORE * median]
        picks.extend(rng.sample(core, 1 + CERTIFY_EXTRA.get(group, 0)))
    rng.shuffle(picks)
    return [Job("certify", key, ring) for key, ring, _, _ in picks]


def cli_jobs(commands, rng):
    order = list(commands)
    rng.shuffle(order)
    return [Job("cli", cmd, cmd.split()) for cmd in order]


def build_jobs(workload, seed, catalogue=None):
    rng = random.Random(seed)
    if workload == "readme":
        return cli_jobs(README_COMMANDS, rng)
    if workload == "search":
        return cli_jobs(SEARCH_COMMANDS, rng)
    if workload == "certify":
        return certify_sample(catalogue, rng)
    raise ValueError(f"unknown workload {workload!r}")


# -- running one job -------------------------------------------------------

def run_cli(hopfgal, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = hopfgal.cli.main(argv)
        except SystemExit as exc:  # argparse rejects an argument list
            code = exc.code
    return {"exit": code,
            "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}, out.getvalue()


def run_certify(hopfgal, ring):
    """Lattice report, conjugation report and the ring/regular-subgroup round trip."""
    correspondence, holomorph = hopfgal.correspondence, hopfgal.holomorph
    ctx = correspondence.Context(ring)
    report = correspondence.lattice_report(ctx)
    conj = correspondence.holomorph_conjugation_report(ctx)
    back = holomorph.ring_from_regular_subgroup(holomorph.regular_subgroup_from_ring(ring))
    return {
        "ideal_count": len(report.ideals),
        "gamma_subgroup_count": report.gamma_subgroup_count,
        "strong_ftgt": report.strong_ftgt,
        "circle_type": list(report.circle_type),
        "conjugation_failures": len(conj["failures"]),
        "round_trip": back == ring,
    }


def run_job(hopfgal, job):
    """Observed verdict of a job; an unexpected exception is a verdict too."""
    try:
        if job.kind == "cli":
            return run_cli(hopfgal, job.payload)[0]
        return run_certify(hopfgal, job.payload)
    except Exception as exc:  # any exception is a wrong verdict, not a crash
        return {"exception": f"{type(exc).__name__}: {exc}"}


def expected(golden, job):
    if job.kind == "cli":
        return golden["cli"][job.key]
    return dict(golden["certify"][job.key], conjugation_failures=0, round_trip=True)
