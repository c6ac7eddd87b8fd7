#!/usr/bin/env python3
"""Regenerate perfbench/data/catalogue.json and perfbench/data/golden.json.

    python3 perfbench/freeze.py        (from the root of a source checkout)

The catalogue holds every structure on each group of
workloads.CATALOGUE_GROUPS, with a frozen cost used only to stratify the
certify sample.  The golden file holds the expected verdict of every job of
every workload.  Where a second derivation sharing no code with hopfgal
exists, each frozen entry is checked against it before anything is written:

  * Gaussian subspace count + 1 = circle-group subgroup count, for every
    elementary abelian circle type;
  * the one-generator (primitive) structure on F_p^n has a chain of n + 1
    ideals of sizes 1, p, ..., p^n;
  * structure count = abelian regular-subgroup count in Hol(G);
  * the ideals of a cyclic-family structure on Z/p^n are its n + 1 subgroups.

Takes several minutes; run it only when an answer is meant to change.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

import run
import tracer as tracing
import workloads


# Cross-check structure counts against Hol(G) where that takes seconds, not
# many minutes (C4 x C4, |Hol| = 1536, and C5 x C5 are left out).
HOL_CHECK_LIMIT = 512


class FreezeError(Exception):
    pass


def require(cond, what):
    if not cond:
        raise FreezeError(what)


def subspace_count(p, r):
    """Number of subspaces of F_p^r (zero subspace included), by q-binomials."""
    total = 0
    for k in range(r + 1):
        num = den = 1
        for i in range(k):
            num *= p ** r - p ** i
            den *= p ** k - p ** i
        total += num // den
    return total


def check_gamma(p, circle_type, gamma):
    if circle_type and all(e == 1 for e in circle_type):
        require(gamma == subspace_count(p, len(circle_type)),
                f"Gaussian count disagrees: p={p} type={circle_type} gamma={gamma}")


def certify_cost(hopfgal, ring):
    """Kernel work of one certify job (element-level calls), and its verdict."""
    t = tracing.Tracer(hopfgal)
    t.install()
    try:
        verdict = workloads.run_certify(hopfgal, ring)
    finally:
        t.uninstall()
    return sum(calls for (calls,) in t.counts.values()), verdict


def freeze_catalogue(hopfgal):
    nilring, holomorph = hopfgal.nilring, hopfgal.holomorph
    groups, certify = [], {}
    for p, exps in workloads.CATALOGUE_GROUPS:
        spec = hopfgal.GroupSpec(p, exps)
        structures = nilring.enumerate_structures(spec)
        if spec.order * len(holomorph.enumerate_automorphisms(spec)) <= HOL_CHECK_LIMIT:
            regs = holomorph.enumerate_regular_subgroups(spec)
            abelian_regs = sum(1 for T in regs if holomorph.is_abelian(T))
            require(abelian_regs == len(structures),
                    f"{spec}: {len(structures)} structures, {abelian_regs} abelian regular subgroups")
        items = []
        for i, ring in enumerate(structures):
            cost, verdict = certify_cost(hopfgal, ring)
            require(verdict["conjugation_failures"] == 0 and verdict["round_trip"],
                    f"{spec} #{i}: conjugation or round trip failed")
            check_gamma(p, verdict["circle_type"], verdict["gamma_subgroup_count"])
            certify[workloads.structure_key(p, exps, i)] = {
                k: verdict[k] for k in ("ideal_count", "gamma_subgroup_count",
                                        "strong_ftgt", "circle_type")}
            items.append({"constants": ring.to_json()["constants"], "cost": cost})
        groups.append({"p": p, "exponents": list(exps), "structures": items})
        print(f"catalogue {spec}: {len(items)} structures", flush=True)
    return {"groups": groups}, certify


def check_cli(command, stdout, catalogue_counts):
    """Second derivations for the CLI jobs whose output admits one."""
    argv = command.split()
    if argv[0] == "enumerate":
        out = json.loads(stdout)
        key = (out["spec"]["p"], tuple(out["spec"]["exponents"]))
        if out["abelian_regular_subgroup_count"] is not None:
            require(out["structure_count"] == out["abelian_regular_subgroup_count"],
                    f"{command}: structure count != abelian regular-subgroup count")
        if key in catalogue_counts:
            require(out["structure_count"] == catalogue_counts[key],
                    f"{command}: structure count != catalogue count")
    elif argv[:2] == ["verify", "primitive"]:
        out = json.loads(stdout)
        p, n = out["p"], out["n"]
        require(out["ideal_count"] == n + 1 and out["single_chain"]
                and out["ideal_sizes"] == [p ** k for k in range(n + 1)],
                f"{command}: not a chain of n + 1 ideals")
    elif argv[:2] == ["verify", "cyclic"]:
        out = json.loads(stdout)
        require(all(r["ideal_count"] == out["n"] + 1 and r["strong_ftgt"] for r in out["rows"]),
                f"{command}: ideal counts != n + 1 subgroups of Z/p^n")
    elif argv[:2] == ["verify", "lattice"]:
        out = json.loads(stdout)
        p = int(argv[argv.index("--p") + 1])
        for r in out["rows"]:
            check_gamma(p, r["circle_type"], r["gamma_subgroup_count"])
        require(out["structures_checked"] == catalogue_counts[(p, (1, 1))],
                f"{command}: structure count != catalogue count")
    elif argv[:2] == ["verify", "elementary"]:
        # the scan keeps only structures whose circle group is elementary abelian
        out = json.loads(stdout)
        p, n = out["spec"]["p"], len(out["spec"]["exponents"])
        for r in out["rows"]:
            check_gamma(p, [1] * n, r["gamma_subgroup_count"])
    elif argv[0] == "report":
        # table row: family, spec, circle type, subHopf, subfields, strong, method
        row = stdout.splitlines()[2]
        p = int(argv[argv.index("--p") + 1])
        n = int(argv[argv.index("--n") + 1])
        cells = row.split()
        subhopf, subfields = int(cells[-4]), int(cells[-3])
        require(subhopf == n + 1, f"{command}: {subhopf} sub-Hopf avatars, expected n + 1")
        require(subfields == subspace_count(p, n), f"{command}: subfield count != Gaussian count")


def main():
    root = Path.cwd()
    hopfgal = run.import_hopfgal(root)
    start = time.perf_counter()
    catalogue, certify = freeze_catalogue(hopfgal)
    catalogue_counts = {(g["p"], tuple(g["exponents"])): len(g["structures"])
                        for g in catalogue["groups"]}
    cli = {}
    for command in dict.fromkeys(workloads.README_COMMANDS + workloads.SEARCH_COMMANDS):
        verdict, stdout = workloads.run_cli(hopfgal, command.split())
        require(verdict["exit"] == 0, f"{command}: exit {verdict['exit']}")
        check_cli(command, stdout, catalogue_counts)
        cli[command] = verdict
        print(f"cli {command}: ok", flush=True)
    text = json.dumps(catalogue, indent=1, sort_keys=True) + "\n"
    golden = {
        "catalogue_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "certify": certify,
        "cli": cli,
    }
    workloads.DATA.mkdir(exist_ok=True)
    workloads.CATALOGUE_PATH.write_text(text, encoding="utf-8")
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                                     encoding="utf-8")
    print(f"froze {len(certify)} structures and {len(cli)} commands "
          f"in {time.perf_counter() - start:.0f} s")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except FreezeError as exc:
        print(f"freeze: {exc}", file=sys.stderr)
        sys.exit(1)
