#!/usr/bin/env python3
"""CI determinism gate: the static happens-before race pass must classify
every plan, flag the known-racy plan with concrete racing sends, prove the
schedule-insensitive plan deterministic, and *pay for itself* — the
explorer consuming the independence map must run strictly fewer schedules
than the unpruned search while producing identical verdicts.

Checks:
  1. `mim-analyze --all --json` exits 0 with a v2 batch: all 15 built-ins
     are `deterministic` and carry an `independence` object.
  2. `mim-analyze wildcard_race --n 4 --json` exits 1, classifies
     `sched_sensitive`, names MIM-A011, and marks >= 1 racy site.
  3. `mim-analyze wildcard_clean --n 4 --json` exits 1 (the deadlock
     lattice still says potential under wildcards) yet classifies
     `deterministic` with >= 1 benign site — the two axes are orthogonal.
  4. The pretty `--races` path prints the per-site breakdown.
  5. `mim-explore --all --json` (v2 reports): every plan's pruned
     schedule count is <= its unpruned count, the suite total is
     *strictly* smaller, `wildcard_clean` is decided by exactly one
     schedule, and `wildcard_race` still yields a deadlock witness.

Usage: check_races.py path/to/mim-analyze path/to/mim-explore
"""
import json
import subprocess
import sys


def run(cli, args):
    return subprocess.run([cli, *args], capture_output=True, text=True, check=False)


def check_batch(analyze, problems):
    r = run(analyze, ["--all", "--json", "--n", "8"])
    if r.returncode != 0:
        problems.append(f"--all --json exited {r.returncode}:\n{r.stdout}{r.stderr}")
        return
    try:
        batch = json.loads(r.stdout)
    except json.JSONDecodeError as e:
        problems.append(f"--all --json is not valid JSON: {e}")
        return
    if batch.get("schema") != "mim-analyze-batch-v2":
        problems.append(f"batch schema is {batch.get('schema')!r}, want v2")
    reports = batch.get("reports", [])
    if len(reports) < 15:
        problems.append(f"only {len(reports)} reports (expected >= 15 plans)")
    for rep in reports:
        plan = rep.get("plan", "?")
        det = rep.get("determinism", {})
        if det.get("kind") != "deterministic":
            problems.append(f"{plan}: determinism {det} (built-ins are wildcard-free)")
        ind = rep.get("independence")
        if not isinstance(ind, dict) or "hb_edges" not in ind:
            problems.append(f"{plan}: missing independence object: {ind}")
        elif ind.get("wildcard_sites") != 0:
            problems.append(f"{plan}: wildcard sites in a wildcard-free plan: {ind}")


def check_racy_plan(analyze, problems):
    r = run(analyze, ["wildcard_race", "--n", "4", "--json"])
    if r.returncode != 1:
        problems.append(f"wildcard_race exited {r.returncode}, want 1")
        return
    rep = json.loads(r.stdout)
    det = rep.get("determinism", {})
    if det.get("kind") != "sched_sensitive":
        problems.append(f"wildcard_race: determinism {det}, want sched_sensitive")
    if "MIM-A011" not in det.get("codes", []):
        problems.append(f"wildcard_race: MIM-A011 missing from {det.get('codes')}")
    a011 = [d for d in rep.get("diags", []) if d.get("code") == "MIM-A011"]
    if not a011 or "rank" not in a011[0].get("message", ""):
        problems.append(f"wildcard_race: A011 names no concrete racing sends: {a011}")
    if rep.get("independence", {}).get("racy", 0) < 1:
        problems.append(f"wildcard_race: no racy sites: {rep.get('independence')}")


def check_clean_plan(analyze, problems):
    r = run(analyze, ["wildcard_clean", "--n", "4", "--json"])
    if r.returncode != 1:
        problems.append(f"wildcard_clean exited {r.returncode}, want 1 (lattice axis)")
        return
    rep = json.loads(r.stdout)
    det = rep.get("determinism", {})
    if det.get("kind") != "deterministic":
        problems.append(f"wildcard_clean: determinism {det}, want deterministic")
    ind = rep.get("independence", {})
    if ind.get("benign", 0) < 1 or ind.get("racy", 1) != 0:
        problems.append(f"wildcard_clean: sites not all benign: {ind}")


def check_pretty(analyze, problems):
    r = run(analyze, ["wildcard_race", "--n", "4", "--races"])
    if r.returncode != 1:
        problems.append(f"--races pretty exited {r.returncode}, want 1")
    for needle in ("determinism: schedule-sensitive", "independence:", "racy"):
        if needle not in r.stdout:
            problems.append(f"--races pretty output missing {needle!r}: {r.stdout!r}")


def check_pruning(explore, problems):
    r = run(explore, ["--all", "--json", "--n", "5", "--schedules", "256", "--random", "4"])
    if r.returncode != 1:
        problems.append(f"explore --all exited {r.returncode}, want 1 (race wedges)")
    pruned_total = unpruned_total = 0
    reports = {}
    for line in r.stdout.splitlines():
        try:
            rep = json.loads(line)
        except json.JSONDecodeError as e:
            problems.append(f"explore --all line is not JSON: {e}: {line!r}")
            continue
        if rep.get("schema") != "mim-explore-report-v2":
            problems.append(f"explore report schema is {rep.get('schema')!r}, want v2")
        plan = rep.get("plan", "?")
        reports[plan] = rep
        s, u = rep.get("schedules", 0), rep.get("schedules_unpruned", 0)
        if s > u:
            problems.append(f"{plan}: pruned {s} schedules > unpruned {u}")
        pruned_total += s
        unpruned_total += u
    if pruned_total >= unpruned_total:
        problems.append(
            f"pruning is not load-bearing: {pruned_total} pruned vs "
            f"{unpruned_total} unpruned schedules across the suite"
        )
    clean = reports.get("wildcard_clean", {})
    if clean.get("schedules") != 1:
        problems.append(f"wildcard_clean not decided in one schedule: {clean}")
    if clean.get("determinism") != "deterministic":
        problems.append(f"wildcard_clean determinism: {clean.get('determinism')}")
    race = reports.get("wildcard_race", {})
    if race.get("outcome") != "definite_deadlock" or not race.get("witness"):
        problems.append(f"wildcard_race lost its witness under pruning: {race}")
    if race.get("determinism") != "sched_sensitive":
        problems.append(f"wildcard_race determinism: {race.get('determinism')}")
    return pruned_total, unpruned_total


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    analyze, explore = sys.argv[1], sys.argv[2]
    problems = []
    check_batch(analyze, problems)
    check_racy_plan(analyze, problems)
    check_clean_plan(analyze, problems)
    check_pretty(analyze, problems)
    totals = check_pruning(explore, problems)
    if problems:
        print("determinism gate failed:")
        for p in problems:
            print("  " + p)
        return 1
    print(
        f"determinism gate OK: 15 built-ins deterministic, wildcard_race "
        f"flagged and witnessed, wildcard_clean proven benign, pruning "
        f"{totals[0]} vs {totals[1]} unpruned schedules"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
