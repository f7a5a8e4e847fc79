#!/usr/bin/env python3
"""CI analyzer gate: run `mim-analyze` over every built-in plan at several
shapes and validate both output formats.

For each (n, root, bytes) shape the gate runs the CLI in `--all --json`
mode and checks that every report is schema-valid, clean, and
deadlock-free; one pretty run per shape checks the human-readable path.
Negative controls: a JSON plan with a known crossed-order deadlock must
exit 1 and classify `definite_deadlock`, and a malformed plan must be
rejected — so the gate also fails if the analyzer ever goes blind.

Usage: check_analyze.py path/to/mim-analyze
"""
import json
import subprocess
import sys
import tempfile

SHAPES = [
    # (n, root, bytes) — the acceptance sizes, with off-center roots.
    (2, 0, 64),
    (5, 2, 4096),
    (48, 3, 65536),
    (192, 191, 1 << 20),
]

DEADLOCK_PLAN = {
    "name": "crossed",
    "nranks": 2,
    "ranks": [
        [{"op": "recv", "src": 1}, {"op": "send", "dst": 1, "bytes": 4}],
        [{"op": "recv", "src": 0}, {"op": "send", "dst": 0, "bytes": 4}],
    ],
}

MALFORMED_PLAN = {
    "name": "oob",
    "nranks": 2,
    "ranks": [[{"op": "send", "dst": 7, "bytes": 4}], []],
}


def run(cli, args):
    return subprocess.run(
        [cli, *args], capture_output=True, text=True, check=False
    )


def check_batch(cli, n, root, nbytes, problems):
    r = run(cli, ["--all", "--json", "--n", str(n), "--root", str(root),
                  "--bytes", str(nbytes)])
    shape = f"n={n} root={root} bytes={nbytes}"
    if r.returncode != 0:
        problems.append(f"{shape}: --all --json exited {r.returncode}:\n{r.stdout}{r.stderr}")
        return
    try:
        batch = json.loads(r.stdout)
    except json.JSONDecodeError as e:
        problems.append(f"{shape}: --all --json is not valid JSON: {e}")
        return
    if batch.get("schema") != "mim-analyze-batch-v2":
        problems.append(f"{shape}: unexpected batch schema {batch.get('schema')!r}")
        return
    reports = batch.get("reports", [])
    if len(reports) < 15:
        problems.append(f"{shape}: only {len(reports)} reports (expected >= 15 plans)")
    for rep in reports:
        plan = rep.get("plan", "?")
        if rep.get("schema") != "mim-analyze-report-v2":
            problems.append(f"{shape} {plan}: bad report schema")
        if rep.get("determinism", {}).get("kind") != "deterministic":
            problems.append(f"{shape} {plan}: determinism {rep.get('determinism')}")
        if rep.get("nranks") != n:
            problems.append(f"{shape} {plan}: nranks {rep.get('nranks')} != {n}")
        if rep.get("verdict", {}).get("kind") != "deadlock_free":
            problems.append(f"{shape} {plan}: verdict {rep.get('verdict')}")
        errors = [d for d in rep.get("diags", []) if d.get("severity") == "error"]
        if errors:
            problems.append(f"{shape} {plan}: {len(errors)} error diagnostics: {errors[:2]}")
        if not rep.get("channels") and "barrier" not in plan and "cg[" not in plan:
            problems.append(f"{shape} {plan}: no channel totals reported")

    # Pretty output path: every plan line must say deadlock_free.
    r = run(cli, ["--all", "--n", str(n), "--root", str(root), "--bytes", str(nbytes)])
    if r.returncode != 0:
        problems.append(f"{shape}: --all (pretty) exited {r.returncode}")
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    bad = [l for l in lines if not (l.startswith("ok") and "deadlock_free" in l)]
    if bad:
        problems.append(f"{shape}: unexpected pretty lines: {bad[:3]}")


def check_negative_controls(cli, problems):
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
        json.dump(DEADLOCK_PLAN, f)
        path = f.name
    r = run(cli, ["--plan-file", path, "--json"])
    if r.returncode != 1:
        problems.append(f"deadlock control: exit {r.returncode}, expected 1")
    else:
        rep = json.loads(r.stdout)
        verdict = rep.get("verdict", {})
        if verdict.get("kind") != "definite_deadlock":
            problems.append(f"deadlock control: verdict {verdict}")
        cycle = verdict.get("cycle", [])
        if sorted(e.get("rank") for e in cycle) != [0, 1]:
            problems.append(f"deadlock control: cycle does not name both ranks: {cycle}")
        if not any(d.get("code") == "MIM-A002" for d in rep.get("diags", [])):
            problems.append("deadlock control: no MIM-A002 diagnostic")

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
        json.dump(MALFORMED_PLAN, f)
        path = f.name
    r = run(cli, ["--plan-file", path, "--json"])
    if r.returncode != 1:
        problems.append(f"malformed control: exit {r.returncode}, expected 1")
    else:
        rep = json.loads(r.stdout)
        if rep.get("verdict", {}).get("kind") != "malformed":
            problems.append(f"malformed control: verdict {rep.get('verdict')}")
        if not any(d.get("code") == "MIM-A001" for d in rep.get("diags", [])):
            problems.append("malformed control: no MIM-A001 diagnostic")


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__)
        return 2
    cli = sys.argv[1]
    problems = []
    for n, root, nbytes in SHAPES:
        check_batch(cli, n, root, nbytes, problems)
    check_negative_controls(cli, problems)
    if problems:
        print("analyzer gate failed:")
        for p in problems:
            print("  " + p)
        return 1
    print(f"analyzer gate OK: {len(SHAPES)} shapes x 15 plans clean, "
          "negative controls rejected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
