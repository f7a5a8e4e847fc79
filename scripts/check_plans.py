#!/usr/bin/env python3
"""CI plan gates: `mim-analyze` and `mim-explore` over the built-in plans.

One harness, three gates.  Each drives the release CLIs over the 15
built-in plans (16 with `wildcard_clean`), checks every report against
the gate's predicate table, and runs negative controls — plans the tools
must *reject* with a named diagnostic — so a gate also fails if its tool
ever goes blind.

``analyze``  All built-ins at the four acceptance shapes, JSON and pretty:
             schema-valid, deterministic, deadlock-free.  Controls: a
             crossed-order plan is a `definite_deadlock` naming both ranks
             (MIM-A002), an out-of-range plan is `malformed` (MIM-A001).
``explore``  `wildcard_race` yields a witness, byte-identical across two
             explorations, that `--replay` reproduces twice; a tampered
             witness exits 3; `wildcard_clean` explores exhaustively clean;
             `--all` re-verifies every plan; usage errors exit 2.
``races``    The happens-before pass calls the built-ins `deterministic`,
             `wildcard_race` `sched_sensitive` (MIM-A011, concrete racing
             sends) and `wildcard_clean` benign; `--races` prints the
             per-site breakdown; pruning pays for itself (strictly fewer
             schedules in total, same verdicts, the race still witnessed).

Usage: check_plans.py analyze path/to/mim-analyze
       check_plans.py explore path/to/mim-explore
       check_plans.py races   path/to/mim-analyze path/to/mim-explore
"""
import json
import os
import subprocess
import sys
import tempfile

# (n, root, bytes) — the acceptance sizes, with off-center roots.
SHAPES = [(2, 0, 64), (5, 2, 4096), (48, 3, 65536), (192, 191, 1 << 20)]

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


def dig(doc, path):
    """`doc["a"]["b"]` for path "a.b"; {} wherever a level is missing."""
    for key in path.split("."):
        doc = doc.get(key, {}) if isinstance(doc, dict) else {}
    return doc


def first_diag(rep, code):
    return next((d for d in rep.get("diags", []) if d.get("code") == code), {})


# Per-report predicates of the two `mim-analyze --all --json` batches.
BATCH_CHECKS = {
    "analyze": [
        ("report schema", lambda r: r.get("schema") == "mim-analyze-report-v2"),
        ("determinism", lambda r: dig(r, "determinism.kind") == "deterministic"),
        ("verdict", lambda r: dig(r, "verdict.kind") == "deadlock_free"),
        ("error diagnostics",
         lambda r: not any(d.get("severity") == "error" for d in r.get("diags", []))),
        ("channel totals", lambda r: bool(r.get("channels"))
         or any(name in r.get("plan", "?") for name in ("barrier", "cg["))),
    ],
    "races": [
        ("determinism (built-ins are wildcard-free)",
         lambda r: dig(r, "determinism.kind") == "deterministic"),
        ("independence object", lambda r: isinstance(r.get("independence"), dict)
         and "hb_edges" in r["independence"]),
        ("wildcard sites in a wildcard-free plan",
         lambda r: dig(r, "independence.wildcard_sites") == 0),
    ],
}

# Single-plan analyzer runs: (label, plan dict or CLI args, exit code,
# predicates).  Every one of these must exit non-zero: they are the
# controls that keep the gates honest.
CONTROLS = {
    "analyze": [
        ("deadlock control", DEADLOCK_PLAN, 1, [
            ("verdict", lambda r: dig(r, "verdict.kind") == "definite_deadlock"),
            ("cycle names both ranks",
             lambda r: sorted(e.get("rank") for e in dig(r, "verdict.cycle") or []) == [0, 1]),
            ("MIM-A002 diagnostic", lambda r: bool(first_diag(r, "MIM-A002"))),
        ]),
        ("malformed control", MALFORMED_PLAN, 1, [
            ("verdict", lambda r: dig(r, "verdict.kind") == "malformed"),
            ("MIM-A001 diagnostic", lambda r: bool(first_diag(r, "MIM-A001"))),
        ]),
    ],
    "races": [
        ("wildcard_race", ["wildcard_race", "--n", "4"], 1, [
            ("determinism", lambda r: dig(r, "determinism.kind") == "sched_sensitive"),
            ("MIM-A011 in determinism codes",
             lambda r: "MIM-A011" in (dig(r, "determinism.codes") or [])),
            ("A011 names concrete racing sends",
             lambda r: "rank" in first_diag(r, "MIM-A011").get("message", "")),
            ("racy sites", lambda r: (dig(r, "independence.racy") or 0) >= 1),
        ]),
        # Exit 1 on the lattice axis (potential deadlock under wildcards),
        # deterministic on the race axis: the two are orthogonal.
        ("wildcard_clean", ["wildcard_clean", "--n", "4"], 1, [
            ("determinism", lambda r: dig(r, "determinism.kind") == "deterministic"),
            ("all sites benign", lambda r: (dig(r, "independence.benign") or 0) >= 1
             and dig(r, "independence.racy") == 0),
        ]),
    ],
}


def run(cli, args):
    return subprocess.run([cli, *args], capture_output=True, text=True, check=False)


def check_batch(gate, cli, args, shape, n, problems):
    """`mim-analyze --all --json`: a v2 batch of >= 15 reports, each
    passing the gate's predicates (and sized `n` when given)."""
    r = run(cli, ["--all", "--json", *args])
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
        where = f"{shape} {rep.get('plan', '?')}"
        if n is not None and rep.get("nranks") != n:
            problems.append(f"{where}: nranks {rep.get('nranks')} != {n}")
        problems += [f"{where}: bad {what}" for what, ok in BATCH_CHECKS[gate] if not ok(rep)]


def check_controls(gate, cli, problems):
    for label, plan, code, checks in CONTROLS[gate]:
        if isinstance(plan, dict):
            with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
                json.dump(plan, f)
            plan = ["--plan-file", f.name]
        r = run(cli, [*plan, "--json"])
        if r.returncode != code:
            problems.append(f"{label}: exit {r.returncode}, expected {code}")
            continue
        rep = json.loads(r.stdout)
        problems += [f"{label}: bad {what}: {r.stdout.strip()[:200]}"
                     for what, ok in checks if not ok(rep)]


def explore_all(cli, schedules, problems):
    """`mim-explore --all --json`: v2 reports by plan name; exits 1
    because `wildcard_race` wedges."""
    r = run(cli, ["--all", "--json", "--n", "5", "--schedules", schedules, "--random", "4"])
    if r.returncode != 1:
        problems.append(f"explore --all exited {r.returncode}, want 1 (wildcard_race wedges)")
    reports = {}
    for line in r.stdout.splitlines():
        try:
            rep = json.loads(line)
        except json.JSONDecodeError as e:
            problems.append(f"explore --all line is not JSON: {e}: {line!r}")
            continue
        if rep.get("schema") != "mim-explore-report-v2":
            problems.append(f"explore report schema is {rep.get('schema')!r}, want v2")
        reports[rep.get("plan", "?")] = rep
    return reports


def gate_analyze(analyze, problems):
    for n, root, nbytes in SHAPES:
        shape = f"n={n} root={root} bytes={nbytes}"
        args = ["--n", str(n), "--root", str(root), "--bytes", str(nbytes)]
        check_batch("analyze", analyze, args, shape, n, problems)
        # Pretty output path: every plan line must say deadlock_free.
        r = run(analyze, ["--all", *args])
        if r.returncode != 0:
            problems.append(f"{shape}: --all (pretty) exited {r.returncode}")
        bad = [l for l in r.stdout.splitlines()
               if l.strip() and not (l.startswith("ok") and "deadlock_free" in l)]
        if bad:
            problems.append(f"{shape}: unexpected pretty lines: {bad[:3]}")
    check_controls("analyze", analyze, problems)
    return f"{len(SHAPES)} shapes x 15 plans clean, negative controls rejected"


def gate_explore(explore, problems):
    with tempfile.TemporaryDirectory() as tmp:
        w1, w2, bad = (os.path.join(tmp, f) for f in ("w1.json", "w2.json", "bad.json"))
        # The racy plan yields a witness, deterministically.
        for path in (w1, w2):
            r = run(explore, ["wildcard_race", "--n", "4", "--seed", "11", "--witness", path])
            if r.returncode != 1:
                problems.append(
                    f"wildcard_race exited {r.returncode}, want 1:\n{r.stdout}{r.stderr}")
        try:
            doc = json.load(open(w1))
            if doc.get("schema") != "mim-explore-witness-v1":
                problems.append(f"witness schema is {doc.get('schema')!r}")
            problems += [f"witness field {field!r} is missing or empty"
                         for field in ("plan", "decisions", "stuck", "trace", "flight")
                         if not doc.get(field)]
        except (OSError, json.JSONDecodeError) as e:
            problems.append(f"witness is not valid JSON: {e}")
            doc = {}
        if os.path.exists(w1) and os.path.exists(w2):
            if open(w1, "rb").read() != open(w2, "rb").read():
                problems.append("two explorations of the same seed wrote different witnesses")
        # Replay reproduces the stuck state, byte-for-byte, twice.
        outs = []
        for _ in range(2):
            r = run(explore, ["--replay", w1])
            if r.returncode != 0:
                problems.append(f"--replay exited {r.returncode}:\n{r.stdout}{r.stderr}")
            outs.append(r.stdout)
        if outs[0] != outs[1]:
            problems.append("two replays of one witness printed different output")
        if "byte-for-byte" not in outs[0]:
            problems.append(f"replay output missing confirmation: {outs[0]!r}")
        # The schedule-insensitive plan explores clean.
        r = run(explore, ["wildcard_clean", "--n", "4", "--schedules", "4096"])
        if r.returncode != 0:
            problems.append(f"wildcard_clean exited {r.returncode}, want 0:\n{r.stdout}{r.stderr}")
        elif "exhaustive" not in r.stdout:
            problems.append(f"wildcard_clean exploration was not exhaustive: {r.stdout!r}")
        # A tampered witness (one trace entry altered) must not replay.
        if doc.get("trace"):
            doc["trace"][-1] += "x"
            with open(bad, "w") as f:
                json.dump(doc, f)
            r = run(explore, ["--replay", bad])
            if r.returncode != 3:
                problems.append(f"tampered witness replayed: exit {r.returncode}, not 3:\n{r.stderr}")
    # --all --json: every plan gets a concrete verdict.
    reports = explore_all(explore, "128", problems)
    race = next((v for k, v in reports.items() if "wildcard_race" in str(k)), None)
    if race is None or race.get("outcome") != "definite_deadlock":
        problems.append(f"wildcard_race not upgraded to definite_deadlock: {race}")
    elif not dig(race, "witness.decisions"):
        problems.append("wildcard_race report carries no witness decision log")
    clean = [v for v in reports.values() if v.get("outcome") == "explored_clean"]
    if len(clean) < 16:  # 15 built-ins + wildcard_clean
        problems.append(f"expected >= 16 explored_clean reports, got {len(clean)}")
    r = run(explore, ["--no-such-flag"])
    if r.returncode != 2:
        problems.append(f"unknown flag exited {r.returncode}, want 2")
    return "witness found, replayed byte-identically, clean plan cleared, tamper detected"


def gate_races(analyze, explore, problems):
    check_batch("races", analyze, ["--n", "8"], "n=8", None, problems)
    check_controls("races", analyze, problems)
    r = run(analyze, ["wildcard_race", "--n", "4", "--races"])
    if r.returncode != 1:
        problems.append(f"--races pretty exited {r.returncode}, want 1")
    problems += [f"--races pretty output missing {needle!r}: {r.stdout!r}"
                 for needle in ("determinism: schedule-sensitive", "independence:", "racy")
                 if needle not in r.stdout]
    # Pruning must be load-bearing, with verdicts and witnesses unchanged.
    reports = explore_all(explore, "256", problems)
    pruned = sum(rep.get("schedules", 0) for rep in reports.values())
    unpruned = sum(rep.get("schedules_unpruned", 0) for rep in reports.values())
    problems += [f"{plan}: pruned {rep.get('schedules', 0)} schedules > unpruned "
                 f"{rep.get('schedules_unpruned', 0)}" for plan, rep in reports.items()
                 if rep.get("schedules", 0) > rep.get("schedules_unpruned", 0)]
    if pruned >= unpruned:
        problems.append(f"pruning is not load-bearing: {pruned} pruned vs {unpruned} "
                        "unpruned schedules across the suite")
    clean, race = reports.get("wildcard_clean", {}), reports.get("wildcard_race", {})
    if clean.get("schedules") != 1:
        problems.append(f"wildcard_clean not decided in one schedule: {clean}")
    if clean.get("determinism") != "deterministic":
        problems.append(f"wildcard_clean determinism: {clean.get('determinism')}")
    if race.get("outcome") != "definite_deadlock" or not race.get("witness"):
        problems.append(f"wildcard_race lost its witness under pruning: {race}")
    if race.get("determinism") != "sched_sensitive":
        problems.append(f"wildcard_race determinism: {race.get('determinism')}")
    return ("15 built-ins deterministic, wildcard_race flagged and witnessed, wildcard_clean "
            f"proven benign, pruning {pruned} vs {unpruned} unpruned schedules")


# gate -> (function, number of CLI paths it takes)
GATES = {"analyze": (gate_analyze, 1), "explore": (gate_explore, 1), "races": (gate_races, 2)}


def main():
    gate, nclis = GATES.get(sys.argv[1], (None, 0)) if len(sys.argv) > 1 else (None, 0)
    if gate is None or len(sys.argv) - 2 != nclis:
        print(__doc__, file=sys.stderr)
        return 2
    label = f"check_plans {sys.argv[1]}"
    problems = []
    summary = gate(*sys.argv[2:], problems)
    if problems:
        for p in problems:
            print(f"  BAD  {p}", file=sys.stderr)
        print(f"{label}: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print(f"{label}: ok ({summary})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
