#!/usr/bin/env python3
"""CI exploration gate: `mim-explore` must witness the known-racy plan,
replay that witness byte-identically across independent runs, clear the
schedule-insensitive plan, and reject tampered witnesses.

Checks:
  1. `wildcard_race` exits 1 and writes a schema-valid witness whose bytes
     are identical across two independent explorations (same seed).
  2. `--replay` of the witness exits 0, twice, with identical stdout.
  3. `wildcard_clean` exits 0 after exhaustive exploration.
  4. A tampered witness (one trace byte flipped) makes `--replay` exit 3.
  5. `--all --json` upgrades every verdict: the wildcard-free plans are
     explored_clean, `wildcard_race` is definite_deadlock with a witness.
  6. Usage errors exit 2.

Usage: check_explore.py path/to/mim-explore
"""
import json
import subprocess
import sys
import tempfile
import os

def run(cli, args):
    return subprocess.run([cli, *args], capture_output=True, text=True, check=False)


def main():
    if len(sys.argv) != 2:
        print(__doc__)
        return 2
    cli = sys.argv[1]
    problems = []

    with tempfile.TemporaryDirectory() as tmp:
        w1 = os.path.join(tmp, "w1.json")
        w2 = os.path.join(tmp, "w2.json")

        # 1. The racy plan yields a witness, deterministically.
        for path in (w1, w2):
            r = run(cli, ["wildcard_race", "--n", "4", "--seed", "11", "--witness", path])
            if r.returncode != 1:
                problems.append(
                    f"wildcard_race exited {r.returncode}, want 1:\n{r.stdout}{r.stderr}")
        try:
            doc = json.load(open(w1))
            if doc.get("schema") != "mim-explore-witness-v1":
                problems.append(f"witness schema is {doc.get('schema')!r}")
            for field in ("plan", "decisions", "stuck", "trace", "flight"):
                if not doc.get(field):
                    problems.append(f"witness field {field!r} is missing or empty")
        except (OSError, json.JSONDecodeError) as e:
            problems.append(f"witness is not valid JSON: {e}")
            doc = {}
        if os.path.exists(w1) and os.path.exists(w2):
            if open(w1, "rb").read() != open(w2, "rb").read():
                problems.append("two explorations of the same seed wrote different witnesses")

        # 2. Replay reproduces the stuck state, byte-for-byte, twice.
        outs = []
        for _ in range(2):
            r = run(cli, ["--replay", w1])
            if r.returncode != 0:
                problems.append(f"--replay exited {r.returncode}:\n{r.stdout}{r.stderr}")
            outs.append(r.stdout)
        if outs[0] != outs[1]:
            problems.append("two replays of one witness printed different output")
        if "byte-for-byte" not in outs[0]:
            problems.append(f"replay output missing confirmation: {outs[0]!r}")

        # 3. The schedule-insensitive plan explores clean.
        r = run(cli, ["wildcard_clean", "--n", "4", "--schedules", "4096"])
        if r.returncode != 0:
            problems.append(
                f"wildcard_clean exited {r.returncode}, want 0:\n{r.stdout}{r.stderr}")
        elif "exhaustive" not in r.stdout:
            problems.append(f"wildcard_clean exploration was not exhaustive: {r.stdout!r}")

        # 4. A tampered witness must not replay.
        if doc.get("trace"):
            doc["trace"][-1] = doc["trace"][-1] + "x"
            bad = os.path.join(tmp, "bad.json")
            with open(bad, "w") as f:
                json.dump(doc, f)
            r = run(cli, ["--replay", bad])
            if r.returncode != 3:
                problems.append(
                    f"tampered witness replay exited {r.returncode}, want 3:\n{r.stderr}")

    # 5. --all --json: every plan gets a concrete verdict.
    r = run(cli, ["--all", "--json", "--n", "5", "--schedules", "128", "--random", "4"])
    if r.returncode != 1:
        problems.append(f"--all exited {r.returncode}, want 1 (wildcard_race wedges)")
    reports = {}
    for line in r.stdout.splitlines():
        try:
            rep = json.loads(line)
        except json.JSONDecodeError as e:
            problems.append(f"--all --json line is not JSON: {e}: {line!r}")
            continue
        if rep.get("schema") != "mim-explore-report-v2":
            problems.append(f"report schema is {rep.get('schema')!r}")
        reports[rep.get("plan")] = rep
    race = next((v for k, v in reports.items() if "wildcard_race" in str(k)), None)
    if race is None or race.get("outcome") != "definite_deadlock":
        problems.append(f"wildcard_race not upgraded to definite_deadlock: {race}")
    elif not race.get("witness", {}).get("decisions"):
        problems.append("wildcard_race report carries no witness decision log")
    clean = [v for v in reports.values() if v.get("outcome") == "explored_clean"]
    if len(clean) < 16:  # 15 built-ins + wildcard_clean
        problems.append(f"expected >= 16 explored_clean reports, got {len(clean)}")

    # 6. Usage errors exit 2.
    r = run(cli, ["--no-such-flag"])
    if r.returncode != 2:
        problems.append(f"unknown flag exited {r.returncode}, want 2")

    if problems:
        print("check_explore: FAIL")
        for p in problems:
            print(f"  - {p}")
        return 1
    print("check_explore: ok (witness found, replayed byte-identically, "
          "clean plan cleared, tamper detected)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
