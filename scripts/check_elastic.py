#!/usr/bin/env python3
"""CI elastic gate: rolling restarts and membership growth must replay
byte-for-byte, on both executors.

Runs the ``elastic_stencil`` example (8-rank monitored stencil plus one
latent slot; the plan perturbs link latency and crash-restarts rank 3,
after which the survivors shrink, the reborn incarnation is readmitted,
the latent slot is admitted and a 9-rank window matrix is gathered) twice
per executor (``MIM_EXECUTOR=threads`` and ``tasks``) under a fixed
``MIM_CHAOS_SEED``, each run with ``MIM_TRACE`` pointed at a fresh JSONL
file, and checks:

1. every run exits 0 — the example's own asserts cover the protocol
   (rebirth as incarnation 1, epoch 0 -> 3, stale-epoch rejection, equal
   checksums on the 9-rank world, monitoring rows surviving two rebinds);
2. stdout markers: the victim is reported reborn, the latent slot joins,
   a stale send is rejected, and the final all-checks-passed line is
   present;
3. stdout is byte-identical across ALL runs — the monitoring matrices
   printed by the example are pure functions of the seed, independent of
   the executor;
4. each executor's two trace dumps are identical after *normalization*
   (below), and both engines' normalized traces agree with each other;
5. the traces contain exactly one ``rank_crash``, one ``rank_join`` and
   the membership ``epoch_bump`` events, and pass ``check_trace.py``.

Normalization (same rationale as ``check_chaos.py``): lines are sorted
(threads interleave in wall-clock order), ``tid`` is a registration index
assigned by start order, and ``uq`` is an OS-scheduling diagnostic, so
both are zeroed.  Every virtual-time field — timestamps, epochs, sizes,
incarnations, per-track sequence numbers — is compared exactly.

Usage: check_elastic.py path/to/elastic_stencil [seed]
"""
import os
import subprocess
import sys
import tempfile

from check_chaos import normalize

SEED = "42"
VICTIM = 3
WORLD = 9


def run_once(example, seed, executor, trace_path, problems):
    env = dict(os.environ, MIM_CHAOS_SEED=seed, MIM_EXECUTOR=executor, MIM_TRACE=trace_path)
    env.pop("MIM_CHAOS_PLAN", None)  # the gate checks the built-in plan
    r = subprocess.run([example], capture_output=True, text=True, env=env, check=False)
    if r.returncode != 0:
        problems.append(
            f"elastic_stencil (seed {seed}, {executor}) exited {r.returncode}:\n"
            f"{r.stdout}{r.stderr}"
        )
    return r.stdout


def check_stdout(out, problems):
    if f"slot {VICTIM}: reborn inc=1" not in out:
        problems.append(f"stdout never reports rank {VICTIM} reborn as incarnation 1")
    if f"slot {WORLD - 1}: joiner" not in out:
        problems.append("stdout never reports the latent slot joining")
    if "stale_send=[epoch 2 rejected at 3]" not in out:
        problems.append("stdout missing the stale-epoch rejection marker")
    if f"scale-out to {WORLD} ranks converged; all checks passed" not in out:
        problems.append("stdout missing the final all-checks-passed line")


def check_membership_events(lines, problems):
    crashes = sum('"type":"rank_crash"' in ln for ln in lines)
    rebirths = sum('"type":"rank_join","incarnation":1' in ln for ln in lines)
    admissions = sum('"type":"rank_join","incarnation":0' in ln for ln in lines)
    bumps = sum('"type":"epoch_bump"' in ln for ln in lines)
    if crashes != 1:
        problems.append(f"trace has {crashes} rank_crash events, want exactly 1")
    if rebirths != 1:
        problems.append(f"trace has {rebirths} rebirth join events, want exactly 1")
    if admissions != 1:
        problems.append(f"trace has {admissions} latent-admission join events, want exactly 1")
    # Epoch bumps: 7 survivors x (shrink + grow) + 8 members x scale-out
    # grow; the reborn and latent ranks receive their epochs by admission
    # notice, which does not re-record the bump.
    if bumps < 3:
        problems.append(f"trace has {bumps} epoch_bump events, want the membership chain")


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    example = sys.argv[1]
    seed = sys.argv[2] if len(sys.argv) == 3 else SEED
    here = os.path.dirname(os.path.abspath(__file__))
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        runs = [("threads", 1), ("threads", 2), ("tasks", 1), ("tasks", 2)]
        traces = {}
        outs = {}
        for executor, i in runs:
            t = os.path.join(tmp, f"{executor}{i}.jsonl")
            traces[(executor, i)] = t
            outs[(executor, i)] = run_once(example, seed, executor, t, problems)
        if problems:
            for p in problems:
                print(f"  BAD  {p}", file=sys.stderr)
            print("check_elastic: example failed; skipping replay checks", file=sys.stderr)
            return 1
        check_stdout(outs[("threads", 1)], problems)
        for key in runs[1:]:
            if outs[key] != outs[("threads", 1)]:
                problems.append(f"stdout of {key} diverged from the first threads run")
        norms = {key: normalize(t) for key, t in traces.items()}
        for a, b in [
            (("threads", 1), ("threads", 2)),
            (("tasks", 1), ("tasks", 2)),
            (("threads", 1), ("tasks", 1)),
        ]:
            if norms[a] != norms[b]:
                diff = sum(x != y for x, y in zip(norms[a], norms[b]))
                diff += abs(len(norms[a]) - len(norms[b]))
                problems.append(
                    f"normalized traces diverged between {a} and {b} "
                    f"({len(norms[a])} vs {len(norms[b])} lines, {diff} differing)"
                )
        check_membership_events(norms[("threads", 1)], problems)
        for t in traces.values():
            r = subprocess.run(
                [sys.executable, os.path.join(here, "check_trace.py"), t],
                capture_output=True,
                text=True,
                check=False,
            )
            if r.returncode != 0:
                problems.append(f"check_trace.py rejected {t}:\n{r.stdout}{r.stderr}")
        nlines = len(norms[("threads", 1)])
    if problems:
        for p in problems:
            print(f"  BAD  {p}", file=sys.stderr)
        print(f"check_elastic: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print(
        f"check_elastic: ok (seed {seed} replayed byte-identically on both executors; "
        f"{nlines} trace events, restart + rejoin + scale-out verified 4x)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
