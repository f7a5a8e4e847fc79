#!/usr/bin/env python3
"""CI replay gates: fixed-seed runs must replay byte-for-byte.

One harness, four gates.  Each runs its examples under a fixed
``MIM_CHAOS_SEED`` with ``MIM_TRACE`` pointed at a fresh JSONL file per
run, and requires that every run exits 0 (the examples assert their own
protocol contracts), that stdout is byte-identical across all runs of an
example, that the listed pairs of trace dumps are identical after
*normalization* (below), plus the gate's own stdout markers and
event-count checks, and a clean ``check_trace.py`` pass where listed.

``chaos``     ``chaos_stencil`` twice: 8-rank halo exchange inside the
              self-healing reorder loop; the plan drops/duplicates wire
              transmissions and crashes rank 3 at its 18th wire operation.
              Pins crash detection, seven survivors, shrink-and-remap.
``executor``  ``quickstart``, ``chaos_stencil`` and ``elastic_stencil`` once
              per engine (``MIM_EXECUTOR=threads`` / ``tasks``), and on the
              task engine again under ``MIM_WORKERS=1`` and
              ``MIM_WORKERS=3``: the simulated application cannot tell which
              engine ran it, nor on how many workers.  Under the task engine
              the retry timers, duplicate deliveries and scheduled crash all
              fire against *parked tasks*, and ``elastic_stencil`` adds the
              per-slot driver's restart loop and a latent slot parked before
              it has a ``Rank``, so this pins the whole park/unpark protocol,
              not just the happy path; three workers split the ranks
              unevenly across their home queues.
``elastic``   ``elastic_stencil`` twice per engine: rolling restart of
              rank 3, readmission, a latent slot joining, a 9-rank window
              matrix.  Per-engine replay AND threads-vs-tasks agreement.
``figures``   ``stencil_reorder``, ``fig5_collectives``, ``fig6_heatmap`` and
              ``fig7_cg`` under ``MIM_QUICK=1``, twice per engine: the strict
              reorder loop charges the mapping from a model of the matrix,
              not from the host's clock, and Fig 5's collective times are
              the contended DES (``schedule::simulate``), so stdout, traces
              and the CSVs a figure binary writes are the same bytes on
              every run.

Normalization, and why it is honest: threads append to the shared trace
file as they go, so lines from different ranks interleave in wall-clock
order — traces are compared as multisets of lines, by a digest summed
while the dump streams past (`fig7_cg` leaves 200 MB a run), which
ignores the order without touching content.
``tid`` is the tracer's registration index, assigned in whatever order
the rank threads start; each example runs a single universe, so track
*names* already identify ranks uniquely and ``tid`` is zeroed (the figure
binaries run several, one after the other: their same-named tracks pool
into one multiset, which every run must still reproduce).  The
``recv`` event's ``uq`` field reports how many envelopes happened to
sit in the unexpected queue when the match landed, a function of OS
scheduling even between two fault-free runs, so it is zeroed too.  Every
virtual-time field — timestamps, retry counts and backoffs, payload
sizes, crash op counts, epochs, incarnations, per-track sequence numbers
— is compared exactly.

Usage: check_replay.py chaos    path/to/chaos_stencil [seed]
       check_replay.py executor path/to/quickstart path/to/chaos_stencil
                                path/to/elastic_stencil [seed]
       check_replay.py elastic  path/to/elastic_stencil [seed]
       check_replay.py figures  path/to/stencil_reorder path/to/fig5_collectives
                                path/to/fig6_heatmap path/to/fig7_cg [seed]
"""
import hashlib
import os
import re
import subprocess
import sys
import tempfile

SEED = "42"
T1, T2, K1, K2 = ("threads", 1, ()), ("threads", 2, ()), ("tasks", 1, ()), ("tasks", 2, ())
W1 = ("tasks", 1, (("MIM_WORKERS", "1"),))
W3 = ("tasks", 1, (("MIM_WORKERS", "3"),))

# Per gate: how many example paths it takes; the run matrix as
# (MIM_EXECUTOR or None = inherit, repetition, extra environment as
# (name, value) pairs); which pairs of runs must
# leave identical normalized traces; stdout markers (checked on the first
# run); event-count checks on the first run's trace as
# (what, needle, min, max or None); whether check_trace.py lints every
# dump; the closing line; and, where the programs need it, `env`, added to
# every run's environment.
GATES = {
    "chaos": dict(
        examples=1,
        runs=[(None, 1, ()), (None, 2, ())],
        same_trace=[((None, 1, ()), (None, 2, ()))],
        markers=[
            "rank 3: DEAD",
            "survivors: 7/8",
            "recovered by shrink-and-remap; all checks passed",
        ],
        events=[
            # A 10% drop plan must retry.
            ("retry", '"type":"retry"', 1, None),
            ("rank_crash", '"type":"rank_crash"', 1, 1),
        ],
        lint=True,
        ok="seed {seed} replayed byte-identically; {events} trace events, "
        "crash + shrink-and-remap verified twice",
    ),
    "executor": dict(
        examples=3,
        runs=[T1, K1, W1, W3],
        same_trace=[(T1, K1), (T1, W1), (T1, W3)],
        markers=[],
        events=[],
        lint=False,
        ok="threads and tasks engines (default, 1 and 3 workers) byte-identical on "
        "{names} [{events} events], seed {seed}",
    ),
    "elastic": dict(
        examples=1,
        runs=[T1, T2, K1, K2],
        same_trace=[(T1, T2), (K1, K2), (T1, K1)],
        markers=[
            "slot 3: reborn inc=1",
            "slot 8: joiner",
            "stale_send=[epoch 2 rejected at 3]",
            "scale-out to 9 ranks converged; all checks passed",
        ],
        events=[
            ("rank_crash", '"type":"rank_crash"', 1, 1),
            ("rebirth join", '"type":"rank_join","incarnation":1', 1, 1),
            ("latent-admission join", '"type":"rank_join","incarnation":0', 1, 1),
            # 7 survivors x (shrink + grow) + 8 members x scale-out grow;
            # the reborn and latent ranks receive their epochs by admission
            # notice, which does not re-record the bump.
            ("epoch_bump", '"type":"epoch_bump"', 3, None),
        ],
        lint=True,
        ok="seed {seed} replayed byte-identically on both executors; {events} trace "
        "events, restart + rejoin + scale-out verified 4x",
    ),
    "figures": dict(
        examples=4,
        runs=[T1, T2, K1, K2],
        same_trace=[(T1, T2), (K1, K2), (T1, K1)],
        markers=[],
        events=[],
        lint=False,
        env={"MIM_QUICK": "1"},
        ok="seed {seed}: stdout, traces [{events} events] and CSVs of {names} "
        "byte-identical twice per engine",
    ),
}


def summarize(trace_path, needles):
    """`(lines, digest)` of the normalized trace as a multiset of lines, and
    how many lines contain each needle."""
    lines = total = 0
    counts = [0] * len(needles)
    with open(trace_path) as f:
        for ln in f:
            if ln.strip():
                ln = re.sub(r'"tid":\d+', '"tid":0', re.sub(r'"uq":\d+', '"uq":0', ln))
                lines += 1
                total += int.from_bytes(hashlib.blake2b(ln.encode(), digest_size=16).digest(), "big")
                counts = [c + (needle in ln) for c, needle in zip(counts, needles)]
    return (lines, total % (1 << 128)), counts


def take_results(results_dir):
    """The files a run left in its results directory, removed from it."""
    taken = {}
    for name in sorted(os.listdir(results_dir)):
        path = os.path.join(results_dir, name)
        with open(path, "rb") as f:
            taken[name] = f.read()
        os.remove(path)
    return taken


def label(run):
    """A run's name in file names and messages: engine, repetition, extra
    environment."""
    engine, rep, extra = run
    return f"{engine or 'run'}{rep}" + "".join(f".{k}={v}" for k, v in extra)


def run_once(example, run, seed, trace_path, problems, gate_env):
    engine, _, extra = run
    env = dict(os.environ, MIM_CHAOS_SEED=seed, MIM_TRACE=trace_path, **gate_env)
    env.update(extra)
    if engine:
        env["MIM_EXECUTOR"] = engine
    env.pop("MIM_CHAOS_PLAN", None)  # the gates check the built-in plans
    r = subprocess.run([example], capture_output=True, text=True, env=env, check=False)
    name = os.path.basename(example)
    if r.returncode != 0:
        problems.append(
            f"{name} (seed {seed}, {label(run)}) exited {r.returncode}:\n{r.stdout}{r.stderr}"
        )
    if engine == "tasks" and "using threads" in r.stderr:
        problems.append(f"{name}: task engine silently fell back to threads:\n{r.stderr}")
    if not os.path.exists(trace_path):
        problems.append(f"{name} ({label(run)}) produced no trace file")
    return r.stdout


def check_example(gate, example, seed, tmp, problems):
    """Run one example through the gate's matrix; returns its event count."""
    name = os.path.basename(example)
    here = os.path.dirname(os.path.abspath(__file__))
    first = gate["runs"][0]
    # All runs write their CSVs, if any, to one directory: its path is on a
    # figure binary's stdout.
    results_dir = os.path.join(tmp, f"{name}.results")
    os.makedirs(results_dir)
    env = dict(gate.get("env", {}), MIM_RESULTS_DIR=results_dir)
    needles = [needle for _, needle, _, _ in gate["events"]]
    outs, traces, counts, results = {}, {}, {}, {}
    before = len(problems)
    for run in gate["runs"]:
        trace = os.path.join(tmp, f"{name}.{label(run)}.jsonl")
        outs[run] = run_once(example, run, seed, trace, problems, env)
        if len(problems) > before:
            continue
        traces[run], counts[run] = summarize(trace, needles)
        results[run] = take_results(results_dir)
        if gate["lint"]:
            r = subprocess.run(
                [sys.executable, os.path.join(here, "check_trace.py"), trace],
                capture_output=True,
                text=True,
                check=False,
            )
            if r.returncode != 0:
                problems.append(f"check_trace.py rejected {trace}:\n{r.stdout}{r.stderr}")
        os.remove(trace)
    if len(traces) < len(gate["runs"]):
        return 0  # the example failed; replay checks would only add noise
    for marker in gate["markers"]:
        if marker not in outs[first]:
            problems.append(f"{name}: stdout is missing {marker!r}")
    for run in gate["runs"][1:]:
        if outs[run] != outs[first]:
            problems.append(
                f"{name}: stdout of {label(run)} diverged from {label(first)} (seed {seed})"
            )
        moved = sorted(
            f
            for f in results[run].keys() | results[first].keys()
            if results[run].get(f) != results[first].get(f)
        )
        if moved:
            problems.append(f"{name}: {', '.join(moved)} of {label(run)} diverged from {label(first)}")
    for a, b in gate["same_trace"]:
        if traces[a] != traces[b]:
            problems.append(
                f"{name}: normalized traces diverged between {label(a)} and {label(b)} "
                f"({traces[a][0]} vs {traces[b][0]} lines, digests differ)"
            )
    for (what, _, lo, hi), count in zip(gate["events"], counts[first]):
        if count < lo or (hi is not None and count > hi):
            want = f"exactly {lo}" if hi == lo else f"at least {lo}"
            problems.append(f"{name}: trace has {count} {what} events, want {want}")
    return traces[first][0]


def main():
    gate = GATES.get(sys.argv[1]) if len(sys.argv) > 1 else None
    if gate is None or len(sys.argv) - 2 not in (gate["examples"], gate["examples"] + 1):
        print(__doc__, file=sys.stderr)
        return 2
    examples = sys.argv[2 : 2 + gate["examples"]]
    seed = sys.argv[2 + gate["examples"]] if len(sys.argv) - 2 > gate["examples"] else SEED
    label = f"check_replay {sys.argv[1]}"
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        events = [check_example(gate, ex, seed, tmp, problems) for ex in examples]
    if problems:
        for p in problems:
            print(f"  BAD  {p}", file=sys.stderr)
        print(f"{label}: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    names = " and ".join(os.path.basename(ex) for ex in examples)
    counts = " / ".join(str(n) for n in events)
    print(f"{label}: ok ({gate['ok'].format(seed=seed, names=names, events=counts)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
