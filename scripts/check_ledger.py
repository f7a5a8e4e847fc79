#!/usr/bin/env python3
"""CI benchmark gate: one traced `mim-ledger` run per workload, held to
what survives a drifting host.

Every workload of `BENCHMARK.json` runs once, in its own process, and the
last line of its standard output — the contract's result object — must say
`correct: true` and `failed: 0`.  On top of that, the table below holds
in-run ratios, exact simulated values and loose order-of-magnitude
backstops; absolute host times are compared between commits with
`mim-ledger sweep` / `compare` on one host, never here.

The bounds are data, not options: nothing on the command line or in the
environment changes one.  Ratios the ROADMAP names carry its value; every
other bound had at least 3x headroom over three runs when it was set
(2 cores, 2 workers), and its `why` names the regression it exists to
catch.  This script builds nothing.

Usage: check_ledger.py path/to/mim-ledger
"""
import json
import operator
import subprocess
import sys
import tempfile

OPS = {"<=": operator.le, "==": operator.eq}

# workload -> (seconds, [(metric, op, bound, why)])
CHECKS = {
    "reduce_overhead": (3, [
        ("monitor_overhead_ratio", "<=", 1.10,
         "Fig 4: monitored / bare is ~1 (ROADMAP aim 1; 1.02-1.05 today, 1.23 before PR 15)"),
    ]),
    "ring_scale": (3, [
        ("mpisim.exec.tasks_over_threads", "<=", 0.5,
         "a tasks engine no faster than thread-per-rank (0.03-0.09 today, 0.11-0.16 before PR 18)"),
        ("mpisim.scale_exponent", "<=", 1.8,
         "an O(n^2) universe: 1024 -> 10k ranks must stay sub-quadratic (1.0-1.3 today; a "
         "diagnostic, not a target: a constant cost removed from every rung raises it)"),
        ("util.notifier.notify_ns", "<=", 100,
         "a condvar wake per notify with nobody asleep (16-20 ns today, 160-190 before PR 18)"),
        ("util.channel.send_recv_ns", "<=", 130,
         "a condvar wake per send with nobody asleep (31-44 ns today, 170-215 before PR 18)"),
    ]),
    "ring_monitored": (3, [
        ("core.accum.mem_bytes", "<=", 4096,
         "a traffic row that grows with the communicator, not with the peers touched: 8 peers "
         "of a 4096-member row hold 448 B sorted (896 B hashed, 196 608 B as a dense row)"),
    ]),
    "farm_wildcard": (3, [
        ("mpisim.mailbox.match_wildcard_ns", "<=", 5000,
         "a linear matcher: one scan of the 10k-deep queue is >= 10 us (~400 ns today)"),
    ]),
    "alltoall_plan": (3, [
        ("mpisim.schedule.evaluate_s", "<=", 0.25,
         "the O(E*n) ready-scan: its 36 last full-mode runs read 0.31-0.56 s (0.02 s today, "
         "0.04-0.06 s with hashed channels)"),
        ("mpisim.schedule.evaluate_contended_s", "<=", 0.25,
         "the O(E*n) ready-scan on the contended path (0.02-0.03 s today, 0.05-0.06 s "
         "with hashed channels)"),
        ("analyze.check_s", "<=", 0.75,
         "a quadratic analyzer pass on the 65 280-message plan (0.05-0.06 s today, 0.07-0.09 s "
         "with a member scan per op)"),
    ]),
    # The determinism contract: `comm_gain` is a simulated value, so it is
    # held to the digit — a moved virtual clock, a different mapping or a
    # changed message count all show here first.
    "stencil_loop": (1, [
        ("comm_gain", "==", 1.937142857142857, "exact simulated value, seed 1"),
        ("mpisim.mailbox.match_specific_ns", "<=", 5000,
         "a linear matcher on the specific pattern (10 us per scan; ~200 ns today)"),
        ("core.accum.mem_bytes", "<=", 4096,
         "a traffic row that grows with the communicator, not with the peers touched: 8 peers "
         "of a 4096-member row hold 448 B sorted (896 B hashed, 196 608 B as a dense row)"),
    ]),
    "cg_windowed": (1, [
        ("comm_gain", "==", 2.789489384974892, "exact simulated value, seed 1"),
        ("mpisim.coll.allgather_s", "<=", 0.005,
         "a ring allgather that decodes each block into a Vec of its own and concatenates "
         "them (1.5-1.7 ms/call today, 3.1-3.3 with the per-block Vec + concat; "
         "tests/alloc_budget.rs is the tight guard)"),
    ]),
}


def run(ledger, workload, seconds, out):
    """The contract's result object of one traced run (None if unreadable)."""
    proc = subprocess.run(
        [ledger, "--workload", workload, "--seed", "1", "--seconds", str(seconds),
         "--trace", "1", "--out", out],
        capture_output=True, text=True)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr[-2000:])
        return None


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bad = 0
    with tempfile.TemporaryDirectory() as out:
        for workload, (seconds, rows) in CHECKS.items():
            result = run(sys.argv[1], workload, seconds, out)
            if result is None:
                print(f"  BAD  {workload}: no result line")
                bad += 1
                continue
            healthy = result["correct"] is True and result["failed"] == 0
            bad += not healthy
            print(f"  {'ok ' if healthy else 'BAD'}  {workload}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, op, bound, why in rows:
                value = result["metrics"].get(metric, {}).get("value")
                holds = value is not None and OPS[op](value, bound)
                bad += not holds
                print(f"  {'ok ' if holds else 'BAD'}  {workload}: {metric} = {value!r} "
                      f"(must be {op} {bound!r}: {why})")
    if bad:
        print(f"check_ledger: {bad} problem(s)", file=sys.stderr)
        return 1
    print(f"check_ledger: ok ({len(CHECKS)} workloads correct with 0 failed operations, "
          f"{sum(len(rows) for _, rows in CHECKS.values())} bounds held)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
