#!/usr/bin/env python3
"""Repo-specific lint gate (stdlib only, no cargo needed).

Seven rules; the first four are scoped to library code with `#[cfg(test)]`
items stripped:

1. No `.unwrap()` / `.expect(` in `mim-mpisim`, `mim-core`,
   `mim-analyze`, or `mim-explore` outside the explicit allowlist below.
   Rank threads run user workloads; a stray unwrap turns a recoverable
   condition into a cascade of rank panics.  Allowlisted sites are
   invariant-backed (the message names the invariant) and reviewed by
   hand.

2. No wall-clock sources (`Instant::now`, `SystemTime::now`) in
   `mim-mpisim`, `mim-core`, `mim-analyze`, `mim-explore`,
   `mim-treematch` or `mim-reorder` at all.  The simulator is a
   virtual-time machine, the analyzer a pure function, the explorer's
   schedules must replay byte-for-byte, the mapper is a pure function of
   (machine, slots, matrix) and the reorder loops charge it from a model
   of that matrix; determinism is the whole point.  Sanctioned wall-clock
   use lives in `mim-util` (channel timeouts, the bench timer), which
   this gate does not scan — with one exception:

3. The M:N executor's substrate (`mim-util`'s `fiber.rs` and `deque.rs`)
   is held to both rules even though the rest of `mim-util` is not.
   These run on the scheduler hot path under every parked rank: an
   unwrap there takes down a whole worker's task set, and a wall-clock
   read there would let scheduling order leak into behavior.  Blocking
   wall-clock waits belong in `sync.rs` (the Notifier), where the
   executor's idle workers and its starvation watchdog sleep.

4. No library file under `crates/mpisim/src` — where every per-message
   perf item on the ROADMAP lands — `crates/analyze/src`,
   `crates/explore/src` or `crates/treematch/src` exceeds 600 counted
   lines (`#[cfg(test)]` items, blank and comment lines excluded).
   `runtime.rs` once reached 1413, and while the cap covered `mpisim`
   alone the analyzer's `check.rs` grew to 728 in the crate next door;
   each decision now has a file of its own and none may quietly grow back.

5. The environment is a declared surface: every `"MIM_*"` name in a
   string literal under `crates/` (tests included — they set what the
   library reads) has a row in README's environment table, and every row
   names a variable the code still reads.  `MIM_STARVE_CHILD`, a test
   talking to its own child process, is the one exception.  PR 24 found
   two variables read in one place each and set nowhere; an undeclared
   dial cannot come back without a README row a reviewer sees.

6. `unsafe` appears only in the files listed in `UNSAFE_ALLOWED`, each
   with its reason.  The one block outside them used to parse outside
   input (`from_utf8_unchecked` in the analyzer's JSON reader).

7. `schedule::evaluate` / `evaluate_contended` are ledger-only shims over
   `schedule::simulate`: no call to either appears under `crates/`,
   `tests/` or `examples/`, whose Rust files are all scanned — only the
   two forwarding definitions in `schedule.rs`.  `mim-ledger` measures
   them until it moves onto `simulate`; a caller that joined meanwhile
   would keep alive what is meant to be deleted mechanically.

The allowlists are keyed by repo-relative path, and an entry no line
matches fails the gate: a moved or deleted site must take its allowance
with it.
"""
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

UNWRAP_SCOPE = [
    "crates/mpisim/src",
    "crates/core/src",
    "crates/analyze/src",
    "crates/explore/src",
]
CLOCK_SCOPE = [
    "crates/mpisim/src",
    "crates/core/src",
    "crates/analyze/src",
    "crates/explore/src",
    "crates/treematch/src",
    "crates/reorder/src",
]
# Rule 3: single files (not whole directories) held to both rules.
EXEC_SUBSTRATE = ["crates/util/src/fiber.rs", "crates/util/src/deque.rs"]

# Rule 4: the size cap and the trees it applies to.
SIZE_SCOPE = [
    "crates/mpisim/src",
    "crates/analyze/src",
    "crates/explore/src",
    "crates/treematch/src",
]
SIZE_CAP = 600

# (repo-relative path, code substring) pairs; the substring must appear on
# the offending line for it to pass.  Keep each entry justified.
MPISIM = "crates/mpisim/src/"
ALLOWLIST = [
    # Matching index and FIFO non-emptiness are the mailbox's own invariants.
    (MPISIM + "mailbox.rs", 'expect("channel key came from the index")'),
    (MPISIM + "mailbox.rs", 'expect("empty channels are pruned")'),
    # Envelope sources were translated through the same communicator.
    (MPISIM + "runtime/wire.rs", 'expect("sender not in communicator")'),
    # Window exposure is checked before any one-sided op is admitted.
    (MPISIM + "osc.rs", 'expect("window not exposed on target'),
    # Launch-once and thread-spawn failures are unrecoverable by design.
    (MPISIM + "runtime/universe.rs", 'expect("a universe can only be launched once")'),
    (MPISIM + "runtime/universe.rs", 'expect("failed to spawn rank thread")'),
    (MPISIM + "runtime/universe.rs", 'expect("rank produced no result")'),
    # comm_split: the color/rank were inserted into these very collections.
    (MPISIM + "comm.rs", "distinct.binary_search(&color).unwrap()"),
    (MPISIM + "comm.rs", 'rank_of_world(self.world_rank()).expect("a member of its own color")'),
    # Collectives: a scatter's root brings the data (documented on the
    # public entry); nobody else's argument is read.
    (MPISIM + "collectives/mod.rs", 'expect("scatter root must provide data")'),
    (MPISIM + "collectives/varcount.rs", 'expect("scatterv root must provide chunks")'),
]

# Rule 5: names the README table need not carry.
ENV_PRIVATE = {"MIM_STARVE_CHILD"}
ENV_LITERAL_RE = re.compile(r'"(MIM_[A-Z0-9_]+)"')
ENV_ROW_RE = re.compile(r"^\| `(MIM_[A-Z0-9_]+)`", re.M)

# Rule 6: the only files that may say `unsafe`, and why.
UNSAFE_ALLOWED = {
    "crates/util/src/fiber.rs": "the context switch: hand-built stacks, the asm that swaps them, "
                                "and the `mmap` / `munmap` it declares for the stack pool",
    "crates/mpisim/src/runtime/universe.rs": "lifetime erasure of the one launch body",
    "crates/core/src/capi.rs": "`Send` for a rank task's monitoring environment, which migrates with its fiber",
    "crates/mpisim/tests/alloc_budget.rs": "a counting global allocator (a `GlobalAlloc` impl) that "
                                           "forwards every call to `System`",
    "crates/apps/tests/alloc_budget.rs": "a counting global allocator (a `GlobalAlloc` impl) that "
                                         "forwards every call to `System`",
}
UNSAFE_RE = re.compile(r"\bunsafe\b")

# Rule 7: where the ledger-only shims may be named with a `(`, and how.
SHIM_SCOPE = ["crates", "tests", "examples"]
SHIM_RE = re.compile(r"\bevaluate(?:_contended)?\(")
SHIM_DEFS = {("crates/mpisim/src/schedule.rs", "pub fn evaluate("),
             ("crates/mpisim/src/schedule.rs", "pub fn evaluate_contended(")}

UNWRAP_RE = re.compile(r"\.unwrap\(\)|\.expect\(")
CLOCK_RE = re.compile(r"\bInstant::now\b|\bSystemTime::now\b")
CFG_TEST_RE = re.compile(r"#\[cfg\(test\)\]")


def strip_test_items(lines):
    """Yield (lineno, line) with every `#[cfg(test)]`-gated item removed.

    Brace tracking from the attribute to the end of the following item —
    good enough for rustfmt-formatted code, where `#[cfg(test)]` sits on
    its own line directly above the `mod`/`fn` it gates.  An item that
    opens no brace before its `;` (`use x;`, `mod tests;`) ends there.
    """
    i, n = 0, len(lines)
    while i < n:
        if CFG_TEST_RE.search(lines[i]):
            depth, started = 0, False
            i += 1
            while i < n:
                line = code_of(lines[i])
                depth += line.count("{") - line.count("}")
                started = started or "{" in line
                i += 1
                if (started and depth <= 0) or (not started and line.rstrip().endswith(";")):
                    break
            continue
        yield i + 1, lines[i]
        i += 1


def code_of(line):
    """The line with any trailing // comment removed (string-naive, fine
    for this codebase: the patterns never appear inside string literals)."""
    return line.split("//")[0]


def allowance(rel, code):
    """The allowlist entry that covers this line, if any."""
    return next((e for e in ALLOWLIST if e[0] == rel and e[1] in code), None)


def counted_lines(lines):
    """Code lines outside `#[cfg(test)]` items, blank and comment-only
    lines excluded — the count the size cap is stated in."""
    stripped = (line.strip() for _, line in strip_test_items(lines))
    return sum(bool(s) and not s.startswith("//") for s in stripped)


def env_table():
    """The `MIM_*` names heading a row of README's environment table."""
    return set(ENV_ROW_RE.findall((REPO / "README.md").read_text()))


def surface_problems():
    """Rules 5 and 6, over every Rust file under `crates/`."""
    problems = []
    read, unsafe_in = {}, set()
    for path in sorted((REPO / "crates").rglob("*.rs")):
        rel = path.relative_to(REPO).as_posix()
        for ln, line in enumerate(path.read_text().splitlines(), 1):
            code = code_of(line)
            for name in ENV_LITERAL_RE.findall(code):
                read.setdefault(name, f"{rel}:{ln}")
            if UNSAFE_RE.search(code):
                unsafe_in.add(rel)
                if rel not in UNSAFE_ALLOWED:
                    problems.append(f"{rel}:{ln}: unsafe outside the allow-list: {line.strip()}")
    table = env_table()
    for name in sorted(set(read) - table - ENV_PRIVATE):
        problems.append(f"{read[name]}: {name} is read but has no row in README's environment table")
    for name in sorted((table | ENV_PRIVATE) - set(read)):
        problems.append(f"{name} is declared (README table or ENV_PRIVATE) but nothing under crates/ reads it")
    for rel in sorted(set(UNSAFE_ALLOWED) - unsafe_in):
        problems.append(f"unsafe allow-list entry matches no line (moved or deleted?): {rel}")
    return problems


def shim_problems():
    """Rule 7, over every Rust file under `SHIM_SCOPE`."""
    problems, defined = [], set()
    for scope in SHIM_SCOPE:
        for path in sorted((REPO / scope).rglob("*.rs")):
            rel = path.relative_to(REPO).as_posix()
            for ln, line in enumerate(path.read_text().splitlines(), 1):
                code = code_of(line)
                if not SHIM_RE.search(code):
                    continue
                entry = next((d for d in SHIM_DEFS if d[0] == rel and d[1] in code), None)
                if entry:
                    defined.add(entry)
                else:
                    problems.append(
                        f"{rel}:{ln}: ledger-only shim called (use schedule::simulate): {line.strip()}"
                    )
    for rel, sig in sorted(SHIM_DEFS - defined):
        problems.append(f"shim definition matches no line (moved or deleted?): {rel}: {sig}")
    return problems


def main() -> int:
    # A braceless gated item ends at its `;`, so the function after it is
    # still scanned and counted; a gated block is skipped wherever it sits.
    fixture = ["#[cfg(test)]", "use std::fmt;", "fn f() {", "    x.unwrap();", "}",
               "#[cfg(test)]", "mod tests {", "    fn g() {}", "}", "fn h() {}"]
    assert [ln for ln, _ in strip_test_items(fixture)] == [3, 4, 5, 10]
    assert counted_lines(fixture) == 4
    problems = []
    used = set()
    sizes = []
    targets = []
    for scope in sorted(set(UNWRAP_SCOPE + CLOCK_SCOPE)):
        targets += [(p, scope in UNWRAP_SCOPE) for p in sorted((REPO / scope).rglob("*.rs"))]
    targets += [(REPO / f, True) for f in EXEC_SUBSTRATE]
    for path, check_unwrap in targets:
            # `tests.rs` files are `#[cfg(test)] mod tests;` bodies — the
            # gating attribute lives in the parent module, not here.
            if path.name == "tests.rs" or "tests" in path.parent.parts:
                continue
            rel = path.relative_to(REPO).as_posix()
            lines = path.read_text().splitlines()
            if any(rel.startswith(scope + "/") for scope in SIZE_SCOPE):
                sizes.append((counted_lines(lines), rel))
            for ln, line in strip_test_items(lines):
                code = code_of(line)
                if check_unwrap and UNWRAP_RE.search(code):
                    entry = allowance(rel, code)
                    if entry:
                        used.add(entry)
                    else:
                        problems.append(
                            f"{rel}:{ln}: unwrap/expect in library code "
                            f"(return a Result or allowlist with justification): "
                            f"{line.strip()}"
                        )
                if CLOCK_RE.search(code):
                    problems.append(
                        f"{rel}:{ln}: wall-clock source in deterministic code: "
                        f"{line.strip()}"
                    )
    problems += surface_problems()
    problems += shim_problems()
    for entry in ALLOWLIST:
        if entry not in used:
            problems.append(f"allowlist entry matches no line (moved or deleted?): {entry}")
    sizes.sort(reverse=True)
    for n, rel in sizes:
        if n > SIZE_CAP:
            problems.append(f"{rel}: {n} counted lines, cap is {SIZE_CAP}: split it by decision")
    if problems:
        print("lint gate failed:")
        for p in problems:
            print("  " + p)
        return 1
    print(
        f"lint gate OK: {len(ALLOWLIST)} allowlisted sites, all in use, no stray "
        f"unwrap/expect or wall-clock calls, no file under {', '.join(SIZE_SCOPE)} over "
        f"{SIZE_CAP} counted lines; {len(env_table())} environment variables, all in README's "
        f"table and all read; unsafe only in {len(UNSAFE_ALLOWED)} allow-listed files; "
        f"the {len(SHIM_DEFS)} ledger-only shims called nowhere"
    )
    print("largest: " + ", ".join(f"{rel.removeprefix('crates/')} {n}" for n, rel in sizes[:5]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
