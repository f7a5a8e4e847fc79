//! The repository's own rules, read off its source text (std only, no
//! subprocess), one `#[test]` per rule so that a failure names the rule.
//! Rules 1–4 read library code with its test items stripped.
//!
//! 1. No `.unwrap()` / `.expect(` in `mim-mpisim`, `mim-core`,
//!    `mim-analyze` or `mim-explore` outside [`ALLOWLIST`]. Rank threads run
//!    user workloads: a stray unwrap turns a recoverable condition into a
//!    cascade of rank panics. Allowlisted sites are invariant-backed (the
//!    message names the invariant) and reviewed by hand.
//! 2. No wall-clock source (`Instant::now`, `SystemTime::now`) in those four
//!    crates, `mim-treematch`, `mim-reorder`, `mim-chaos` or
//!    `mim-topology`. The simulator is a virtual-time machine, the analyzer
//!    a pure function, the explorer's schedules must replay byte-for-byte,
//!    the mapper is a pure function of (machine, slots, matrix), the reorder
//!    loops charge it from a model of that matrix, and fault verdicts and
//!    the cost model feed every virtual clock: determinism is the whole
//!    point. Sanctioned wall-clock use lives in `mim-util` (channel
//!    timeouts, the bench timer), with one exception:
//! 3. The M:N executor's substrate (`mim-util`'s `fiber.rs`, `deque.rs`) is
//!    held to rules 1 and 2. It runs on the scheduler hot path under every
//!    parked rank: an unwrap there takes down a worker's whole task set, and
//!    a wall-clock read would let scheduling order leak into behaviour.
//!    Blocking wall-clock waits belong in `sync.rs` (the Notifier).
//! 4. No library file of `mim-mpisim` (where every per-message perf item
//!    lands), `mim-analyze`, `mim-explore` or `mim-treematch` exceeds 600
//!    counted lines (test items, blank and comment lines excluded).
//!    `runtime.rs` once reached 1413, and while the cap covered `mpisim`
//!    alone the analyzer's `check.rs` grew to 728: each decision has a file
//!    of its own, and none may quietly grow back.
//! 5. Every `"MIM_*"` name in a string literal under `crates/` (tests too:
//!    they set what the library reads) has a row in README's environment
//!    table, and every row names a variable the code still reads. Two
//!    variables were once read in one place each and set nowhere; an
//!    undeclared dial cannot come back without a README row a reviewer sees.
//! 6. `unsafe` appears only in the files of [`UNSAFE_ALLOWED`], each under
//!    its reason. The one block outside them used to parse outside input
//!    (`from_utf8_unchecked` in the analyzer's JSON reader).
//! 7. `schedule::evaluate` / `evaluate_contended` are ledger-only shims over
//!    `schedule::simulate`: no Rust file under `crates/`, `tests/` or
//!    `examples/` calls them. `mim-ledger` measures them until it moves onto
//!    `simulate`; a caller that joined meanwhile would keep alive what is
//!    meant to be deleted mechanically.
//! 8. `pub` means another target uses it: every `pub fn`, `pub mod` and
//!    `pub use` name in a crate's library sources (`crates/*/src`, not
//!    `src/bin/`, test items stripped) appears in some file outside that
//!    library — another crate's `src`, any `tests/`, `benches/`, `src/bin/`
//!    or `examples/`, or `mim-ledger/src` — or is kept on purpose in
//!    [`KEPT_PUBLIC`]. What only its own crate calls is `pub(crate)`, where
//!    clippy's `dead_code` catches the next orphan. A census by hand once
//!    left four orphans in place and missed seven more that the compiler
//!    then reported. Any mention counts, comments too, so a name collision
//!    can only let an item pass wrongly, never fail wrongly.
//! 9. Std's `HashMap` / `HashSet` are named in library code (`crates/*/src`,
//!    not `src/bin/`, test items stripped) only in [`STD_HASH_HOME`], which
//!    wraps them as `mim_util::hash::IdMap` / `IdSet`. Std's default hasher
//!    is SipHash: it once took 7.4 % of a monitored ring's host-time samples,
//!    nearly all in the unexpected queue, and it reorders a map's iteration
//!    from run to run. Test oracles keep std maps.
//!
//! Hermeticity: `cargo build --offline` works from a clean checkout with an
//! empty registry cache while no lock file has a `source = ` line (a
//! registry or git package). `mim-ledger/Cargo.lock` is not committed; it
//! is read where a ledger build has written it.
//!
//! An allowance no line uses fails its rule: a moved or deleted site takes
//! its allowance with it. Comments are cut at the first `//`, string-naively:
//! no pattern here appears inside a string literal of the scanned code.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::fs;
use std::path::{Path, PathBuf};

const UNWRAP_SCOPE: [&str; 4] = ["mpisim", "core", "analyze", "explore"];
const CLOCK_SCOPE: [&str; 8] =
    ["mpisim", "core", "analyze", "explore", "treematch", "reorder", "chaos", "topology"];
/// Rule 3: single files, not whole crates.
const EXEC_SUBSTRATE: [&str; 2] = ["crates/util/src/fiber.rs", "crates/util/src/deque.rs"];
const SIZE_SCOPE: [&str; 4] = ["mpisim", "analyze", "explore", "treematch"];
const SIZE_CAP: usize = 600;

/// Rule 1: (file under `crates/mpisim/src/`, code substring) pairs; the
/// substring must appear on the offending line for it to pass.
const ALLOWLIST: [(&str, &str); 10] = [
    // Matching index and FIFO non-emptiness are the mailbox's own invariants.
    ("mailbox.rs", r#"expect("channel key came from the index")"#),
    ("mailbox.rs", r#"expect("empty channels are pruned")"#),
    // Envelope sources were translated through the same communicator.
    ("runtime/wire.rs", r#"expect("sender not in communicator")"#),
    // Window exposure is checked before any one-sided op is admitted.
    ("osc.rs", r#"expect("window not exposed on target"#),
    // Launch-once and thread-spawn failures are unrecoverable by design.
    ("runtime/universe.rs", r#"expect("a universe can only be launched once")"#),
    ("runtime/universe.rs", r#"expect("failed to spawn rank thread")"#),
    ("runtime/universe.rs", r#"expect("rank produced no result")"#),
    // comm_split: the color/rank were inserted into these very collections.
    ("comm.rs", "distinct.binary_search(&color).unwrap()"),
    ("comm.rs", r#"rank_of_world(self.world_rank()).expect("a member of its own color")"#),
    // Collectives: a scatter's root brings the data (documented on the
    // public entry); nobody else's argument is read.
    ("collectives/mod.rs", r#"expect("scatter root must provide data")"#),
];

/// Rule 5: a test talking to its own child process; no README row needed.
const ENV_PRIVATE: [&str; 1] = ["MIM_STARVE_CHILD"];

/// Rule 6: the only files that may say `unsafe`.
const UNSAFE_ALLOWED: [&str; 5] = [
    // The context switch: hand-built stacks, the asm that swaps them, and
    // the `mmap` / `munmap` it declares for the stack pool.
    "crates/util/src/fiber.rs",
    // Lifetime erasure of the one launch body.
    "crates/mpisim/src/runtime/universe.rs",
    // `Send` for a rank task's monitoring environment, which migrates with
    // its fiber.
    "crates/core/src/capi.rs",
    // Counting global allocators (`GlobalAlloc` impls) that forward every
    // call to `System`.
    "crates/mpisim/tests/alloc_budget.rs",
    "crates/apps/tests/alloc_budget.rs",
];

/// Rule 7: the shims as `(file, name)`, the file being the one that may name
/// the shim with a `(` (to define it), and the trees scanned.
const SHIMS: [(&str, &str); 3] = [
    ("crates/mpisim/src/schedule.rs", "evaluate"),
    ("crates/mpisim/src/schedule.rs", "evaluate_contended"),
    ("crates/core/src/accum.rs", "with_dense_limit"),
];
const SHIM_SCOPE: [&str; 3] = ["crates", "tests", "examples"];

/// Rule 8: public items no other target names, kept on purpose:
/// `(file, name, reason)`; a name ending in `*` is a prefix. An entry that
/// matches no public item fails the rule.
const KEPT_PUBLIC: [(&str, &str, &str); 4] = [
    ("crates/core/src/capi.rs", "MPI_M_*", "the paper's API, name for name"),
    // The one-sided operations `OSC_ONLY` monitors and the analyzer's
    // `get` / `acc` ops model; only their unit tests call them.
    ("crates/mpisim/src/osc.rs", "win_local", "a window's own buffer, read back"),
    ("crates/mpisim/src/osc.rs", "accumulate", "one-sided accumulate"),
    ("crates/mpisim/src/osc.rs", "get", "one-sided get"),
];

/// Rule 9: the one library file that may name std's hash containers.
const STD_HASH_HOME: [&str; 1] = ["crates/util/src/hash.rs"];

/// Hermeticity: the lock files of the root workspace and of `mim-ledger`.
const LOCK_FILES: [&str; 2] = ["Cargo.lock", "mim-ledger/Cargo.lock"];

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn src(crates: &[&str]) -> Vec<String> {
    crates.iter().map(|c| format!("crates/{c}/src")).collect()
}

/// `(repo-relative path, text)` of every `.rs` file at or under `paths`;
/// with `library`, skipping `tests.rs` files and `tests/` directories
/// (`#[cfg(test)] mod tests;` bodies, gated in their parent module).
fn rust_files(paths: &[impl AsRef<str>], library: bool) -> Vec<(String, String)> {
    let root = repo();
    let mut todo: Vec<PathBuf> = paths.iter().map(|p| root.join(p.as_ref())).collect();
    let mut files = Vec::new();
    while let Some(path) = todo.pop() {
        if path.is_dir() {
            let entries = fs::read_dir(&path).expect("a readable directory");
            todo.extend(entries.map(|e| e.expect("a directory entry").path()));
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(&root).expect("a path under the repo");
            let rel = rel.to_string_lossy().into_owned();
            if !(library && (rel.ends_with("/tests.rs") || rel.contains("/tests/"))) {
                files.push((rel, fs::read_to_string(&path).expect("a UTF-8 source file")));
            }
        }
    }
    files.sort();
    files
}

/// `(path, line number, trimmed line)` of every line of [`rust_files`]
/// whose code (comment cut) matches `pred`; with `library`, test items
/// stripped first.
fn lines(paths: &[impl AsRef<str>], library: bool, pred: fn(&str) -> bool) -> Vec<Line> {
    let mut lines = Vec::new();
    for (rel, text) in rust_files(paths, library) {
        let kept = if library { strip_test_items(&text) } else { text.lines().zip(1..).collect() };
        let found = kept.into_iter().filter(|(l, _)| pred(code_of(l)));
        lines.extend(found.map(|(l, n)| (rel.clone(), n, l.trim().to_owned())));
    }
    lines
}

type Line = (String, usize, String);

fn at((rel, n, line): &Line) -> String {
    format!("{rel}:{n}: {line}")
}

/// Every line no allowance covers, then every allowance no line uses. A
/// line uses the first allowance that is `ok` with the line's path and code.
fn stray<A: Debug>(lines: &[Line], allow: &[A], ok: fn(&A, &str, &str) -> bool) -> Vec<String> {
    let (mut problems, mut used) = (Vec::new(), vec![false; allow.len()]);
    for line in lines {
        match allow.iter().position(|a| ok(a, &line.0, code_of(&line.2))) {
            Some(i) => used[i] = true,
            None => problems.push(at(line)),
        }
    }
    let unused = allow.iter().zip(used).filter(|(_, used)| !used);
    problems.extend(unused.map(|(a, _)| format!("no line uses (moved or deleted?): {a:?}")));
    problems
}

/// The line with any trailing `//` comment removed.
fn code_of(line: &str) -> &str {
    line.find("//").map_or(line, |i| &line[..i])
}

/// Whether `hay` contains `word`, with a regex `\b` at each end of `word`
/// that is a word character.
fn has_word(hay: &str, word: &str) -> bool {
    let w = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
    let (head, tail) = (w(word.chars().next()), w(word.chars().next_back()));
    hay.match_indices(word).any(|(i, _)| {
        let (before, after) = (hay[..i].chars().next_back(), hay[i + word.len()..].chars().next());
        !((head && w(before)) || (tail && w(after)))
    })
}

/// The name of a `quote`-delimited `MIM_[A-Z0-9_]+` at the start of `s`.
fn quoted_mim(s: &str, quote: char) -> Option<&str> {
    let body = s.strip_prefix(quote)?;
    let name = |c: char| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_';
    let len = body.find(|c| !name(c)).unwrap_or(body.len());
    (body.starts_with("MIM_") && len > 4 && body[len..].starts_with(quote)).then(|| &body[..len])
}

/// `(line, line number)` for every line outside the items gated by
/// `#[cfg(test)]` or `#[cfg(all(test, …))]`.
///
/// Brace tracking from the attribute to the end of the following item:
/// good enough for rustfmt-formatted code, where the attribute sits on its
/// own line directly above the `mod`/`fn` it gates. An item that opens no
/// brace before its `;` (`use x;`, `mod tests;`) ends there.
fn strip_test_items(text: &str) -> Vec<(&str, usize)> {
    let mut kept = Vec::new();
    let mut lines = text.lines().zip(1..);
    while let Some((line, n)) = lines.next() {
        if !line.contains("#[cfg(test)]") && !line.contains("#[cfg(all(test,") {
            kept.push((line, n));
            continue;
        }
        let (mut depth, mut started) = (0, false);
        for (line, _) in lines.by_ref() {
            let code = code_of(line);
            depth += code.matches('{').count() as i64 - code.matches('}').count() as i64;
            started |= code.contains('{');
            if (started && depth <= 0) || (!started && code.trim_end().ends_with(';')) {
                break;
            }
        }
    }
    kept
}

/// Code lines outside test items, blank and comment-only lines excluded:
/// the count the size cap is stated in.
fn counted_lines(text: &str) -> usize {
    let counted = |l: &str| !l.is_empty() && !l.starts_with("//");
    strip_test_items(text).into_iter().filter(|(l, _)| counted(l.trim())).count()
}

fn is_unwrap(code: &str) -> bool {
    code.contains(".unwrap()") || code.contains(".expect(")
}

fn is_clock(code: &str) -> bool {
    has_word(code, "Instant::now") || has_word(code, "SystemTime::now")
}

fn pass(rule: &str, problems: impl IntoIterator<Item = String>) {
    let problems: Vec<String> = problems.into_iter().collect();
    assert!(problems.is_empty(), "{rule}:\n  {}", problems.join("\n  "));
}

#[test]
fn test_items_are_stripped_and_not_counted() {
    // A braceless gated item ends at its `;`, so the function after it is
    // still scanned and counted; a gated block is skipped wherever it sits.
    let fixture = "#[cfg(test)]\nuse std::fmt;\nfn f() {\n    x.unwrap();\n}\n\
                   #[cfg(test)]\nmod tests {\n    fn g() {}\n}\nfn h() {}";
    let kept: Vec<usize> = strip_test_items(fixture).into_iter().map(|(_, n)| n).collect();
    assert_eq!(kept, [3, 4, 5, 10]);
    assert_eq!(counted_lines(fixture), 4);
    // `fiber.rs` gates its tests with `#[cfg(all(test, …))]`.
    let all = "#[cfg(all(test, unix))]\nmod tests {\n    fn g() { x.unwrap(); }\n}\nfn h() {}";
    assert_eq!(strip_test_items(all), [("fn h() {}", 5)]);
    assert_eq!(counted_lines(all), 1);
}

#[test]
fn rule1_unwrap_and_expect_only_at_allowlisted_sites() {
    let found = lines(&src(&UNWRAP_SCOPE), true, is_unwrap);
    let ok = |(file, site): &(&str, &str), rel: &str, code: &str| {
        rel.strip_prefix("crates/mpisim/src/") == Some(*file) && code.contains(site)
    };
    let rule = "rule 1: unwrap/expect in library code (return a Result or allowlist the site)";
    pass(rule, stray(&found, &ALLOWLIST, ok));
}

#[test]
fn rule2_no_wall_clock_in_deterministic_crates() {
    pass("rule 2: wall-clock source", lines(&src(&CLOCK_SCOPE), true, is_clock).iter().map(at));
}

#[test]
fn rule3_executor_substrate_has_no_unwrap_and_no_wall_clock() {
    let found = lines(&EXEC_SUBSTRATE, true, |code| is_unwrap(code) || is_clock(code));
    pass("rule 3: unwrap/expect or wall clock in the executor substrate", found.iter().map(at));
}

#[test]
fn rule4_no_library_file_over_the_size_cap() {
    let files = rust_files(&src(&SIZE_SCOPE), true).into_iter();
    let mut sizes: Vec<(usize, String)> = files.map(|(rel, t)| (counted_lines(&t), rel)).collect();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    let largest: Vec<String> = sizes[..5].iter().map(|(n, rel)| format!("{rel} {n}")).collect();
    println!("largest: {}", largest.join(", "));
    let over = sizes.into_iter().filter(|(n, _)| *n > SIZE_CAP);
    pass("rule 4: over the size cap", over.map(|(n, rel)| format!("{rel}: {n} counted lines")));
}

#[test]
fn rule5_mim_variables_match_the_readme_table() {
    let mut read = BTreeMap::new();
    for (rel, n, line) in lines(&["crates"], false, |code| code.contains("\"MIM_")) {
        let code = code_of(&line);
        for name in code.match_indices('"').filter_map(|(i, _)| quoted_mim(&code[i..], '"')) {
            read.entry(name.to_owned()).or_insert(format!("{rel}:{n}"));
        }
    }
    let readme = fs::read_to_string(repo().join("README.md")).expect("README.md");
    let rows = readme.lines().filter_map(|l| quoted_mim(l.strip_prefix("| ")?, '`'));
    let declared: BTreeSet<&str> = rows.chain(ENV_PRIVATE).collect();
    let undeclared = read.iter().filter(|(name, _)| !declared.contains(name.as_str()));
    let unread = declared.iter().filter(|name| !read.contains_key(**name));
    let problems = undeclared.map(|(name, at)| format!("{at}: {name} has no README row"));
    let unread = unread.map(|name| format!("{name} has a README row or ENV_PRIVATE, no reader"));
    pass("rule 5: the MIM_* environment table", problems.chain(unread));
}

#[test]
fn rule6_unsafe_only_in_allowed_files() {
    let found = lines(&["crates"], false, |code| has_word(code, "unsafe"));
    let ok = |file: &&str, rel: &str, _: &str| rel == *file;
    pass("rule 6: unsafe outside UNSAFE_ALLOWED", stray(&found, &UNSAFE_ALLOWED, ok));
}

#[test]
fn rule7_ledger_only_shims_are_called_nowhere() {
    let found =
        lines(&SHIM_SCOPE, false, |c| SHIMS.iter().any(|(_, s)| has_word(c, &format!("{s}("))));
    let ok = |(file, s): &(&str, &str), rel: &str, c: &str| {
        rel == *file && c.contains(&format!("pub fn {s}("))
    };
    pass("rule 7: ledger-only shim called", stray(&found, &SHIMS, ok));
}

/// Rule 8: the crate whose library `rel` belongs to (`crates/<c>/src`, not
/// `src/bin/`); `None` for every other target.
fn library_of(rel: &str) -> Option<&str> {
    let (krate, rest) = rel.strip_prefix("crates/")?.split_once('/')?;
    (rest.starts_with("src/") && !rest.starts_with("src/bin/")).then_some(krate)
}

/// The names a library line declares public: `pub fn` / `pub const fn`,
/// `pub mod`, and each name a `pub use` brings in (`as` alias or last path
/// segment; globs bring none).
fn public_names(code: &str) -> Vec<&str> {
    fn ident(s: &str) -> &str {
        let s = s.trim();
        &s[..s.find(|c: char| !(c.is_alphanumeric() || c == '_')).unwrap_or(s.len())]
    }
    let code = code.trim_start();
    if let Some(used) = code.strip_prefix("pub use ") {
        let leaves = used.split(['{', '}', ',', ';']).map(|leaf| match leaf.split_once(" as ") {
            Some((_, alias)) => ident(alias),
            None => ident(leaf.rsplit("::").next().unwrap_or(leaf)),
        });
        return leaves.filter(|name| !name.is_empty()).collect();
    }
    let decl = ["pub fn ", "pub const fn ", "pub mod "].iter().find_map(|p| code.strip_prefix(p));
    decl.map(ident).into_iter().collect()
}

/// Rule 8 over `(path, text)` files: every public library item no file
/// outside its library names and no [`KEPT_PUBLIC`]-shaped entry of `kept`
/// covers, then every entry that matches no public item.
fn unnamed_public_items(files: &[(String, String)], kept: &[(&str, &str, &str)]) -> Vec<String> {
    let mut named: BTreeMap<&str, BTreeSet<Option<&str>>> = BTreeMap::new();
    for (rel, text) in files {
        let words = text.split(|c: char| !(c.is_alphanumeric() || c == '_'));
        for word in words.filter(|w| !w.is_empty()) {
            named.entry(word).or_default().insert(library_of(rel));
        }
    }
    let (mut problems, mut used) = (Vec::new(), vec![false; kept.len()]);
    for (rel, text) in files {
        let Some(krate) = library_of(rel) else { continue };
        if rel.ends_with("/tests.rs") || rel.contains("/tests/") {
            continue;
        }
        let mut library_lines = strip_test_items(text).into_iter();
        while let Some((line, n)) = library_lines.next() {
            let mut code = code_of(line).to_owned();
            // A `pub use` list may span lines: read on to its `;`.
            while code.trim_start().starts_with("pub use ") && !code.contains(';') {
                let Some((next, _)) = library_lines.next() else { break };
                code.push_str(code_of(next));
            }
            for name in public_names(&code) {
                let covers = |(file, pat, _): &(&str, &str, &str)| {
                    rel == file
                        && pat.strip_suffix('*').map_or(name == *pat, |p| name.starts_with(p))
                };
                let outside =
                    |owners: &BTreeSet<Option<&str>>| owners.iter().any(|o| *o != Some(krate));
                if let Some(i) = kept.iter().position(covers) {
                    used[i] = true;
                } else if !named.get(name).is_some_and(outside) {
                    problems.push(format!("{rel}:{n}: `{name}` is named by no other target"));
                }
            }
        }
    }
    let stale = kept.iter().zip(used).filter(|(_, used)| !used);
    problems.extend(
        stale.map(|(k, _)| format!("matches no public item (narrowed or deleted?): {k:?}")),
    );
    problems
}

#[test]
fn rule8_public_items_are_named_by_another_target() {
    let mut files = rust_files(&["crates", "tests", "examples", "mim-ledger/src"], false);
    files.retain(|(rel, _)| rel != "tests/repo_rules.rs");
    let rule = "rule 8: public item only its own crate names (make it pub(crate) or delete it)";
    pass(rule, unnamed_public_items(&files, &KEPT_PUBLIC));
}

#[test]
fn rule8_census_reads_other_targets_and_skips_test_items() {
    let file = |rel: &str, text: &str| (rel.to_owned(), text.to_owned());
    let files = [
        file(
            "crates/a/src/lib.rs",
            "pub fn called() {}\npub fn lonely() {}\n#[cfg(test)]\npub fn helper() {}\n\
             pub fn kept() {}\npub use m::{Used,\n    Unused};\npub mod m;",
        ),
        // Its own crate's sources (unit tests too) are not another target.
        file("crates/a/src/m.rs", "pub struct Used;\npub struct Unused;\nfn f() { lonely(); }"),
        file("crates/a/src/m/tests.rs", "fn t() { lonely(); }"),
        // Another crate's library and its own crate's bin both are.
        file("crates/b/src/lib.rs", "fn g() { a::called(); a::Used; }"),
        file("crates/a/src/bin/tool.rs", "fn main() { a::m::Used; }"),
    ];
    let kept =
        [("crates/a/src/lib.rs", "kept", "on purpose"), ("crates/a/src/lib.rs", "gone", "stale")];
    assert_eq!(
        unnamed_public_items(&files, &kept),
        [
            "crates/a/src/lib.rs:2: `lonely` is named by no other target",
            "crates/a/src/lib.rs:6: `Unused` is named by no other target",
            "matches no public item (narrowed or deleted?): (\"crates/a/src/lib.rs\", \"gone\", \"stale\")",
        ]
    );
    assert_eq!(public_names("pub use mim_trace as trace;"), ["trace"]);
    assert_eq!(public_names("    pub const fn new(value: T) -> Self {"), ["new"]);
    assert_eq!(public_names("pub(crate) fn inner() {}"), Vec::<&str>::new());
}

/// Rule 9 over `(path, text)` files: every library line (test items and
/// `tests.rs` / `tests/` files skipped) naming std's `HashMap` or `HashSet`
/// outside [`STD_HASH_HOME`], then the home if it names neither.
fn std_hash_sites(files: &[(String, String)]) -> Vec<String> {
    let mut found = Vec::new();
    for (rel, text) in files {
        if library_of(rel).is_none() || rel.ends_with("/tests.rs") || rel.contains("/tests/") {
            continue;
        }
        let is_std_hash = |code: &str| has_word(code, "HashMap") || has_word(code, "HashSet");
        let named = strip_test_items(text).into_iter().filter(|(l, _)| is_std_hash(code_of(l)));
        found.extend(named.map(|(l, n)| (rel.clone(), n, l.trim().to_owned())));
    }
    stray(&found, &STD_HASH_HOME, |home, rel, _| rel == *home)
}

#[test]
fn rule9_std_hash_containers_only_in_the_hash_module() {
    let rule = "rule 9: std HashMap/HashSet in library code (use mim_util::hash::IdMap/IdSet)";
    pass(rule, std_hash_sites(&rust_files(&["crates"], false)));
}

#[test]
fn rule9_reads_library_code_only() {
    let file = |rel: &str, text: &str| (rel.to_owned(), text.to_owned());
    let files = [
        file("crates/util/src/hash.rs", "pub type IdMap<K, V> = HashMap<K, V, B>;"),
        // The negative control: one std map planted in the matcher.
        file(
            "crates/mpisim/src/mailbox.rs",
            "use mim_util::hash::IdMap;\n// a HashMap in a comment\n\
             fn f() {\n    let m = std::collections::HashMap::new();\n}\n\
             #[cfg(test)]\nmod tests {\n    use std::collections::HashSet;\n}",
        ),
        // Test oracles, binaries and other targets keep std maps.
        file("crates/core/src/api/tests.rs", "let m = HashMap::new();"),
        file("crates/bench/src/bin/tool.rs", "let s = HashSet::new();"),
        file("crates/mpisim/tests/props.rs", "let m = HashMap::new();"),
        file("mim-ledger/src/spec.rs", "let s = HashSet::new();"),
    ];
    assert_eq!(
        std_hash_sites(&files),
        ["crates/mpisim/src/mailbox.rs:4: let m = std::collections::HashMap::new();"]
    );
    // A home that no longer names them fails too.
    assert_eq!(
        std_hash_sites(&files[..0]),
        ["no line uses (moved or deleted?): \"crates/util/src/hash.rs\""]
    );
}

#[test]
fn every_dependency_is_a_path_dependency() {
    let mut problems = Vec::new();
    for lock in LOCK_FILES {
        let Ok(text) = fs::read_to_string(repo().join(lock)) else {
            assert_ne!(lock, "Cargo.lock", "the root workspace's lock file is committed");
            continue;
        };
        let sources = text.lines().zip(1..).filter(|(l, _)| l.starts_with("source = "));
        problems.extend(sources.map(|(l, n)| format!("{lock}:{n}: {l}")));
    }
    pass("hermeticity: a package from a registry or git", problems);
}
