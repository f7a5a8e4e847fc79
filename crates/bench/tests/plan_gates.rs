//! The plan tools end to end: `mim-analyze` and `mim-explore`, run as
//! processes over the built-in plans, with every report checked through
//! `mim_analyze::json`.  Each tool also has negative controls — plans it
//! must *reject* with a named diagnostic or exit status — so these tests
//! fail if a tool goes blind.

use std::path::PathBuf;
use std::process::Command;

use mim_analyze::json::Json;

const ANALYZE: &str = env!("CARGO_BIN_EXE_mim-analyze");
const EXPLORE: &str = env!("CARGO_BIN_EXE_mim-explore");

/// `(n, root, bytes)`: the acceptance sizes, with off-centre roots.
const SHAPES: [(usize, usize, u64); 4] =
    [(2, 0, 64), (5, 2, 4096), (48, 3, 65536), (192, 191, 1 << 20)];

/// Runs `cli` with `args`; returns its exit status and stdout.
fn run(cli: &str, args: &[&str]) -> (i32, String) {
    let out = Command::new(cli).args(args).output().expect("spawn the plan CLI");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let code = out.status.code().expect("the CLI exited, not killed");
    (code, stdout)
}

fn parse(text: &str) -> Json {
    Json::parse(text).unwrap_or_else(|e| panic!("{e}: {text}"))
}

/// `doc.a.b` for the path `"a.b"`.
fn at<'a>(doc: &'a Json, path: &str) -> Option<&'a Json> {
    path.split('.').try_fold(doc, |d, key| d.get(key))
}

fn str_at<'a>(doc: &'a Json, path: &str) -> Option<&'a str> {
    at(doc, path).and_then(Json::as_str)
}

fn u64_at(doc: &Json, path: &str) -> Option<u64> {
    at(doc, path).and_then(Json::as_u64)
}

/// The diagnostic of a report with this code.
fn diag<'a>(report: &'a Json, code: &str) -> Option<&'a Json> {
    at(report, "diags")?.as_arr()?.iter().find(|d| str_at(d, "code") == Some(code))
}

/// A scratch file for this test process.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mim-plan-gates-{}-{name}", std::process::id()))
}

/// `mim-analyze --all --json <args>`: a v2 batch of at least 15 reports.
fn analyze_all(args: &[&str]) -> Vec<Json> {
    let (code, out) = run(ANALYZE, &[&["--all", "--json"], args].concat());
    assert_eq!(code, 0, "--all --json {args:?} exited {code}:\n{out}");
    let batch = parse(&out);
    assert_eq!(str_at(&batch, "schema"), Some("mim-analyze-batch-v2"));
    let reports = at(&batch, "reports").and_then(Json::as_arr).expect("a reports array").to_vec();
    assert!(reports.len() >= 15, "{args:?}: only {} reports, want >= 15 plans", reports.len());
    reports
}

/// `mim-analyze <plan file> --json`: the report of a plan the analyzer
/// must reject (exit 1).
fn analyze_rejected(name: &str, plan: &str) -> Json {
    let path = scratch(name);
    std::fs::write(&path, plan).expect("write the plan file");
    let (code, out) = run(ANALYZE, &["--plan-file", path.to_str().expect("UTF-8 path"), "--json"]);
    std::fs::remove_file(&path).expect("remove the plan file");
    assert_eq!(code, 1, "{name} exited {code}, want 1:\n{out}");
    parse(&out)
}

/// All built-ins at the four acceptance shapes, JSON and pretty:
/// schema-valid, deterministic, deadlock-free.
#[test]
fn analyze_clears_every_builtin_plan_at_every_shape() {
    for (n, root, bytes) in SHAPES {
        let (n_s, root_s, bytes_s) = (n.to_string(), root.to_string(), bytes.to_string());
        let args = ["--n", &n_s, "--root", &root_s, "--bytes", &bytes_s];
        for rep in analyze_all(&args) {
            let name = str_at(&rep, "plan").unwrap_or("?");
            let at_shape = format!("{name} at n={n} root={root} bytes={bytes}");
            assert_eq!(u64_at(&rep, "nranks"), Some(n as u64), "{at_shape}");
            assert_eq!(str_at(&rep, "schema"), Some("mim-analyze-report-v2"), "{at_shape}");
            assert_eq!(str_at(&rep, "determinism.kind"), Some("deterministic"), "{at_shape}");
            assert_eq!(str_at(&rep, "verdict.kind"), Some("deadlock_free"), "{at_shape}");
            let diags = at(&rep, "diags").and_then(Json::as_arr).unwrap_or_default();
            assert!(
                diags.iter().all(|d| str_at(d, "severity") != Some("error")),
                "{at_shape}: error diagnostics {diags:?}"
            );
            let channels = at(&rep, "channels").and_then(Json::as_arr).unwrap_or_default();
            assert!(
                !channels.is_empty() || name.contains("barrier") || name.contains("cg["),
                "{at_shape}: no channel totals"
            );
        }
        // The pretty output: one `ok … deadlock_free` line per plan.
        let (code, out) = run(ANALYZE, &[&["--all"], &args[..]].concat());
        assert_eq!(code, 0, "--all (pretty) {args:?} exited {code}");
        for line in out.lines().filter(|l| !l.trim().is_empty()) {
            assert!(line.starts_with("ok") && line.contains("deadlock_free"), "{args:?}: {line}");
        }
    }
}

/// The crossed plan deadlocks definitely, naming both ranks; the
/// out-of-range plan is malformed.
#[test]
fn analyze_rejects_a_crossed_and_an_out_of_range_plan() {
    let crossed = analyze_rejected(
        "crossed.json",
        r#"{"name": "crossed", "nranks": 2, "ranks": [
            [{"op": "recv", "src": 1}, {"op": "send", "dst": 1, "bytes": 4}],
            [{"op": "recv", "src": 0}, {"op": "send", "dst": 0, "bytes": 4}]]}"#,
    );
    assert_eq!(str_at(&crossed, "verdict.kind"), Some("definite_deadlock"));
    let cycle = at(&crossed, "verdict.cycle").and_then(Json::as_arr).expect("a cycle");
    let mut ranks: Vec<u64> = cycle.iter().filter_map(|e| u64_at(e, "rank")).collect();
    ranks.sort_unstable();
    assert_eq!(ranks, [0, 1], "the cycle must name both ranks: {cycle:?}");
    assert!(diag(&crossed, "MIM-A002").is_some(), "no MIM-A002: {crossed:?}");

    let oob = analyze_rejected(
        "oob.json",
        r#"{"name": "oob", "nranks": 2, "ranks": [[{"op": "send", "dst": 7, "bytes": 4}], []]}"#,
    );
    assert_eq!(str_at(&oob, "verdict.kind"), Some("malformed"));
    assert!(diag(&oob, "MIM-A001").is_some(), "no MIM-A001: {oob:?}");
}

/// `wildcard_race` yields a witness, byte-identical across two
/// explorations, that `--replay` reproduces twice; a tampered witness
/// exits 3; `wildcard_clean` explores exhaustively clean.
#[test]
fn explore_witnesses_replays_and_detects_tampering() {
    let (w1, w2, bad) = (scratch("w1.json"), scratch("w2.json"), scratch("bad.json"));
    let path = |p: &PathBuf| p.to_str().expect("UTF-8 path").to_owned();
    for w in [&w1, &w2] {
        let args = ["wildcard_race", "--n", "4", "--seed", "11", "--witness", &path(w)];
        let (code, out) = run(EXPLORE, &args);
        assert_eq!(code, 1, "wildcard_race exited {code}, want 1:\n{out}");
    }
    let witness = std::fs::read_to_string(&w1).expect("a witness file");
    assert_eq!(witness, std::fs::read_to_string(&w2).expect("a second witness"));
    let doc = parse(&witness);
    assert_eq!(str_at(&doc, "schema"), Some("mim-explore-witness-v1"));
    for field in ["plan", "decisions", "stuck", "trace", "flight"] {
        let empty = match doc.get(field) {
            Some(Json::Str(s)) => s.is_empty(),
            Some(Json::Arr(a)) => a.is_empty(),
            _ => true,
        };
        assert!(!empty, "witness field {field:?} is missing or empty: {witness}");
    }

    let replays: Vec<(i32, String)> =
        (0..2).map(|_| run(EXPLORE, &["--replay", &path(&w1)])).collect();
    assert_eq!(replays[0].0, 0, "--replay exited {}:\n{}", replays[0].0, replays[0].1);
    assert_eq!(replays[0], replays[1], "two replays of one witness differ");
    assert!(replays[0].1.contains("byte-for-byte"), "no confirmation: {}", replays[0].1);

    // One trace entry altered: the last one gains an `x`.
    let tampered = witness.replacen("\"],\"flight\"", "x\"],\"flight\"", 1);
    assert_ne!(tampered, witness, "the witness has no trace to tamper with");
    std::fs::write(&bad, tampered).expect("write the tampered witness");
    let (code, out) = run(EXPLORE, &["--replay", &path(&bad)]);
    assert_eq!(code, 3, "a tampered witness replayed (exit {code}, want 3):\n{out}");
    for p in [&w1, &w2, &bad] {
        std::fs::remove_file(p).expect("remove a witness");
    }

    let (code, out) = run(EXPLORE, &["wildcard_clean", "--n", "4", "--schedules", "4096"]);
    assert_eq!(code, 0, "wildcard_clean exited {code}, want 0:\n{out}");
    assert!(out.contains("exhaustive"), "wildcard_clean was not explored exhaustively: {out}");
}

/// The happens-before pass calls the built-ins deterministic, flags
/// `wildcard_race` (MIM-A011, concrete racing sends) and proves
/// `wildcard_clean` benign; `--races` prints the per-site breakdown.
#[test]
fn race_pass_classifies_the_builtin_and_wildcard_plans() {
    for rep in analyze_all(&["--n", "8"]) {
        let name = str_at(&rep, "plan").unwrap_or("?");
        assert_eq!(str_at(&rep, "determinism.kind"), Some("deterministic"), "{name}");
        assert!(u64_at(&rep, "independence.hb_edges").is_some(), "{name}: no independence object");
        assert_eq!(u64_at(&rep, "independence.wildcard_sites"), Some(0), "{name}");
    }

    let (code, out) = run(ANALYZE, &["wildcard_race", "--n", "4", "--json"]);
    assert_eq!(code, 1, "wildcard_race exited {code}, want 1");
    let race = parse(&out);
    assert_eq!(str_at(&race, "determinism.kind"), Some("sched_sensitive"));
    let codes = at(&race, "determinism.codes").and_then(Json::as_arr).unwrap_or_default();
    assert!(codes.iter().any(|c| c.as_str() == Some("MIM-A011")), "no MIM-A011 in {codes:?}");
    let a011 = diag(&race, "MIM-A011").and_then(|d| str_at(d, "message")).unwrap_or_default();
    assert!(a011.contains("rank"), "MIM-A011 names no racing send: {a011:?}");
    assert!(u64_at(&race, "independence.racy").unwrap_or(0) >= 1);

    // Exit 1 on the lattice axis (potential deadlock under wildcards),
    // deterministic on the race axis: the two are orthogonal.
    let (code, out) = run(ANALYZE, &["wildcard_clean", "--n", "4", "--json"]);
    assert_eq!(code, 1, "wildcard_clean exited {code}, want 1");
    let clean = parse(&out);
    assert_eq!(str_at(&clean, "determinism.kind"), Some("deterministic"));
    assert!(u64_at(&clean, "independence.benign").unwrap_or(0) >= 1);
    assert_eq!(u64_at(&clean, "independence.racy"), Some(0));

    let (code, out) = run(ANALYZE, &["wildcard_race", "--n", "4", "--races"]);
    assert_eq!(code, 1, "--races exited {code}, want 1");
    for needle in ["determinism: schedule-sensitive", "independence:", "racy"] {
        assert!(out.contains(needle), "--races output is missing {needle:?}:\n{out}");
    }
}

/// `--all` gives every plan a concrete verdict, and pruning pays for
/// itself: strictly fewer schedules in total than the unpruned search, none
/// more on any plan, the same verdicts, the race still witnessed.  A usage
/// error exits 2.
#[test]
fn explore_verifies_every_plan_and_pruning_pays() {
    let (code, out) =
        run(EXPLORE, &["--all", "--json", "--n", "5", "--schedules", "256", "--random", "4"]);
    assert_eq!(code, 1, "explore --all exited {code}, want 1 (wildcard_race wedges):\n{out}");
    let reports: Vec<Json> = out.lines().map(parse).collect();
    let (mut pruned, mut unpruned) = (0, 0);
    for rep in &reports {
        assert_eq!(str_at(rep, "schema"), Some("mim-explore-report-v2"), "{rep:?}");
        let (p, u) =
            (u64_at(rep, "schedules").unwrap_or(0), u64_at(rep, "schedules_unpruned").unwrap_or(0));
        assert!(p <= u, "{:?}: pruned {p} schedules > unpruned {u}", str_at(rep, "plan"));
        (pruned, unpruned) = (pruned + p, unpruned + u);
    }
    assert!(pruned < unpruned, "pruning is not load-bearing: {pruned} vs {unpruned} unpruned");
    let clean = reports.iter().filter(|r| str_at(r, "outcome") == Some("explored_clean")).count();
    assert!(clean >= 16, "{clean} explored_clean reports, want the 15 built-ins + wildcard_clean");
    let plan = |name| reports.iter().find(|r| str_at(r, "plan") == Some(name)).expect(name);
    let clean = plan("wildcard_clean");
    assert_eq!(u64_at(clean, "schedules"), Some(1), "wildcard_clean not decided in one schedule");
    assert_eq!(str_at(clean, "determinism"), Some("deterministic"));
    let race = plan("wildcard_race");
    assert_eq!(str_at(race, "outcome"), Some("definite_deadlock"), "{race:?}");
    assert!(
        str_at(race, "witness.decisions").is_some_and(|d| !d.is_empty()),
        "no witness decision log: {race:?}"
    );
    assert_eq!(str_at(race, "determinism"), Some("sched_sensitive"));

    assert_eq!(run(EXPLORE, &["--no-such-flag"]).0, 2, "an unknown flag must exit 2");
}
