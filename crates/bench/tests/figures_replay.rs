//! The paper's loop replays byte-identically: `stencil_reorder`,
//! `fig5_collectives`, `fig6_heatmap` and `fig7_cg` under `MIM_QUICK=1`,
//! twice per engine.  The strict reorder loop charges the mapping from a
//! model of the matrix, not from the host's clock, and Fig 5's collective
//! times come from the contended DES, so what each prints, its normalised
//! trace ([`TraceDigest`]) and the CSVs a figure binary writes are the same
//! bytes on every run.
//!
//! `#[ignore]`d: it takes ~15 s in release on a 2-core host.  Run it with
//! `cargo test --release --offline -p mim-bench --test figures_replay -- --ignored`.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::process::Command;

use mim_apps::scenario;
use mim_mpisim::trace::{TraceDigest, Tracer};
use mim_mpisim::ExecutorKind::{self, Tasks, Threads};

/// What one run shows: stdout, the trace's digest, and the files it left
/// in its results directory (name → bytes).
type Observed = (String, TraceDigest, BTreeMap<String, Vec<u8>>);

/// The digest of the JSONL trace at `path`, which is then removed.
fn take_trace(path: &Path) -> TraceDigest {
    let file = File::open(path).expect("the run wrote its trace");
    let digest = TraceDigest::of_jsonl(BufReader::new(file)).expect("read the trace");
    std::fs::remove_file(path).expect("remove the trace");
    digest
}

/// The files a run left in `dir`, removed from it.
fn take_results(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut taken = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("the results directory") {
        let path = entry.expect("a results entry").path();
        let name = path.file_name().expect("a file name").to_string_lossy().into_owned();
        taken.insert(name, std::fs::read(&path).expect("read a result"));
        std::fs::remove_file(&path).expect("remove a result");
    }
    taken
}

/// One run of `stencil_reorder`, in this process, tracing to `trace`.
fn stencil_reorder(kind: ExecutorKind, trace: &Path) -> Observed {
    let tracer = Tracer::with_sink(256, trace).expect("open the trace sink");
    let out = scenario::stencil_reorder(kind, Some(tracer));
    assert_eq!(out.exec_stats.is_some(), kind == Tasks, "a {kind:?} run ran on the other engine");
    (out.text, take_trace(trace), BTreeMap::new())
}

/// One run of the figure binary `exe`, writing its CSVs to `results` and
/// its trace to `trace`.
fn figure(exe: &str, kind: ExecutorKind, trace: &Path, results: &Path) -> Observed {
    let engine = if kind == Tasks { "tasks" } else { "threads" };
    let out = Command::new(exe)
        .env("MIM_QUICK", "1")
        .env("MIM_EXECUTOR", engine)
        .env("MIM_TRACE", trace)
        .env("MIM_RESULTS_DIR", results)
        .env_remove("MIM_CHAOS_PLAN")
        .output()
        .expect("spawn the figure binary");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{exe} ({engine}) failed:\n{stdout}{stderr}");
    (stdout, take_trace(trace), take_results(results))
}

#[test]
#[ignore = "~15 s in release; run with --ignored"]
fn figures_replay_byte_identically_twice_per_engine() {
    let dir = std::env::temp_dir().join(format!("mim-figures-replay-{}", std::process::id()));
    // All runs write their CSVs to one directory: its path is on a figure
    // binary's stdout.
    let results = dir.join("results");
    std::fs::create_dir_all(&results).expect("create the results directory");
    let trace = dir.join("trace.jsonl");
    let figures = [
        env!("CARGO_BIN_EXE_fig5_collectives"),
        env!("CARGO_BIN_EXE_fig6_heatmap"),
        env!("CARGO_BIN_EXE_fig7_cg"),
    ];
    let engines = [Threads, Threads, Tasks, Tasks];
    let check = |name: &str, run: &mut dyn FnMut(ExecutorKind) -> Observed| {
        let first = run(engines[0]);
        for &kind in &engines[1..] {
            let (text, digest, csvs) = run(kind);
            assert_eq!(text, first.0, "{name}: stdout of a {kind:?} run diverged");
            assert_eq!(digest, first.1, "{name}: normalised trace of a {kind:?} run diverged");
            assert_eq!(csvs, first.2, "{name}: the CSVs of a {kind:?} run diverged");
        }
        eprintln!("{name}: byte-identical twice per engine ({} trace events)", first.1.lines);
    };
    check("stencil_reorder", &mut |kind| stencil_reorder(kind, &trace));
    for exe in figures {
        check(exe, &mut |kind| figure(exe, kind, &trace, &results));
    }
    std::fs::remove_dir_all(&dir).expect("remove the scratch directory");
}
