//! `mim-bench` — the harness that regenerates every table and figure of the
//! paper's evaluation section.  One binary per experiment:
//!
//! | binary | paper artefact |
//! |---|---|
//! | `fig2_counters` | Fig 2 (time series) + Fig 3 (cumulative): HW counters vs introspection |
//! | `fig4_overhead` | Fig 4: monitoring overhead with 95% CIs |
//! | `fig5_collectives` | Fig 5a/5b: reduce & bcast optimization sweeps |
//! | `fig6_heatmap` | Fig 6: reordering-gain heatmap |
//! | `fig7_cg` | Fig 7a/7b: NAS CG reordering gains |
//! | `table1_treematch` | Table 1: TreeMatch time for large matrices |
//!
//! Each binary prints its table/series and writes CSVs into `results/`
//! (override with `MIM_RESULTS_DIR`).  Set `MIM_QUICK=1` to shrink the
//! sweeps for a fast smoke run.
//!
//! The repository's benchmark is `mim-ledger/` (with `BENCHMARK.json`), not
//! this crate.  The seven `benches/` harnesses (on `mim_util::bench`) are
//! what it has no twin for, and none is compared against a recorded number:
//! `trace_overhead` and `chaos_overhead` assert their own in-run
//! disabled/baseline ratio; `retry_storm`, `elastic_churn` and
//! `analyze_races` are diagnostics a smoke run must complete;
//! `coll_algorithms` and `treematch` are the design ablations DESIGN.md §4
//! cites.

use mim_analyze::Program;
use mim_apps::builtin::{built_in, Shape};
use mim_explore::plans::{wildcard_clean, wildcard_race};

/// True when the `MIM_QUICK` environment variable requests reduced sweeps.
pub fn quick_mode() -> bool {
    std::env::var_os("MIM_QUICK").is_some_and(|v| v != "0" && !v.is_empty())
}

/// Pick between the full and the quick variant of a sweep.
pub fn sweep<T: Clone>(full: &[T], quick: &[T]) -> Vec<T> {
    if quick_mode() {
        quick.to_vec()
    } else {
        full.to_vec()
    }
}

/// The wildcard demo plans the built-in table does not know.  Both plan
/// CLIs (`mim-analyze`, `mim-explore`) accept them by name, so the two
/// tools' verdicts can be compared on the same programs.
pub const WILDCARD_PLANS: &[&str] = &["wildcard_race", "wildcard_clean"];

/// Resolve a CLI plan name through the shared built-in table plus the
/// wildcard demo plans (each defined from a smallest `--n` up).
pub fn resolve(name: &str, s: &Shape) -> Result<Program, String> {
    let (floor, plan): (usize, fn(usize) -> Program) = match name {
        "wildcard_race" => (3, wildcard_race),
        "wildcard_clean" => (2, wildcard_clean),
        other => return built_in(other, s),
    };
    if s.n < floor {
        return Err(format!("{name} needs --n >= {floor}, got {}", s.n));
    }
    Ok(plan(s.n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_picks_by_mode() {
        // Cannot portably mutate the env in parallel tests; just check the
        // non-quick shape.
        if !quick_mode() {
            assert_eq!(sweep(&[1, 2, 3], &[1]), vec![1, 2, 3]);
        }
    }
}
