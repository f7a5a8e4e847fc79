//! The metrics the ledger can print, and where each comes from.
//!
//! `BENCHMARK.json` at the repository root is the declarative side of this
//! table (names, units, directions, bounds, the workloads and their
//! reasons); the tests below hold the two equal, name for name.

use mim_analyze::json::Json;

/// The repository's `BENCHMARK.json`, read at build time: `compare` and
/// `sweep` take the bounds from it, so there is one copy of each bound.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Where a metric's value comes from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Source {
    /// Computed by the harness itself (set-up time, memory, ratios).
    Harness,
    /// Median of the samples the untraced repetitions pooled under this name.
    Sample,
    /// A simulated statistic every repetition reproduces exactly.
    Exact,
    /// Median over traced repetitions of the summed duration of the spans
    /// of this name, divided by `div` (iterations per span).
    SpanPerRep { div: f64 },
    /// Median over traced repetitions of the mean duration per span.
    SpanPerCall,
    /// A standalone probe ([`crate::probes`]).
    Probe,
}

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub source: Source,
}

const fn m(name: &'static str, unit: &'static str, source: Source) -> Metric {
    Metric { name, unit, source }
}

use Source::{Exact, Harness, Probe, Sample, SpanPerCall, SpanPerRep};
const PER_REP: Source = SpanPerRep { div: 1.0 };

/// What a user of the system sees; printed with `--trace 0`.  Every one is
/// defined, and never zero, on every workload.
pub const END_TO_END: &[Metric] =
    &[m("wall_s", "s", Sample), m("setup_s", "s", Harness), m("peak_rss_mb", "MiB", Harness)];

/// Single layers; printed with `--trace 1`.  A metric a workload does not
/// exercise (or does not probe) reads 0 there.
pub const PER_LAYER: &[Metric] = &[
    // The loop's own figures, from the untraced repetitions.
    m("reorder_step_s", "s", Sample),
    m("monitor_overhead_ratio", "ratio", Harness),
    m("comm_gain", "ratio", Exact),
    // mim-topology
    m("topology.build_s", "s", PER_REP),
    m("topology.message_ns", "ns/call", Probe),
    // mim-util
    m("util.channel.send_recv_ns", "ns/op", Probe),
    m("util.deque.push_pop_ns", "ns/op", Probe),
    m("util.deque.steal_ns", "ns/op", Probe),
    m("util.fiber.switch_ns", "ns/pair", Probe),
    m("util.notifier.notify_ns", "ns/op", Probe),
    // mim-mpisim: executor and universe
    m("mpisim.universe_new_s", "s", PER_REP),
    m("mpisim.launch_s", "s", PER_REP),
    m("mpisim.launch_empty_s", "s", Probe),
    m("mpisim.ring_1024_s", "s", Probe),
    m("mpisim.ring_4096_s", "s", Probe),
    m("mpisim.scale_exponent", "exponent", Harness),
    m("mpisim.exec.tasks_over_threads", "ratio", Probe),
    // mim-mpisim: point to point and mailbox
    m("mpisim.p2p.stream_ns", "ns/msg", Probe),
    m("mpisim.p2p.pingpong_ns", "ns/rtt", Probe),
    m("mpisim.p2p.payload_ns_per_kib", "ns/KiB", Probe),
    m("mpisim.mailbox.match_specific_ns", "ns/op", Probe),
    m("mpisim.mailbox.match_wildcard_ns", "ns/op", Probe),
    m("mpisim.mailbox.max_unexpected_depth", "count", Sample),
    // mim-mpisim: collectives and communicators
    m("mpisim.coll.barrier_s", "s/call", SpanPerCall),
    m("mpisim.coll.reduce_s", "s/call", SpanPerCall),
    m("mpisim.coll.allgather_s", "s/call", SpanPerCall),
    m("mpisim.coll.allreduce_s", "s/call", SpanPerCall),
    m("mpisim.coll.bcast_s", "s/call", SpanPerCall),
    m("mpisim.comm_split_s", "s", PER_REP),
    m("mpisim.gather_tree_s", "s", PER_REP),
    // mim-mpisim: offline schedules
    m("mpisim.schedule.build_s", "s", PER_REP),
    m("mpisim.schedule.evaluate_s", "s", PER_REP),
    m("mpisim.schedule.evaluate_contended_s", "s", PER_REP),
    m("mpisim.schedule.msgs", "count", Exact),
    // mim-mpisim: simulated statistics
    m("mpisim.nic.xmit_bytes_base", "bytes", Exact),
    m("mpisim.nic.xmit_bytes_reordered", "bytes", Exact),
    m("mpisim.msgs", "count", Exact),
    m("mpisim.retries", "count", Exact),
    // mim-core
    m("core.init_start_s", "s", PER_REP),
    m("core.accum.record_dense_ns", "ns/call", Probe),
    m("core.accum.record_sparse_ns", "ns/call", Probe),
    m("core.accum.sparse_row_ns", "ns/call", Probe),
    m("core.accum.mem_bytes", "bytes", Probe),
    m("core.hook_ns_per_msg", "ns/msg", Probe),
    m("core.rootgather_s", "s", PER_REP),
    m("core.window.advance_ns", "ns/call", SpanPerCall),
    m("core.window.gather_s", "s/call", SpanPerCall),
    m("core.session.events", "count", Exact),
    // mim-reorder, mim-treematch
    m("reorder.compute_mapping_s", "s", PER_REP),
    m("treematch.tree_match_s", "s", Probe),
    m("treematch.mapping_cost", "count", Exact),
    // mim-apps
    m("apps.stencil.iter_s", "s/iter", SpanPerRep { div: 20.0 }),
    m("apps.cg.iter_s", "s/iter", SpanPerRep { div: 25.0 }),
    m("apps.cg.generate_matrix_s", "s", PER_REP),
    // mim-analyze
    m("analyze.check_s", "s", PER_REP),
    // The ledger itself
    m("ledger.trace_overhead_ratio", "ratio", Harness),
];

impl Metric {
    /// Convert a span duration in nanoseconds to this metric's unit.
    pub fn in_unit(&self, ns: f64) -> f64 {
        if self.unit.starts_with("ns") {
            ns
        } else {
            ns / 1e9
        }
    }
}

/// One `end_to_end` entry of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bounded {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the reference median by which the metric may worsen.
    pub bound: f64,
}

fn str_field(obj: &Json, key: &str) -> Result<String, String> {
    obj.get(key).and_then(Json::as_str).map(str::to_string).ok_or(format!("missing string {key:?}"))
}

fn metric_entry(obj: &Json) -> Result<Bounded, String> {
    let bound = match obj.get("bound") {
        Some(Json::Num(b)) => *b,
        _ => 0.0,
    };
    let better = str_field(obj, "better")?;
    if better != "higher" && better != "lower" {
        return Err(format!("better must be higher or lower, got {better:?}"));
    }
    Ok(Bounded {
        name: str_field(obj, "name")?,
        unit: str_field(obj, "unit")?,
        higher_is_better: better == "higher",
        bound,
    })
}

fn entries(doc: &Json, key: &str) -> Result<Vec<Bounded>, String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or(format!("missing array {key:?}"))?
        .iter()
        .map(metric_entry)
        .collect()
}

/// The end-to-end metrics of `BENCHMARK.json`, with their bounds.
pub fn end_to_end_bounds() -> Result<Vec<Bounded>, String> {
    let doc = Json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    entries(&doc, "end_to_end")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probes;
    use crate::workloads;

    fn doc() -> Json {
        Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses")
    }

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    /// `(name, unit)` pairs must match in order-insensitive equality.
    fn assert_same(kind: &str, code: &[Metric], json: &[Bounded]) {
        let mut a: Vec<(&str, &str)> = code.iter().map(|m| (m.name, m.unit)).collect();
        let mut b: Vec<(&str, &str)> = json.iter().map(|m| (&*m.name, &*m.unit)).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "{kind}: the binary and BENCHMARK.json disagree");
    }

    #[test]
    fn metrics_match_benchmark_json() {
        let doc = doc();
        assert_same("end_to_end", END_TO_END, &entries(&doc, "end_to_end").unwrap());
        assert_same("per_layer", PER_LAYER, &entries(&doc, "per_layer").unwrap());
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let doc = doc();
        let listed: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads array")
            .iter()
            .map(|w| {
                let why = str_field(w, "why").unwrap();
                assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
                str_field(w, "name").unwrap()
            })
            .collect();
        let built: Vec<&str> = workloads::TABLE.iter().map(|(n, _)| *n).collect();
        assert_eq!(listed, built);
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        let workload_names = workloads::TABLE.iter().map(|(n, _)| *n);
        for name in END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).chain(workload_names) {
            assert!(name_ok(name), "bad name {name:?}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(unit_ok(m.unit), "bad unit {:?} on {}", m.unit, m.name);
        }
        let bounds = end_to_end_bounds().unwrap();
        assert!(bounds.iter().all(|b| b.bound > 0.0 && b.bound <= 0.25));
        let setup = bounds.iter().find(|b| b.name == "setup_s").expect("setup_s is required");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        assert!(bounds.iter().all(|b| b.bound <= setup.bound), "setup_s takes the largest bound");
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&workloads::TABLE.len()));
    }

    #[test]
    fn command_and_paths_name_this_package() {
        let doc = doc();
        let paths: Vec<&str> = doc
            .get("paths")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(paths, ["mim-ledger"]);
        let command: Vec<&str> = doc
            .get("command")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert!(command.contains(&"mim-ledger/Cargo.toml"));
        let secs = doc.get("run_seconds").and_then(Json::as_u64).unwrap();
        assert!((1..=60).contains(&secs));
    }

    #[test]
    fn every_probe_metric_is_a_probe_in_the_registry() {
        let probed: Vec<&str> =
            probes::TABLE.iter().flat_map(|p| p.metrics.iter().copied()).collect();
        for m in PER_LAYER {
            assert_eq!(m.source == Probe, probed.contains(&m.name), "{}", m.name);
        }
    }
}
