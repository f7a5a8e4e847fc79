//! Benchmark-owned span recorder.
//!
//! Spans are recorded from the ledger's own files, around the calls into
//! each crate's public functions: on the launching thread (universe
//! construction, launch/join, the offline passes) and on rank 0 inside a
//! universe.  The two never overlap — the launcher is blocked in
//! `Universe::launch` while rank 0 runs — so one process-wide stack gives
//! every span its parent, even though rank 0's fiber may migrate between
//! worker threads.  Spans stay in memory and are written out as JSONL when
//! the run ends.
//!
//! Recording is off unless [`set_enabled`] turned it on: the untraced
//! repetitions that feed the end-to-end metrics pay one relaxed load per
//! span site.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch (process start of recording).
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder's list.
    pub parent: Option<usize>,
    /// The traced repetition the span belongs to.
    pub rep: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    rep: u32,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder { epoch: Instant::now(), spans: Vec::new(), stack: Vec::new(), rep: 0 }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; returns its index.
    fn open(&mut self, name: &'static str) -> usize {
        let now = self.now_ns();
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, rep: self.rep });
        self.stack.push(idx);
        idx
    }

    fn close(&mut self, idx: usize) {
        self.spans[idx].end_ns = self.now_ns();
        // Unwinding may drop guards out of order; pop down to this one.
        if let Some(pos) = self.stack.iter().rposition(|&i| i == idx) {
            self.stack.truncate(pos);
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: Mutex<Option<Recorder>> = Mutex::new(None);

fn with_recorder<R>(f: impl FnOnce(&mut Recorder) -> R) -> R {
    // A rank that panics inside a span poisons nothing worth protecting:
    // the list is append-only, so keep recording.
    let mut guard = RECORDER.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    f(guard.get_or_insert_with(Recorder::new))
}

/// Turn recording on or off (traced and untraced repetitions alternate).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Start a new traced repetition: later spans carry `rep`, and any span a
/// failed repetition left open is abandoned.
pub fn begin_rep(rep: u32) {
    with_recorder(|r| {
        r.rep = rep;
        r.stack.clear();
    });
}

/// Open a span; it closes when the guard drops.
pub fn enter(name: &'static str) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard(None);
    }
    Guard(Some(with_recorder(|r| r.open(name))))
}

/// A guard that records nothing (for the ranks that do not carry spans).
pub fn inert() -> Guard {
    Guard(None)
}

/// Time `f` under a span named `name`.
pub fn scope<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _g = enter(name);
    f()
}

/// Closes its span on drop.
pub struct Guard(Option<usize>);

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(idx) = self.0 {
            with_recorder(|r| r.close(idx));
        }
    }
}

/// Every span recorded so far (the recorder keeps its copy).
pub fn snapshot() -> Vec<Span> {
    with_recorder(|r| r.spans.clone())
}

/// Self time of each span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per-name aggregate over the traced repetitions.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Aggregate spans by name, in order of first appearance.
pub fn layers(spans: &[Span]) -> Vec<Layer> {
    let selfs = self_times_ns(spans);
    let mut out: Vec<Layer> = Vec::new();
    for (s, &self_ns) in spans.iter().zip(&selfs) {
        match out.iter_mut().find(|l| l.name == s.name) {
            Some(l) => {
                l.count += 1;
                l.total_ns += s.dur_ns();
                l.self_ns += self_ns;
            }
            None => out.push(Layer { name: s.name, count: 1, total_ns: s.dur_ns(), self_ns }),
        }
    }
    out
}

/// Per traced repetition, the summed duration and the call count of the
/// spans named `name`.
pub fn per_rep(spans: &[Span], name: &str) -> Vec<(u64, u64)> {
    let mut by_rep: Vec<(u32, u64, u64)> = Vec::new();
    for s in spans.iter().filter(|s| s.name == name) {
        match by_rep.iter_mut().find(|(rep, _, _)| *rep == s.rep) {
            Some(e) => {
                e.1 += s.dur_ns();
                e.2 += 1;
            }
            None => by_rep.push((s.rep, s.dur_ns(), 1)),
        }
    }
    by_rep.into_iter().map(|(_, total, count)| (total, count)).collect()
}

/// The layer table of a traced run: self time, its share of the traced
/// repetitions' wall time, and call counts.
pub fn layer_table(spans: &[Span], root: &str) -> String {
    let layers = layers(spans);
    let wall: u64 = layers.iter().filter(|l| l.name == root).map(|l| l.total_ns).sum();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<40} {:>8} {:>12} {:>12} {:>7}",
        "span", "calls", "total_s", "self_s", "share"
    );
    for l in &layers {
        let share = if wall == 0 { 0.0 } else { l.self_ns as f64 / wall as f64 };
        let _ = writeln!(
            out,
            "{:<40} {:>8} {:>12.6} {:>12.6} {:>6.1}%",
            l.name,
            l.count,
            l.total_ns as f64 / 1e9,
            l.self_ns as f64 / 1e9,
            share * 100.0
        );
    }
    out
}

/// One JSON object per span, one per line.
pub fn to_jsonl(spans: &[Span], workload: &str) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \
             \"workload\": \"{workload}\", \"rep\": {}}}",
            s.name, s.start_ns, s.end_ns, s.rep
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, rep: 0 }
    }

    /// rep [0,100) ⊃ a [10,40) ⊃ a1 [15,25); rep ⊃ b [50,90) ⊃ {b1 [55,70), b2 [65,80)}.
    fn fixture() -> Vec<Span> {
        vec![
            span("rep", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a1", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
            span("b1", 55, 70, Some(3)),
            span("b2", 65, 80, Some(3)),
        ]
    }

    #[test]
    fn recorder_parents_by_the_open_stack() {
        let mut r = Recorder::new();
        r.rep = 3;
        let a = r.open("a");
        let b = r.open("b");
        r.close(b);
        let c = r.open("c");
        // `a` closes while `c` is still open (an unwinding rank): both go.
        r.close(a);
        let d = r.open("d");
        r.close(d);
        let parents: Vec<Option<usize>> = r.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(a), Some(a), None]);
        assert!(r.spans.iter().all(|s| s.rep == 3 && s.end_ns >= s.start_ns));
        assert_eq!(r.spans[c].dur_ns(), 0, "never closed");
        assert!(r.stack.is_empty());
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let selfs = self_times_ns(&fixture());
        // rep: 100 - (30 + 40); a: 30 - 10; b: 40 - |[55,80)| (overlap counted once).
        assert_eq!(selfs, vec![30, 20, 10, 15, 15, 15]);
        // Self times partition the root interval exactly.
        assert_eq!(selfs.iter().sum::<u64>(), 100 + 5, "b1 and b2 overlap by 5");
    }

    #[test]
    fn child_outside_parent_is_clipped() {
        let spans = vec![span("p", 10, 20, None), span("c", 5, 15, Some(0))];
        assert_eq!(self_times_ns(&spans), vec![5, 10]);
    }

    #[test]
    fn layers_aggregate_by_name() {
        let mut spans = fixture();
        spans.push(span("a", 92, 98, Some(0)));
        let ls = layers(&spans);
        let a = ls.iter().find(|l| l.name == "a").unwrap();
        assert_eq!((a.count, a.total_ns, a.self_ns), (2, 36, 26));
        assert_eq!(ls[0].name, "rep");
        assert_eq!(ls[0].self_ns, 24);
    }

    #[test]
    fn per_rep_sums_and_counts() {
        let mut spans = fixture();
        spans.push(Span { name: "a", start_ns: 200, end_ns: 207, parent: None, rep: 1 });
        spans.push(Span { name: "a", start_ns: 210, end_ns: 213, parent: None, rep: 1 });
        assert_eq!(per_rep(&spans, "a"), vec![(30, 1), (10, 2)]);
        assert!(per_rep(&spans, "missing").is_empty());
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let text = to_jsonl(&fixture(), "w");
        assert_eq!(text.lines().count(), 6);
        assert!(text.lines().next().unwrap().contains("\"parent\": null"));
        assert!(text.lines().nth(2).unwrap().contains("\"parent\": 1"));
    }
}
