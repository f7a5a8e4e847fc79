//! Decision policies: recording (canonical / scripted / random tails) and
//! strict replay, plus the compact decision-log wire format.
//!
//! A *decision* is one consultation of the scheduler at a nondeterminism
//! seam: kind `'r'` (task resume order) or `'w'` (wildcard channel
//! choice).  Policies see only the slate size and per-candidate race
//! flags, never the candidates themselves, so the same log steers both the
//! model executor and the live runtime, which under a policy always runs
//! the serialised (one-worker) tasks engine.
//!
//! The log serializes as `"{kind}:{chosen}/{n};"` per decision —
//! `"r:1/3;w:0/2;"` — which is what the runtime's deadline panic appends
//! after the flight-recorder dump and what a [`Witness`] carries.
//!
//! [`Witness`]: crate::explore::Witness

use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard, PoisonError};

use mim_mpisim::{Decision, SchedulePolicy};
use mim_util::rng::Rng;

/// Lock a policy mutex, recovering from poisoning: policies hold no
/// invariant a panicked peer could have broken mid-update (every mutation
/// is a single push/increment), so the inner state is always usable.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One recorded decision: the seam kind, the slate size, the index chosen,
/// and the unexplored alternatives of its persistent set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rec {
    /// Seam kind code (`'r'` resume / `'w'` wildcard).
    pub kind: char,
    /// Slate size at the decision.
    pub n: usize,
    /// Index taken.
    pub chosen: usize,
    /// Alternative indices worth exploring (the DPOR-lite persistent set,
    /// already excluding `chosen`).
    pub alts: Vec<usize>,
}

/// How a [`RecordingPolicy`] picks past the end of its script.
#[derive(Debug)]
enum Tail {
    /// Always index 0 — the live runtime's default order.
    Canonical,
    /// Seeded uniform draws.
    Random(Rng),
}

#[derive(Debug)]
struct RecInner {
    script: Vec<usize>,
    tail: Tail,
    recs: Vec<Rec>,
}

/// A policy that follows a scripted choice prefix, extends it canonically
/// or randomly, and records every decision (with its persistent-set
/// alternatives) for the explorer and for witness emission.
#[derive(Debug)]
pub struct RecordingPolicy {
    inner: Mutex<RecInner>,
}

impl RecordingPolicy {
    /// The canonical schedule: empty script, index 0 forever.
    pub fn canonical() -> Self {
        Self::scripted(Vec::new())
    }

    /// Follow `script`, then canonical.
    pub fn scripted(script: Vec<usize>) -> Self {
        RecordingPolicy {
            inner: Mutex::new(RecInner { script, tail: Tail::Canonical, recs: Vec::new() }),
        }
    }

    /// Follow `script`, then seeded uniform draws.
    pub fn random(script: Vec<usize>, seed: u64) -> Self {
        RecordingPolicy {
            inner: Mutex::new(RecInner {
                script,
                tail: Tail::Random(Rng::seed_from_u64(seed)),
                recs: Vec::new(),
            }),
        }
    }

    /// Everything recorded so far, in decision order.
    pub fn recs(&self) -> Vec<Rec> {
        lock(&self.inner).recs.clone()
    }

    /// The serialized decision log (`"r:1/3;w:0/2;"`).
    pub fn log(&self) -> String {
        serialize_log(&self.recs())
    }

    /// Record one decision and return the chosen index.
    ///
    /// `racy[i]` marks candidates whose selection can change the outcome;
    /// an empty slice means "all of them can" (wildcard slates).
    pub(crate) fn pick(&self, kind: char, n: usize, racy: &[bool]) -> usize {
        let mut inner = lock(&self.inner);
        let at = inner.recs.len();
        let chosen = match inner.script.get(at) {
            Some(&c) => c.min(n.saturating_sub(1)),
            None => match &mut inner.tail {
                Tail::Canonical => 0,
                Tail::Random(rng) => rng.index(n.max(1)),
            },
        };
        // Persistent set: every other index for a wildcard slate; for task
        // resume, other indices only where a race is flagged (either side).
        let alts: Vec<usize> = (0..n)
            .filter(|&i| i != chosen)
            .filter(|&i| match racy.len() {
                0 => true,
                _ => {
                    racy.get(i).copied().unwrap_or(false)
                        || racy.get(chosen).copied().unwrap_or(false)
                }
            })
            .collect();
        inner.recs.push(Rec { kind, n, chosen, alts });
        chosen
    }
}

/// A policy that re-issues a recorded decision log and *verifies* the run
/// asks the same questions: same seam kind, same slate size, same count.
/// Any divergence is captured (first one wins) instead of silently
/// producing a different schedule.
#[derive(Debug)]
pub struct ReplayPolicy {
    log: Vec<(char, usize, usize)>,
    at: Mutex<usize>,
    diverged: Mutex<Option<String>>,
}

impl ReplayPolicy {
    /// Replay a parsed decision log.
    pub(crate) fn new(log: Vec<(char, usize, usize)>) -> Self {
        ReplayPolicy { log, at: Mutex::new(0), diverged: Mutex::new(None) }
    }

    /// Replay a serialized decision log (`"r:1/3;"`).
    pub fn from_log(log: &str) -> Result<Self, String> {
        Ok(Self::new(parse_log(log)?))
    }

    /// The first divergence seen, if any.
    pub fn divergence(&self) -> Option<String> {
        lock(&self.diverged).clone()
    }

    fn diverge(&self, msg: String) -> usize {
        let mut d = lock(&self.diverged);
        if d.is_none() {
            *d = Some(msg);
        }
        0
    }

    /// Answer one decision from the log, flagging any mismatch.
    pub(crate) fn pick(&self, kind: char, n: usize, _racy: &[bool]) -> usize {
        let at = {
            let mut at = lock(&self.at);
            let v = *at;
            *at += 1;
            v
        };
        let Some(&(k, chosen, rec_n)) = self.log.get(at) else {
            return self.diverge(format!(
                "replay diverged: decision #{at} ({kind}, {n} candidates) past the end of a \
                 {}-entry log",
                self.log.len()
            ));
        };
        if k != kind || rec_n != n {
            return self.diverge(format!(
                "replay diverged at decision #{at}: log has {k}:{chosen}/{rec_n}, run asked \
                 {kind}:?/{n}"
            ));
        }
        chosen.min(n.saturating_sub(1))
    }
}

/// Serialize a decision list to the compact log format.
pub(crate) fn serialize_log(recs: &[Rec]) -> String {
    let mut s = String::with_capacity(recs.len() * 6);
    for r in recs {
        let _ = write!(s, "{}:{}/{};", r.kind, r.chosen, r.n);
    }
    s
}

/// Parse the compact log format back to `(kind, chosen, n)` triples.
pub(crate) fn parse_log(log: &str) -> Result<Vec<(char, usize, usize)>, String> {
    let mut out = Vec::new();
    for (i, item) in log.split_terminator(';').enumerate() {
        let err = || format!("decision #{i} malformed: {item:?}");
        let (kind, rest) = item.split_at(item.chars().next().map_or(0, char::len_utf8));
        let kind = kind.chars().next().ok_or_else(err)?;
        if !matches!(kind, 'r' | 'w') {
            return Err(format!("decision #{i} has unknown kind {kind:?}"));
        }
        let rest = rest.strip_prefix(':').ok_or_else(err)?;
        let (chosen, n) = rest.split_once('/').ok_or_else(err)?;
        let chosen: usize = chosen.parse().map_err(|_| err())?;
        let n: usize = n.parse().map_err(|_| err())?;
        if chosen >= n {
            return Err(format!("decision #{i} chooses {chosen} from a slate of {n}"));
        }
        out.push((kind, chosen, n));
    }
    Ok(out)
}

// The live seams know nothing of races (only the model executor does), so
// both policies hand `pick` an empty race slice: every candidate of a live
// decision is an alternative.

impl SchedulePolicy for RecordingPolicy {
    fn choose(&self, decision: Decision<'_>) -> usize {
        self.pick(decision.kind_code(), decision.len(), &[])
    }

    fn decision_log(&self) -> Option<String> {
        Some(self.log())
    }
}

impl SchedulePolicy for ReplayPolicy {
    fn choose(&self, decision: Decision<'_>) -> usize {
        self.pick(decision.kind_code(), decision.len(), &[])
    }

    fn decision_log(&self) -> Option<String> {
        self.divergence()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_round_trips() {
        let p = RecordingPolicy::scripted(vec![1, 0]);
        assert_eq!(p.pick('r', 3, &[true, true, false]), 1);
        assert_eq!(p.pick('w', 2, &[]), 0);
        assert_eq!(p.pick('w', 4, &[]), 0); // past the script: canonical
        let log = p.log();
        assert_eq!(log, "r:1/3;w:0/2;w:0/4;");
        assert_eq!(parse_log(&log).unwrap(), vec![('r', 1, 3), ('w', 0, 2), ('w', 0, 4)]);
        assert!(parse_log("r:3/3;").is_err());
        assert!(parse_log("x:0/1;").is_err());
        assert!(parse_log("d:0/2;").is_err());
        assert!(parse_log("r:/1;").is_err());
    }

    #[test]
    fn persistent_sets_follow_race_flags() {
        let p = RecordingPolicy::canonical();
        p.pick('w', 3, &[]);
        p.pick('r', 3, &[false, true, false]);
        p.pick('r', 2, &[false, false]);
        let recs = p.recs();
        assert_eq!(recs[0].alts, vec![1, 2], "wildcard slates explore everything");
        assert_eq!(recs[1].alts, vec![1], "task resume explores racy candidates only");
        assert!(recs[2].alts.is_empty(), "no races, no branching");
    }

    #[test]
    fn replay_flags_divergence() {
        let r = ReplayPolicy::from_log("r:1/3;w:0/2;").unwrap();
        assert_eq!(r.pick('r', 3, &[]), 1);
        assert_eq!(r.pick('w', 3, &[]), 0, "slate-size mismatch falls back to 0");
        assert!(r.divergence().unwrap().contains("diverged at decision #1"));

        let r = ReplayPolicy::from_log("r:1/3;").unwrap();
        assert_eq!(r.pick('r', 3, &[]), 1);
        r.pick('r', 3, &[]);
        assert!(r.divergence().unwrap().contains("past the end"));
    }

    #[test]
    fn random_tail_is_reproducible() {
        let a = RecordingPolicy::random(vec![], 42);
        let b = RecordingPolicy::random(vec![], 42);
        for _ in 0..32 {
            let n = 5;
            assert_eq!(a.pick('r', n, &[]), b.pick('r', n, &[]));
        }
        assert_eq!(a.log(), b.log());
    }
}
