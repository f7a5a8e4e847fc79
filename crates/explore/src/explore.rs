//! The schedule explorer: canonical run, DPOR-lite depth-first search over
//! the recorded persistent sets, then a randomized tail — and the
//! [`Witness`] a wedged schedule leaves behind.
//!
//! Exploration is exhaustive when the branch space fits the budget: plans
//! without wildcard receives record no alternatives (message matching is
//! confluent — every schedule reaches the same final state), so the
//! canonical run alone already decides them.  Wildcard plans branch at
//! each multi-candidate match and at each racy task-resume decision; the
//! DFS walks exactly those, deepest-first, and the random phase probes
//! whatever the budget cut off.

use std::fmt::Write as _;

use mim_analyze::diag::json_string;
use mim_analyze::{IndependenceMap, Json, Program};
use mim_trace::Tracer;
use mim_util::rng::splitmix64;

use crate::model::{run_model, RunOutput};
use crate::policy::{RecordingPolicy, ReplayPolicy};

/// How much searching [`explore`] may do.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Ceiling on DFS schedules (including the canonical first run).
    pub max_schedules: usize,
    /// Random schedules appended after the DFS (skipped when the DFS
    /// exhausted the branch space).
    pub random: usize,
    /// Base seed for the random phase.
    pub seed: u64,
}

impl Default for Budget {
    fn default() -> Self {
        Budget { max_schedules: 256, random: 16, seed: 0x5EED }
    }
}

/// Flight-recorder history lines per rank in a witness.
const FLIGHT_LAST_N: usize = 16;

/// What exploration concluded.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// A schedule wedged: the analyzer's `PotentialDeadlock` (or the
    /// absence of any verdict) is now a concrete, replayable deadlock.
    DefiniteDeadlock {
        /// The replayable evidence.
        witness: Box<Witness>,
        /// Schedules run before (and including) the wedged one.
        schedules: usize,
    },
    /// Every explored schedule completed.
    ExploredClean {
        /// Schedules run.
        schedules: usize,
        /// Did the DFS exhaust the branch space (true), or did it hit the
        /// budget and fall back to random probing (false)?
        exhaustive: bool,
    },
}

impl Outcome {
    /// Schedules run, whatever the conclusion.
    pub fn schedules(&self) -> usize {
        match self {
            Outcome::DefiniteDeadlock { schedules, .. }
            | Outcome::ExploredClean { schedules, .. } => *schedules,
        }
    }
}

/// A replayable deadlock: everything needed to re-reach the stuck state
/// byte-for-byte and to convince a human it is real.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// Plan name (resolvable by the CLI's built-in table).
    pub plan: String,
    /// Rank count of the wedged program.
    pub nranks: usize,
    /// CLI shape `(n, root, bytes, seg)` when the plan came from the
    /// built-in table; `None` for ad-hoc programs.
    pub shape: Option<(usize, usize, u64, u64)>,
    /// Base seed exploration ran under (informational — replay needs only
    /// the decision log).
    pub seed: u64,
    /// 0-based index of the wedged schedule within the exploration.
    pub schedule: usize,
    /// The serialized decision log that steers the replay.
    pub decisions: String,
    /// Normalized per-rank stuck states.
    pub stuck: Vec<String>,
    /// The full normalized event trace of the wedged run.
    pub trace: Vec<String>,
    /// Flight-recorder excerpt (recent history of every rank).
    pub flight: String,
}

impl Witness {
    /// Serialize to the `mim-explore-witness-v1` JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\"schema\":\"mim-explore-witness-v1\"");
        let _ = write!(s, ",\"plan\":{}", json_string(&self.plan));
        let _ = write!(s, ",\"nranks\":{}", self.nranks);
        match self.shape {
            Some((n, root, bytes, seg)) => {
                let _ = write!(
                    s,
                    ",\"shape\":{{\"n\":{n},\"root\":{root},\"bytes\":{bytes},\"seg\":{seg}}}"
                );
            }
            None => s.push_str(",\"shape\":null"),
        }
        // As a string: the workspace JSON parser backs numbers with f64,
        // which cannot hold every u64 seed exactly.
        let _ = write!(s, ",\"seed\":\"{}\"", self.seed);
        let _ = write!(s, ",\"schedule\":{}", self.schedule);
        let _ = write!(s, ",\"decisions\":{}", json_string(&self.decisions));
        let join = |xs: &[String]| xs.iter().map(|x| json_string(x)).collect::<Vec<_>>().join(",");
        let _ = write!(s, ",\"stuck\":[{}]", join(&self.stuck));
        let _ = write!(s, ",\"trace\":[{}]", join(&self.trace));
        let _ = write!(s, ",\"flight\":{}", json_string(&self.flight));
        s.push('}');
        s
    }

    /// Parse a `mim-explore-witness-v1` document.
    pub fn from_json(text: &str) -> Result<Witness, String> {
        let doc = Json::parse(text).map_err(|e| format!("witness: {e}"))?;
        if doc.get("schema").and_then(Json::as_str) != Some("mim-explore-witness-v1") {
            return Err("witness: missing or unknown schema (want mim-explore-witness-v1)".into());
        }
        let str_field = |k: &str| {
            doc.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("witness: missing string field '{k}'"))
        };
        let num_field = |k: &str| {
            doc.get(k).and_then(Json::as_u64).ok_or_else(|| format!("witness: missing '{k}'"))
        };
        let arr_field = |k: &str| -> Result<Vec<String>, String> {
            doc.get(k)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("witness: missing array field '{k}'"))?
                .iter()
                .map(|j| {
                    j.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("witness: '{k}' holds a non-string"))
                })
                .collect()
        };
        let shape = match doc.get("shape") {
            None | Some(Json::Null) => None,
            Some(sh) => {
                let g = |k: &str| {
                    sh.get(k).and_then(Json::as_u64).ok_or_else(|| format!("witness: shape.{k}"))
                };
                Some((g("n")? as usize, g("root")? as usize, g("bytes")?, g("seg")?))
            }
        };
        let seed = str_field("seed")?
            .parse::<u64>()
            .map_err(|e| format!("witness: seed is not a u64: {e}"))?;
        Ok(Witness {
            plan: str_field("plan")?,
            nranks: num_field("nranks")? as usize,
            shape,
            seed,
            schedule: num_field("schedule")? as usize,
            decisions: str_field("decisions")?,
            stuck: arr_field("stuck")?,
            trace: arr_field("trace")?,
            flight: str_field("flight")?,
        })
    }
}

/// One DFS node: the choice this run made and the alternatives still owed.
#[derive(Debug)]
struct Frame {
    chosen: usize,
    pending: Vec<usize>,
}

fn witness_from(
    program: &Program,
    seed: u64,
    schedule: usize,
    log: String,
    out: RunOutput,
    flight: String,
) -> Witness {
    Witness {
        plan: program.name().to_string(),
        nranks: program.nranks(),
        shape: None,
        seed,
        schedule,
        decisions: log,
        stuck: out.stuck.unwrap_or_default(),
        trace: out.trace,
        flight,
    }
}

/// Search `program`'s schedule space for a deadlock.
///
/// With the analyzer's static [`IndependenceMap`], wildcard sites proven
/// benign record empty persistent sets, so the DFS never seeds a backtrack
/// point there and statically `Deterministic` plans are decided by a
/// single schedule.  Passing `None` explores the full (unpruned) branch
/// space.
///
/// Errors only on internal failures (a policy or model bug); a deadlock is
/// a successful [`Outcome::DefiniteDeadlock`], not an error.
pub fn explore(
    program: &Program,
    budget: &Budget,
    independence: Option<&IndependenceMap>,
) -> Result<Outcome, String> {
    let mut schedules = 0usize;
    let mut stack: Vec<Frame> = Vec::new();
    let mut exhaustive = true;

    // Phase 1+2: canonical first run, then DPOR-lite DFS over the
    // persistent sets it (and each subsequent run) recorded.
    loop {
        if schedules >= budget.max_schedules {
            exhaustive = false;
            break;
        }
        let script: Vec<usize> = stack.iter().map(|f| f.chosen).collect();
        let scripted_len = script.len();
        let policy = RecordingPolicy::scripted(script);
        let tracer = Tracer::new(64);
        let out = run_model(program, &policy, Some(&tracer), independence)?;
        schedules += 1;
        if out.deadlocked() {
            let w = witness_from(
                program,
                budget.seed,
                schedules - 1,
                policy.log(),
                out,
                tracer.flight_report(FLIGHT_LAST_N),
            );
            return Ok(Outcome::DefiniteDeadlock { witness: Box::new(w), schedules });
        }
        // Fresh decisions beyond the scripted prefix become new frames.
        for rec in policy.recs().into_iter().skip(scripted_len) {
            stack.push(Frame { chosen: rec.chosen, pending: rec.alts });
        }
        // Backtrack to the deepest frame still owing an alternative.
        loop {
            match stack.last_mut() {
                None => return finish_random(program, budget, schedules, exhaustive, independence),
                Some(f) => match f.pending.pop() {
                    Some(alt) => {
                        f.chosen = alt;
                        break;
                    }
                    None => {
                        stack.pop();
                    }
                },
            }
        }
    }

    finish_random(program, budget, schedules, exhaustive, independence)
}

/// Phase 3: seeded random probing (only when the DFS could not finish).
fn finish_random(
    program: &Program,
    budget: &Budget,
    mut schedules: usize,
    exhaustive: bool,
    independence: Option<&IndependenceMap>,
) -> Result<Outcome, String> {
    if !exhaustive {
        let mut state = budget.seed;
        for _ in 0..budget.random {
            let schedule_seed = splitmix64(&mut state);
            let policy = RecordingPolicy::random(Vec::new(), schedule_seed);
            let tracer = Tracer::new(64);
            let out = run_model(program, &policy, Some(&tracer), independence)?;
            schedules += 1;
            if out.deadlocked() {
                let w = witness_from(
                    program,
                    budget.seed,
                    schedules - 1,
                    policy.log(),
                    out,
                    tracer.flight_report(FLIGHT_LAST_N),
                );
                return Ok(Outcome::DefiniteDeadlock { witness: Box::new(w), schedules });
            }
        }
    }
    Ok(Outcome::ExploredClean { schedules, exhaustive })
}

/// Re-execute a witness and demand a byte-for-byte reproduction: same
/// decision questions, same normalized trace, same stuck states.
///
/// Returns the replayed run on success; any divergence — a decision-log
/// mismatch, a different trace, a different (or absent) stuck state — is
/// an error describing the first difference.
pub fn replay(program: &Program, witness: &Witness) -> Result<RunOutput, String> {
    if program.nranks() != witness.nranks {
        return Err(format!(
            "replay: program has {} ranks, witness was recorded over {}",
            program.nranks(),
            witness.nranks
        ));
    }
    let policy = ReplayPolicy::from_log(&witness.decisions)?;
    let out = run_model(program, &policy, None, None)?;
    if let Some(d) = policy.divergence() {
        return Err(d);
    }
    let stuck = out
        .stuck
        .clone()
        .ok_or_else(|| "replay diverged: the run completed instead of deadlocking".to_string())?;
    if stuck != witness.stuck {
        return Err(first_diff("stuck state", &witness.stuck, &stuck));
    }
    if out.trace != witness.trace {
        return Err(first_diff("trace", &witness.trace, &out.trace));
    }
    Ok(out)
}

fn first_diff(what: &str, want: &[String], got: &[String]) -> String {
    let i = want.iter().zip(got).position(|(a, b)| a != b).unwrap_or(want.len().min(got.len()));
    format!(
        "replay diverged: {what} line {i} differs (witness {:?}, replay {:?})",
        want.get(i),
        got.get(i)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mim_analyze::{Op, Src, Tag, WORLD};

    use crate::plans::{wildcard_clean, wildcard_race};

    #[test]
    fn confluent_plan_is_decided_by_one_schedule() {
        // No wildcards: the DFS records no alternatives.
        let mut p = Program::new("pp", 2);
        p.push(0, Op::Send { comm: WORLD, dst: 1, tag: 0, bytes: 8 });
        p.push(1, Op::Recv { comm: WORLD, src: Src::Rank(0), tag: Tag::Is(0) });
        let out = explore(&p, &Budget::default(), None).unwrap();
        let Outcome::ExploredClean { schedules, exhaustive } = out else {
            panic!("expected clean, got {out:?}");
        };
        assert_eq!(schedules, 1);
        assert!(exhaustive);
    }

    #[test]
    fn wildcard_race_yields_a_replayable_witness() {
        let p = wildcard_race(4);
        let out = explore(&p, &Budget::default(), None).unwrap();
        let Outcome::DefiniteDeadlock { witness, schedules } = out else {
            panic!("expected a deadlock, got {out:?}");
        };
        assert!(schedules >= 1);
        assert!(!witness.decisions.is_empty());
        assert!(!witness.stuck.is_empty());
        assert!(witness.flight.contains("events recorded"), "{}", witness.flight);
        // The witness replays byte-for-byte…
        let replayed = replay(&p, &witness).unwrap();
        assert_eq!(replayed.trace, witness.trace);
        // …and survives a JSON round-trip intact.
        let back = Witness::from_json(&witness.to_json()).unwrap();
        assert_eq!(back, *witness);
        replay(&p, &back).unwrap();
    }

    #[test]
    fn wildcard_clean_survives_exploration() {
        let budget = Budget { max_schedules: 4096, ..Budget::default() };
        let out = explore(&wildcard_clean(4), &budget, None).unwrap();
        let Outcome::ExploredClean { schedules, exhaustive } = out else {
            panic!("expected clean, got {out:?}");
        };
        assert!(schedules > 1, "wildcards must branch the search");
        assert!(exhaustive, "a 4-rank clean plan fits a 4096-schedule budget");
    }

    #[test]
    fn tampered_witness_is_rejected() {
        let p = wildcard_race(3);
        let Outcome::DefiniteDeadlock { witness, .. } =
            explore(&p, &Budget::default(), None).unwrap()
        else {
            panic!("expected a deadlock");
        };
        let mut bad = (*witness).clone();
        if let Some(l) = bad.trace.last_mut() {
            l.push('x');
        }
        assert!(replay(&p, &bad).unwrap_err().contains("trace line"));
        let mut bad = (*witness).clone();
        bad.decisions = "r:0/2;".into();
        assert!(replay(&p, &bad).is_err());
    }
}
