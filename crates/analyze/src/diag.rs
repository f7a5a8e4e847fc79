//! Diagnostics: stable codes, severities, source locations, verdicts, and
//! the [`Report`] bundling everything one analysis run produced.
//!
//! Every finding carries a stable code (`MIM-A001`…) so CI gates, editors
//! and tests can match on identity rather than message text, and a
//! `(rank, step)` location pointing into the plan's per-rank op outline.
//! Reports render both human-readable (via [`fmt::Display`]) and as JSON
//! ([`Report::to_json`]) — hand-rolled, the workspace is dependency-free.

use std::fmt;

use crate::plan::CommId;
use crate::race::{Determinism, IndependenceMap};

/// Stable diagnostic codes.  Codes are append-only: a released code never
/// changes meaning, new checks take the next free number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// Malformed plan: peer out of range, rank outside the communicator,
    /// unknown communicator/window id.
    A001,
    /// Definite deadlock: circular wait in the wait-for graph.
    A002,
    /// Unmatched send: a message no receive ever consumes.
    A003,
    /// Orphan receive: no sender can ever satisfy it.
    A004,
    /// Wildcard receive: matching is nondeterministic, the verdict is only
    /// `PotentialDeadlock`-sound.
    A005,
    /// Collective mismatch: members disagree on the operation kind (or some
    /// member never reaches the collective).
    A006,
    /// Collective root mismatch: members disagree on the root rank.
    A007,
    /// Conflicting one-sided accesses in the same epoch.
    A008,
    /// Epoch error: accesses never closed by a fence, or fence participation
    /// mismatch.
    A009,
    /// Potential deadlock: the canonical replay stalled, but wildcard
    /// nondeterminism means another matching might progress.
    A010,
    /// Wildcard match race: a wildcard receive has racing sends on at
    /// least two distinct channels, so different schedules produce
    /// different matchings.
    A011,
    /// Tag collision: two racing senders use the same tag toward one
    /// wildcard, so arrival order alone picks the match.
    A012,
    /// Nondeterministic delivery: two wildcard receives of one rank can
    /// swap their canonical matches, reordering the observable receives.
    A013,
    /// Collective/point-to-point interleaving hazard: a racing send sits
    /// in a different collective phase than the wildcard it races.
    A014,
    /// Crossing send: a racing send is canonically matched elsewhere (or
    /// nowhere) yet unordered with the wildcard — another schedule can
    /// steal the match.
    A015,
    /// Result-visible race: the racing send also satisfies a later
    /// receive of the same rank, so the race's outcome feeds a later
    /// match.
    A016,
}

impl Code {
    /// The stable `MIM-Axxx` identifier.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Code::A001 => "MIM-A001",
            Code::A002 => "MIM-A002",
            Code::A003 => "MIM-A003",
            Code::A004 => "MIM-A004",
            Code::A005 => "MIM-A005",
            Code::A006 => "MIM-A006",
            Code::A007 => "MIM-A007",
            Code::A008 => "MIM-A008",
            Code::A009 => "MIM-A009",
            Code::A010 => "MIM-A010",
            Code::A011 => "MIM-A011",
            Code::A012 => "MIM-A012",
            Code::A013 => "MIM-A013",
            Code::A014 => "MIM-A014",
            Code::A015 => "MIM-A015",
            Code::A016 => "MIM-A016",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational only.
    Info,
    /// Suspicious but not necessarily wrong.
    Warning,
    /// The plan is broken; executions will hang, drop traffic, or diverge.
    Error,
}

impl Severity {
    /// Lower-case label used in both output formats.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// A source location inside a plan: rank `rank`, op index `step` of that
/// rank's outline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Loc {
    /// World rank.
    pub rank: usize,
    /// 0-based index into the rank's op list.
    pub step: usize,
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rank {} @ step {}", self.rank, self.step)
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diag {
    /// Stable code.
    pub code: Code,
    /// Severity level.
    pub severity: Severity,
    /// Where in the plan, when attributable to one site.
    pub loc: Option<Loc>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Diag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity.as_str(), self.code, self.message)?;
        if let Some(loc) = self.loc {
            write!(f, " ({loc})")?;
        }
        Ok(())
    }
}

/// One edge of a reported wait chain: who waits, where, on whom, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaitEdge {
    /// The blocked rank.
    pub rank: usize,
    /// The op index it is blocked at.
    pub step: usize,
    /// The rank it waits for.
    pub waits_for: usize,
    /// What it is waiting on ("a message from rank 3 (comm 0, tag 7)",
    /// "collective barrier #2 on comm 1", …).
    pub what: String,
}

/// The deadlock lattice: verdicts ordered from best to worst.
///
/// `DeadlockFree ⊑ PotentialDeadlock ⊑ DefiniteDeadlock`, with `Malformed`
/// as the bottom element (the plan could not be interpreted, no execution
/// claim is made).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The canonical replay completed and matching is deterministic: every
    /// real execution completes.
    DeadlockFree,
    /// Wildcard receives make matching nondeterministic.  The replay's
    /// outcome holds for the canonical matching only; other matchings are
    /// unverified.  `wildcard_sites` lists the nondeterministic receives.
    PotentialDeadlock {
        /// The wildcard receive sites introducing nondeterminism.
        wildcard_sites: Vec<Loc>,
    },
    /// The replay stalled and matching is deterministic: every real
    /// execution deadlocks.  `cycle` is the circular wait, rank by rank
    /// (or, when the chain ends at a terminated rank, the blocking chain).
    DefiniteDeadlock {
        /// The wait-for chain; closed when a true cycle exists.
        cycle: Vec<WaitEdge>,
    },
    /// The plan references out-of-range ranks or unknown handles; analysis
    /// did not run.
    Malformed,
}

impl Verdict {
    /// Short lower-snake label used in both output formats.
    pub fn kind(&self) -> &'static str {
        match self {
            Verdict::DeadlockFree => "deadlock_free",
            Verdict::PotentialDeadlock { .. } => "potential_deadlock",
            Verdict::DefiniteDeadlock { .. } => "definite_deadlock",
            Verdict::Malformed => "malformed",
        }
    }
}

/// Per-channel traffic totals, keyed the way matching is:
/// `(comm, src, dst, tag)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelUse {
    /// Matching scope.
    pub comm: CommId,
    /// Sending world rank.
    pub src: usize,
    /// Receiving world rank.
    pub dst: usize,
    /// Message tag.
    pub tag: u32,
    /// Messages sent on the channel.
    pub messages: u64,
    /// Payload bytes sent on the channel.
    pub bytes: u64,
}

/// Everything one analysis run produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Name of the analyzed plan.
    pub plan: String,
    /// Rank count of the analyzed plan.
    pub nranks: usize,
    /// Total op count of the analyzed plan.
    pub total_ops: usize,
    /// Where the plan sits in the deadlock lattice.
    pub verdict: Verdict,
    /// The schedule-sensitivity axis, orthogonal to the deadlock lattice:
    /// can different schedules produce different matchings?
    pub determinism: Determinism,
    /// The static independence relation over wildcard receive sites that
    /// `mim-explore` consumes to prune its schedule search.
    pub independence: IndependenceMap,
    /// All findings, in discovery order.
    pub diags: Vec<Diag>,
    /// Per-channel traffic observed by the replay, sorted by
    /// `(comm, src, dst, tag)`.
    pub channels: Vec<ChannelUse>,
}

impl Report {
    /// No error-severity findings (warnings and infos are allowed).
    pub fn is_clean(&self) -> bool {
        self.diags.iter().all(|d| d.severity != Severity::Error)
    }

    /// The error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diag> {
        self.diags.iter().filter(|d| d.severity == Severity::Error)
    }

    /// Render as a JSON document (schema `mim-analyze-report-v2`; v2 adds
    /// the `determinism` and `independence` objects).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256 + 128 * self.diags.len());
        s.push_str("{\"schema\":\"mim-analyze-report-v2\",");
        s.push_str(&format!(
            "\"plan\":{},\"nranks\":{},\"total_ops\":{},",
            json_string(&self.plan),
            self.nranks,
            self.total_ops
        ));
        s.push_str("\"verdict\":{\"kind\":\"");
        s.push_str(self.verdict.kind());
        s.push('"');
        match &self.verdict {
            Verdict::PotentialDeadlock { wildcard_sites } => {
                s.push_str(",\"wildcard_sites\":[");
                for (i, l) in wildcard_sites.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    s.push_str(&format!("{{\"rank\":{},\"step\":{}}}", l.rank, l.step));
                }
                s.push(']');
            }
            Verdict::DefiniteDeadlock { cycle } => {
                s.push_str(",\"cycle\":[");
                for (i, e) in cycle.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    s.push_str(&format!(
                        "{{\"rank\":{},\"step\":{},\"waits_for\":{},\"what\":{}}}",
                        e.rank,
                        e.step,
                        e.waits_for,
                        json_string(&e.what)
                    ));
                }
                s.push(']');
            }
            Verdict::DeadlockFree | Verdict::Malformed => {}
        }
        s.push_str("},\"determinism\":{\"kind\":\"");
        s.push_str(self.determinism.kind());
        s.push('"');
        if let Determinism::SchedSensitive { codes } = &self.determinism {
            s.push_str(",\"codes\":[");
            for (i, c) in codes.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!("\"{c}\""));
            }
            s.push(']');
        }
        s.push_str(&format!(
            "}},\"independence\":{{\"wildcard_sites\":{},\"benign\":{},\"racy\":{},\
             \"hb_edges\":{}}}",
            self.independence.wildcard_sites(),
            self.independence.benign.len(),
            self.independence.racy.len(),
            self.independence.hb_edges
        ));
        s.push_str(",\"diags\":[");
        for (i, d) in self.diags.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"code\":\"{}\",\"severity\":\"{}\"",
                d.code,
                d.severity.as_str()
            ));
            if let Some(loc) = d.loc {
                s.push_str(&format!(",\"rank\":{},\"step\":{}", loc.rank, loc.step));
            }
            s.push_str(&format!(",\"message\":{}}}", json_string(&d.message)));
        }
        s.push_str("],\"channels\":[");
        for (i, c) in self.channels.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"comm\":{},\"src\":{},\"dst\":{},\"tag\":{},\"messages\":{},\"bytes\":{}}}",
                c.comm.0, c.src, c.dst, c.tag, c.messages, c.bytes
            ));
        }
        s.push_str("]}");
        s
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "plan {}: {} ranks, {} ops", self.plan, self.nranks, self.total_ops)?;
        let (msgs, bytes) =
            self.channels.iter().fold((0u64, 0u64), |(m, b), c| (m + c.messages, b + c.bytes));
        writeln!(
            f,
            "channels: {} distinct ({} messages, {} bytes)",
            self.channels.len(),
            msgs,
            bytes
        )?;
        write!(f, "verdict: ")?;
        match &self.verdict {
            Verdict::DeadlockFree => writeln!(f, "deadlock-free")?,
            Verdict::PotentialDeadlock { wildcard_sites } => {
                writeln!(
                    f,
                    "potential deadlock ({} wildcard receive{})",
                    wildcard_sites.len(),
                    if wildcard_sites.len() == 1 { "" } else { "s" }
                )?;
            }
            Verdict::DefiniteDeadlock { cycle } => {
                writeln!(f, "definite deadlock")?;
                for e in cycle {
                    writeln!(f, "  rank {} @ step {}: waits for {}", e.rank, e.step, e.what)?;
                }
            }
            Verdict::Malformed => writeln!(f, "malformed plan")?,
        }
        match &self.determinism {
            Determinism::Deterministic => writeln!(f, "determinism: deterministic")?,
            Determinism::SchedSensitive { codes } => writeln!(
                f,
                "determinism: schedule-sensitive ({})",
                codes.iter().map(|c| c.as_str()).collect::<Vec<_>>().join(", ")
            )?,
            Determinism::Unknown => writeln!(f, "determinism: unknown")?,
        }
        if self.independence.wildcard_sites() > 0 {
            writeln!(
                f,
                "independence: {} wildcard site{} ({} benign, {} racy), {} hb edges",
                self.independence.wildcard_sites(),
                if self.independence.wildcard_sites() == 1 { "" } else { "s" },
                self.independence.benign.len(),
                self.independence.racy.len(),
                self.independence.hb_edges
            )?;
        }
        for d in &self.diags {
            writeln!(f, "{d}")?;
        }
        Ok(())
    }
}

/// Escape a string as a JSON string literal (quotes included).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
