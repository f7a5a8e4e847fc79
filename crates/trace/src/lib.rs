//! `mim-trace` — structured tracing and flight recording for the simulator
//! stack.
//!
//! The monitoring library observes the *application*; this crate observes
//! the *simulator*: every wire send, receive completion (with the
//! unexpected-queue depth behind it), collective decomposition span,
//! monitoring-session transition and sealed epoch window, fault event
//! (retransmission, crash, join, membership-epoch bump) and DES evaluator
//! step can be recorded as a typed [`TraceEvent`] on a per-rank `Track`.
//!
//! Two consumers share the same events:
//!
//! * **Flight recorder** — each track keeps a bounded ring of the last
//!   `capacity` events (oldest dropped first).  When the runtime detects a
//!   deadlock it calls [`Tracer::flight_report`] and appends the recent
//!   history of *every* rank to the panic message, so the report shows how
//!   the system got wedged rather than just the final pending pattern.
//! * **Streaming export** — with a sink attached ([`Tracer::global`],
//!   gated by `MIM_TRACE=<path>`), every event is also appended to a file:
//!   native JSONL when the path ends in `.jsonl`, chrome-trace JSON
//!   (loadable in `about:tracing` / Perfetto) otherwise.
//!
//! An event's output shape — its JSONL `type`, chrome category and ordered
//! fields — is spelled once, in `TraceData::schema`; the JSONL line, the
//! chrome event and the flight-report line are formatters over it.
//!
//! Tracing is opt-in per universe.  The disabled path is a
//! branch-on-`Option` at each record site — no ring, no lock, no
//! formatting — verified by the `trace_overhead` microbench.
//!
//! Track identity is a *name* (e.g. `rank3`), not a thread: a rank
//! registers its track at launch and holds the `Arc<Track>` in its own
//! state, so under the M:N executor a task migrating across worker
//! threads keeps appending to the same track and per-track sequence
//! numbers stay dense.  The registration *index* (`tid`) does follow start
//! order and is therefore normalised away by [`TraceDigest`], the one
//! trace comparison of the determinism tests.
//!
//! Env conventions (matching the rest of the workspace's `MIM_*` family):
//! `MIM_TRACE=<path>` enables the global tracer with a file sink and
//! 256-event rings.

use std::collections::VecDeque;
use std::fmt::{self, Write as _};
use std::fs::File;
use std::io::{BufRead, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use mim_util::sync::{Mutex, RwLock};

/// Per-track ring capacity of every tracer built from the environment.
const DEFAULT_RING_CAPACITY: usize = 256;

/// Typed payload of one trace event.
///
/// `kind` / `name` / `op` / `action` fields are `&'static str` so recording
/// never allocates; they come from fixed vocabularies at the call sites
/// (`"p2p"`, `"coll"`, `"osc"`; collective algorithm names; `"send"` /
/// `"recv"` / `"park"`; session lifecycle verbs).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceData {
    /// A wire send leaving this rank (the PML interposition point).
    Send {
        /// Destination world rank.
        dst: usize,
        /// Payload bytes.
        bytes: u64,
        /// Monitoring classification (`"p2p"` / `"coll"` / `"osc"`).
        kind: &'static str,
        /// Communicator id the message was posted on.
        comm: u64,
        /// Message tag.
        tag: u32,
        /// Id of the enclosing collective span, if the send is part of a
        /// collective's point-to-point decomposition.
        coll: Option<u64>,
    },
    /// A send whose destination thread was already gone (the sender unwinds
    /// cleanly after recording this; see the runtime's panic handling).
    SendFailed {
        /// Destination world rank.
        dst: usize,
    },
    /// A receive completion, with the unexpected-queue depth left behind.
    Recv {
        /// Source world rank.
        src: usize,
        /// Payload bytes.
        bytes: u64,
        /// Communicator id.
        comm: u64,
        /// Message tag.
        tag: u32,
        /// Unexpected-queue depth after this receive completed.
        uq_depth: usize,
    },
    /// Start of a collective decomposition span.
    CollBegin {
        /// Algorithm name (e.g. `"bcast_binomial"`).
        name: &'static str,
        /// Communicator id.
        comm: u64,
        /// Per-rank span id, referenced by `Send::coll`.
        id: u64,
    },
    /// End of a collective decomposition span.
    CollEnd {
        /// Algorithm name.
        name: &'static str,
        /// Communicator id.
        comm: u64,
        /// Matching span id.
        id: u64,
    },
    /// A monitoring-session lifecycle transition.
    Session {
        /// Transition (`"init"`, `"start"`, `"suspend"`, `"resume"`,
        /// `"reset"`, `"free"`, `"finalize"`).
        action: &'static str,
        /// Raw session id (`u64::MAX` for all-session operations).
        msid: u64,
    },
    /// A monitoring session sealed one epoch window (live introspection
    /// without a suspend barrier).
    Window {
        /// Raw session id.
        msid: u64,
        /// 1-based index of the sealed window.
        epoch: u64,
        /// Messages recorded in the window (all kinds).
        events: u64,
        /// Bytes recorded in the window (all kinds).
        bytes: u64,
    },
    /// One wire-level retransmission: the previous attempt was dropped by
    /// the fault plan and the sender's ack timer fired.
    Retry {
        /// Destination world rank of the retried message.
        dst: usize,
        /// Attempt number that was lost (0 = the first transmission).
        attempt: u32,
        /// Backoff charged to the sender's clock before the next attempt (ns).
        backoff_ns: u64,
    },
    /// This rank was crashed by the fault plan (its last trace event).
    RankCrash {
        /// Wire operations the rank completed before dying.
        ops: u64,
    },
    /// This rank joined a running universe: a latent slot was admitted
    /// (incarnation 0, the first event of its track), or a crashed rank was
    /// reborn by a rolling-restart plan (incarnation > 0, the first event
    /// of its `rankN.I` track).
    RankJoin {
        /// Incarnation of the joining body (0 = fresh latent joiner).
        incarnation: u32,
    },
    /// A membership-epoch transition: this rank derived a communicator one
    /// epoch newer than its parent (`comm_shrink` / `comm_grow`).
    EpochBump {
        /// Id of the derived communicator.
        comm: u64,
        /// Its membership epoch.
        epoch: u64,
        /// Its member count.
        size: usize,
    },
    /// One step of the schedule evaluator's discrete-event engine.
    DesStep {
        /// Simulated communicator rank executing the step.
        rank: usize,
        /// `"send"`, `"recv"` or `"park"`.
        op: &'static str,
        /// Peer rank of the step.
        peer: usize,
        /// Bytes (sends only; 0 otherwise).
        bytes: u64,
    },
}

/// One field value of an event: an integer or a fixed-vocabulary string.
enum Value {
    Int(u64),
    Str(&'static str),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Str(s) => f.write_str(s),
        }
    }
}

/// A named field of an event, in output order.
type Field = (&'static str, Value);

impl TraceData {
    /// The event schema: hands `out` the JSONL `type`, the chrome category
    /// and the ordered fields of this event.  `Send`'s `coll` is left out
    /// when `None`.  (`usize` → `u64` casts widen on every target.)
    fn schema(&self, out: impl FnOnce(&'static str, &'static str, &[Field])) {
        use Value::{Int, Str};
        match *self {
            Self::Send { dst, bytes, kind, comm, tag, coll } => {
                let fields = [
                    ("dst", Int(dst as u64)),
                    ("bytes", Int(bytes)),
                    ("kind", Str(kind)),
                    ("comm", Int(comm)),
                    ("tag", Int(tag.into())),
                    ("coll", Int(coll.unwrap_or(0))),
                ];
                out("send", "wire", &fields[..5 + usize::from(coll.is_some())])
            }
            Self::SendFailed { dst } => out("send_failed", "wire", &[("dst", Int(dst as u64))]),
            Self::Recv { src, bytes, comm, tag, uq_depth } => out(
                "recv",
                "wire",
                &[
                    ("src", Int(src as u64)),
                    ("bytes", Int(bytes)),
                    ("comm", Int(comm)),
                    ("tag", Int(tag.into())),
                    ("uq", Int(uq_depth as u64)),
                ],
            ),
            Self::CollBegin { name, comm, id } => out(
                "coll_begin",
                "coll",
                &[("name", Str(name)), ("comm", Int(comm)), ("id", Int(id))],
            ),
            Self::CollEnd { name, comm, id } => out(
                "coll_end",
                "coll",
                &[("name", Str(name)), ("comm", Int(comm)), ("id", Int(id))],
            ),
            Self::Session { action, msid } => {
                out("session", "session", &[("action", Str(action)), ("msid", Int(msid))])
            }
            Self::Window { msid, epoch, events, bytes } => out(
                "window",
                "window",
                &[
                    ("msid", Int(msid)),
                    ("epoch", Int(epoch)),
                    ("events", Int(events)),
                    ("bytes", Int(bytes)),
                ],
            ),
            Self::Retry { dst, attempt, backoff_ns } => out(
                "retry",
                "fault",
                &[
                    ("dst", Int(dst as u64)),
                    ("attempt", Int(attempt.into())),
                    ("backoff_ns", Int(backoff_ns)),
                ],
            ),
            Self::RankCrash { ops } => out("rank_crash", "fault", &[("ops", Int(ops))]),
            Self::RankJoin { incarnation } => {
                out("rank_join", "fault", &[("incarnation", Int(incarnation.into()))])
            }
            Self::EpochBump { comm, epoch, size } => out(
                "epoch_bump",
                "fault",
                &[("comm", Int(comm)), ("epoch", Int(epoch)), ("size", Int(size as u64))],
            ),
            Self::DesStep { rank, op, peer, bytes } => out(
                "des",
                "des",
                &[
                    ("rank", Int(rank as u64)),
                    ("op", Str(op)),
                    ("peer", Int(peer as u64)),
                    ("bytes", Int(bytes)),
                ],
            ),
        }
    }
}

/// One recorded event: a per-track sequence number, a virtual timestamp and
/// the typed payload.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Per-track sequence number (dense, starts at 0; survives ring drops).
    pub seq: u64,
    /// Virtual time of the event (ns on the recording rank's clock).
    pub t_ns: f64,
    /// Typed payload.
    pub data: TraceData,
}

/// Output format of the streaming sink, chosen by file extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    /// One native JSON object per line.
    Jsonl,
    /// Chrome trace-event JSON array, one event per line.  The array is
    /// never closed — the chrome/Perfetto loader tolerates a missing `]`,
    /// which lets the sink stay append-only (and survive panics).
    Chrome,
}

/// Bounded event ring of one track.
struct Ring {
    buf: VecDeque<TraceEvent>,
    next_seq: u64,
    dropped: u64,
}

/// One event stream, usually a simulated rank (`"rank3"`) or the DES
/// evaluator (`"des"`).
struct Track {
    name: String,
    /// Chrome `tid` (registration order).
    tid: usize,
    ring: Mutex<Ring>,
}

/// The tracing subsystem: a set of tracks plus an optional streaming sink.
///
/// Cheap to share (`Arc`); recording locks only the recording track's ring
/// (plus the sink when one is attached), so ranks tracing to their own
/// tracks never contend with each other.
pub struct Tracer {
    capacity: usize,
    tracks: RwLock<Vec<Arc<Track>>>,
    sink: Option<Mutex<BufWriter<File>>>,
    format: Format,
    path: Option<PathBuf>,
}

// `UniverseConfig` derives Debug; keep the tracer's own output small.
impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("capacity", &self.capacity)
            .field("tracks", &self.tracks.read().len())
            .field("sink", &self.path)
            .finish()
    }
}

impl Tracer {
    /// An in-memory tracer (flight recorder only, no file sink) keeping the
    /// last `capacity` events per track.
    pub fn new(capacity: usize) -> Arc<Tracer> {
        Arc::new(Tracer {
            capacity: capacity.max(1),
            tracks: RwLock::new(Vec::new()),
            sink: None,
            format: Format::Jsonl,
            path: None,
        })
    }

    /// A tracer that additionally streams every event to `path`:
    /// native JSONL for `.jsonl` paths, chrome-trace JSON otherwise.
    pub fn with_sink(capacity: usize, path: impl AsRef<Path>) -> std::io::Result<Arc<Tracer>> {
        let path = path.as_ref().to_path_buf();
        let format = if path.extension().is_some_and(|e| e == "jsonl") {
            Format::Jsonl
        } else {
            Format::Chrome
        };
        let mut w = BufWriter::new(File::create(&path)?);
        if format == Format::Chrome {
            w.write_all(b"[\n")?;
        }
        Ok(Arc::new(Tracer {
            capacity: capacity.max(1),
            tracks: RwLock::new(Vec::new()),
            sink: Some(Mutex::new(w)),
            format,
            path: Some(path),
        }))
    }

    /// The process-wide tracer, built from the environment on first use:
    /// `Some` with a file sink when `MIM_TRACE=<path>` is set (ring capacity
    /// 256), `None` otherwise.  Later changes to `MIM_TRACE` are not
    /// observed.
    pub fn global() -> Option<Arc<Tracer>> {
        static GLOBAL: OnceLock<Option<Arc<Tracer>>> = OnceLock::new();
        GLOBAL
            .get_or_init(|| {
                let path = std::env::var("MIM_TRACE").ok().filter(|p| !p.is_empty())?;
                match Tracer::with_sink(DEFAULT_RING_CAPACITY, &path) {
                    Ok(t) => Some(t),
                    Err(e) => {
                        eprintln!("mim-trace: cannot open MIM_TRACE={path}: {e}; tracing disabled");
                        None
                    }
                }
            })
            .clone()
    }

    /// Register a new track and return a recording handle for it.
    /// Track names are labels, not keys: registering the same name twice
    /// creates two tracks.
    pub fn track(self: &Arc<Tracer>, name: impl Into<String>) -> TraceHandle {
        let name = name.into();
        let mut tracks = self.tracks.write();
        let tid = tracks.len();
        let track = Arc::new(Track {
            name: name.clone(),
            tid,
            ring: Mutex::new(Ring {
                buf: VecDeque::with_capacity(self.capacity),
                next_seq: 0,
                dropped: 0,
            }),
        });
        tracks.push(Arc::clone(&track));
        drop(tracks);
        if let (Some(sink), Format::Chrome) = (&self.sink, self.format) {
            let mut w = sink.lock();
            let _ = writeln!(
                w,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{}\"}}}},",
                escape(&name)
            );
        }
        TraceHandle { tracer: Arc::clone(self), track }
    }

    fn record(&self, track: &Track, t_ns: f64, data: TraceData) {
        let seq = {
            let mut ring = track.ring.lock();
            let seq = ring.next_seq;
            ring.next_seq += 1;
            if ring.buf.len() == self.capacity {
                ring.buf.pop_front();
                ring.dropped += 1;
            }
            ring.buf.push_back(TraceEvent { seq, t_ns, data: data.clone() });
            seq
        };
        if let Some(sink) = &self.sink {
            let ev = TraceEvent { seq, t_ns, data };
            let line = match self.format {
                Format::Jsonl => jsonl_line(&track.name, track.tid, &ev),
                Format::Chrome => chrome_line(track.tid, &ev),
            };
            let mut w = sink.lock();
            let _ = w.write_all(line.as_bytes());
        }
    }

    /// Snapshot of every track's retained events, in registration order.
    pub fn snapshot(&self) -> Vec<(String, Vec<TraceEvent>)> {
        self.tracks
            .read()
            .iter()
            .map(|t| {
                let ring = t.ring.lock();
                (t.name.clone(), ring.buf.iter().cloned().collect())
            })
            .collect()
    }

    /// The [`TraceDigest`] of every event recorded so far, rendered as the
    /// JSONL sink would write it.
    ///
    /// # Panics
    /// Panics if a track's ring dropped events: a digest of what is left
    /// would not cover the run.  Size the ring to the run, or digest the
    /// sink with [`TraceDigest::of_jsonl`].
    pub fn digest(&self) -> TraceDigest {
        let mut digest = TraceDigest::default();
        for t in self.tracks.read().iter() {
            let ring = t.ring.lock();
            assert_eq!(ring.dropped, 0, "track {} dropped events from its ring", t.name);
            for ev in &ring.buf {
                digest.add(&jsonl_line(&t.name, t.tid, ev));
            }
        }
        digest
    }

    /// Human-readable dump of the last `last_n` events of every track — the
    /// flight-recorder report appended to deadlock panics.
    pub fn flight_report(&self, last_n: usize) -> String {
        let mut out = String::new();
        for t in self.tracks.read().iter() {
            let ring = t.ring.lock();
            let total = ring.next_seq;
            let shown = ring.buf.len().min(last_n);
            let _ = writeln!(
                out,
                "  [{}] {} events recorded, showing last {}{}:",
                t.name,
                total,
                shown,
                if ring.dropped > 0 {
                    format!(" ({} older dropped from the ring)", ring.dropped)
                } else {
                    String::new()
                }
            );
            for ev in ring.buf.iter().skip(ring.buf.len() - shown) {
                flight_line(&mut out, ev);
            }
        }
        out
    }

    /// Flush the file sink (no-op without one).  Called by the runtime at
    /// the end of a launch; a long-lived global tracer is never dropped, so
    /// relying on `Drop` would lose the tail of the stream.
    pub fn flush(&self) {
        if let Some(sink) = &self.sink {
            let _ = sink.lock().flush();
        }
    }
}

impl Drop for Tracer {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Recording handle for one track.  Cheap to clone; not tied to a thread.
#[derive(Clone)]
pub struct TraceHandle {
    tracer: Arc<Tracer>,
    track: Arc<Track>,
}

impl fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceHandle").field("track", &self.track.name).finish()
    }
}

impl TraceHandle {
    /// Record one event at virtual time `t_ns`.
    pub fn record(&self, t_ns: f64, data: TraceData) {
        self.tracer.record(&self.track, t_ns, data);
    }

    /// The owning tracer (e.g. to produce a flight report on panic).
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }
}

/// A trace normalised for comparison: its line count and a multiset digest
/// of its JSONL lines, each with `tid` and `uq` zeroed.  Two runs of one
/// seed must have equal digests, across runs, engines and worker counts.
///
/// Lines are summed, so the order in which ranks' lines interleave in a
/// sink does not count, and their content does.  `tid` is a track's
/// registration index, which follows the order ranks start in; the track
/// *name* identifies the rank.  A `recv`'s `uq` is the unexpected-queue
/// depth when the match landed, which depends on host scheduling even
/// between two fault-free runs.  Every virtual-time field (timestamps,
/// sizes, retries, crash op counts, epochs, incarnations, sequence
/// numbers) counts exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceDigest {
    /// Number of lines (events).
    pub lines: u64,
    /// Wrapping sum of the normalised lines' 128-bit FNV-1a hashes.
    sum: u128,
}

impl TraceDigest {
    /// Add one JSONL line (a trailing newline is ignored).
    fn add(&mut self, line: &str) {
        let line = zeroed(&zeroed(line.trim_end_matches('\n'), "\"tid\":"), "\"uq\":");
        let hash = line.bytes().fold(0x6c62_272e_07bb_0142_62b8_2175_6295_c58d_u128, |h, b| {
            (h ^ u128::from(b)).wrapping_mul(0x0000_0000_0100_0000_0000_0000_0000_013b)
        });
        self.lines += 1;
        self.sum = self.sum.wrapping_add(hash);
    }

    /// The digest of a JSONL stream (a `.jsonl` sink): every non-blank line.
    pub fn of_jsonl(reader: impl BufRead) -> std::io::Result<TraceDigest> {
        let mut digest = TraceDigest::default();
        for line in reader.lines() {
            let line = line?;
            if !line.trim().is_empty() {
                digest.add(&line);
            }
        }
        Ok(digest)
    }
}

/// `line` with the integer after each `key` replaced by `0`.
fn zeroed(line: &str, key: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(i) = rest.find(key) {
        let (head, tail) = rest.split_at(i + key.len());
        out.push_str(head);
        out.push('0');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// Minimal JSON string escaping (track names are internal labels, but keep
/// the output well-formed for any input).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Initial buffer of one sink line.  Lines run ~130 bytes; growing the
/// buffer field by field costs more than formatting them.
const LINE_CAPACITY: usize = 192;

/// Native JSONL schema: one flat object per event, the common head, then
/// `"type"` and every field.  `tid` (the track's registration index)
/// disambiguates same-named tracks — a process that launches several
/// universes in sequence registers a fresh `rank0` per universe, and each
/// restarts its clock and sequence numbers.
fn jsonl_line(track: &str, tid: usize, ev: &TraceEvent) -> String {
    let mut s = String::with_capacity(LINE_CAPACITY);
    let _ = write!(
        s,
        "{{\"track\":\"{}\",\"tid\":{},\"seq\":{},\"t_ns\":{:.3},",
        escape(track),
        tid,
        ev.seq,
        ev.t_ns
    );
    ev.data.schema(|ty, _, fields| {
        let _ = write!(s, "\"type\":\"{ty}\",");
        json_fields(&mut s, fields);
    });
    s.push_str("}\n");
    s
}

/// Chrome trace-event schema, timestamps in µs: an instant (`ph:"i"`)
/// named by the event type, or for a collective span a begin/end pair
/// (`ph:"B"`/`"E"`) named by the algorithm.  `args` holds every JSONL field.
fn chrome_line(tid: usize, ev: &TraceEvent) -> String {
    let mut s = String::with_capacity(LINE_CAPACITY);
    let _ = write!(s, "{{\"pid\":0,\"tid\":{tid},\"ts\":{:.4},", ev.t_ns / 1000.0);
    ev.data.schema(|ty, cat, fields| {
        let (name, ph) = match ev.data {
            TraceData::CollBegin { name, .. } => (name, "\"B\""),
            TraceData::CollEnd { name, .. } => (name, "\"E\""),
            _ => (ty, "\"i\",\"s\":\"t\""),
        };
        let _ = write!(s, "\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":{ph},\"args\":{{");
        json_fields(&mut s, fields);
    });
    s.push_str("}},\n");
    s
}

/// Flight-report line: `#seq t=…ns <type> k=v …`.
fn flight_line(out: &mut String, ev: &TraceEvent) {
    let _ = write!(out, "    #{} t={:.0}ns ", ev.seq, ev.t_ns);
    ev.data.schema(|ty, _, fields| {
        out.push_str(ty);
        for (k, v) in fields {
            let _ = write!(out, " {k}={v}");
        }
    });
    out.push('\n');
}

/// `"k":v` pairs, comma-separated; strings are fixed vocabularies and need
/// no escaping.
fn json_fields(s: &mut String, fields: &[Field]) {
    for (i, (k, v)) in fields.iter().enumerate() {
        s.push_str(if i == 0 { "\"" } else { ",\"" });
        s.push_str(k);
        s.push_str("\":");
        match v {
            Value::Int(n) => {
                let _ = write!(s, "{n}");
            }
            Value::Str(t) => {
                s.push('"');
                s.push_str(t);
                s.push('"');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn send(dst: usize, bytes: u64) -> TraceData {
        TraceData::Send { dst, bytes, kind: "p2p", comm: 0, tag: 0, coll: None }
    }

    #[test]
    fn ring_keeps_last_capacity_events() {
        let tr = Tracer::new(4);
        let h = tr.track("rank0");
        for i in 0..10u64 {
            h.record(i as f64, send(1, i));
        }
        let snap = tr.snapshot();
        assert_eq!(snap.len(), 1);
        let (name, events) = &snap[0];
        assert_eq!(name, "rank0");
        assert_eq!(events.len(), 4);
        // Sequence numbers are global to the track, not the ring: dense
        // from 0, so the last one counts every event recorded.
        assert_eq!(events.first().unwrap().seq, 6);
        assert_eq!(events.last().unwrap().seq + 1, 10);
    }

    #[test]
    fn flight_report_mentions_every_track_and_drops() {
        let tr = Tracer::new(2);
        let a = tr.track("rank0");
        let b = tr.track("rank1");
        for i in 0..5 {
            a.record(i as f64, send(1, 64));
        }
        b.record(0.0, TraceData::Recv { src: 0, bytes: 64, comm: 0, tag: 0, uq_depth: 3 });
        let report = tr.flight_report(8);
        assert!(report.contains("[rank0]"), "missing track: {report}");
        assert!(report.contains("[rank1]"), "missing track: {report}");
        assert!(report.contains("3 older dropped"), "missing drop count: {report}");
        assert!(report.contains("uq=3"), "missing recv detail: {report}");
    }

    #[test]
    fn jsonl_sink_writes_one_object_per_line() {
        let dir = std::env::temp_dir().join("mim_trace_test_jsonl");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.jsonl");
        let tr = Tracer::with_sink(8, &path).unwrap();
        let h = tr.track("rank0");
        h.record(1.0, send(2, 100));
        h.record(2.0, TraceData::Session { action: "start", msid: 7 });
        tr.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"track\":\"rank0\",\"tid\":0,\"seq\":0,"));
        assert!(lines[0].contains("\"type\":\"send\""));
        assert!(lines[1].contains("\"type\":\"session\""));
        assert!(lines.iter().all(|l| l.ends_with('}')));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn window_events_survive_both_exports() {
        let dir = std::env::temp_dir().join("mim_trace_test_window");
        std::fs::create_dir_all(&dir).unwrap();
        let jsonl = dir.join("out.jsonl");
        let tr = Tracer::with_sink(8, &jsonl).unwrap();
        let h = tr.track("rank0");
        h.record(1.0, TraceData::Window { msid: 0x1_0000_0000, epoch: 3, events: 12, bytes: 4096 });
        tr.flush();
        let text = std::fs::read_to_string(&jsonl).unwrap();
        assert!(text.contains("\"type\":\"window\""), "bad jsonl: {text}");
        assert!(text.contains("\"epoch\":3"), "bad jsonl: {text}");
        assert!(text.contains("\"events\":12"), "bad jsonl: {text}");
        assert!(text.contains("\"bytes\":4096"), "bad jsonl: {text}");
        std::fs::remove_file(&jsonl).unwrap();

        let chrome = dir.join("out.json");
        let tr = Tracer::with_sink(8, &chrome).unwrap();
        let h = tr.track("rank0");
        h.record(1.0, TraceData::Window { msid: 7, epoch: 1, events: 2, bytes: 64 });
        tr.flush();
        let text = std::fs::read_to_string(&chrome).unwrap();
        assert!(text.contains("\"cat\":\"window\""), "bad chrome: {text}");
        assert!(text.contains("\"epoch\":1"), "bad chrome: {text}");
        std::fs::remove_file(&chrome).unwrap();
    }

    #[test]
    fn chrome_sink_emits_metadata_and_span_pairs() {
        let dir = std::env::temp_dir().join("mim_trace_test_chrome");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        let tr = Tracer::with_sink(8, &path).unwrap();
        let h = tr.track("rank0");
        h.record(1000.0, TraceData::CollBegin { name: "bcast_binomial", comm: 0, id: 0 });
        h.record(1500.0, send(1, 10));
        h.record(2000.0, TraceData::CollEnd { name: "bcast_binomial", comm: 0, id: 0 });
        tr.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("[\n"));
        assert!(text.contains("\"thread_name\""));
        assert!(text.contains("\"ph\":\"B\""));
        assert!(text.contains("\"ph\":\"E\""));
        // µs conversion.
        assert!(text.contains("\"ts\":1.5000"), "bad timestamp: {text}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn handles_are_per_track_and_threads_do_not_interleave_seqs() {
        let tr = Tracer::new(64);
        let a = tr.track("rank0");
        let b = tr.track("rank0"); // same label, distinct track
        a.record(0.0, send(1, 1));
        b.record(0.0, send(1, 2));
        a.record(1.0, send(1, 3));
        let snap = tr.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].1.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(snap[1].1.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![0]);
    }

    /// Line order, `tid` and `uq` do not count; every other byte does; the
    /// ring digest is the sink's.
    #[test]
    fn digest_is_a_multiset_of_normalised_lines() {
        let recv = |uq_depth| TraceData::Recv { src: 1, bytes: 8, comm: 0, tag: 2, uq_depth };
        let path = std::env::temp_dir().join("mim_trace_test_digest.jsonl");
        let a = Tracer::with_sink(8, &path).unwrap();
        let (a0, a1) = (a.track("rank0"), a.track("rank1"));
        a0.record(1.0, recv(3));
        a1.record(2.0, send(0, 8));
        a.flush();
        let sink = TraceDigest::of_jsonl(std::io::BufReader::new(File::open(&path).unwrap()));
        std::fs::remove_file(&path).unwrap();
        assert_eq!(sink.unwrap(), a.digest());
        assert_eq!(a.digest().lines, 2);

        // The other registration order, another queue depth.
        let b = Tracer::new(8);
        let (b1, b0) = (b.track("rank1"), b.track("rank0"));
        b1.record(2.0, send(0, 8));
        b0.record(1.0, recv(0));
        assert_eq!(a.digest(), b.digest());

        b0.record(3.0, recv(0));
        assert_ne!(a.digest(), b.digest(), "an extra event must count");
        let c = Tracer::new(8);
        c.track("rank0").record(1.0, recv(0));
        c.track("rank1").record(2.0, send(0, 9));
        assert_ne!(a.digest(), c.digest(), "a changed field must count");
    }

    #[test]
    #[should_panic(expected = "dropped events")]
    fn digest_refuses_a_ring_that_dropped_events() {
        let tr = Tracer::new(2);
        let h = tr.track("rank0");
        for i in 0..3 {
            h.record(i as f64, send(1, 1));
        }
        tr.digest();
    }

    #[test]
    fn escape_handles_quotes_and_control_chars() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\ny"), "x\\u000ay");
    }

    /// One event of every variant (`Send` with and without its span id).
    fn every_event() -> Vec<TraceData> {
        vec![
            TraceData::Send { dst: 1, bytes: 2, kind: "coll", comm: 3, tag: 4, coll: Some(5) },
            TraceData::Send { dst: 1, bytes: 2, kind: "p2p", comm: 3, tag: 4, coll: None },
            TraceData::SendFailed { dst: 6 },
            TraceData::Recv { src: 7, bytes: 8, comm: 9, tag: 10, uq_depth: 11 },
            TraceData::CollBegin { name: "bcast_binomial", comm: 12, id: 13 },
            TraceData::CollEnd { name: "bcast_binomial", comm: 12, id: 13 },
            TraceData::Session { action: "start", msid: 0x1_0000_0002 },
            TraceData::Window { msid: 14, epoch: 15, events: 16, bytes: 17 },
            TraceData::Retry { dst: 18, attempt: 19, backoff_ns: 20 },
            TraceData::RankCrash { ops: 21 },
            TraceData::RankJoin { incarnation: 22 },
            TraceData::EpochBump { comm: 23, epoch: 24, size: 25 },
            TraceData::DesStep { rank: 26, op: "park", peer: 27, bytes: 28 },
        ]
    }

    /// Records [`every_event`] on one track, at times with a fraction so
    /// the number formats are pinned too; returns the sink's lines.
    fn export(tr: &Arc<Tracer>, path: &Path) -> Vec<String> {
        let h = tr.track("rank0");
        for (i, data) in every_event().into_iter().enumerate() {
            h.record(1234.5678 * (i + 1) as f64, data);
        }
        tr.flush();
        let text = std::fs::read_to_string(path).unwrap();
        std::fs::remove_file(path).unwrap();
        text.lines().map(str::to_owned).collect()
    }

    /// Every event's line in every format, exactly.  The JSONL lines are
    /// the renderer's output from before the schema table existed.
    #[test]
    fn every_event_is_pinned_in_every_format() {
        let dir = std::env::temp_dir().join("mim_trace_test_schema");
        std::fs::create_dir_all(&dir).unwrap();

        let path = dir.join("out.jsonl");
        let tr = Tracer::with_sink(16, &path).unwrap();
        let head =
            |seq: usize, t: &str| format!(r#"{{"track":"rank0","tid":0,"seq":{seq},"t_ns":{t},"#);
        let jsonl = [
            (
                "1234.568",
                r#""type":"send","dst":1,"bytes":2,"kind":"coll","comm":3,"tag":4,"coll":5}"#,
            ),
            ("2469.136", r#""type":"send","dst":1,"bytes":2,"kind":"p2p","comm":3,"tag":4}"#),
            ("3703.703", r#""type":"send_failed","dst":6}"#),
            ("4938.271", r#""type":"recv","src":7,"bytes":8,"comm":9,"tag":10,"uq":11}"#),
            ("6172.839", r#""type":"coll_begin","name":"bcast_binomial","comm":12,"id":13}"#),
            ("7407.407", r#""type":"coll_end","name":"bcast_binomial","comm":12,"id":13}"#),
            ("8641.975", r#""type":"session","action":"start","msid":4294967298}"#),
            ("9876.542", r#""type":"window","msid":14,"epoch":15,"events":16,"bytes":17}"#),
            ("11111.110", r#""type":"retry","dst":18,"attempt":19,"backoff_ns":20}"#),
            ("12345.678", r#""type":"rank_crash","ops":21}"#),
            ("13580.246", r#""type":"rank_join","incarnation":22}"#),
            ("14814.814", r#""type":"epoch_bump","comm":23,"epoch":24,"size":25}"#),
            ("16049.381", r#""type":"des","rank":26,"op":"park","peer":27,"bytes":28}"#),
        ];
        let want: Vec<String> =
            jsonl.iter().enumerate().map(|(i, (t, body))| head(i, t) + body).collect();
        assert_eq!(export(&tr, &path), want);

        let flight = tr.flight_report(16);
        let lines: Vec<&str> = flight.lines().collect();
        assert_eq!(lines[0], "  [rank0] 13 events recorded, showing last 13:");
        let want = [
            "#0 t=1235ns send dst=1 bytes=2 kind=coll comm=3 tag=4 coll=5",
            "#1 t=2469ns send dst=1 bytes=2 kind=p2p comm=3 tag=4",
            "#2 t=3704ns send_failed dst=6",
            "#3 t=4938ns recv src=7 bytes=8 comm=9 tag=10 uq=11",
            "#4 t=6173ns coll_begin name=bcast_binomial comm=12 id=13",
            "#5 t=7407ns coll_end name=bcast_binomial comm=12 id=13",
            "#6 t=8642ns session action=start msid=4294967298",
            "#7 t=9877ns window msid=14 epoch=15 events=16 bytes=17",
            "#8 t=11111ns retry dst=18 attempt=19 backoff_ns=20",
            "#9 t=12346ns rank_crash ops=21",
            "#10 t=13580ns rank_join incarnation=22",
            "#11 t=14815ns epoch_bump comm=23 epoch=24 size=25",
            "#12 t=16049ns des rank=26 op=park peer=27 bytes=28",
        ];
        assert_eq!(lines[1..].iter().map(|l| l.trim_start()).collect::<Vec<_>>(), want);

        let path = dir.join("out.json");
        let tr = Tracer::with_sink(16, &path).unwrap();
        let instant = |t: &str, name: &str, cat: &str, args: &str| {
            format!(
                r#"{{"pid":0,"tid":0,"ts":{t},"name":"{name}","cat":"{cat}","ph":"i","s":"t","args":{{{args}}}}},"#
            )
        };
        let span = |t: &str, ph: &str| {
            format!(
                r#"{{"pid":0,"tid":0,"ts":{t},"name":"bcast_binomial","cat":"coll","ph":"{ph}","args":{{"name":"bcast_binomial","comm":12,"id":13}}}},"#
            )
        };
        let want = [
            "[".to_owned(),
            r#"{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"rank0"}},"#
                .to_owned(),
            instant(
                "1.2346",
                "send",
                "wire",
                r#""dst":1,"bytes":2,"kind":"coll","comm":3,"tag":4,"coll":5"#,
            ),
            instant("2.4691", "send", "wire", r#""dst":1,"bytes":2,"kind":"p2p","comm":3,"tag":4"#),
            instant("3.7037", "send_failed", "wire", r#""dst":6"#),
            instant("4.9383", "recv", "wire", r#""src":7,"bytes":8,"comm":9,"tag":10,"uq":11"#),
            span("6.1728", "B"),
            span("7.4074", "E"),
            instant("8.6420", "session", "session", r#""action":"start","msid":4294967298"#),
            instant("9.8765", "window", "window", r#""msid":14,"epoch":15,"events":16,"bytes":17"#),
            instant("11.1111", "retry", "fault", r#""dst":18,"attempt":19,"backoff_ns":20"#),
            instant("12.3457", "rank_crash", "fault", r#""ops":21"#),
            instant("13.5802", "rank_join", "fault", r#""incarnation":22"#),
            instant("14.8148", "epoch_bump", "fault", r#""comm":23,"epoch":24,"size":25"#),
            instant("16.0494", "des", "des", r#""rank":26,"op":"park","peer":27,"bytes":28"#),
        ];
        assert_eq!(export(&tr, &path), want);
    }
}
