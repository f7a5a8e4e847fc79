//! `mim-trace` — structured tracing and flight recording for the simulator
//! stack.
//!
//! The monitoring library observes the *application*; this crate observes
//! the *simulator*: every wire send, receive completion (with the
//! unexpected-queue depth behind it), collective decomposition span,
//! monitoring-session transition and DES evaluator step can be recorded as
//! a typed [`TraceEvent`] on a per-rank [`Track`].
//!
//! Two consumers share the same events:
//!
//! * **Flight recorder** — each track keeps a bounded ring of the last
//!   `capacity` events (oldest dropped first).  When the runtime detects a
//!   deadlock it calls [`Tracer::flight_report`] and appends the recent
//!   history of *every* rank to the panic message, so the report shows how
//!   the system got wedged rather than just the final pending pattern.
//! * **Streaming export** — with a sink attached ([`Tracer::from_env`],
//!   gated by `MIM_TRACE=<path>`), every event is also appended to a file:
//!   native JSONL when the path ends in `.jsonl`, chrome-trace JSON
//!   (loadable in `about:tracing` / Perfetto) otherwise.
//!
//! Tracing is opt-in per universe.  The disabled path is a
//! branch-on-`Option` at each record site — no ring, no lock, no
//! formatting — verified by the `trace_overhead` microbench.
//!
//! Track identity is a *name* (e.g. `rank3`), not a thread: a rank
//! registers its track at launch and holds the `Arc<Track>` in its own
//! state, so under the M:N executor a task migrating across worker
//! threads keeps appending to the same track and per-track sequence
//! numbers stay dense.  The registration *index* (`tid` in chrome export)
//! does follow start order and is therefore normalized away by the CI
//! replay gates.
//!
//! Env conventions (matching the rest of the workspace's `MIM_*` family):
//! `MIM_TRACE=<path>` enables the global tracer with a file sink and
//! [`DEFAULT_RING_CAPACITY`]-event rings.

use std::collections::VecDeque;
use std::fmt::{self, Write as _};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use mim_util::sync::{Mutex, RwLock};

/// Per-track ring capacity of every tracer built from the environment.
pub const DEFAULT_RING_CAPACITY: usize = 256;

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
    events_total: AtomicU64,
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
            events_total: AtomicU64::new(0),
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
            events_total: AtomicU64::new(0),
        }))
    }

    /// Build a tracer from the environment: `Some` with a file sink when
    /// `MIM_TRACE=<path>` is set (ring capacity [`DEFAULT_RING_CAPACITY`]),
    /// `None` otherwise.
    pub fn from_env() -> Option<Arc<Tracer>> {
        let path = std::env::var("MIM_TRACE").ok().filter(|p| !p.is_empty())?;
        match Tracer::with_sink(DEFAULT_RING_CAPACITY, &path) {
            Ok(t) => Some(t),
            Err(e) => {
                eprintln!("mim-trace: cannot open MIM_TRACE={path}: {e}; tracing disabled");
                None
            }
        }
    }

    /// The process-wide tracer, built from the environment on first use
    /// (later changes to `MIM_TRACE` are not observed).
    pub fn global() -> Option<Arc<Tracer>> {
        static GLOBAL: OnceLock<Option<Arc<Tracer>>> = OnceLock::new();
        GLOBAL.get_or_init(Tracer::from_env).clone()
    }

    /// Sink path, when a file sink is attached.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Total events recorded across all tracks.
    pub fn events_total(&self) -> u64 {
        self.events_total.load(Ordering::Relaxed)
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
        self.events_total.fetch_add(1, Ordering::Relaxed);
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
                let _ = writeln!(out, "    #{} t={:.0}ns {}", ev.seq, ev.t_ns, describe(&ev.data));
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

/// One-line human description of an event (flight-recorder report).
fn describe(data: &TraceData) -> String {
    match data {
        TraceData::Send { dst, bytes, kind, comm, tag, coll } => match coll {
            Some(id) => {
                format!("send {kind} {bytes}B -> rank {dst} comm={comm} tag={tag} coll#{id}")
            }
            None => format!("send {kind} {bytes}B -> rank {dst} comm={comm} tag={tag}"),
        },
        TraceData::SendFailed { dst } => format!("SEND FAILED -> rank {dst} (peer thread gone)"),
        TraceData::Recv { src, bytes, comm, tag, uq_depth } => {
            format!("recv {bytes}B <- rank {src} comm={comm} tag={tag} uq={uq_depth}")
        }
        TraceData::CollBegin { name, comm, id } => format!("begin {name} comm={comm} coll#{id}"),
        TraceData::CollEnd { name, comm, id } => format!("end   {name} comm={comm} coll#{id}"),
        TraceData::Session { action, msid } => format!("session {action} msid={msid:#x}"),
        TraceData::Window { msid, epoch, events, bytes } => {
            format!("window #{epoch} sealed msid={msid:#x} {events} events {bytes}B")
        }
        TraceData::Retry { dst, attempt, backoff_ns } => {
            format!("RETRY -> rank {dst} attempt {attempt} backoff {backoff_ns}ns")
        }
        TraceData::RankCrash { ops } => format!("RANK CRASH after {ops} wire ops"),
        TraceData::RankJoin { incarnation } => format!("RANK JOIN incarnation {incarnation}"),
        TraceData::EpochBump { comm, epoch, size } => {
            format!("epoch bump comm={comm} epoch={epoch} size={size}")
        }
        TraceData::DesStep { rank, op, peer, bytes } => {
            format!("des rank {rank} {op} peer {peer} {bytes}B")
        }
    }
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

/// Native JSONL schema: one flat object per event.  `tid` (the track's
/// registration index) disambiguates same-named tracks — a process that
/// launches several universes in sequence registers a fresh `rank0` per
/// universe, and each restarts its clock and sequence numbers.
fn jsonl_line(track: &str, tid: usize, ev: &TraceEvent) -> String {
    let mut s = format!(
        "{{\"track\":\"{}\",\"tid\":{},\"seq\":{},\"t_ns\":{:.3},",
        escape(track),
        tid,
        ev.seq,
        ev.t_ns
    );
    match &ev.data {
        TraceData::Send { dst, bytes, kind, comm, tag, coll } => {
            let _ = write!(
                s,
                "\"type\":\"send\",\"dst\":{dst},\"bytes\":{bytes},\"kind\":\"{kind}\",\
                 \"comm\":{comm},\"tag\":{tag}"
            );
            if let Some(id) = coll {
                let _ = write!(s, ",\"coll\":{id}");
            }
        }
        TraceData::SendFailed { dst } => {
            let _ = write!(s, "\"type\":\"send_failed\",\"dst\":{dst}");
        }
        TraceData::Recv { src, bytes, comm, tag, uq_depth } => {
            let _ = write!(
                s,
                "\"type\":\"recv\",\"src\":{src},\"bytes\":{bytes},\"comm\":{comm},\
                 \"tag\":{tag},\"uq\":{uq_depth}"
            );
        }
        TraceData::CollBegin { name, comm, id } => {
            let _ = write!(
                s,
                "\"type\":\"coll_begin\",\"name\":\"{name}\",\"comm\":{comm},\"id\":{id}"
            );
        }
        TraceData::CollEnd { name, comm, id } => {
            let _ =
                write!(s, "\"type\":\"coll_end\",\"name\":\"{name}\",\"comm\":{comm},\"id\":{id}");
        }
        TraceData::Session { action, msid } => {
            let _ = write!(s, "\"type\":\"session\",\"action\":\"{action}\",\"msid\":{msid}");
        }
        TraceData::Window { msid, epoch, events, bytes } => {
            let _ = write!(
                s,
                "\"type\":\"window\",\"msid\":{msid},\"epoch\":{epoch},\
                 \"events\":{events},\"bytes\":{bytes}"
            );
        }
        TraceData::Retry { dst, attempt, backoff_ns } => {
            let _ = write!(
                s,
                "\"type\":\"retry\",\"dst\":{dst},\"attempt\":{attempt},\"backoff_ns\":{backoff_ns}"
            );
        }
        TraceData::RankCrash { ops } => {
            let _ = write!(s, "\"type\":\"rank_crash\",\"ops\":{ops}");
        }
        TraceData::RankJoin { incarnation } => {
            let _ = write!(s, "\"type\":\"rank_join\",\"incarnation\":{incarnation}");
        }
        TraceData::EpochBump { comm, epoch, size } => {
            let _ = write!(
                s,
                "\"type\":\"epoch_bump\",\"comm\":{comm},\"epoch\":{epoch},\"size\":{size}"
            );
        }
        TraceData::DesStep { rank, op, peer, bytes } => {
            let _ = write!(
                s,
                "\"type\":\"des\",\"rank\":{rank},\"op\":\"{op}\",\"peer\":{peer},\"bytes\":{bytes}"
            );
        }
    }
    s.push_str("}\n");
    s
}

/// Chrome trace-event schema: instants (`ph:"i"`) for point events and
/// begin/end pairs (`ph:"B"`/`"E"`) for collective spans, timestamps in µs.
fn chrome_line(tid: usize, ev: &TraceEvent) -> String {
    let ts = ev.t_ns / 1000.0;
    let head = format!("{{\"pid\":0,\"tid\":{tid},\"ts\":{ts:.4},");
    let body = match &ev.data {
        TraceData::Send { dst, bytes, kind, comm, tag, coll } => format!(
            "\"name\":\"send\",\"cat\":\"wire\",\"ph\":\"i\",\"s\":\"t\",\"args\":{{\
             \"dst\":{dst},\"bytes\":{bytes},\"kind\":\"{kind}\",\"comm\":{comm},\"tag\":{tag}{}}}",
            coll.map(|id| format!(",\"coll\":{id}")).unwrap_or_default()
        ),
        TraceData::SendFailed { dst } => format!(
            "\"name\":\"send_failed\",\"cat\":\"wire\",\"ph\":\"i\",\"s\":\"t\",\
             \"args\":{{\"dst\":{dst}}}"
        ),
        TraceData::Recv { src, bytes, comm, tag, uq_depth } => format!(
            "\"name\":\"recv\",\"cat\":\"wire\",\"ph\":\"i\",\"s\":\"t\",\"args\":{{\
             \"src\":{src},\"bytes\":{bytes},\"comm\":{comm},\"tag\":{tag},\"uq\":{uq_depth}}}"
        ),
        TraceData::CollBegin { name, comm, id } => format!(
            "\"name\":\"{name}\",\"cat\":\"coll\",\"ph\":\"B\",\"args\":{{\"comm\":{comm},\"id\":{id}}}"
        ),
        TraceData::CollEnd { name, .. } => format!("\"name\":\"{name}\",\"cat\":\"coll\",\"ph\":\"E\""),
        TraceData::Session { action, msid } => format!(
            "\"name\":\"session_{action}\",\"cat\":\"session\",\"ph\":\"i\",\"s\":\"t\",\
             \"args\":{{\"msid\":{msid}}}"
        ),
        TraceData::Window { msid, epoch, events, bytes } => format!(
            "\"name\":\"window\",\"cat\":\"window\",\"ph\":\"i\",\"s\":\"t\",\"args\":{{\
             \"msid\":{msid},\"epoch\":{epoch},\"events\":{events},\"bytes\":{bytes}}}"
        ),
        TraceData::Retry { dst, attempt, backoff_ns } => format!(
            "\"name\":\"retry\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\",\"args\":{{\
             \"dst\":{dst},\"attempt\":{attempt},\"backoff_ns\":{backoff_ns}}}"
        ),
        TraceData::RankCrash { ops } => format!(
            "\"name\":\"rank_crash\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\",\
             \"args\":{{\"ops\":{ops}}}"
        ),
        TraceData::RankJoin { incarnation } => format!(
            "\"name\":\"rank_join\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\",\
             \"args\":{{\"incarnation\":{incarnation}}}"
        ),
        TraceData::EpochBump { comm, epoch, size } => format!(
            "\"name\":\"epoch_bump\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\",\"args\":{{\
             \"comm\":{comm},\"epoch\":{epoch},\"size\":{size}}}"
        ),
        TraceData::DesStep { rank, op, peer, bytes } => format!(
            "\"name\":\"des_{op}\",\"cat\":\"des\",\"ph\":\"i\",\"s\":\"t\",\"args\":{{\
             \"rank\":{rank},\"peer\":{peer},\"bytes\":{bytes}}}"
        ),
    };
    format!("{head}{body}}},\n")
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
        // Sequence numbers are global to the track, not the ring.
        assert_eq!(events.first().unwrap().seq, 6);
        assert_eq!(events.last().unwrap().seq, 9);
        assert_eq!(tr.events_total(), 10);
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

    #[test]
    fn escape_handles_quotes_and_control_chars() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\ny"), "x\\u000ay");
    }
}
