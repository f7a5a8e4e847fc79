//! The public monitoring API (the paper's `MPI_M_*` functions).

use std::cell::RefCell;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::rc::Rc;

use mim_mpisim::clock::VirtualClock;
use mim_mpisim::pml::LocalHookHandle;
use mim_mpisim::trace::{TraceData, TraceHandle};
use mim_mpisim::{Comm, PmlEvent, Rank};
use mim_topology::CommMatrix;

use crate::accum::{flag_sums, PairEntry};
use crate::error::{MonError, Result};
use crate::flags::Flags;
use crate::session::{Msid, SessionData, SessionState, SessionTable, WindowDelta, MAX_SESSIONS};

/// Fan-in of the tree-structured root gather.
const GATHER_ARITY: usize = 8;

/// What a tree gather reads from the session (see
/// [`Monitoring::tree_gather`]).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Scope {
    /// Everything recorded since start/reset; the session must be
    /// suspended.
    Total,
    /// The current epoch window, sealed by the gather; the session may be
    /// active and is muted while its rows travel.
    Window,
}

/// Per-session metadata returned by [`Monitoring::get_info`]
/// (the paper's `MPI_M_get_info`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionInfo {
    /// Provided level of thread support; the library is thread-safe, so this
    /// reports the `MPI_THREAD_MULTIPLE` level (3), like the paper's C
    /// library running under a threaded Open MPI.
    pub provided: i32,
    /// Size of the `msg_counts` / `msg_sizes` arrays of
    /// [`Monitoring::get_data`], and of one dimension of the square matrices
    /// of the gather calls: the size of the session's communicator.
    pub array_size: usize,
}

/// This process's monitored row (what `MPI_M_get_data` copies out).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionRow {
    /// `counts[d]` = number of messages sent by this process to
    /// communicator rank `d`.
    pub counts: Vec<u64>,
    /// `sizes[d]` = bytes sent by this process to communicator rank `d`.
    pub sizes: Vec<u64>,
}

/// Full gathered matrices (what `MPI_M_allgather_data` /
/// `MPI_M_rootgather_data` produce).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatheredData {
    /// `counts[i][j]` = messages sent from communicator rank `i` to `j`.
    pub counts: CommMatrix,
    /// `sizes[i][j]` = bytes sent from communicator rank `i` to `j`.
    pub sizes: CommMatrix,
}

/// Per-session introspection counters returned by
/// [`Monitoring::trace_counters`]: the trace-facing complement of
/// [`Monitoring::get_info`].  Available whether or not tracing is enabled
/// (the counters live in the session table / mailbox, not the trace ring).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCounters {
    /// Messages recorded by the session so far (all kinds).
    pub events: u64,
    /// Bytes recorded by the session so far (all kinds).
    pub bytes: u64,
    /// Sealed epoch windows since start/reset (see
    /// [`Monitoring::advance_window`]).
    pub epoch: u64,
    /// Messages recorded in the current (unsealed) window.
    pub window_events: u64,
    /// Bytes recorded in the current (unsealed) window.
    pub window_bytes: u64,
    /// High-water mark of this rank's unexpected-message queue over the
    /// process lifetime (not reset per session: it diagnoses the process).
    pub max_unexpected_depth: usize,
}

/// One epoch window's gather result ([`Monitoring::gather_window`], from a
/// *live* session).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatheredWindow {
    /// 1-based index of the window this rank sealed (ranks stay in lockstep
    /// when every window is advanced through the same collective calls).
    pub epoch: u64,
    /// The window's traffic matrices — `Some` at the gathering root, `None`
    /// elsewhere.  One row per member of the session's communicator: after
    /// a rank died, shrink the communicator and
    /// [`Monitoring::rebind_session`] before gathering.
    pub data: Option<GatheredData>,
}

/// The monitoring environment of one process (paper: the state set up by
/// `MPI_M_init` and torn down by `MPI_M_finalize`).
///
/// Created with [`Monitoring::init`], which plugs a recorder into the rank's
/// PML interposition layer; destroyed with [`Monitoring::finalize`].  All
/// methods are "thread-safe" in the paper's sense — here each rank is a
/// thread that owns its `Monitoring`, which encodes the same guarantee in
/// the type system (`Monitoring` is `!Send`).
///
/// Following the paper, every session-lifecycle and data-access function
/// must be called by **all** processes of the session's communicator
/// (`get_info` excepted); `start`, the gathers and `rootflush` really
/// communicate, the others are local but the contract keeps states aligned.
pub struct Monitoring {
    state: Rc<RefCell<SessionTable>>,
    hook: LocalHookHandle,
    finalized: std::cell::Cell<bool>,
    /// The owning rank's trace track and clock, for recording session
    /// lifecycle transitions on that rank's timeline (`None` when tracing
    /// is off).  The clock is shared because suspend/resume/reset/free are
    /// local calls that do not take a `&Rank`.
    trace: Option<(TraceHandle, Rc<VirtualClock>)>,
}

impl Monitoring {
    /// Set up the monitoring environment (`MPI_M_init`): registers the
    /// recorder at the PML layer so every outgoing message is observed.
    pub fn init(rank: &Rank) -> Result<Self> {
        let state = Rc::new(RefCell::new(SessionTable::new(MAX_SESSIONS)));
        let recorder = Rc::clone(&state);
        let hook =
            rank.add_local_hook(Rc::new(move |ev: &PmlEvent| recorder.borrow_mut().record(ev)));
        let this = Self {
            state,
            hook,
            finalized: std::cell::Cell::new(false),
            trace: rank.trace_handle().map(|t| (t, rank.clock_shared())),
        };
        this.trace_session("init", Msid::ALL);
        Ok(this)
    }

    /// Record a session lifecycle transition on the rank's trace track.
    fn trace_session(&self, action: &'static str, msid: Msid) {
        if let Some((t, clock)) = &self.trace {
            t.record(clock.now_ns(), TraceData::Session { action, msid: msid.0 });
        }
    }

    /// Tear down the environment (`MPI_M_finalize`).  Any later use of this
    /// environment fails with [`MonError::MissingInit`].
    ///
    /// # Errors
    /// [`MonError::SessionStillActive`] when a session was not suspended
    /// (the environment stays usable).  Suspended-but-unfreed sessions are
    /// freed (the paper asks the user to free them; we do not leak either
    /// way).
    pub fn finalize(&self, rank: &Rank) -> Result<()> {
        self.check_init()?;
        if self.state.borrow().any_active() {
            return Err(MonError::SessionStillActive);
        }
        if !rank.remove_local_hook(self.hook) {
            return Err(MonError::MpitFail("monitoring hook already removed".into()));
        }
        self.trace_session("finalize", Msid::ALL);
        self.finalized.set(true);
        Ok(())
    }

    fn check_init(&self) -> Result<()> {
        if self.finalized.get() {
            return Err(MonError::MissingInit);
        }
        Ok(())
    }

    /// Create and start a session on `comm` (`MPI_M_start`).  Collective:
    /// synchronizes the members so they begin watching from a common point.
    ///
    /// While active, the session records the count and size of every message
    /// between two members of `comm` — whatever communicator carries it.
    pub fn start(&self, rank: &Rank, comm: &Comm) -> Result<Msid> {
        self.check_init()?;
        rank.barrier(comm);
        let msid = self.state.borrow_mut().insert(SessionData::new(comm.clone()))?;
        // Recorded *after* the barrier and the insert, so everything past
        // this marker on the track is traffic the session could observe —
        // the trace/monitoring cross-check property relies on that.
        self.trace_session("start", msid);
        Ok(msid)
    }

    /// Suspend an active session, making its data available
    /// (`MPI_M_suspend`).  Accepts [`Msid::ALL`].
    ///
    /// # Errors
    /// [`MonError::MultipleCall`] when the session is already suspended.
    pub fn suspend(&self, msid: Msid) -> Result<()> {
        self.check_init()?;
        self.trace_session("suspend", msid);
        self.for_each(msid, |s| match s.state {
            SessionState::Active => {
                s.state = SessionState::Suspended;
                Ok(())
            }
            SessionState::Suspended => Err(MonError::MultipleCall),
        })
    }

    /// Restart a suspended session (`MPI_M_continue` — renamed because
    /// `continue` is a Rust keyword).  Accepts [`Msid::ALL`].
    ///
    /// # Errors
    /// [`MonError::MultipleCall`] when the session is already active.
    pub fn resume(&self, msid: Msid) -> Result<()> {
        self.check_init()?;
        self.trace_session("resume", msid);
        self.for_each(msid, |s| match s.state {
            SessionState::Suspended => {
                s.state = SessionState::Active;
                Ok(())
            }
            SessionState::Active => Err(MonError::MultipleCall),
        })
    }

    /// Zero the data of a suspended session (`MPI_M_reset`).
    /// Accepts [`Msid::ALL`].
    pub fn reset(&self, msid: Msid) -> Result<()> {
        self.check_init()?;
        self.trace_session("reset", msid);
        self.for_each(msid, |s| {
            if s.state != SessionState::Suspended {
                return Err(MonError::SessionNotSuspended);
            }
            s.reset();
            Ok(())
        })
    }

    /// Free a suspended session; its data is no longer available
    /// (`MPI_M_free`).  Accepts [`Msid::ALL`].
    pub fn free(&self, msid: Msid) -> Result<()> {
        self.check_init()?;
        self.trace_session("free", msid);
        if msid == Msid::ALL {
            let live = self.state.borrow().live_msids();
            for m in live {
                // With ALL, skip still-active sessions rather than failing
                // half-way (specific ids keep the strict error).
                let suspended = self.state.borrow().get(m)?.state == SessionState::Suspended;
                if suspended {
                    self.state.borrow_mut().remove(m)?;
                }
            }
            return Ok(());
        }
        if self.state.borrow().get(msid)?.state != SessionState::Suspended {
            return Err(MonError::SessionNotSuspended);
        }
        self.state.borrow_mut().remove(msid)?;
        Ok(())
    }

    /// Session metadata (`MPI_M_get_info`) — the one call the paper allows
    /// from a single process.
    pub(crate) fn get_info(&self, msid: Msid) -> Result<SessionInfo> {
        self.check_init()?;
        let st = self.state.borrow();
        let s = st.get(msid)?;
        Ok(SessionInfo { provided: 3, array_size: s.comm.size() })
    }

    /// This process's introspection counters for a session: total recorded
    /// events and bytes, plus the rank's unexpected-queue high-water mark.
    /// Like `get_info`, callable from a single process; unlike the data
    /// accessors, allowed on an *active* session (the counters are
    /// monotone, so a racy read is still meaningful).
    pub fn trace_counters(&self, rank: &Rank, msid: Msid) -> Result<TraceCounters> {
        self.check_init()?;
        let st = self.state.borrow();
        let s = st.get(msid)?;
        Ok(TraceCounters {
            events: s.events,
            bytes: s.bytes,
            epoch: s.epoch,
            window_events: s.events - s.sealed_events,
            window_bytes: s.bytes - s.sealed_bytes,
            max_unexpected_depth: rank.max_unexpected_depth(),
        })
    }

    /// Seal the session's current epoch window and return its delta: the
    /// per-destination traffic recorded since the previous advance
    /// (`start`/`reset` otherwise).  **Legal on an active session** — this
    /// is the live-introspection primitive: recording continues into the
    /// next window with no suspend barrier.  Local; requires a specific
    /// msid (not [`Msid::ALL`]).
    pub fn advance_window(&self, msid: Msid) -> Result<WindowDelta> {
        self.check_init()?;
        let delta = self.state.borrow_mut().get_mut(msid)?.advance_window();
        self.trace_window(msid, &delta);
        Ok(delta)
    }

    /// Seal every member's current window and gather the deltas at `root`
    /// along the topology-ordered tree: the live (no-suspend) counterpart
    /// of [`Monitoring::rootgather_data`].  Collective over the session's
    /// communicator; every rank gets its sealed epoch back, and the root's
    /// result additionally carries the window's matrices restricted to
    /// `flags`.  The session is **muted** for the duration of the gather,
    /// so the monitoring plane's own control traffic never contaminates
    /// the next window.
    ///
    /// The window is sealed for *all* kinds — `flags` only filters what is
    /// shipped — so consecutive calls partition the session's traffic into
    /// disjoint windows whatever flags each call uses.
    pub fn gather_window(
        &self,
        rank: &Rank,
        msid: Msid,
        root: usize,
        flags: Flags,
    ) -> Result<GatheredWindow> {
        self.tree_gather(rank, msid, root, flags, Scope::Window)
    }

    /// Re-attach a session to a grown or shrunk communicator (elastic
    /// membership: after [`Rank::comm_shrink`] removed the dead or
    /// [`Rank::comm_grow`] admitted joiners).  Recorded traffic follows each
    /// surviving member to its new communicator rank — the mapping runs
    /// through world ranks — departed members' columns are dropped and
    /// joiners start at zero; totals, the open epoch window and the epoch
    /// counter all survive.  Every surviving member of the session must
    /// rebind to the *same* new communicator before the next collective
    /// data access (the call itself is local).
    ///
    /// [`Rank::comm_shrink`]: mim_mpisim::Rank::comm_shrink
    /// [`Rank::comm_grow`]: mim_mpisim::Rank::comm_grow
    pub fn rebind_session(&self, msid: Msid, new_comm: &Comm) -> Result<()> {
        self.check_init()?;
        self.state.borrow_mut().get_mut(msid)?.rebind(new_comm.clone());
        self.trace_session("rebind", msid);
        Ok(())
    }

    /// Record a sealed window on the rank's trace track.
    fn trace_window(&self, msid: Msid, delta: &WindowDelta) {
        if let Some((t, clock)) = &self.trace {
            t.record(
                clock.now_ns(),
                TraceData::Window {
                    msid: msid.0,
                    epoch: delta.epoch,
                    events: delta.events,
                    bytes: delta.bytes,
                },
            );
        }
    }

    /// Copy out this process's row of the session's data (`MPI_M_get_data`),
    /// restricted to the kinds selected by `flags`.
    ///
    /// # Errors
    /// [`MonError::SessionNotSuspended`] while the session is active (data
    /// access requires a suspended session).
    pub fn get_data(&self, msid: Msid, flags: Flags) -> Result<SessionRow> {
        self.check_init()?;
        Ok(self.row_and_comm(msid, flags)?.0)
    }

    /// `get_data` followed by an allgather over the session's communicator
    /// (`MPI_M_allgather_data`): every member receives the full matrices.
    pub fn allgather_data(&self, rank: &Rank, msid: Msid, flags: Flags) -> Result<GatheredData> {
        self.check_init()?;
        let (buf, comm) = self.dense_row_and_comm(msid, flags)?;
        // One collective moves both rows; the session being read is
        // suspended, so it does not observe its own gather.
        let gathered = rank.allgather(&comm, &buf);
        Ok(gathered_from_dense(&gathered, comm.size()))
    }

    /// Like [`Monitoring::allgather_data`] but only `root` receives the data
    /// (`MPI_M_rootgather_data`); other members get `None`.
    ///
    /// Rows travel in sparse `(dst, count, bytes)` triples along a k-ary
    /// tree ordered by machine topology (see [`Rank::gather_tree`]), so
    /// rows aggregate within a node before crossing the network and the
    /// root's mailbox sees O(arity) peers instead of O(n).  The matrices
    /// are bit-identical to the former star gather's (pinned by the
    /// equivalence properties in this crate's tests).
    pub fn rootgather_data(
        &self,
        rank: &Rank,
        msid: Msid,
        root: usize,
        flags: Flags,
    ) -> Result<Option<GatheredData>> {
        Ok(self.tree_gather(rank, msid, root, flags, Scope::Total)?.data)
    }

    /// The seed's star gather — every rank sends its dense row straight to
    /// the root — kept as the test oracle for the tree path above.
    #[cfg(test)]
    pub(crate) fn rootgather_data_star(
        &self,
        rank: &Rank,
        msid: Msid,
        root: usize,
        flags: Flags,
    ) -> Result<Option<GatheredData>> {
        self.check_init()?;
        let (buf, comm) = self.dense_row_and_comm(msid, flags)?;
        check_root(root, comm.size())?;
        let gathered = rank.gather(&comm, root, &buf);
        Ok(gathered.map(|g| gathered_from_dense(&g, comm.size())))
    }

    /// Each process writes its own row to `"{filename}.{rank}.prof"`
    /// (`MPI_M_flush`; `rank` is the communicator rank).
    pub(crate) fn flush(&self, msid: Msid, filename: &str, flags: Flags) -> Result<()> {
        self.check_init()?;
        let (row, comm) = self.row_and_comm(msid, flags)?;
        let path = format!("{filename}.{}.prof", comm.rank());
        let file = File::create(&path)
            .map_err(|e| MonError::InternalFail(format!("create {path}: {e}")))?;
        let mut w = BufWriter::new(file);
        write_row(&mut w, comm.rank(), &row)
            .map_err(|e| MonError::InternalFail(format!("write {path}: {e}")))?;
        Ok(())
    }

    /// `root` gathers all rows and writes two files,
    /// `"{filename}_counts.{world_rank}.prof"` and
    /// `"{filename}_sizes.{world_rank}.prof"` (`MPI_M_rootflush`; the rank in
    /// the file name is the root's rank in `MPI_COMM_WORLD`, as in the paper).
    pub fn rootflush(
        &self,
        rank: &Rank,
        msid: Msid,
        root: usize,
        filename: &str,
        flags: Flags,
    ) -> Result<()> {
        let Some(data) = self.rootgather_data(rank, msid, root, flags)? else {
            return Ok(());
        };
        let world = rank.world_rank();
        for (suffix, matrix) in [("counts", &data.counts), ("sizes", &data.sizes)] {
            let path = format!("{filename}_{suffix}.{world}.prof");
            let file = File::create(&path)
                .map_err(|e| MonError::InternalFail(format!("create {path}: {e}")))?;
            let mut w = BufWriter::new(file);
            w.write_all(matrix.to_csv().as_bytes())
                .and_then(|_| w.flush())
                .map_err(|e| MonError::InternalFail(format!("write {path}: {e}")))?;
        }
        Ok(())
    }

    // -- internals ------------------------------------------------------------

    /// Fetch a suspended session's row and communicator without holding the
    /// table borrow (the communicator calls that follow re-enter the
    /// recording hook).
    fn row_and_comm(&self, msid: Msid, flags: Flags) -> Result<(SessionRow, Comm)> {
        let st = self.state.borrow();
        let s = st.get(msid)?;
        if s.state != SessionState::Suspended {
            return Err(MonError::SessionNotSuspended);
        }
        let (counts, sizes) = s.row(flags);
        Ok((SessionRow { counts, sizes }, s.comm.clone()))
    }

    /// [`Monitoring::row_and_comm`] in the dense gather wire format: the
    /// row's counts followed by its sizes, `2 * comm.size()` words that
    /// [`gathered_from_dense`] reads back.
    fn dense_row_and_comm(&self, msid: Msid, flags: Flags) -> Result<(Vec<u64>, Comm)> {
        let (row, comm) = self.row_and_comm(msid, flags)?;
        let mut buf = row.counts;
        buf.extend_from_slice(&row.sizes);
        Ok((buf, comm))
    }

    /// The one tree gather behind [`Monitoring::rootgather_data`] and
    /// [`Monitoring::gather_window`]: `scope` selects the rows, and the
    /// session's communicator is who takes part.  Each rank ships its row as
    /// sparse `(dst, count, bytes)` triples sorted by destination, zero
    /// pairs omitted, along a k-ary tree laid over the communicator's
    /// [`Rank::topology_order`].  Every rank gets its epoch back, the root
    /// additionally the matrices — or, when a member died before its row
    /// arrived, the paper's `MPI_M_INTERNAL_FAIL`.
    fn tree_gather(
        &self,
        rank: &Rank,
        msid: Msid,
        root: usize,
        flags: Flags,
        scope: Scope,
    ) -> Result<GatheredWindow> {
        self.check_init()?;
        let (epoch, buf, comm) = {
            let mut st = self.state.borrow_mut();
            let s = st.get_mut(msid)?;
            if scope == Scope::Total && s.state != SessionState::Suspended {
                return Err(MonError::SessionNotSuspended);
            }
            check_root(root, s.comm.size())?;
            let mut buf = Vec::new();
            let mut ship = |entries: &[PairEntry]| {
                buf.extend(flag_sums(entries, flags).flat_map(|(d, c, b)| [d, c, b]))
            };
            let epoch = match scope {
                Scope::Total => {
                    ship(s.entries());
                    s.epoch
                }
                Scope::Window => {
                    s.muted = true;
                    let delta = s.advance_window();
                    self.trace_window(msid, &delta);
                    ship(&delta.entries);
                    delta.epoch
                }
            };
            (epoch, buf, s.comm.clone())
        };
        // The table borrow is dropped around the collective (the hook
        // re-enters it for sessions that are not muted).
        let order = rank.topology_order(&comm, root);
        let rows = rank.gather_tree(&comm, root, GATHER_ARITY, &order, &buf);
        // Unmute (a no-op after a `Total` gather, which never muted).
        if let Ok(s) = self.state.borrow_mut().get_mut(msid) {
            s.muted = false;
        }
        let rows = rows.map_err(|missing| {
            MonError::InternalFail(format!("incomplete gather: no row from rank(s) {missing:?}"))
        })?;
        Ok(GatheredWindow {
            epoch,
            data: rows.map(|rows| gathered_from_triples(&rows, comm.size())),
        })
    }

    fn for_each(
        &self,
        msid: Msid,
        mut f: impl FnMut(&mut SessionData) -> Result<()>,
    ) -> Result<()> {
        let mut st = self.state.borrow_mut();
        if msid == Msid::ALL {
            for m in st.live_msids() {
                // With ALL, apply to the sessions in the right state and
                // skip the others (the strict errors only apply to a
                // specific msid).
                let _ = f(st.get_mut(m)?);
            }
            Ok(())
        } else {
            f(st.get_mut(msid)?)
        }
    }
}

/// Root validation shared by every rooted gather: `root` must be a member.
fn check_root(root: usize, n: usize) -> Result<()> {
    if root >= n {
        return Err(MonError::InvalidRoot);
    }
    Ok(())
}

/// Unpack `n` dense rows of `counts ‖ sizes` (see
/// [`Monitoring::dense_row_and_comm`]), one per communicator rank, into the
/// sparse matrices of [`GatheredData`].
fn gathered_from_dense(gathered: &[u64], n: usize) -> GatheredData {
    let mut counts = CommMatrix::zeros(n);
    let mut sizes = CommMatrix::zeros(n);
    for i in 0..n {
        for j in 0..n {
            counts.set(i, j, gathered[i * 2 * n + j]);
            sizes.set(i, j, gathered[i * 2 * n + n + j]);
        }
    }
    GatheredData { counts, sizes }
}

/// Build the sparse matrices of [`GatheredData`] from per-rank
/// `(dst, count, bytes)` triples.  Unmentioned cells are zero, which is
/// exactly what the sender recorded for them — the reason sparse and dense
/// gathers are bit-identical.
///
/// # Panics
/// Panics on a destination outside the communicator: a corrupt triple fails
/// here instead of landing in another rank's row.
fn gathered_from_triples(rows: &[Vec<u64>], n: usize) -> GatheredData {
    let mut counts = CommMatrix::zeros(n);
    let mut sizes = CommMatrix::zeros(n);
    for (i, row) in rows.iter().enumerate() {
        for t in row.chunks_exact(3) {
            counts.set(i, t[0] as usize, t[1]);
            sizes.set(i, t[0] as usize, t[2]);
        }
    }
    GatheredData { counts, sizes }
}

fn write_row(w: &mut impl Write, my_rank: usize, row: &SessionRow) -> std::io::Result<()> {
    writeln!(w, "# src dst msgs bytes")?;
    for (dst, (&c, &b)) in row.counts.iter().zip(&row.sizes).enumerate() {
        if c != 0 || b != 0 {
            writeln!(w, "{my_rank} {dst} {c} {b}")?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests;
