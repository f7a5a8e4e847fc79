//! Session state: identifiers, per-pair traffic accumulators, slot table.

use mim_mpisim::{Comm, PmlEvent};

use crate::accum::{PairAccum, PairEntry};
use crate::error::{MonError, Result};
use crate::flags::Flags;

/// A monitoring-session identifier (the paper's opaque `MPI_M_msid`).
///
/// Encodes a slot index and a generation counter so a freed-then-reused slot
/// cannot be addressed through a stale id (`MPI_M_INVALID_MSID`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Msid(pub(crate) u64);

impl Msid {
    /// The paper's `MPI_M_ALL_MSID`: act on every live session.
    pub const ALL: Msid = Msid(u64::MAX);

    /// Largest encodable slot: one below `ALL`'s low word, so no encoded id
    /// can ever share `ALL`'s slot bits.
    pub(crate) const MAX_SLOT: usize = (u32::MAX - 1) as usize;

    pub(crate) fn encode(slot: usize, generation: u32) -> Msid {
        // A slot beyond the 32-bit field would silently spill into the
        // generation bits and corrupt both halves of the id.
        assert!(slot <= Self::MAX_SLOT, "session slot {slot} exceeds the 32-bit id space");
        assert!(generation != u32::MAX, "the RETIRED generation must never be encoded");
        Msid(((generation as u64) << 32) | slot as u64)
    }

    pub(crate) fn slot(self) -> usize {
        assert!(self != Msid::ALL, "ALL addresses every session, not slot 0xffff_ffff");
        (self.0 & 0xffff_ffff) as usize
    }

    pub(crate) fn generation(self) -> u32 {
        assert!(self != Msid::ALL, "ALL has no generation");
        (self.0 >> 32) as u32
    }
}

/// Lifecycle state of one session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Recording.
    Active,
    /// Not recording; data accessible.
    Suspended,
}

/// One sealed epoch window of a session: everything this process recorded
/// between the previous `advance_window` and this one.  Produced by
/// [`crate::Monitoring::advance_window`] and shipped by
/// [`crate::Monitoring::gather_window`] — the unit of live (no-suspend)
/// introspection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowDelta {
    /// 1-based index of the sealed window (the session's epoch counter
    /// after sealing).  Ranks advancing their windows through the same
    /// collective calls stay in lockstep.
    pub epoch: u64,
    /// Per-destination traffic of the window, sorted by destination;
    /// untouched pairs are absent.
    pub entries: Vec<PairEntry>,
    /// Messages recorded in the window (all kinds).
    pub events: u64,
    /// Bytes recorded in the window (all kinds).
    pub bytes: u64,
}

/// One live session.
pub(crate) struct SessionData {
    /// The attached communicator; its shared group index answers the
    /// membership tests on the send hot path.
    pub(crate) comm: Comm,
    pub(crate) state: SessionState,
    /// Everything recorded since start/reset (what the suspended-data
    /// accessors read).
    total: PairAccum,
    /// `total.entries()` as of the last seal: the open epoch window is
    /// what `total` gained since.
    mark: Vec<PairEntry>,
    /// Number of sealed windows since start/reset.
    pub(crate) epoch: u64,
    /// Total recorded events (all kinds), for the trace-counters API.
    pub(crate) events: u64,
    /// Total recorded bytes (all kinds), same.
    pub(crate) bytes: u64,
    /// `events` as of the last seal.
    pub(crate) sealed_events: u64,
    /// `bytes` as of the last seal.
    pub(crate) sealed_bytes: u64,
    /// While set, [`SessionData::record`] drops events: the monitoring
    /// plane mutes a session around its own control traffic (e.g. the
    /// tree gather of a live window) so it does not observe itself.
    pub(crate) muted: bool,
}

impl SessionData {
    /// Session with the default threshold (test convenience; the live path
    /// goes through [`SessionData::with_dense_limit`]).
    #[cfg(test)]
    pub(crate) fn new(comm: Comm) -> Self {
        Self::with_dense_limit(comm, PairAccum::DEFAULT_DENSE_LIMIT)
    }

    /// Session with an explicit dense/sparse threshold for its accumulator
    /// (the `dense_limit` of the owning [`crate::Monitoring`]).
    pub(crate) fn with_dense_limit(comm: Comm, limit: usize) -> Self {
        let n = comm.size();
        Self {
            comm,
            state: SessionState::Active,
            total: PairAccum::with_dense_limit(n, limit),
            mark: Vec::new(),
            epoch: 0,
            events: 0,
            bytes: 0,
            sealed_events: 0,
            sealed_bytes: 0,
            muted: false,
        }
    }

    /// Record a wire event if the session is active and both endpoints are
    /// members of the attached communicator — regardless of which
    /// communicator carried the message.
    pub(crate) fn record(&mut self, ev: &PmlEvent) {
        if self.state != SessionState::Active || self.muted {
            return;
        }
        // The event's sender is this process; it is a member by construction
        // (sessions are started collectively on their communicator), but a
        // session started on a sub-communicator must ignore traffic to
        // non-members.
        let Some(dst) = self.comm.rank_of_world(ev.dst_world) else { return };
        if !self.comm.contains_world(ev.src_world) {
            return;
        }
        self.total.record(dst, Flags::kind_index(ev.kind), ev.bytes);
        self.events += 1;
        self.bytes += ev.bytes;
    }

    /// Zero all recorded data, including the current window and the epoch
    /// counter.
    pub(crate) fn reset(&mut self) {
        self.total.reset();
        self.mark.clear();
        self.epoch = 0;
        self.events = 0;
        self.bytes = 0;
        self.sealed_events = 0;
        self.sealed_bytes = 0;
    }

    /// Seal the current epoch window: return what the totals gained since
    /// the mark (one merge of two destination-sorted lists; totals never
    /// shrink between seals, so every marked destination is still present),
    /// bump the epoch, and move the mark.  Legal in any session state — the
    /// whole point is that it needs no suspend barrier.
    pub(crate) fn advance_window(&mut self) -> WindowDelta {
        self.epoch += 1;
        let now = self.total.entries();
        let mut marked = self.mark.iter().peekable();
        let entries = now
            .iter()
            .filter_map(|e| {
                let mut cell = e.cell;
                if let Some(m) = marked.next_if(|m| m.dst == e.dst) {
                    for k in 0..3 {
                        cell.counts[k] -= m.cell.counts[k];
                        cell.sizes[k] -= m.cell.sizes[k];
                    }
                }
                (!cell.is_zero()).then_some(PairEntry { dst: e.dst, cell })
            })
            .collect();
        let delta = WindowDelta {
            epoch: self.epoch,
            entries,
            events: self.events - self.sealed_events,
            bytes: self.bytes - self.sealed_bytes,
        };
        self.mark = now;
        self.sealed_events = self.events;
        self.sealed_bytes = self.bytes;
        delta
    }

    /// Re-attach the session to a grown or shrunk communicator: every
    /// destination still present keeps its recorded traffic under its *new*
    /// communicator rank (the mapping runs through world ranks, the stable
    /// identity across membership epochs), departed destinations' columns
    /// are dropped, and joiners start at zero.  Totals, the open window and
    /// the epoch counter all survive — a rebind is a change of coordinates,
    /// not a reset — so the mark moves through the same map as the totals.
    pub(crate) fn rebind(&mut self, new_comm: Comm, limit: usize) {
        let map: Vec<Option<usize>> =
            self.comm.group().iter().map(|&w| new_comm.rank_of_world(w)).collect();
        self.total = self.total.reindex(&map, new_comm.size(), limit);
        self.mark =
            self.mark.iter().filter_map(|e| Some(PairEntry { dst: map[e.dst]?, ..*e })).collect();
        self.mark.sort_unstable_by_key(|e| e.dst);
        self.comm = new_comm;
    }

    /// This process's (counts, sizes) rows summed over the selected kinds.
    pub(crate) fn row(&self, flags: Flags) -> (Vec<u64>, Vec<u64>) {
        self.total.row(flags)
    }

    /// Flag-summed sparse row of the session's total data (the gather wire
    /// format; see [`PairAccum::sparse_row`]).
    pub(crate) fn sparse_row(&self, flags: Flags) -> Vec<(u64, u64, u64)> {
        self.total.sparse_row(flags)
    }
}

/// The per-session world → communicator-rank map this module kept on every
/// rank before communicators carried their own index, with the membership
/// filter and the rebind mapping written against it — retained verbatim as
/// the oracle for [`SessionData::record`] / [`SessionData::rebind`]
/// (`api::tests::sessions_match_the_member_map_oracle`).  Its open window
/// is a dense snapshot of the cells at the last seal, subtracted cell by
/// cell — the oracle for [`SessionData::advance_window`]'s sorted merge.
#[cfg(test)]
pub(crate) struct MemberMapOracle {
    members: std::collections::HashMap<usize, usize>,
    /// `cells[dst][kind]` = (messages, bytes).
    cells: Vec<[(u64, u64); 3]>,
    /// `cells` as of the last seal.
    mark: Vec<[(u64, u64); 3]>,
    /// (messages, bytes) recorded in total and as of the last seal.
    recorded: (u64, u64),
    sealed: (u64, u64),
}

#[cfg(test)]
impl MemberMapOracle {
    fn member_map(comm: &Comm) -> std::collections::HashMap<usize, usize> {
        comm.group().iter().enumerate().map(|(r, &w)| (w, r)).collect()
    }

    pub(crate) fn new(comm: &Comm) -> Self {
        Self { members: Self::member_map(comm), ..Self::zeros(comm.size()) }
    }

    fn zeros(n: usize) -> Self {
        let cells = vec![[(0, 0); 3]; n];
        Self {
            members: Default::default(),
            mark: cells.clone(),
            cells,
            recorded: (0, 0),
            sealed: (0, 0),
        }
    }

    pub(crate) fn record(&mut self, ev: &PmlEvent) {
        let Some(&dst) = self.members.get(&ev.dst_world) else { return };
        if !self.members.contains_key(&ev.src_world) {
            return;
        }
        let cell = &mut self.cells[dst][Flags::kind_index(ev.kind)];
        cell.0 += 1;
        cell.1 += ev.bytes;
        self.recorded.0 += 1;
        self.recorded.1 += ev.bytes;
    }

    pub(crate) fn rebind(&mut self, old_comm: &Comm, new_comm: &Comm) {
        let members = Self::member_map(new_comm);
        let remap = |old: &[[(u64, u64); 3]]| {
            let mut cells = vec![[(0, 0); 3]; new_comm.size()];
            for (r, &w) in old_comm.group().iter().enumerate() {
                if let Some(&new_r) = members.get(&w) {
                    cells[new_r] = old[r];
                }
            }
            cells
        };
        self.cells = remap(&self.cells);
        self.mark = remap(&self.mark);
        self.members = members;
    }

    /// Zero everything, like [`SessionData::reset`].
    pub(crate) fn reset(&mut self) {
        *self =
            Self { members: std::mem::take(&mut self.members), ..Self::zeros(self.cells.len()) };
    }

    /// (messages, bytes) recorded since the last seal.
    pub(crate) fn open_window(&self) -> (u64, u64) {
        (self.recorded.0 - self.sealed.0, self.recorded.1 - self.sealed.1)
    }

    /// Seal the window: its nonzero per-destination cells, events and
    /// bytes, like [`SessionData::advance_window`].
    pub(crate) fn advance(&mut self) -> (Vec<PairEntry>, u64, u64) {
        let mut entries = Vec::new();
        for (dst, (now, then)) in self.cells.iter().zip(&self.mark).enumerate() {
            let mut cell = crate::accum::PairCell::default();
            for k in 0..3 {
                cell.counts[k] = now[k].0 - then[k].0;
                cell.sizes[k] = now[k].1 - then[k].1;
            }
            if now != then {
                entries.push(PairEntry { dst, cell });
            }
        }
        let (events, bytes) = self.open_window();
        self.mark = self.cells.clone();
        self.sealed = self.recorded;
        (entries, events, bytes)
    }

    /// (counts, sizes) summed over the selected kinds, like
    /// [`SessionData::row`].
    pub(crate) fn row(&self, flags: Flags) -> (Vec<u64>, Vec<u64>) {
        let sum = |pick: fn(&(u64, u64)) -> u64| -> Vec<u64> {
            self.cells.iter().map(|c| flags.selected_indices().map(|k| pick(&c[k])).sum()).collect()
        };
        (sum(|c| c.0), sum(|c| c.1))
    }
}

/// Fixed-capacity slot table for sessions (the paper has a maximum session
/// count: `MPI_M_SESSION_OVERFLOW`).
///
/// Stale-id safety: every live id carries its slot's generation, bumped on
/// each reuse.  Generations start at [`SessionTable::FIRST_GENERATION`] for
/// fresh and reused slots alike, and a slot whose *next* generation would
/// reach the [`SessionTable::RETIRED`] sentinel is retired — never handed
/// out again — so the counter saturates instead of wrapping and a stale
/// `Msid` from 2³²−2 reuses ago can never validate against a younger
/// session.
pub(crate) struct SessionTable {
    slots: Vec<Option<SessionData>>,
    generations: Vec<u32>,
    max_sessions: usize,
}

/// Paper-faithful cap on simultaneously live sessions.
pub const MAX_SESSIONS: usize = 256;

impl SessionTable {
    /// Generation of every slot's first session (fresh and reused slots are
    /// indistinguishable to id holders).
    pub(crate) const FIRST_GENERATION: u32 = 1;

    /// Sentinel generation of a retired slot: saturation point of the
    /// counter, never encoded into a live `Msid`.
    pub(crate) const RETIRED: u32 = u32::MAX;

    pub(crate) fn new(max_sessions: usize) -> Self {
        assert!(max_sessions <= Msid::MAX_SLOT, "slot indices must fit the id's 32-bit field");
        Self { slots: Vec::new(), generations: Vec::new(), max_sessions }
    }

    pub(crate) fn insert(&mut self, data: SessionData) -> Result<Msid> {
        let reusable = self
            .slots
            .iter()
            .zip(&self.generations)
            .position(|(s, &g)| s.is_none() && g + 1 < Self::RETIRED);
        if let Some(slot) = reusable {
            self.slots[slot] = Some(data);
            self.generations[slot] += 1;
            return Ok(Msid::encode(slot, self.generations[slot]));
        }
        if self.slots.len() >= self.max_sessions {
            return Err(MonError::SessionOverflow);
        }
        self.slots.push(Some(data));
        self.generations.push(Self::FIRST_GENERATION);
        Ok(Msid::encode(self.slots.len() - 1, Self::FIRST_GENERATION))
    }

    pub(crate) fn get(&self, msid: Msid) -> Result<&SessionData> {
        self.check(msid)?;
        self.slots[msid.slot()].as_ref().ok_or(MonError::InvalidMsid)
    }

    pub(crate) fn get_mut(&mut self, msid: Msid) -> Result<&mut SessionData> {
        self.check(msid)?;
        self.slots[msid.slot()].as_mut().ok_or(MonError::InvalidMsid)
    }

    pub(crate) fn remove(&mut self, msid: Msid) -> Result<SessionData> {
        self.check(msid)?;
        self.slots[msid.slot()].take().ok_or(MonError::InvalidMsid)
    }

    fn check(&self, msid: Msid) -> Result<()> {
        // ALL is rejected *before* any slot decoding: its low word would
        // alias slot 0xffff_ffff (Msid::slot asserts the same invariant).
        if msid == Msid::ALL {
            return Err(MonError::InvalidMsid);
        }
        let slot = msid.slot();
        if slot >= self.slots.len()
            || self.slots[slot].is_none()
            || self.generations[slot] != msid.generation()
        {
            return Err(MonError::InvalidMsid);
        }
        Ok(())
    }

    /// Msids of every live session.
    pub(crate) fn live_msids(&self) -> Vec<Msid> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| Msid::encode(i, self.generations[i])))
            .collect()
    }

    /// True when any session is active.
    pub(crate) fn any_active(&self) -> bool {
        self.slots.iter().flatten().any(|s| s.state == SessionState::Active)
    }

    /// Record an event into every live session (each filters itself).
    pub(crate) fn record(&mut self, ev: &PmlEvent) {
        for s in self.slots.iter_mut().flatten() {
            s.record(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mim_mpisim::MsgKind;
    use mim_util::prop::Gen;
    use mim_util::props;
    use std::sync::Arc;

    fn comm3() -> Comm {
        // World ranks 0, 2, 4; "we" are world rank 0 (comm rank 0).
        Comm::from_raw(11, Arc::new(vec![0, 2, 4]), 0)
    }

    fn ev(dst_world: usize, bytes: u64, kind: MsgKind) -> PmlEvent {
        PmlEvent {
            src_world: 0,
            dst_world,
            src_core: 0,
            dst_core: dst_world,
            bytes,
            kind,
            vtime_ns: 0.0,
        }
    }

    #[test]
    fn msid_encoding_roundtrip() {
        let m = Msid::encode(17, 3);
        assert_eq!(m.slot(), 17);
        assert_eq!(m.generation(), 3);
        assert_ne!(m, Msid::ALL);
    }

    #[test]
    #[should_panic(expected = "exceeds the 32-bit id space")]
    fn msid_encode_rejects_oversized_slot() {
        // Regression: `slot as u64` used to spill into the generation bits,
        // silently corrupting both halves of the id.
        let _ = Msid::encode(1usize << 32, 1);
    }

    #[test]
    #[should_panic(expected = "exceeds the 32-bit id space")]
    fn msid_encode_rejects_all_aliasing_slot() {
        // Regression: slot 0xffff_ffff would collide with ALL's low word.
        let _ = Msid::encode(u32::MAX as usize, 1);
    }

    #[test]
    #[should_panic(expected = "ALL addresses every session")]
    fn msid_slot_of_all_is_rejected() {
        // Regression: ALL.slot() used to silently alias slot 0xffff_ffff.
        let _ = Msid::ALL.slot();
    }

    #[test]
    fn records_members_only() {
        let mut s = SessionData::new(comm3());
        s.record(&ev(2, 100, MsgKind::P2pUser)); // member, comm rank 1
        s.record(&ev(1, 999, MsgKind::P2pUser)); // not a member
        let (counts, sizes) = s.row(Flags::ALL_COMM);
        assert_eq!(counts, vec![0, 1, 0]);
        assert_eq!(sizes, vec![0, 100, 0]);
    }

    #[test]
    fn kind_separation_and_flag_sums() {
        let mut s = SessionData::new(comm3());
        s.record(&ev(2, 10, MsgKind::P2pUser));
        s.record(&ev(2, 20, MsgKind::Collective));
        s.record(&ev(4, 40, MsgKind::OneSided));
        assert_eq!(s.row(Flags::P2P_ONLY).1, vec![0, 10, 0]);
        assert_eq!(s.row(Flags::COLL_ONLY).1, vec![0, 20, 0]);
        assert_eq!(s.row(Flags::OSC_ONLY).1, vec![0, 0, 40]);
        assert_eq!(s.row(Flags::P2P_ONLY | Flags::COLL_ONLY).1, vec![0, 30, 0]);
        assert_eq!(s.row(Flags::ALL_COMM).0, vec![0, 2, 1]);
        assert_eq!(s.sparse_row(Flags::ALL_COMM), vec![(1, 2, 30), (2, 1, 40)]);
    }

    #[test]
    fn suspended_records_nothing_and_reset_zeroes() {
        let mut s = SessionData::new(comm3());
        s.record(&ev(2, 10, MsgKind::P2pUser));
        s.state = SessionState::Suspended;
        s.record(&ev(2, 10, MsgKind::P2pUser));
        assert_eq!(s.row(Flags::ALL_COMM).0, vec![0, 1, 0]);
        s.reset();
        assert_eq!(s.row(Flags::ALL_COMM).1, vec![0, 0, 0]);
    }

    #[test]
    fn muted_session_drops_events() {
        let mut s = SessionData::new(comm3());
        s.muted = true;
        s.record(&ev(2, 10, MsgKind::P2pUser));
        s.muted = false;
        s.record(&ev(2, 5, MsgKind::P2pUser));
        assert_eq!(s.row(Flags::ALL_COMM).1, vec![0, 5, 0]);
        assert_eq!(s.events, 1);
    }

    #[test]
    fn windows_seal_deltas_while_totals_accumulate() {
        let mut s = SessionData::new(comm3());
        s.record(&ev(2, 10, MsgKind::P2pUser));
        let w1 = s.advance_window();
        assert_eq!(w1.epoch, 1);
        assert_eq!(w1.events, 1);
        assert_eq!(w1.bytes, 10);
        assert_eq!(w1.entries.len(), 1);
        assert_eq!((w1.entries[0].dst, w1.entries[0].cell.sizes[0]), (1, 10));

        s.record(&ev(4, 30, MsgKind::Collective));
        let w2 = s.advance_window();
        assert_eq!(w2.epoch, 2);
        assert_eq!(w2.bytes, 30);
        assert_eq!(w2.entries.len(), 1, "window holds only its own delta");
        assert_eq!(w2.entries[0].dst, 2);

        // An empty window still advances the epoch.
        let w3 = s.advance_window();
        assert_eq!((w3.epoch, w3.events, w3.bytes), (3, 0, 0));
        assert!(w3.entries.is_empty());

        // Totals are unaffected by sealing.
        assert_eq!(s.row(Flags::ALL_COMM).1, vec![0, 10, 30]);
        assert_eq!((s.events, s.bytes), (2, 40));

        // Reset zeroes the epoch counter too.
        s.state = SessionState::Suspended;
        s.reset();
        assert_eq!(s.epoch, 0);
    }

    #[test]
    fn rebind_remaps_by_world_rank_and_keeps_windows() {
        let mut s = SessionData::new(comm3()); // world ranks [0, 2, 4]
        s.record(&ev(2, 10, MsgKind::P2pUser)); // comm rank 1
        s.record(&ev(4, 30, MsgKind::Collective)); // comm rank 2
        let _ = s.advance_window();
        s.record(&ev(4, 5, MsgKind::P2pUser)); // lands in window 2

        // World 2 departs, world 6 joins: [0, 4, 6].
        s.rebind(Comm::from_raw(12, Arc::new(vec![0, 4, 6]), 0), PairAccum::DEFAULT_DENSE_LIMIT);
        assert_eq!(s.row(Flags::ALL_COMM).1, vec![0, 35, 0], "world 4 now comm rank 1");
        assert_eq!(s.row(Flags::ALL_COMM).0, vec![0, 2, 0], "world 2's column dropped");
        assert_eq!(s.epoch, 1, "epoch counter survives the rebind");
        let w2 = s.advance_window();
        assert_eq!(w2.epoch, 2);
        assert_eq!(w2.entries.len(), 1, "open window remapped, not reset");
        assert_eq!((w2.entries[0].dst, w2.entries[0].cell.sizes[0]), (1, 5));
        // Joiner traffic records under the new coordinates.
        s.record(&ev(6, 9, MsgKind::P2pUser));
        assert_eq!(s.row(Flags::P2P_ONLY).1, vec![0, 5, 9]);
        // Departed world 2 is no longer a member: its traffic is ignored.
        s.record(&ev(2, 99, MsgKind::P2pUser));
        assert_eq!(s.row(Flags::P2P_ONLY).1, vec![0, 5, 9]);
    }

    #[test]
    fn table_overflow_and_stale_ids() {
        let mut t = SessionTable::new(2);
        let a = t.insert(SessionData::new(comm3())).unwrap();
        let _b = t.insert(SessionData::new(comm3())).unwrap();
        assert_eq!(t.insert(SessionData::new(comm3())).err(), Some(MonError::SessionOverflow));
        t.remove(a).unwrap();
        let c = t.insert(SessionData::new(comm3())).unwrap();
        // Slot is reused but the old id is stale.
        assert_eq!(c.slot(), a.slot());
        assert!(t.get(a).is_err());
        assert!(t.get(c).is_ok());
        assert_eq!(t.get(Msid::ALL).err(), Some(MonError::InvalidMsid));
    }

    #[test]
    fn generations_unified_and_wrap_impossible() {
        let mut t = SessionTable::new(4);
        // Fresh slots and reused slots start ids at the same generation.
        let a = t.insert(SessionData::new(comm3())).unwrap();
        assert_eq!(a.generation(), SessionTable::FIRST_GENERATION);
        t.remove(a).unwrap();
        let b = t.insert(SessionData::new(comm3())).unwrap();
        assert_eq!((b.slot(), b.generation()), (a.slot(), SessionTable::FIRST_GENERATION + 1));
        assert!(t.get(a).is_err(), "stale id must not validate after reuse");
        t.remove(b).unwrap();

        // Saturate slot 0's generation counter to one step below the
        // retirement sentinel: the slot must be skipped, not wrapped —
        // otherwise a stale Msid from 2^32 generations ago would validate
        // against the new session.
        t.generations[0] = SessionTable::RETIRED - 1;
        let c = t.insert(SessionData::new(comm3())).unwrap();
        assert_ne!(c.slot(), a.slot(), "exhausted slot must be retired, not reused");
        assert_eq!(c.generation(), SessionTable::FIRST_GENERATION);
        let stale = Msid::encode(a.slot(), SessionTable::FIRST_GENERATION);
        assert!(t.get(stale).is_err());
        // A retired slot permanently spends capacity: with max_sessions = 4
        // and one slot retired, only three more sessions fit.
        let _d = t.insert(SessionData::new(comm3())).unwrap();
        let _e = t.insert(SessionData::new(comm3())).unwrap();
        assert_eq!(t.insert(SessionData::new(comm3())).err(), Some(MonError::SessionOverflow));
    }

    #[test]
    fn live_msids_and_any_active() {
        let mut t = SessionTable::new(8);
        let a = t.insert(SessionData::new(comm3())).unwrap();
        let b = t.insert(SessionData::new(comm3())).unwrap();
        assert_eq!(t.live_msids(), vec![a, b]);
        assert!(t.any_active());
        t.get_mut(a).unwrap().state = SessionState::Suspended;
        t.get_mut(b).unwrap().state = SessionState::Suspended;
        assert!(!t.any_active());
    }

    /// One step of a random session history.
    #[derive(Clone)]
    enum Op {
        Record {
            dst_world: usize,
            bytes: u64,
            kind: MsgKind,
        },
        Seal,
        Reset,
        /// Rebind to this world-rank group (it contains world rank 0).
        Rebind(Vec<usize>),
    }

    /// A random group of the ten-rank world that contains world rank 0 (the
    /// recording process), in random order.
    fn random_group(g: &mut Gen) -> Vec<usize> {
        g.permutation(10).into_iter().filter(|&w| w == 0 || g.any_bool()).collect()
    }

    fn comm_of(id: u64, group: &[usize]) -> Comm {
        let me = group.iter().position(|&w| w == 0).expect("groups contain world rank 0");
        Comm::from_raw(id, Arc::new(group.to_vec()), me)
    }

    props! {
        /// Random record / seal / reset / rebind histories, replayed at
        /// both dense limits: every sealed window, the open-window counters
        /// and the totals equal the oracle's after every step.
        fn windows_match_the_member_map_oracle(g) {
            let start = random_group(g);
            let ops: Vec<Op> = g.vec(1..80, |g| match g.index(10) {
                0 => Op::Reset,
                1 | 2 => Op::Seal,
                3 => Op::Rebind(random_group(g)),
                _ => Op::Record {
                    dst_world: g.index(10),
                    bytes: g.gen_range(0u64..1000),
                    kind: *g.choose(&[MsgKind::P2pUser, MsgKind::Collective, MsgKind::OneSided]),
                },
            });
            for limit in [0, usize::MAX] {
                let mut comm = comm_of(1, &start);
                let mut s = SessionData::with_dense_limit(comm.clone(), limit);
                let mut oracle = MemberMapOracle::new(&comm);
                for (step, op) in ops.iter().enumerate() {
                    match op {
                        Op::Record { dst_world, bytes, kind } => {
                            let e = ev(*dst_world, *bytes, *kind);
                            s.record(&e);
                            oracle.record(&e);
                        }
                        Op::Seal => {
                            let d = s.advance_window();
                            assert_eq!((d.entries, d.events, d.bytes), oracle.advance(), "step {step}");
                        }
                        Op::Reset => {
                            s.reset();
                            oracle.reset();
                        }
                        Op::Rebind(group) => {
                            let new = comm_of(step as u64 + 2, group);
                            s.rebind(new.clone(), limit);
                            oracle.rebind(&comm, &new);
                            comm = new;
                        }
                    }
                    let open = (s.events - s.sealed_events, s.bytes - s.sealed_bytes);
                    assert_eq!(open, oracle.open_window(), "step {step}");
                    for flags in [Flags::P2P_ONLY, Flags::COLL_ONLY, Flags::ALL_COMM] {
                        assert_eq!(s.row(flags), oracle.row(flags), "step {step}");
                    }
                }
            }
        }
    }
}
