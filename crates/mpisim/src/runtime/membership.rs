//! Elastic membership: communicator epochs, the purely local shrink/grow
//! id derivation, the admission wire codec, incarnations and the one
//! admission receive (a latent slot's per-slot driver, beside the engines
//! in `universe`, calls it before the slot's body runs).  None of it is on
//! the communication path of a static universe: the wire reads two numbers
//! from here (this body's incarnation, a peer's) and nothing else.

use std::cell::{Cell, OnceCell, RefCell};
use std::panic::resume_unwind;
use std::sync::atomic::Ordering;

use mim_trace::TraceData;
use mim_util::hash::IdMap;

use super::fault_protocol::fault_pat;
use super::Rank;
use crate::comm::{Comm, Groups};
use crate::datatype::Scalar;
use crate::envelope::Payload;
use crate::fault;
use crate::mailbox;

/// The membership-only state of a [`Rank`].
pub(super) struct Membership {
    /// This body's incarnation: 0 for the original, bumped by each
    /// plan-covered rebirth (the per-slot driver's restart loop).
    incarnation: u32,
    /// Latest incarnation observed per peer (via join notices consumed by
    /// `await_rejoin`); stamped onto outgoing envelopes as `dst_inc`.
    peer_inc: RefCell<IdMap<usize, u32>>,
    /// Highest communicator epoch this rank has derived or been admitted
    /// into; `send_checked` rejects sends on communicators older than this.
    epoch: Cell<u64>,
    /// The communicator a latent slot's first incarnation was admitted
    /// into (empty for initial-world ranks and reborn bodies).
    join_comm: OnceCell<Comm>,
}

impl Membership {
    pub(super) fn new(incarnation: u32) -> Self {
        Self {
            incarnation,
            peer_inc: RefCell::new(IdMap::default()),
            epoch: Cell::new(0),
            join_comm: OnceCell::new(),
        }
    }
}

/// The one id derivation of membership churn: an FNV-1a fold of `words`
/// seeded by `salt`, with the top bit set to keep derived ids out of the
/// allocator's range.  Purely local and deterministic: every member folding
/// the same inputs derives the same communicator id, so no collective round
/// over a half-dead (or not yet grown) communicator is needed.
fn derived_id(salt: u64, words: impl Iterator<Item = u64>) -> u64 {
    let h = words
        .fold(0xcbf2_9ce4_8422_2325u64 ^ salt, |h, w| (h ^ w).wrapping_mul(0x0000_0100_0000_01B3));
    h | (1 << 63)
}

/// Serialize a communicator for the wire (admission notices): little-endian
/// `[id, epoch, len, members..., incarnations...]`, all `u64`.  The
/// incarnation vector is what lets a joiner address peers that have been
/// reborn: without it, its envelopes toward a restarted rank would carry
/// `dst_inc 0` and be dropped as stale by the newer incarnation's mailbox.
fn encode_comm(comm_id: u64, epoch: u64, group: &[usize], incs: &[u32]) -> Vec<u8> {
    assert_eq!(group.len(), incs.len(), "one incarnation per member");
    let words: Vec<u64> = [comm_id, epoch, group.len() as u64]
        .into_iter()
        .chain(group.iter().map(|&w| w as u64))
        .chain(incs.iter().map(|&inc| u64::from(inc)))
        .collect();
    u64::to_bytes(&words)
}

/// Inverse of [`encode_comm`], positioned at `my_world`'s communicator rank;
/// the group comes from the universe's registry, under the carried id.
fn decode_admission(groups: &Groups, payload: &Payload, my_world: usize) -> (Comm, Vec<u32>) {
    let Payload::Bytes(b) = payload else {
        panic!("admission notice must carry a serialized communicator");
    };
    assert!(b.len() >= 24 && b.len() % 8 == 0, "malformed admission payload");
    let words = u64::from_bytes(b);
    let (id, epoch, len) = (words[0], words[1], words[2] as usize);
    assert_eq!(b.len(), 8 * (3 + 2 * len), "malformed admission payload");
    let members = &words[3..3 + len];
    let group = groups.get_or_build(id, || members.iter().map(|&w| w as usize).collect());
    let incs: Vec<u32> = words[3 + len..].iter().map(|&w| w as u32).collect();
    let Some(my_rank) = group.rank_of_world(my_world) else {
        panic!("admission notice for rank {my_world} does not include it (group {members:?})");
    };
    (Comm::new_at_epoch(id, group, my_rank, epoch), incs)
}

/// Parse the incarnation carried by a join notice.
fn decode_incarnation(payload: &Payload) -> u32 {
    let Payload::Bytes(b) = payload else {
        panic!("join notice must carry an incarnation");
    };
    assert_eq!(b.len(), 4, "malformed join notice");
    u32::from_bytes(b)[0]
}

/// Error of [`Rank::send_checked`]: the communicator's membership was
/// superseded (the sender has derived or been admitted into a newer epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaleEpoch {
    /// Epoch of the communicator the send was attempted on.
    pub comm_epoch: u64,
    /// The sender's current membership epoch.
    pub current_epoch: u64,
}

impl std::fmt::Display for StaleEpoch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stale membership epoch: communicator at epoch {}, rank at epoch {}",
            self.comm_epoch, self.current_epoch
        )
    }
}

impl Rank {
    /// This body's incarnation: 0 for the original; a rolling-restart plan
    /// bumps it on each rebirth (`Universe::launch_faulty`).
    pub fn incarnation(&self) -> u32 {
        self.membership.incarnation
    }

    /// The communicator this rank was admitted into, when it joined after
    /// launch (`None` for initial-world ranks, and for a reborn body, which
    /// rejoins through [`Rank::recv_admission`]).
    pub fn join_comm(&self) -> Option<Comm> {
        self.membership.join_comm.get().cloned()
    }

    /// Envelopes this rank's mailbox dropped because they were addressed to
    /// a dead incarnation of this slot, or sent by a superseded incarnation
    /// of a peer.
    pub fn stale_dropped(&self) -> u64 {
        self.mailbox.borrow().stale_dropped()
    }

    /// The newest incarnation this rank knows for a peer (0 until a join or
    /// admission notice reports otherwise).
    pub(super) fn peer_incarnation_of(&self, world: usize) -> u32 {
        self.membership.peer_inc.borrow().get(&world).copied().unwrap_or(0)
    }

    // ----- elastic membership ------------------------------------------------

    /// A reborn body's prologue: broadcast a join notice (carrying the new
    /// incarnation) to every slot — the dual of `crash_now`'s death
    /// notices.  Survivors consume it with [`Rank::await_rejoin`].
    pub(crate) fn announce_rejoin(&self) {
        self.record_trace(
            self.clock.now_ns(),
            TraceData::RankJoin { incarnation: self.incarnation() },
        );
        for dst in 0..self.capacity() {
            if dst == self.world_rank {
                continue;
            }
            self.fault_send(
                dst,
                fault::FAULT_TAG_JOIN,
                Payload::Bytes(u32::to_bytes(&[self.incarnation()])),
            );
        }
    }

    /// Wait for the join notice of a peer expected to restart: returns its
    /// new incarnation, forgets its death, and from now on stamps outgoing
    /// envelopes to it with the new incarnation — the dual of
    /// [`Rank::recv_or_failure`]'s death path.
    ///
    /// # Panics
    /// Panics (deadlock detector) when no join notice arrives within the
    /// configured deadline.
    pub fn await_rejoin(&self, world: usize) -> u32 {
        let pat = fault_pat(mailbox::SrcSel::World(world), fault::FAULT_TAG_JOIN);
        let env = self.mailbox.borrow_mut().recv_match(&pat);
        self.clock.advance_to(env.arrival_ns);
        let inc = decode_incarnation(&env.payload);
        self.membership.peer_inc.borrow_mut().insert(world, inc);
        self.fault.failed_peers.borrow_mut().remove(&world);
        inc
    }

    /// Wait for an admission notice and return the grown communicator it
    /// carries — the joiner half of [`Rank::admit`].  A reborn body of any
    /// slot calls it to learn the communicator its survivors grew for it; a
    /// latent slot's first incarnation is admitted through it by the
    /// per-slot driver before the rank body runs (the result is
    /// [`Rank::join_comm`]).  Messages that arrive before the notice wait in
    /// this rank's unexpected queue.  The clock advances to the notice's
    /// arrival, and the members' incarnations it carries are adopted.
    ///
    /// # Panics
    /// Unwinds as retired — the recoverable launch reports
    /// [`fault::RankFailure::Retired`] — when the sponsor retires the slot
    /// instead (only a never-admitted latent slot is retired), and panics
    /// (deadlock detector) when neither notice arrives within the deadline.
    pub fn recv_admission(&self) -> Comm {
        let admit = fault_pat(mailbox::SrcSel::Any, fault::FAULT_TAG_ADMIT);
        let retire = fault_pat(mailbox::SrcSel::Any, fault::FAULT_TAG_RETIRE);
        let (env, which) = self.mailbox.borrow_mut().recv_first(&[&admit, &retire]);
        if which == 1 {
            resume_unwind(Box::new(fault::RankRetired));
        }
        self.clock.advance_to(env.arrival_ns);
        let (comm, incs) = decode_admission(&self.shared.groups, &env.payload, self.world_rank);
        self.adopt_incarnations(comm.group(), &incs);
        self.note_epoch(comm.epoch());
        comm
    }

    /// A latent slot's prologue, run by the per-slot driver before its
    /// first incarnation's body: the admission receive, then the join
    /// event at the notice's arrival, and the communicator kept for
    /// [`Rank::join_comm`].
    pub(super) fn join_latent(&self) {
        let comm = self.recv_admission();
        self.record_trace(self.clock.now_ns(), TraceData::RankJoin { incarnation: 0 });
        let _ = self.membership.join_comm.set(comm);
    }

    /// Adopt the peer-incarnation vector carried by an admission notice, so
    /// envelopes toward previously-reborn members are stamped correctly.
    /// Never lowers a known incarnation (a join notice may already have
    /// reported a newer one).
    fn adopt_incarnations(&self, group: &[usize], incs: &[u32]) {
        let mut peers = self.membership.peer_inc.borrow_mut();
        for (&w, &inc) in group.iter().zip(incs) {
            if w != self.world_rank && inc > peers.get(&w).copied().unwrap_or(0) {
                peers.insert(w, inc);
            }
        }
    }

    /// Send the admission notice for a grown communicator to a joiner
    /// (fault-protocol traffic: no monitoring, no injection).
    fn post_admission(&self, id: u64, epoch: u64, group: &[usize], joiner: usize) {
        self.shared.admitted[joiner].store(true, Ordering::SeqCst);
        let incs: Vec<u32> = group
            .iter()
            .map(|&w| {
                if w == self.world_rank {
                    self.incarnation()
                } else {
                    self.peer_incarnation_of(w)
                }
            })
            .collect();
        self.fault_send(
            joiner,
            fault::FAULT_TAG_ADMIT,
            Payload::Bytes(encode_comm(id, epoch, group, &incs)),
        );
    }

    /// Retire every latent slot never admitted (the sponsor's epilogue, run
    /// by the per-slot driver when world rank 0's slot ends for good: an
    /// unadmitted slot would otherwise wait out the deadline).  Idempotent per
    /// slot.
    pub(crate) fn retire_latents(&self) {
        for w in self.shared.cfg.initial()..self.capacity() {
            if !self.shared.admitted[w].swap(true, Ordering::SeqCst) {
                self.fault_send(w, fault::FAULT_TAG_RETIRE, Payload::Synthetic(0));
            }
        }
    }

    /// Raise this rank's membership-epoch watermark.
    fn note_epoch(&self, epoch: u64) {
        if epoch > self.membership.epoch.get() {
            self.membership.epoch.set(epoch);
        }
    }

    /// Epoch-checked send: like [`Rank::send`], but deterministically
    /// rejected when `comm`'s membership has been superseded by a
    /// `comm_shrink` / `comm_grow` this rank performed or observed.  The
    /// check is sender-side and purely local, so a stale send fails the
    /// same way on every executor and every run — rather than being
    /// misdelivered into a communicator whose membership has moved on.
    pub fn send_checked<T: Scalar>(
        &self,
        comm: &Comm,
        dst: usize,
        tag: u32,
        data: &[T],
    ) -> Result<(), StaleEpoch> {
        if comm.epoch() < self.membership.epoch.get() {
            return Err(StaleEpoch {
                comm_epoch: comm.epoch(),
                current_epoch: self.membership.epoch.get(),
            });
        }
        self.send(comm, dst, tag, data);
        Ok(())
    }

    /// ULFM-style `MPI_Comm_shrink`, purely local: derive the surviving
    /// sub-communicator from a liveness bitmap (indexed by `comm` rank).
    /// Every survivor folds the same `(parent id, bitmap)` into the same
    /// derived id, so no collective round over a half-dead communicator is
    /// needed; the top bit keeps derived ids out of the allocator's range.
    pub fn comm_shrink(&self, comm: &Comm, alive: &[bool]) -> Comm {
        assert_eq!(alive.len(), comm.size(), "liveness bitmap must cover the communicator");
        assert!(alive[comm.rank()], "a dead rank cannot shrink a communicator");
        let id = derived_id(
            comm.id(),
            alive.iter().enumerate().map(|(i, &a)| ((i as u64) << 1) | u64::from(a)),
        );
        let group: Vec<usize> =
            (0..comm.size()).filter(|&r| alive[r]).map(|r| comm.world_rank_of(r)).collect();
        let my_rank = (0..comm.rank()).filter(|&r| alive[r]).count();
        self.derive_comm(id, group, my_rank, comm.epoch() + 1)
    }

    /// The dual of [`Rank::comm_shrink`]: grow a communicator by admitted
    /// joiners, purely locally.  Every member folds the same
    /// `(parent id, parent epoch, joiners)` into the same derived id, so no
    /// collective round is needed; joiners are appended after the parent's
    /// order, sorted by world rank.  Bumps this rank's membership epoch:
    /// [`Rank::send_checked`] traffic against the parent is rejected from
    /// here on.
    pub fn comm_grow(&self, comm: &Comm, joiners: &[usize]) -> Comm {
        assert!(!joiners.is_empty(), "comm_grow needs at least one joiner");
        let mut js = joiners.to_vec();
        js.sort_unstable();
        js.dedup();
        for &j in &js {
            assert!(j < self.capacity(), "comm_grow: joiner {j} is outside the universe");
            assert!(!comm.contains_world(j), "comm_grow: joiner {j} is already a member");
        }
        // `comm_shrink`'s id fold over the joiner list, salted with the
        // parent's epoch plus a marker so a grow and a shrink of the same
        // parent can never collide.
        let salt = comm.id() ^ 0x6772_6f77 // "grow"
            ^ comm.epoch().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let id =
            derived_id(salt, js.iter().enumerate().map(|(i, &j)| ((i as u64) << 32) | j as u64));
        let mut group = comm.group().to_vec();
        group.extend_from_slice(&js);
        self.derive_comm(id, group, comm.rank(), comm.epoch() + 1)
    }

    /// The shared tail of [`Rank::comm_shrink`] and [`Rank::comm_grow`]:
    /// raise the epoch watermark, take the derived communicator's group from
    /// the registry and record the bump on this rank's track.
    fn derive_comm(&self, id: u64, group: Vec<usize>, my_rank: usize, epoch: u64) -> Comm {
        self.note_epoch(epoch);
        let group = self.shared.groups.get_or_build(id, || group);
        let derived = Comm::new_at_epoch(id, group, my_rank, epoch);
        self.record_trace(
            self.clock.now_ns(),
            TraceData::EpochBump { comm: derived.id(), epoch, size: derived.size() },
        );
        derived
    }

    /// Grow `comm` by one joiner *and* send it the admission notice — the
    /// sponsor side of the join protocol.  The other members call
    /// [`Rank::comm_grow`] with the same arguments (deriving the identical
    /// communicator); the joiner receives it through
    /// [`Rank::recv_admission`], which the per-slot driver calls for a
    /// latent slot (its result is then [`Rank::join_comm`]).  This is
    /// the one sender of admission notices: a fault plan admits no one.
    ///
    /// Admission of *latent* slots should be driven by the sponsor (world
    /// rank 0), so it cannot race the sponsor's retirement sweep.
    pub fn admit(&self, comm: &Comm, joiner: usize) -> Comm {
        let grown = self.comm_grow(comm, &[joiner]);
        self.post_admission(grown.id(), grown.epoch(), grown.group(), joiner);
        grown
    }
}

#[cfg(test)]
mod tests {
    use mim_topology::{Machine, Placement};

    use super::super::tests::small_universe;
    use super::super::{Universe, UniverseConfig};
    use super::*;

    #[test]
    fn shrunk_comm_ids_are_deterministic_and_distinct() {
        let u = small_universe(4);
        u.launch(|rank| {
            if rank.world_rank() == 2 {
                return; // "dead" in bitmap a; shrink asserts own liveness
            }
            let world = rank.comm_world();
            let a = rank.comm_shrink(&world, &[true, true, false, true]);
            let b = rank.comm_shrink(&world, &[true, true, false, true]);
            assert_eq!(a.id(), b.id(), "same bitmap must derive the same id");
            if rank.world_rank() != 3 {
                let c = rank.comm_shrink(&world, &[true, true, true, false]);
                assert_ne!(a.id(), c.id(), "different bitmaps must not collide");
            }
            let expect = match rank.world_rank() {
                0 => 0,
                1 => 1,
                _ => 2,
            };
            assert_eq!(a.rank(), expect);
        });
    }

    /// A fixed admission notice, byte for byte as the parent of the codec's
    /// move onto `Scalar` wrote it: little-endian `u64` words
    /// `[id, epoch, len, members.., incarnations..]`.
    #[rustfmt::skip]
    const GOLDEN_NOTICE: [u8; 104] = [
        0xef, 0xbe, 0xad, 0xde, 0, 0, 0, 0x80, // id 0x8000_0000_dead_beef
        3, 0, 0, 0, 0, 0, 0, 0,                // epoch
        5, 0, 0, 0, 0, 0, 0, 0,                // len
        0, 0, 0, 0, 0, 0, 0, 0,                // members 0, 1, 2, 4, 8
        1, 0, 0, 0, 0, 0, 0, 0,
        2, 0, 0, 0, 0, 0, 0, 0,
        4, 0, 0, 0, 0, 0, 0, 0,
        8, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0,                // incarnations 0, 2, 0, 1, 0
        2, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0,
        1, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0,
    ];

    #[test]
    fn admission_notice_golden_bytes() {
        let bytes = encode_comm(0x8000_0000_dead_beef, 3, &[0, 1, 2, 4, 8], &[0, 2, 0, 1, 0]);
        assert_eq!(bytes, GOLDEN_NOTICE);
        let (comm, incs) =
            decode_admission(&Groups::default(), &Payload::Bytes(GOLDEN_NOTICE.to_vec()), 4);
        assert_eq!((comm.id(), comm.epoch(), comm.rank()), (0x8000_0000_dead_beef, 3, 3));
        assert_eq!(comm.group(), [0, 1, 2, 4, 8]);
        assert_eq!(incs, [0, 2, 0, 1, 0]);
    }

    /// Derived ids captured from the parent of the `derived_id` fold: they
    /// appear in `epoch_bump` trace events and in `elastic_stencil`'s
    /// stdout, so the fold may not move them.
    #[test]
    fn derived_comm_golden_ids() {
        small_universe(6).launch(|rank| {
            if rank.world_rank() != 0 {
                return;
            }
            let world = rank.comm_world();
            let shrunk = rank.comm_shrink(&world, &[true, true, false, true, true, false]);
            assert_eq!(shrunk.id(), 0xaa38_a925_5fc4_fd37);
            assert_eq!((shrunk.epoch(), shrunk.group()), (1, &[0, 1, 3, 4][..]));
            let grown = rank.comm_grow(&shrunk, &[5, 2]);
            assert_eq!(grown.id(), 0xe183_4776_89be_f829);
            assert_eq!((grown.epoch(), grown.group()), (2, &[0, 1, 3, 4, 2, 5][..]));
        });
    }

    #[test]
    #[should_panic(expected = "malformed admission payload")]
    fn admission_rejects_ragged_length() {
        decode_admission(&Groups::default(), &Payload::Bytes(GOLDEN_NOTICE[..101].to_vec()), 4);
    }

    #[test]
    #[should_panic(expected = "malformed admission payload")]
    fn admission_rejects_length_disagreeing_with_header() {
        decode_admission(&Groups::default(), &Payload::Bytes(GOLDEN_NOTICE[..96].to_vec()), 4);
    }

    #[test]
    #[should_panic(expected = "does not include it")]
    fn admission_rejects_absent_joiner() {
        decode_admission(&Groups::default(), &Payload::Bytes(GOLDEN_NOTICE.to_vec()), 3);
    }

    mim_util::props! {
        /// `decode_admission ∘ encode_comm` is the identity on (id, epoch,
        /// group, incarnations) and positions every member at its own rank.
        fn admission_codec_round_trips(g) {
            let universe = g.gen_range(1usize..60);
            let mut group = g.permutation(universe);
            group.truncate(g.gen_range(1usize..universe + 1));
            let incs: Vec<u32> = group.iter().map(|_| g.any_u32() >> g.gen_range(0u32..32)).collect();
            let (id, epoch) = (g.any_u64(), g.any_u64());
            let notice = Payload::Bytes(encode_comm(id, epoch, &group, &incs));
            let groups = Groups::default();
            for (r, &w) in group.iter().enumerate() {
                let (comm, got) = decode_admission(&groups, &notice, w);
                assert_eq!((comm.id(), comm.epoch(), comm.rank()), (id, epoch, r));
                assert_eq!(comm.group(), group);
                assert_eq!(got, incs);
            }
        }

        /// Derived ids stay out of the allocator's range (top bit set), and
        /// a grow and a shrink of the same parent never collide — on the
        /// world and on an already-churned parent alike.
        fn grow_and_shrink_ids_never_collide(g, cases = 24) {
            let n = g.gen_range(2usize..40);
            let spare = g.gen_range(1usize..8);
            let mut alive: Vec<bool> = (0..n).map(|_| g.any_bool()).collect();
            alive[0] = true;
            let mut joiners: Vec<usize> = (n..n + spare).filter(|_| g.any_bool()).collect();
            joiners.push(n);
            let cfg = UniverseConfig::new(Machine::cluster(6, 2, 4), Placement::packed(n + spare));
            let results = Universe::new(cfg.with_latent_ranks(spare)).launch_faulty(move |rank| {
                if rank.world_rank() != 0 {
                    return;
                }
                let world = rank.comm_world();
                let shrunk = rank.comm_shrink(&world, &alive);
                let grown = rank.comm_grow(&world, &joiners);
                let survivors = vec![true; shrunk.size()];
                let ids = [
                    shrunk.id(),
                    grown.id(),
                    rank.comm_shrink(&shrunk, &survivors).id(),
                    rank.comm_grow(&shrunk, &joiners).id(),
                ];
                for (i, a) in ids.iter().enumerate() {
                    assert_eq!(a >> 63, 1, "derived id {a:#x} is in the allocator's range");
                    assert!(!ids[..i].contains(a), "derived ids collide: {ids:x?}");
                }
            });
            for (w, r) in results.into_iter().enumerate() {
                let want = if w < n { Ok(()) } else { Err(fault::RankFailure::Retired) };
                assert_eq!(r, want, "slot {w}");
            }
        }
    }
}
