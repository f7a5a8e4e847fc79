//! One-sided communication (RMA): windows, put / get / accumulate, fence.
//!
//! Windows expose a byte buffer per rank; origins access target buffers
//! directly through a shared registry (the moral equivalent of RDMA), with
//! virtual time charged at the origin and every operation reported to the
//! PML layer as `MsgKind::OneSided`, which is what the monitoring library's
//! `MPI_M_OSC_ONLY` flag selects.
//!
//! Accounting convention: all three operations are recorded at the *origin*
//! as `origin → target` with the number of bytes moved — for `get` the data
//! physically flows the other way, but the pair and the volume (what the
//! monitoring matrix stores) are identical.  Synchronization follows the
//! active-target fence model: operations are eager, [`Rank::fence`] is a
//! barrier delimiting epochs — on the window, not on its communicator: it
//! runs under the window's own matching id, as `MPI_Win_create` duplicates
//! the communicator it is given, so neither a collective on that
//! communicator nor another window's fence can release it.

use std::sync::Arc;

use mim_trace::TraceData;
use mim_util::sync::Mutex;

use crate::comm::Comm;
use crate::datatype::Scalar;
use crate::envelope::MsgKind;
use crate::pml::PmlEvent;
use crate::runtime::Rank;

/// A one-sided window: one shared byte buffer per communicator rank.
pub struct Window {
    id: u64,
    comm: Comm,
    /// `comm`'s group under the window's id: where the fences synchronise.
    sync: Comm,
    local: Arc<Mutex<Vec<u8>>>,
}

impl Rank {
    /// Collectively create a window exposing `local` on every member of `comm`.
    pub fn win_create(&self, comm: &Comm, local: Vec<u8>) -> Window {
        let mut base = vec![if comm.rank() == 0 { self.shared().alloc_ids(1) } else { 0 }];
        self.bcast(comm, 0, &mut base);
        let id = base[0];
        let local = Arc::new(Mutex::new(local));
        self.shared().windows.lock().insert((id, comm.rank()), Arc::clone(&local));
        self.barrier(comm); // everyone's buffer is registered past this point
        Window { id, comm: comm.clone(), sync: comm.with_id(id), local }
    }

    /// Collectively free a window.
    pub fn win_free(&self, win: Window) {
        self.barrier(&win.comm); // pending epoch accesses complete first
        self.shared().windows.lock().remove(&(win.id, win.comm.rank()));
    }

    /// Snapshot of this rank's window buffer.
    pub fn win_local(&self, win: &Window) -> Vec<u8> {
        win.local.lock().clone()
    }

    fn target_buffer(&self, win: &Window, target: usize) -> Arc<Mutex<Vec<u8>>> {
        Arc::clone(
            self.shared()
                .windows
                .lock()
                .get(&(win.id, target))
                .expect("window not exposed on target (win_create not completed?)"),
        )
    }

    fn osc_event(&self, win: &Window, target: usize, bytes: u64) {
        let dst_world = win.comm.world_rank_of(target);
        let dst_core = self.placement().core_of(dst_world);
        // Charge the origin the same wire cost a send would pay.
        self.compute_ns(self.machine().message_ns(self.core(), dst_core, bytes));
        let ev = PmlEvent {
            src_world: self.world_rank(),
            dst_world,
            src_core: self.core(),
            dst_core,
            bytes,
            kind: MsgKind::OneSided,
            vtime_ns: self.now_ns(),
        };
        self.dispatch_pml(&ev);
        // One-sided data bypasses `wire_send` (no envelope), so the trace
        // event is recorded here to keep the dump's byte totals complete.
        self.record_trace(
            self.now_ns(),
            TraceData::Send {
                dst: dst_world,
                bytes,
                kind: MsgKind::OneSided.label(),
                comm: win.comm.id(),
                tag: 0,
                coll: None,
            },
        );
    }

    /// `MPI_Put`: write `data` into `target`'s window at byte `offset`.
    pub fn put(&self, win: &Window, target: usize, offset: usize, data: &[u8]) {
        self.osc_event(win, target, data.len() as u64);
        let buf = self.target_buffer(win, target);
        buf.lock()[offset..offset + data.len()].copy_from_slice(data);
    }

    /// `MPI_Get`: read `len` bytes from `target`'s window at byte `offset`.
    pub fn get(&self, win: &Window, target: usize, offset: usize, len: usize) -> Vec<u8> {
        self.osc_event(win, target, len as u64);
        let buf = self.target_buffer(win, target);
        let guard = buf.lock();
        guard[offset..offset + len].to_vec()
    }

    /// `MPI_Accumulate`: combine `data` element-wise into `target`'s window
    /// starting at element `offset_elems`, under the window's lock (atomic
    /// with respect to concurrent accumulates).
    pub fn accumulate<T: Scalar>(
        &self,
        win: &Window,
        target: usize,
        offset_elems: usize,
        data: &[T],
        op: impl Fn(T, T) -> T,
    ) {
        self.osc_event(win, target, (data.len() * T::SIZE) as u64);
        let buf = self.target_buffer(win, target);
        let mut guard = buf.lock();
        let start = offset_elems * T::SIZE;
        let end = start + data.len() * T::SIZE;
        let mut current = T::from_bytes(&guard[start..end]);
        for (c, &d) in current.iter_mut().zip(data) {
            *c = op(*c, d);
        }
        guard[start..end].copy_from_slice(&T::to_bytes(&current));
    }

    /// `MPI_Win_fence`: close the current access epoch (a barrier among the
    /// window's members, matched only by the same fence of the same window).
    pub fn fence(&self, win: &Window) {
        self.barrier(&win.sync);
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Duration;

    use mim_topology::{Machine, Placement};

    use crate::exec::ExecutorKind;
    use crate::runtime::{Rank, Universe, UniverseConfig};

    fn universe(n: usize) -> Universe {
        Universe::new(UniverseConfig::new(Machine::cluster(2, 1, 4), Placement::packed(n)))
    }

    #[test]
    fn put_then_fence_visible_at_target() {
        let u = universe(4);
        u.launch(|rank| {
            let world = rank.comm_world();
            let win = rank.win_create(&world, vec![0u8; 8]);
            if world.rank() != 0 {
                let r = world.rank() as u8;
                rank.put(&win, 0, world.rank(), &[r]);
            }
            rank.fence(&win);
            if world.rank() == 0 {
                assert_eq!(rank.win_local(&win), vec![0, 1, 2, 3, 0, 0, 0, 0]);
            }
            rank.win_free(win);
        });
    }

    #[test]
    fn get_reads_remote_data() {
        let u = universe(2);
        u.launch(|rank| {
            let world = rank.comm_world();
            let mine = vec![world.rank() as u8 + 10; 4];
            let win = rank.win_create(&world, mine);
            rank.fence(&win);
            let peer = 1 - world.rank();
            let got = rank.get(&win, peer, 1, 2);
            assert_eq!(got, vec![peer as u8 + 10; 2]);
            rank.win_free(win);
        });
    }

    #[test]
    fn accumulate_sums_atomically() {
        let u = universe(4);
        u.launch(|rank| {
            let world = rank.comm_world();
            let win = rank.win_create(&world, vec![0u8; 8]); // one u64
            rank.accumulate::<u64>(&win, 0, 0, &[world.rank() as u64 + 1], |a, b| a + b);
            rank.fence(&win);
            if world.rank() == 0 {
                let total = u64::from_le_bytes(rank.win_local(&win).try_into().unwrap());
                assert_eq!(total, 1 + 2 + 3 + 4);
            }
            rank.win_free(win);
        });
    }

    /// Run `body` on two ranks under both engines and require the
    /// `deadlock:` panic of the deadline.
    fn assert_wedges(body: impl Fn(&Rank) + Sync) {
        for executor in [ExecutorKind::Threads, ExecutorKind::Tasks] {
            let mut cfg = UniverseConfig::new(Machine::cluster(2, 1, 4), Placement::packed(2))
                .with_executor(executor);
            cfg.deadline = Duration::from_millis(200);
            let u = Universe::new(cfg);
            let payload = catch_unwind(AssertUnwindSafe(|| u.launch(&body)))
                .expect_err("mismatched synchronisation must not complete");
            let msg = payload.downcast_ref::<String>().expect("deadlock panics carry a String");
            assert!(msg.contains("deadlock:"), "{executor:?}: unexpected panic: {msg}");
        }
    }

    /// A barrier on the window's communicator does not release a fence: the
    /// pair the analyzer calls `definite_deadlock` wedges live too.
    #[test]
    fn fence_is_not_released_by_a_barrier_on_its_communicator() {
        assert_wedges(|rank| {
            let world = rank.comm_world();
            let win = rank.win_create(&world, vec![0u8; 8]);
            if world.rank() == 0 {
                rank.fence(&win);
            } else {
                rank.barrier(&world);
            }
        });
    }

    /// Two windows over one communicator fence independently: fencing them
    /// in opposite orders is a deadlock, not a pair of crossed matches.
    #[test]
    fn fence_is_not_released_by_another_windows_fence() {
        assert_wedges(|rank| {
            let world = rank.comm_world();
            let a = rank.win_create(&world, vec![0u8; 8]);
            let b = rank.win_create(&world, vec![0u8; 8]);
            for win in if world.rank() == 0 { [&a, &b] } else { [&b, &a] } {
                rank.fence(win);
            }
        });
    }

    #[test]
    fn osc_advances_origin_clock() {
        let u = universe(2);
        let times = u.launch(|rank| {
            let world = rank.comm_world();
            let win = rank.win_create(&world, vec![0u8; 1024]);
            let before = rank.now_ns();
            if world.rank() == 0 {
                rank.put(&win, 1, 0, &[1u8; 1024]);
            }
            let delta = rank.now_ns() - before;
            rank.fence(&win);
            rank.win_free(win);
            delta
        });
        assert!(times[0] > 0.0, "put must cost virtual time");
        assert_eq!(times[1], 0.0, "target pays nothing before the fence");
    }
}
