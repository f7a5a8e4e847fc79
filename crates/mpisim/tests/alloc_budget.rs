//! Heap allocations per received block of a collective.
//!
//! A collective receiver decodes each payload once, straight into its
//! result, and allocates nothing for it: the only per-message allocation is
//! the sender's encode buffer, which travels as the envelope's payload.
//! This binary counts every allocation in the process (its own global
//! allocator) around a 64-rank ring allgather on the one-worker tasks
//! engine, subtracts a launch that does everything but the collective, and
//! divides by the 64 · 63 blocks received.  Decoding each block into a
//! fresh vector and concatenating them afterwards costs about two per block
//! plus the concatenation; the budget is 1.5.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mim_mpisim::collectives::allgather_ring;
use mim_mpisim::{ExecutorKind, Rank, Universe, UniverseConfig};
use mim_topology::{Machine, Placement};

/// Counts allocations (`realloc` included) and forwards to [`System`].
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const RANKS: usize = 64;
/// Items per contribution: 256-byte blocks, the size of the CG's.
const BLOCK: usize = 32;

/// Allocations made by one launch of `body` on a fresh universe.
fn allocations_of(body: impl Fn(&Rank) + Sync) -> u64 {
    let cfg = UniverseConfig::new(Machine::cluster(8, 2, 4), Placement::packed(RANKS))
        .with_executor(ExecutorKind::Tasks);
    let u = Universe::new(cfg);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    u.launch(body);
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

fn contribution(rank: &Rank) -> Vec<u64> {
    vec![rank.world_rank() as u64; BLOCK]
}

#[test]
fn ring_allgather_allocates_under_one_and_a_half_per_received_block() {
    if !mim_util::fiber::SUPPORTED {
        return;
    }
    // The only test in this binary, so nothing races the variable; the
    // tasks engine reads it when a universe is built.
    std::env::set_var("MIM_WORKERS", "1");
    let bare = |rank: &Rank| {
        let world = rank.comm_world();
        assert_eq!(contribution(rank).len() * world.size(), RANKS * BLOCK);
    };
    // The first launch sizes whatever the engine keeps between launches.
    allocations_of(bare);
    let baseline = allocations_of(bare);
    let gathered = allocations_of(|rank| {
        let world = rank.comm_world();
        let out = allgather_ring(rank, &world, &contribution(rank));
        assert!(out.chunks(BLOCK).enumerate().all(|(r, b)| b.iter().all(|&x| x == r as u64)));
    });
    let blocks = (RANKS * (RANKS - 1)) as f64;
    let per_block = gathered.saturating_sub(baseline) as f64 / blocks;
    assert!(
        per_block < 1.5,
        "{per_block:.3} allocations per received block ({gathered} with the allgather, \
         {baseline} without, {blocks} blocks); the budget is 1.5"
    );
}
