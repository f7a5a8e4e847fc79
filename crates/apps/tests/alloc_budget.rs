//! Heap bytes per interior rank-iteration of the Jacobi stencil.
//!
//! A rank holds its block as columns and sends a column halo straight from
//! the block: the only column-sized allocations of an interior rank's
//! iteration are the two encode buffers that travel as the envelopes'
//! payloads and the two received halos decoded at the wait.  Gathering each
//! column halo into a vector of its own before encoding it costs two more.
//!
//! This binary counts every byte the process allocates (its own global
//! allocator) on the one-worker tasks engine.  Two launches of one grid that
//! differ only in iteration count cancel the setup and give the grid's bytes
//! per iteration; the same on a grid one interior rank wider, minus the
//! first, gives that rank's.  The reading is in column halos (`8 · block
//! rows` bytes): about 6 with the gathers, about 4 without; the budget is 5.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mim_apps::stencil::{run_stencil, StencilConfig};
use mim_mpisim::{ExecutorKind, Universe, UniverseConfig};
use mim_topology::{Machine, Placement};

/// Counts the bytes of every allocation (a `realloc`'s new size included)
/// and forwards to [`System`].
struct Counting;

static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Block height: 4 KiB column halos, far above the per-message bookkeeping.
const BLOCK_ROWS: usize = 512;
const BLOCK_COLS: usize = 2;

/// Bytes allocated by one launch of the stencil on a `1 × pcols` process
/// grid, on a fresh universe.
fn bytes_of(pcols: usize, iters: usize) -> u64 {
    let cfg = StencilConfig { rows: BLOCK_ROWS, cols: pcols * BLOCK_COLS, prows: 1, pcols, iters };
    let ucfg = UniverseConfig::new(Machine::cluster(2, 1, 4), Placement::packed(pcols))
        .with_executor(ExecutorKind::Tasks);
    let u = Universe::new(ucfg);
    let before = BYTES.load(Ordering::Relaxed);
    u.launch(move |rank| run_stencil(rank, &rank.comm_world(), cfg).1);
    BYTES.load(Ordering::Relaxed) - before
}

#[test]
fn an_interior_rank_allocates_under_five_column_halos_per_iteration() {
    if !mim_util::fiber::SUPPORTED {
        return;
    }
    // The only test in this binary, so nothing races the variable; the
    // tasks engine reads it when a universe is built.
    std::env::set_var("MIM_WORKERS", "1");
    const FEW: usize = 2;
    const MANY: usize = 10;
    // The first launch sizes whatever the engine keeps between launches.
    bytes_of(3, FEW);
    let per_iteration = |pcols| {
        let (few, many) = (bytes_of(pcols, FEW), bytes_of(pcols, MANY));
        many.saturating_sub(few) as f64 / (MANY - FEW) as f64
    };
    let (narrow, wide) = (per_iteration(3), per_iteration(4));
    let halos = (wide - narrow) / (8 * BLOCK_ROWS) as f64;
    assert!(
        halos < 5.0,
        "{halos:.3} column halos per interior rank-iteration ({wide:.0} B per iteration \
         on a 1 × 4 grid, {narrow:.0} B on 1 × 3); the budget is 5"
    );
}
