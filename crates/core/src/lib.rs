//! `mim-core` — the MPI introspection monitoring library.
//!
//! This is the paper's primary contribution (Jeannot & Sartori, Inria
//! RR-9292): a high-level library that lets an application *monitor itself*
//! — query, during execution, how many messages and bytes each process sent
//! to each other process — and act on it (e.g. rank reordering).
//!
//! # Sessions
//!
//! All monitoring happens through **sessions** ([`Msid`]) attached to a
//! communicator:
//!
//! * [`Monitoring::start`] creates a session in the *active* state;
//! * [`Monitoring::suspend`] / [`Monitoring::resume`] toggle recording
//!   (the paper's `MPI_M_suspend` / `MPI_M_continue`);
//! * [`Monitoring::reset`] zeroes a suspended session,
//!   [`Monitoring::free`] destroys it;
//! * data access ([`Monitoring::get_data`], [`Monitoring::allgather_data`],
//!   [`Monitoring::rootgather_data`], `Monitoring::flush`,
//!   [`Monitoring::rootflush`]) is only legal while suspended.
//!
//! Sessions are fully independent: they may overlap, nest, and watch the
//! same code region.  A session records **all** traffic between members of
//! its communicator — even traffic sent through a *different* communicator
//! (paper Sec 4.1: a session on the even/odd split still sees messages
//! between processes 0 and 2 sent on `MPI_COMM_WORLD`).
//!
//! Because the runtime decomposes collectives into point-to-point messages
//! *below* the monitoring probe, sessions see the true per-pair traffic of
//! broadcasts, reduces, etc. — the feature that enables the paper's
//! communication-matrix-driven rank reordering.
//!
//! # Correspondence with the paper's C API
//!
//! | Paper | Here |
//! |---|---|
//! | `MPI_M_init` / `MPI_M_finalize` | [`Monitoring::init`] / [`Monitoring::finalize`] |
//! | `MPI_M_start` / `MPI_M_suspend` / `MPI_M_continue` | `start` / `suspend` / `resume` |
//! | `MPI_M_reset` / `MPI_M_free` | `reset` / `free` |
//! | `MPI_M_get_info` / `MPI_M_get_data` | `get_info` / `get_data` |
//! | `MPI_M_allgather_data` / `MPI_M_rootgather_data` | `allgather_data` / `rootgather_data` |
//! | `MPI_M_flush` / `MPI_M_rootflush` | `flush` / `rootflush` |
//! | `MPI_M_ALL_MSID` | [`Msid::ALL`] |
//! | `MPI_M_P2P_ONLY` … `MPI_M_ALL_COMM` | [`Flags::P2P_ONLY`] … [`Flags::ALL_COMM`] |
//! | error constants | [`MonError`] variants |
//!
//! Output parameters become return values; `MPI_M_DATA_IGNORE` /
//! `MPI_M_INT_IGNORE` are unnecessary (ignore the returned value).
//!
//! For code that wants the paper's C shape verbatim — integer return codes,
//! output parameters, per-process global environment — the [`capi`] module
//! provides the exact function names (`MPI_M_init`, `MPI_M_continue`, …)
//! and constants on top of this API.

mod accum;
mod api;
pub mod capi;
mod error;
mod flags;
pub mod session;

pub use accum::PairAccum;
pub use api::{GatheredData, Monitoring};
pub use error::{MonError, Result};
pub use flags::Flags;
pub use session::Msid;
