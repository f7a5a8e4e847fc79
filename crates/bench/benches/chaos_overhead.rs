//! Microbenchmark of the fault-injection seam in `Rank::wire_send`: what
//! does the injector hook cost when it is (a) absent, (b) compiled in but
//! not configured, (c) a configured-but-quiet plan, (d) an active plan?
//!
//! The carrier workload is the send path as `wire_send` performs it — the
//! Hockney cost arithmetic, envelope construction, and the handoff queue
//! (a stand-in for the channel send) — with the injector seam exactly as
//! it appears in the runtime: a branch on an `Option<Arc<dyn
//! FaultInjector>>`, then, only when an injector is installed, the
//! bandwidth-scale lookup, the per-link op-index bump, and the attempt
//! loop.  The contract is that the *disabled* arm (the `None` every
//! production run holds) costs no more than 2x the injector-free baseline
//! — a ratio between two arms of this one run, so it is asserted here, on
//! the medians, and needs no recorded baseline.  The quiet-plan arm shows
//! what a zero-probability `FaultPlan` left installed costs, and the
//! active arm prices the per-decision RNG itself.

use std::collections::VecDeque;
use std::sync::Arc;

use mim_util::bench::{black_box, Bench};

use mim_chaos::FaultPlan;
use mim_mpisim::envelope::{Ctx, Envelope, MsgKind, Payload};
use mim_mpisim::fault::{backoff_ns, RETRY_MAX_ATTEMPTS};
use mim_mpisim::{FaultInjector, LinkCtx, SendOutcome};

const SRC: usize = 0;
const DST: usize = 1;
const BYTES: u64 = 4096;
const BETA: f64 = 0.05;

/// The `wire_send` injector seam, verbatim minus the clock/trace calls:
/// returns the extra virtual nanoseconds and the wire sequence the send
/// would carry, so nothing the injector decides can be folded away.
#[inline(always)]
fn seam(inj: &Option<Arc<dyn FaultInjector>>, op_index: &mut u64) -> (f64, Option<u64>) {
    let mut beta = BETA;
    let mut extra = 0.0;
    let mut wire_seq = None;
    if let Some(inj) = inj {
        let scale = inj.link_bandwidth_scale(SRC, DST);
        if scale != 1.0 {
            beta /= scale;
        }
        let i = *op_index;
        *op_index += 1;
        wire_seq = Some(i);
        let lctx = LinkCtx { src_world: SRC, dst_world: DST, op_index: i, bytes: BYTES };
        let mut attempt = 0u32;
        loop {
            match inj.on_attempt(&lctx, attempt) {
                SendOutcome::Deliver { extra_delay_ns, duplicates } => {
                    extra += extra_delay_ns;
                    black_box(duplicates);
                    break;
                }
                SendOutcome::Drop => {
                    if attempt + 1 >= RETRY_MAX_ATTEMPTS {
                        break;
                    }
                    extra += beta * BYTES as f64 + backoff_ns(attempt);
                    attempt += 1;
                }
            }
        }
    }
    (beta * BYTES as f64 + extra, wire_seq)
}

/// The mandatory send work around the seam: cost arithmetic, envelope
/// build, handoff-queue rotation (the channel-send stand-in).
#[inline(always)]
fn carrier(q: &mut VecDeque<Envelope>, t_ns: f64, cost: f64, wire_seq: Option<u64>) {
    q.push_back(Envelope {
        src_world: SRC,
        dst_world: DST,
        comm_id: 7,
        ctx: Ctx::Pt2pt,
        tag: 5,
        kind: MsgKind::P2pUser,
        payload: Payload::Synthetic(BYTES),
        sent_at_ns: t_ns,
        arrival_ns: t_ns + cost,
        wire_seq,
        src_inc: 0,
        dst_inc: 0,
    });
    black_box(q.pop_front());
}

fn arm(b: &mut Bench, label: &str, inj: Option<Arc<dyn FaultInjector>>) -> f64 {
    let mut q = VecDeque::with_capacity(4);
    let mut op_index = 0u64;
    let mut t = 0.0f64;
    b.iter("chaos_overhead", label, || {
        t += 1.0;
        let (cost, wire_seq) = seam(black_box(&inj), &mut op_index);
        carrier(&mut q, t, cost, wire_seq);
    })
}

fn main() {
    let mut b = Bench::new();

    // Injector-free: the send path with no seam code at all.
    let mut q = VecDeque::with_capacity(4);
    let mut t = 0.0f64;
    let baseline = b.iter("chaos_overhead", "send_site/baseline", || {
        t += 1.0;
        carrier(&mut q, t, black_box(BETA) * BYTES as f64, None);
    });

    // The production configuration: seam compiled in, nothing installed.
    let disabled = arm(&mut b, "send_site/disabled", None);

    // A zero-probability plan left installed: one quiet-plan early-out per
    // send, plus the op-index bookkeeping the seam switches on.
    let quiet = arm(&mut b, "send_site/null_plan", Some(FaultPlan::new(42).into_injector()));

    // An active plan: per-decision RNG draws (drop, dup, delay) every send,
    // retry loop engaged on ~10% of them.
    let active_plan = FaultPlan::new(42).drop_p(0.1).dup_p(0.05).delay(0.1, 200.0);
    let active = arm(&mut b, "send_site/active_plan", Some(active_plan.into_injector()));

    let ratio = disabled / baseline;
    println!("chaos_overhead               disabled/baseline ratio: {ratio:.3} (bar 2.0)");
    println!(
        "chaos_overhead               null_plan +{:.1}ns  active_plan +{:.1}ns per send",
        quiet - baseline,
        active - baseline
    );
    assert!(
        ratio <= 2.0,
        "an uninstalled injector seam costs {ratio:.3}x the seam-free send path (bar 2.0)"
    );
}
