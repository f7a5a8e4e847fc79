//! What a disabled instrumentation seam costs: the trace record site of
//! `Rank::wire_recv` and the fault-plan seam of `Rank::wire_send`, each
//! next to a copy of its carrier with no seam code at all.  Every bar is a
//! ratio between two arms timed in this one run, their samples alternating,
//! so none needs a recorded baseline:
//!
//! * trace `recv_1k/disabled` ÷ `recv_1k/baseline` ≤ 1.5.  The carrier is
//!   the steady-state receive path (unexpected-queue take + push, as in
//!   `mim-ledger`'s mailbox probes).  A quiet 2-core host prints 1.02–1.10,
//!   while an enabled record alone is ~20 ns of the ~110 ns, so this is the
//!   backstop against a disabled site that costs as much as the receive
//!   itself — a lock, an allocation.
//! * trace `record/disabled` ÷ `record/enabled_ring` ≤ 0.5: the site with
//!   no carrier around it.  Disabled, it is the `Option` branch (~1 ns
//!   against ~20 ns); a disabled site that records anything at all reads
//!   1.0.
//! * chaos `send_site/disabled` ÷ `send_site/baseline` ≤ 2.0.  The carrier
//!   is the send path as `wire_send` performs it — the Hockney cost, the
//!   envelope, a handoff queue standing in for the channel send — and the
//!   seam is the branch on the `Option<Arc<FaultPlan>>` every production
//!   run holds as `None`.
//!
//! Each arm is 15 samples of at least 10 ms; the run takes about a second.
//! One test function, so no other test of this binary shares the cores
//! while the arms are timed, and ignored by default: its timings mean
//! something only in release.  Run it with
//! `cargo test --release --offline -p mim-bench --test seam_overhead -- --ignored --nocapture`.

use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mim_mpisim::envelope::{Ctx, Envelope, MsgKind, Payload};
use mim_mpisim::fault::{backoff_ns, RETRY_MAX_ATTEMPTS};
use mim_mpisim::mailbox::{MatchPattern, SrcSel, TagSel, UnexpectedQueue};
use mim_mpisim::trace::{TraceData, TraceHandle, Tracer};
use mim_mpisim::{FaultPlan, LinkCtx, SendOutcome};

/// Timed samples per arm.
const SAMPLES: usize = 15;
/// The wall time one sample's batch of calls is sized to.
const SAMPLE: Duration = Duration::from_millis(10);

/// Mean nanoseconds per call of `n` calls to `f`.
fn batch(f: &mut impl FnMut(), n: u64) -> f64 {
    let t = Instant::now();
    (0..n).for_each(|_| f());
    t.elapsed().as_nanos() as f64 / n as f64
}

/// The calls per sample: batches double until one takes a tenth of a
/// sample, which also warms the arm up.
fn calibrate(f: &mut impl FnMut()) -> u64 {
    let mut n = 1;
    while batch(f, n) * (n as f64) < SAMPLE.as_nanos() as f64 / 10.0 {
        n *= 2;
    }
    n * 10
}

/// The per-call medians of two arms, printed under `labels`.  The arms'
/// samples alternate, so a slow stretch of a shared host hits both;
/// median, because that noise is one-sided.
fn medians(labels: [&str; 2], mut a: impl FnMut(), mut b: impl FnMut()) -> [f64; 2] {
    let n = [calibrate(&mut a), calibrate(&mut b)];
    let mut samples = [Vec::new(), Vec::new()];
    for _ in 0..SAMPLES {
        samples[0].push(batch(&mut a, n[0]));
        samples[1].push(batch(&mut b, n[1]));
    }
    [0, 1].map(|i| {
        samples[i].sort_by(f64::total_cmp);
        let median = samples[i][SAMPLES / 2];
        println!("{:<24} median {median:>8.1} ns  ({SAMPLES}x{} calls)", labels[i], n[i]);
        median
    })
}

// ---- the trace record site on the receive path ----

const QUEUED: usize = 1024;
const SRCS: usize = 32;
const TAGS: usize = 32;

fn env(src: usize, tag: u32) -> Envelope {
    Envelope {
        src_world: src,
        dst_world: 0,
        comm_id: 7,
        ctx: Ctx::Pt2pt,
        tag,
        kind: MsgKind::P2pUser,
        payload: Payload::Synthetic(64),
        sent_at_ns: 0.0,
        arrival_ns: 0.0,
        wire_seq: None,
        src_inc: 0,
        dst_inc: 0,
    }
}

fn filled_queue() -> UnexpectedQueue {
    let mut q = UnexpectedQueue::new();
    for i in 0..QUEUED {
        q.push(env(i % SRCS, ((i / SRCS) % TAGS) as u32));
    }
    q
}

/// The `wire_recv` record site, verbatim: branch on the option, then build
/// and record the event.
#[inline(always)]
fn record_site(trace: &Option<TraceHandle>, t_ns: f64, e: &Envelope, uq_depth: usize) {
    if let Some(t) = trace {
        t.record(
            t_ns,
            TraceData::Recv {
                src: e.src_world,
                bytes: e.payload.len_bytes(),
                comm: e.comm_id,
                tag: e.tag,
                uq_depth,
            },
        );
    }
}

/// The record site alone, with no carrier to hide behind.
fn record_arm<'a>(trace: &'a Option<TraceHandle>, e: &'a Envelope) -> impl FnMut() + 'a {
    let mut t = 0.0f64;
    move || {
        t += 1.0;
        record_site(black_box(trace), t, e, 0);
    }
}

// ---- the fault-plan seam on the send path ----

const SRC: usize = 0;
const DST: usize = 1;
const BYTES: u64 = 4096;
const BETA: f64 = 0.05;

/// The `wire_send` fault-plan seam (`Rank::judge_send`), verbatim minus the
/// clock/trace calls: returns the extra virtual nanoseconds and the wire
/// sequence the send would carry, so nothing the plan decides can be
/// folded away.
#[inline(always)]
fn seam(inj: &Option<Arc<FaultPlan>>, op_index: &mut u64) -> (f64, Option<u64>) {
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
        let lctx = LinkCtx { src_world: SRC, dst_world: DST, op_index: i };
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

#[test]
#[ignore = "timing: run in release with --ignored"]
fn disabled_seams_cost_next_to_nothing() {
    // The receive path with no trace code at all.  The timestamp bump
    // stands in for the clock advance the runtime performs regardless of
    // tracing, so the arms differ only by the record site itself.
    let specific = MatchPattern {
        comm_id: 7,
        ctx: Ctx::Pt2pt,
        src: SrcSel::World(SRCS - 1),
        tag: TagSel::Is(TAGS as u32 - 1),
    };
    let (mut q, mut t) = (filled_queue(), 0.0f64);
    let baseline = || {
        let e = q.take(black_box(&specific)).expect("steady-state queue");
        t += 1.0;
        black_box(t);
        q.push(e);
    };
    // Compiled in, disabled: the `None` the runtime holds when no tracer is
    // configured.  `black_box` keeps the branch from being folded away.
    let off: Option<TraceHandle> = None;
    let (mut q, mut t) = (filled_queue(), 0.0f64);
    let disabled = || {
        let e = q.take(black_box(&specific)).expect("steady-state queue");
        t += 1.0;
        record_site(black_box(&off), t, &e, QUEUED);
        q.push(e);
    };
    let [recv, recv_off] = medians(["recv_1k/baseline", "recv_1k/disabled"], baseline, disabled);

    // The record site enabled into an in-memory ring (the flight-recorder
    // configuration: no sink, bounded history), then disabled.
    let on = Some(Tracer::new(256).track("rank0"));
    let e = env(0, 0);
    let [site_on, site_off] = medians(
        ["record/enabled_ring", "record/disabled"],
        record_arm(&on, &e),
        record_arm(&off, &e),
    );

    // The send path with no seam code, then with the seam and nothing
    // installed (the production configuration).
    let (mut q, mut t) = (VecDeque::with_capacity(4), 0.0f64);
    let baseline = || {
        t += 1.0;
        carrier(&mut q, t, black_box(BETA) * BYTES as f64, None);
    };
    let none: Option<Arc<FaultPlan>> = None;
    let (mut q, mut t, mut op_index) = (VecDeque::with_capacity(4), 0.0f64, 0u64);
    let disabled = || {
        t += 1.0;
        let (cost, wire_seq) = seam(black_box(&none), &mut op_index);
        carrier(&mut q, t, cost, wire_seq);
    };
    let [send, send_off] =
        medians(["send_site/baseline", "send_site/disabled"], baseline, disabled);

    let bars = [
        ("trace recv_1k disabled / baseline", recv_off / recv, 1.5),
        ("trace record disabled / enabled_ring", site_off / site_on, 0.5),
        ("chaos send_site disabled / baseline", send_off / send, 2.0),
    ];
    let mut over = Vec::new();
    for (what, ratio, bar) in bars {
        println!("{what:<40} {ratio:.3} (bar {bar:.1})");
        if ratio > bar {
            over.push(format!("{what} is {ratio:.3}, over its bar {bar:.1}"));
        }
    }
    assert!(over.is_empty(), "a disabled seam costs too much: {}", over.join("; "));
}
