//! Cross-module tests for `mim-util`: PRNG stream stability and channel
//! behaviour under real threads — the two pieces the simulator's
//! correctness leans on hardest.

use std::collections::HashSet;
use std::time::Duration;

use mim_util::channel::unbounded;
use mim_util::props;
use mim_util::rng::Rng;

/// Known-answer test: the stream for a fixed seed must never change across
/// refactors, or every "reproducible from seed" experiment silently shifts.
#[test]
fn prng_stream_is_pinned() {
    let mut rng = Rng::seed_from_u64(2019);
    let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
    assert_eq!(
        first,
        vec![2306254335545785924, 15445398945628216833, 17867216420025494211, 15393981129640941953]
    );
}

props! {
    /// Same seed → same stream, for any seed; nearby seeds decorrelate.
    fn prng_determinism_across_seeds(g) {
        let seed = g.any_u64();
        let mut a = Rng::seed_from_u64(seed);
        let mut b = Rng::seed_from_u64(seed);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed_from_u64(seed.wrapping_add(1));
        assert!((0..16).any(|_| a.next_u64() != c.next_u64()));
    }

    /// gen_range + shuffle driven off one seed are reproducible end to end.
    fn prng_derived_draws_deterministic(g) {
        let seed = g.any_u64();
        let run = |seed: u64| {
            let mut rng = Rng::seed_from_u64(seed);
            let mut xs: Vec<usize> = (0..20).collect();
            rng.shuffle(&mut xs);
            let r = rng.gen_range(-50i64..50);
            let f = rng.gen_range(0.0..1.0);
            (xs, r, f)
        };
        assert_eq!(run(seed), run(seed));
    }
}

#[test]
fn channel_single_producer_preserves_order() {
    let (tx, rx) = unbounded();
    let producer = std::thread::spawn(move || {
        for i in 0..10_000u64 {
            tx.send(i).unwrap();
        }
    });
    for i in 0..10_000u64 {
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Some(i));
    }
    producer.join().unwrap();
}

/// Many producers share one `&Sender`, the way ranks share the universe's
/// senders; each producer's values arrive in order.
#[test]
fn channel_multi_producer_stress() {
    const PRODUCERS: u64 = 8;
    const PER_PRODUCER: u64 = 5_000;
    let (tx, rx) = unbounded();
    std::thread::scope(|s| {
        for p in 0..PRODUCERS {
            let tx = &tx;
            s.spawn(move || {
                for i in 0..PER_PRODUCER {
                    tx.send(p * PER_PRODUCER + i).unwrap();
                }
            });
        }
        let mut seen = HashSet::new();
        let mut last_per_producer = vec![None::<u64>; PRODUCERS as usize];
        for _ in 0..PRODUCERS * PER_PRODUCER {
            let v = rx.recv_timeout(Duration::from_secs(30)).expect("stress recv starved");
            assert!(seen.insert(v), "value {v} delivered twice");
            // Per-producer FIFO must hold even under contention.
            let p = (v / PER_PRODUCER) as usize;
            let i = v % PER_PRODUCER;
            if let Some(prev) = last_per_producer[p] {
                assert!(i > prev, "producer {p} reordered: {i} after {prev}");
            }
            last_per_producer[p] = Some(i);
        }
        assert_eq!(seen.len() as u64, PRODUCERS * PER_PRODUCER);
    });
}
