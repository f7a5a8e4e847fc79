//! Built-in wildcard plans for the explorer.
//!
//! The 15 plans shared with `mim-analyze` are all wildcard-free (CI keeps
//! them `DeadlockFree`); these two exercise the territory the analyzer can
//! only call [`PotentialDeadlock`], so `mim-explore` has something to
//! upgrade out of the box: one genuinely racy plan whose bad schedule the
//! explorer must *find*, and one schedule-insensitive plan it must clear.
//!
//! [`PotentialDeadlock`]: mim_analyze::Verdict::PotentialDeadlock

use mim_analyze::{Op, Program, Src, Tag, WORLD};

/// The classic wildcard race.  Rank 0 posts a wildcard receive and then a
/// *specific* receive from rank 1; every other rank sends rank 0 exactly
/// one tag-0 message.
///
/// Rank 1's message is wanted twice: if the wildcard consumes it, the
/// specific receive can never complete and the job wedges — a schedule
/// with `n - 2` orphaned messages and rank 0 parked forever.  If the
/// wildcard takes any *other* rank's message, everything matches.  The
/// analyzer reports `PotentialDeadlock`; exploration finds the wedge and
/// proves it replayable.
///
/// # Panics
/// Panics when `n < 3` (the race needs at least two competing senders).
pub fn wildcard_race(n: usize) -> Program {
    assert!(n >= 3, "wildcard_race needs n >= 3, got {n}");
    let mut p = Program::new("wildcard_race", n);
    p.push(0, Op::Recv { comm: WORLD, src: Src::Any, tag: Tag::Any });
    p.push(0, Op::Recv { comm: WORLD, src: Src::Rank(1), tag: Tag::Is(0) });
    for r in 1..n {
        p.push(r, Op::Send { comm: WORLD, dst: 0, tag: 0, bytes: 64 });
    }
    p
}

/// The benign counterpart: rank 0 wildcard-receives exactly `n - 1`
/// messages and each other rank sends exactly one (tagged with its own
/// rank id).  Any match order drains every channel, so every schedule
/// completes — exploration upgrades `PotentialDeadlock` to a clean
/// verdict.
///
/// # Panics
/// Panics when `n < 2`.
pub fn wildcard_clean(n: usize) -> Program {
    assert!(n >= 2, "wildcard_clean needs n >= 2, got {n}");
    let mut p = Program::new("wildcard_clean", n);
    for _ in 1..n {
        p.push(0, Op::Recv { comm: WORLD, src: Src::Any, tag: Tag::Any });
    }
    for r in 1..n {
        p.push(r, Op::Send { comm: WORLD, dst: 0, tag: r as u32, bytes: 64 });
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use mim_analyze::{analyze, Verdict};

    #[test]
    fn both_plans_are_potential_for_the_analyzer() {
        for p in [wildcard_race(4), wildcard_clean(4)] {
            let r = analyze(&p);
            assert!(
                matches!(r.verdict, Verdict::PotentialDeadlock { .. }),
                "{}: {:?}",
                p.name(),
                r.verdict
            );
        }
    }
}
