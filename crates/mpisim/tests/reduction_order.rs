//! Every reduction's operand order, pinned to the bit.
//!
//! Floating-point combines are neither associative nor, under a general
//! `op`, commutative: which partial result meets which, and on which side,
//! decides the bits of the answer.  Integer sums (the other collective
//! tests) cannot tell two orders apart; these goldens can.  Each rank
//! contributes `f64`s of mixed sign and magnitude (10⁻¹⁵ … 10¹⁵), and each
//! collective runs under two ops: `+`, which only a regrouping changes, and
//! `0.75·a − b`, which a swapped operand changes too.  The digest covers
//! every rank's result (its length and bits) at n ∈ {1, 3, 8, 12}, with
//! empty contributions included; the constants were recorded from the
//! receive-then-combine implementation these folds replaced.

use mim_mpisim::collectives::{allreduce_recursive_doubling, reduce_binary, reduce_binomial};
use mim_mpisim::{Comm, Rank, Universe, UniverseConfig};
use mim_topology::{Machine, Placement};

const SIZES: [usize; 4] = [1, 3, 8, 12];

type Op = fn(f64, f64) -> f64;

/// The two ops: a regrouping moves the first's bits, a swap the second's.
const OPS: [Op; 2] = [|a, b| a + b, |a, b| 0.75 * a - b];

/// Rank `r`'s `len` values: mixed signs, magnitudes 10⁻¹⁵ … 10¹⁵.
fn contribution(r: usize, len: usize) -> Vec<f64> {
    (0..len)
        .map(|j| {
            let exp = ((r * 7 + j * 5) % 31) as i32 - 15;
            let sign = if (r + j).is_multiple_of(3) { -1.0 } else { 1.0 };
            sign * (1.0 + (r * 13 + j) as f64 / 17.0) * 10f64.powi(exp)
        })
        .collect()
}

/// FNV-1a over 64-bit words.
fn fnv(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Run `coll` on every size, contribution length (items per rank) and op;
/// digest every rank's result.
fn digest(coll: impl Fn(&Rank, &Comm, &[f64], Op) -> Option<Vec<f64>> + Sync) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325;
    for n in SIZES {
        for len in [0, 3] {
            for op in OPS {
                let u = Universe::new(UniverseConfig::new(
                    Machine::cluster(4, 2, 4),
                    Placement::packed(n),
                ));
                let results = u.launch(|rank| {
                    let world = rank.comm_world();
                    coll(rank, &world, &contribution(world.rank(), len), op)
                });
                for (r, out) in results.iter().enumerate() {
                    fnv(&mut hash, r as u64);
                    let Some(out) = out else { continue };
                    fnv(&mut hash, out.len() as u64);
                    out.iter().for_each(|x| fnv(&mut hash, x.to_bits()));
                }
            }
        }
    }
    hash
}

#[test]
fn reduce_binomial_operand_order_is_pinned() {
    let hash = digest(|rank, comm, data, op| {
        let roots = [0, comm.size() / 2, comm.size() - 1];
        let outs: Vec<_> = roots.map(|root| reduce_binomial(rank, comm, root, data, op)).into();
        Some(outs.into_iter().flatten().flatten().collect())
    });
    assert_eq!(hash, 0x36d2_4182_29ed_6c40, "reduce_binomial: {hash:#018x}");
}

#[test]
fn reduce_binary_operand_order_is_pinned() {
    let hash = digest(|rank, comm, data, op| {
        let roots = [0, comm.size() / 2, comm.size() - 1];
        let outs: Vec<_> = roots.map(|root| reduce_binary(rank, comm, root, data, op)).into();
        Some(outs.into_iter().flatten().flatten().collect())
    });
    assert_eq!(hash, 0x5fdd_53b4_ac0a_6a58, "reduce_binary: {hash:#018x}");
}

/// n = 3 and 12 take the non-power-of-two fold; 1 and 8 do not.
#[test]
fn allreduce_recursive_doubling_operand_order_is_pinned() {
    let hash =
        digest(|rank, comm, data, op| Some(allreduce_recursive_doubling(rank, comm, data, op)));
    assert_eq!(hash, 0x7fdb_3928_bf97_28eb, "allreduce_recursive_doubling: {hash:#018x}");
}
