//! `mim-util` — the workspace's in-tree standard library.
//!
//! The build environment is hermetic: nothing is fetched from crates.io, so
//! every crate in the workspace depends only on `std` and on this crate.
//! Each module here replaces exactly one former external dependency:
//!
//! | module | replaces | used by |
//! |---|---|---|
//! | [`rng`] | `rand` | placements, matrix generators, bench inputs |
//! | [`channel`] | `crossbeam::channel` | the mpisim mailbox wiring |
//! | [`sync`] | `parking_lot` | NIC counters, one-sided windows, runtime |
//! | [`prop`] | `proptest` | every `proptests.rs` suite |
//! | [`bench`](mod@bench) | `criterion` | the `crates/bench` microbenchmarks |
//! | [`deque`] | `crossbeam::deque` | the mpisim M:N rank executor |
//! | [`fiber`] | `corosensei` | the mpisim M:N rank executor |
//! | [`hash`] | `rustc-hash` | every library map: the mailbox's matcher, the analyzer's replay |
//!
//! The replacements are deliberately small: deterministic, seedable, and
//! with just enough API surface for the call sites in this repository.
//! Beside them sits [`env_u64`], the one reader of the numeric `MIM_*`
//! variables.

pub mod bench;
pub mod channel;
pub mod deque;
pub mod fiber;
pub mod hash;
pub mod prop;
pub mod rng;
pub mod sync;

/// The numeric environment variable `name`, in decimal or `0x` hex;
/// `None` when it is unset.
///
/// # Panics
/// When `name` is set to anything else, naming the variable and the value:
/// a value that fell back to the default would look like it took effect
/// (`MIM_PROP_SEED=0X1F` would run every random case and pass).
pub fn env_u64(name: &str) -> Option<u64> {
    let value = std::env::var_os(name)?;
    Some(parse_u64(name, &value.to_string_lossy()))
}

fn parse_u64(name: &str, value: &str) -> u64 {
    let parsed = match value.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => value.parse(),
    };
    parsed.unwrap_or_else(|_| panic!("{name}={value:?} is not a decimal or 0x-hex u64"))
}

#[cfg(test)]
mod tests {
    use super::parse_u64;

    #[test]
    fn env_values_are_decimal_or_hex() {
        assert_eq!(parse_u64("MIM_PROP_CASES", "64"), 64);
        assert_eq!(parse_u64("MIM_PROP_SEED", "0x1f"), 31);
        assert_eq!(parse_u64("MIM_PROP_SEED", "0x1F"), 31);
        assert_eq!(parse_u64("MIM_WORKERS", "0"), 0);
    }

    #[test]
    #[should_panic(expected = "MIM_PROP_SEED=\"0X1F\" is not a decimal or 0x-hex u64")]
    fn malformed_env_value_panics_naming_it() {
        parse_u64("MIM_PROP_SEED", "0X1F");
    }

    #[test]
    #[should_panic(expected = "MIM_DEADLINE_MS=\"\"")]
    fn empty_env_value_is_malformed() {
        parse_u64("MIM_DEADLINE_MS", "");
    }
}
