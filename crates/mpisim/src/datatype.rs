//! Scalar datatypes that can travel over the wire.

/// A fixed-size scalar that can be serialized to/from little-endian bytes.
///
/// This plays the role of MPI's basic datatypes.  A typed message is copied
/// once per side, in bulk: both conversions map whole `[u8; SIZE]` arrays,
/// which on a little-endian target compiles to one `memcpy` of the slice's
/// bytes (16 KiB of `f64`: 150–180 ns either way, the speed of
/// `<[u8]>::to_vec`) and on a big-endian one to a byte-swapping loop — no
/// `unsafe`, no per-target path.  Time is virtual, but host time is what the
/// ledger measures: appending element by element cost 2.0 µs per 16 KiB
/// `f64` halo and 10.9 µs per 16 KiB of `u8`, more than the rest of the send.
pub trait Scalar: Copy + Send + 'static {
    /// Size of one element in bytes.
    const SIZE: usize;

    /// Serialize a slice into little-endian bytes.
    fn to_bytes(slice: &[Self]) -> Vec<u8>;

    /// Deserialize little-endian bytes into a vector.
    ///
    /// # Panics
    /// Panics when `bytes.len()` is not a multiple of [`Scalar::SIZE`].
    fn from_bytes(bytes: &[u8]) -> Vec<Self>;
}

macro_rules! impl_scalar {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            const SIZE: usize = std::mem::size_of::<$t>();

            fn to_bytes(slice: &[Self]) -> Vec<u8> {
                slice.iter().map(|v| v.to_le_bytes()).collect::<Vec<_>>().into_flattened()
            }

            fn from_bytes(bytes: &[u8]) -> Vec<Self> {
                let (elems, rest) = bytes.as_chunks();
                assert!(
                    rest.is_empty(),
                    "byte length {} not a multiple of element size {}",
                    bytes.len(),
                    Self::SIZE
                );
                elems.iter().map(|c| <$t>::from_le_bytes(*c)).collect()
            }
        }
    )*};
}

impl_scalar!(u8, i8, u16, i16, u32, i32, u64, i64, f32, f64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_ints() {
        let v: Vec<i32> = vec![-1, 0, 7, i32::MAX, i32::MIN];
        assert_eq!(i32::from_bytes(&i32::to_bytes(&v)), v);
    }

    #[test]
    fn roundtrip_floats() {
        let v: Vec<f64> = vec![0.0, -1.5, f64::MAX, 1e-300];
        assert_eq!(f64::from_bytes(&f64::to_bytes(&v)), v);
    }

    #[test]
    fn sizes() {
        assert_eq!(<u8 as Scalar>::SIZE, 1);
        assert_eq!(<i32 as Scalar>::SIZE, 4);
        assert_eq!(<f64 as Scalar>::SIZE, 8);
    }

    #[test]
    fn empty_slice() {
        let v: Vec<u64> = vec![];
        assert_eq!(u64::from_bytes(&u64::to_bytes(&v)), v);
    }

    #[test]
    #[should_panic(expected = "byte length 3 not a multiple of element size 4")]
    fn misaligned_length_panics() {
        i32::from_bytes(&[1, 2, 3]);
    }

    /// One case of `bulk_equals_per_element` for one scalar type: `$elem`
    /// builds an element from 64 random bits.
    macro_rules! check_bulk {
        ($g:ident, $t:ty, $elem:expr) => {{
            let len = match $g.gen_range(0usize..8) {
                0 => 0,
                1 => 4097,
                _ => $g.gen_range(0usize..4098),
            };
            let v: Vec<$t> = (0..len).map(|_| $elem($g.any_u64())).collect();
            // The oracle: the element-by-element form the bulk copies replaced.
            let mut reference = Vec::with_capacity(len * <$t as Scalar>::SIZE);
            for x in &v {
                reference.extend_from_slice(&x.to_le_bytes());
            }
            let bytes = <$t>::to_bytes(&v);
            assert_eq!(bytes, reference, "{}: to_bytes, {len} elements", stringify!($t));
            // Bit for bit — `==` would call two equal NaNs different.
            let back = <$t>::from_bytes(&bytes);
            assert!(
                back.len() == len
                    && back.iter().zip(&v).all(|(a, b)| a.to_le_bytes() == b.to_le_bytes()),
                "{}: from_bytes(to_bytes(v)) != v, {len} elements",
                stringify!($t)
            );
        }};
    }

    /// Random bits, one time in four replaced by a pattern a value-wise copy
    /// could mangle: −0.0, a NaN with a payload, the smallest subnormal, −∞.
    fn spiked(bits: u64, special: [u64; 4]) -> u64 {
        if bits & 3 == 0 {
            special[(bits >> 2) as usize & 3]
        } else {
            bits
        }
    }
    const F64_SPECIAL: [u64; 4] = [1 << 63, 0x7FF4_DEAD_BEEF_0001, 1, 0xFFF0 << 48];
    const F32_SPECIAL: [u64; 4] = [1 << 31, 0x7FA0_BEEF, 1, 0xFF80 << 16];

    mim_util::props! {
        /// Bulk equals per-element: for every scalar type, any length and
        /// any bit pattern, both conversions agree with the oracle.
        fn bulk_equals_per_element(g) {
            check_bulk!(g, u8, |b| b as u8);
            check_bulk!(g, i8, |b| b as i8);
            check_bulk!(g, u16, |b| b as u16);
            check_bulk!(g, i16, |b| b as i16);
            check_bulk!(g, u32, |b| b as u32);
            check_bulk!(g, i32, |b| b as i32);
            check_bulk!(g, u64, |b| b);
            check_bulk!(g, i64, |b| b as i64);
            check_bulk!(g, f32, |b| f32::from_bits(spiked(b, F32_SPECIAL) as u32));
            check_bulk!(g, f64, |b| f64::from_bits(spiked(b, F64_SPECIAL)));
        }
    }
}
