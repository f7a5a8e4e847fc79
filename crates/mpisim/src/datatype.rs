//! Scalar datatypes that can travel over the wire.
//!
//! What a message costs in host copies: the sender makes one allocation
//! and one encode copy ([`Scalar::to_bytes`]), and that buffer is the
//! envelope's payload all the way to the receiver.  A collective receiver
//! then makes one decode copy, straight into its result, and no allocation:
//! it appends with [`Scalar::decode`], or folds or decodes in place with
//! [`Scalar::fold_bytes`].  Only a point-to-point `recv` / `wait` and a
//! scatter's receiver, whose result is a fresh vector, pay an allocation
//! for it ([`Scalar::from_bytes`]).

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
pub trait Scalar: Copy + Default + Send + 'static {
    /// Size of one element in bytes.
    const SIZE: usize;

    /// Serialize a slice into little-endian bytes.
    fn to_bytes(slice: &[Self]) -> Vec<u8>;

    /// Decode little-endian bytes, in bulk, as an exact-size iterator of
    /// elements: `out.extend(T::decode(b))` writes them where `out`'s data
    /// ends up, with no buffer in between.
    ///
    /// # Panics
    /// Panics, before yielding anything, when `bytes.len()` is not a
    /// multiple of [`Scalar::SIZE`].
    fn decode(bytes: &[u8]) -> impl ExactSizeIterator<Item = Self> + '_;

    /// Deserialize little-endian bytes into a fresh vector.
    ///
    /// # Panics
    /// As [`Scalar::decode`].
    fn from_bytes(bytes: &[u8]) -> Vec<Self> {
        Self::decode(bytes).collect()
    }

    /// Fold a received payload into `acc`, element-wise and in place:
    /// `acc[i] = op(acc[i], received[i])`.  With `|_, got| got` it decodes
    /// the payload into `acc`.
    ///
    /// # Panics
    /// As [`Scalar::decode`], and when the payload does not hold exactly
    /// `acc.len()` elements (mismatched contributions).
    fn fold_bytes(acc: &mut [Self], bytes: &[u8], op: impl Fn(Self, Self) -> Self) {
        let received = Self::decode(bytes);
        assert_eq!(
            acc.len(),
            received.len(),
            "contributions differ in length: {} items received for {} slots",
            received.len(),
            acc.len()
        );
        for (a, b) in acc.iter_mut().zip(received) {
            *a = op(*a, b);
        }
    }
}

macro_rules! impl_scalar {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            const SIZE: usize = std::mem::size_of::<$t>();

            fn to_bytes(slice: &[Self]) -> Vec<u8> {
                slice.iter().map(|v| v.to_le_bytes()).collect::<Vec<_>>().into_flattened()
            }

            fn decode(bytes: &[u8]) -> impl ExactSizeIterator<Item = Self> + '_ {
                let (elems, rest) = bytes.as_chunks();
                assert!(
                    rest.is_empty(),
                    "byte length {} not a multiple of element size {}",
                    bytes.len(),
                    Self::SIZE
                );
                elems.iter().map(|c| <$t>::from_le_bytes(*c))
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

    /// A misaligned payload is refused when decoding starts, not midway.
    #[test]
    #[should_panic(expected = "byte length 3 not a multiple of element size 4")]
    fn misaligned_decode_panics_before_yielding() {
        let _ = i32::decode(&[1, 2, 3]);
    }

    #[test]
    fn fold_applies_elementwise() {
        let mut a = vec![1, 2, 3];
        i32::fold_bytes(&mut a, &i32::to_bytes(&[10, 20, 30]), |x, y| x - y);
        assert_eq!(a, vec![-9, -18, -27]);
    }

    #[test]
    #[should_panic(expected = "contributions differ in length: 2 items received for 1 slots")]
    fn fold_rejects_mismatch() {
        let mut a = vec![1u16];
        u16::fold_bytes(&mut a, &u16::to_bytes(&[1, 2]), |x, _| x);
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
            let same = |a: &[$t], b: &[$t]| {
                a.len() == b.len()
                    && a.iter().zip(b).all(|(x, y)| x.to_le_bytes() == y.to_le_bytes())
            };
            let name = stringify!($t);
            let back = <$t>::from_bytes(&bytes);
            assert!(same(&back, &v), "{name}: from_bytes(to_bytes(v)) != v, {len} elements");
            // Decoding onto the tail of a buffer appends exactly `v`.
            let decoded = <$t>::decode(&bytes);
            assert_eq!(decoded.len(), len, "{name}: decode's length");
            let half = len / 2;
            let mut onto = v[..half].to_vec();
            onto.extend(decoded);
            assert!(
                same(&onto[..half], &v[..half]) && same(&onto[half..], &v),
                "{name}: decode onto a tail, {len} elements"
            );
            // The fold's first operand is the accumulator, its second what
            // arrived: keeping either one reproduces it bit for bit.
            let mut acc: Vec<$t> = v.iter().rev().copied().collect();
            let kept = acc.clone();
            <$t>::fold_bytes(&mut acc, &bytes, |a, _| a);
            assert!(same(&acc, &kept), "{name}: fold keeping the accumulator");
            <$t>::fold_bytes(&mut acc, &bytes, |_, b| b);
            assert!(same(&acc, &back), "{name}: fold taking the payload");
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
        /// any bit pattern, both conversions agree with the oracle, and
        /// decoding onto a tail or folding agrees with `from_bytes`.
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
