//! Sort keys with an optional order-preserving embedding into `u64`.
//!
//! Every sorting primitive of the simulator is keyed by a [`SortKey`]. Keys whose
//! order coincides with the `u64` order of an embedding ([`SortKey::IS_WORD`]) take
//! the linear-time LSD radix path of `crate::scratch`; all other keys fall back to a
//! comparison sort. Both paths are stable and produce bit-identical output order,
//! labels, and metrics — the fast path is purely a wall-clock optimization. The
//! tests check the equivalence by sorting word keys a second time through a newtype
//! with the same `Ord` and `IS_WORD = false` (`tests/integration_radix.rs`).

/// A sorting key: totally ordered, and optionally embeddable into `u64`.
///
/// # Contract for `IS_WORD = true`
///
/// [`to_word`](Self::to_word) must be a *strictly monotone* embedding:
/// `a < b ⟺ a.to_word() < b.to_word()` (hence also `a == b ⟺ equal words`). Under
/// this contract a stable sort by `to_word()` is indistinguishable from a stable sort
/// by the key itself, which is what makes the radix path drop-in safe. Types that
/// cannot guarantee this must leave `IS_WORD` at its default of `false`.
pub trait SortKey: Ord + Send {
    /// `true` when [`to_word`](Self::to_word) is a strictly monotone embedding into
    /// `u64` and the radix fast path may be used.
    const IS_WORD: bool = false;

    /// The `u64` image of this key. Only meaningful when [`IS_WORD`](Self::IS_WORD)
    /// is `true`; the default returns 0 and is never called by the primitives on
    /// fallback keys.
    fn to_word(&self) -> u64 {
        0
    }
}

macro_rules! impl_unsigned_sort_key {
    ($($t:ty),+) => {$(
        impl SortKey for $t {
            const IS_WORD: bool = true;
            #[inline]
            fn to_word(&self) -> u64 {
                *self as u64
            }
        }
    )+};
}

impl_unsigned_sort_key!(u8, u16, u32, u64, usize);

macro_rules! impl_signed_sort_key {
    ($($t:ty),+) => {$(
        impl SortKey for $t {
            const IS_WORD: bool = true;
            #[inline]
            fn to_word(&self) -> u64 {
                // Flip the sign bit: maps i64::MIN..=i64::MAX monotonically onto
                // 0..=u64::MAX.
                (*self as i64 as u64) ^ (1u64 << 63)
            }
        }
    )+};
}

impl_signed_sort_key!(i8, i16, i32, i64, isize);

impl SortKey for bool {
    const IS_WORD: bool = true;
    #[inline]
    fn to_word(&self) -> u64 {
        u64::from(*self)
    }
}

impl SortKey for char {
    const IS_WORD: bool = true;
    #[inline]
    fn to_word(&self) -> u64 {
        *self as u64
    }
}

impl SortKey for () {
    const IS_WORD: bool = true;
    #[inline]
    fn to_word(&self) -> u64 {
        0
    }
}

// Composite keys have no general monotone embedding into one machine word, so they
// keep the comparison path (IS_WORD = false). They still satisfy `SortKey`, so any
// `Ord` tuple of sort keys works with every primitive.
impl<A: SortKey, B: SortKey> SortKey for (A, B) {}
impl<A: SortKey, B: SortKey, C: SortKey> SortKey for (A, B, C) {}
impl<A: SortKey, B: SortKey, C: SortKey, D: SortKey> SortKey for (A, B, C, D) {}
impl<T: SortKey> SortKey for Option<T> {}
impl<T: SortKey> SortKey for Vec<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn word_order_matches<T: SortKey + Copy>(values: &[T]) {
        for &a in values {
            for &b in values {
                assert_eq!(a < b, a.to_word() < b.to_word());
                assert_eq!(a == b, a.to_word() == b.to_word());
            }
        }
    }

    fn is_word<K: SortKey>() -> bool {
        K::IS_WORD
    }

    #[test]
    fn unsigned_embedding_is_identity_like() {
        word_order_matches(&[0u64, 1, 5, u64::MAX, 1 << 40]);
        word_order_matches(&[0u32, 7, u32::MAX]);
        word_order_matches(&[0u8, 1, 255]);
        for on in [
            is_word::<u8>(),
            is_word::<u16>(),
            is_word::<u32>(),
            is_word::<u64>(),
            is_word::<usize>(),
            is_word::<bool>(),
            is_word::<char>(),
        ] {
            assert!(on, "word embedding expected");
        }
    }

    #[test]
    fn signed_embedding_is_monotone_across_zero() {
        word_order_matches(&[i64::MIN, -5, -1, 0, 1, 7, i64::MAX]);
        word_order_matches(&[i32::MIN, -1, 0, i32::MAX]);
        word_order_matches(&[-3i8, 0, 3]);
    }

    #[test]
    fn composites_fall_back_to_comparison() {
        for off in [
            is_word::<(u64, u64)>(),
            is_word::<Option<u64>>(),
            is_word::<Vec<u64>>(),
        ] {
            assert!(!off, "comparison fallback expected");
        }
    }
}
