//! Result digests: 64-bit FNV-1a over a value's `Debug` rendering.
//!
//! `Debug` prints every `f64` in its shortest round-trip form, so two
//! results have equal digests exactly when every field is bit-identical
//! (up to the sign of zero and NaN payloads, which the drivers never
//! produce).

use std::fmt::Debug;

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(OFFSET, |h, &b| (h ^ u64::from(b)).wrapping_mul(PRIME))
}

/// Digest of a value's `Debug` rendering.
pub fn of_debug<T: Debug + ?Sized>(value: &T) -> u64 {
    fnv1a(format!("{value:?}").as_bytes())
}
