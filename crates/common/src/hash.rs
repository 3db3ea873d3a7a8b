//! A small, fixed hasher for the executor's hash tables (hash-join build
//! sides, GROUP BY and DISTINCT groups).
//!
//! The standard library's `DefaultHasher` is keyed per process and
//! written for untrusted keys; executor keys are SQL values hashed once
//! per row, where a multiply-rotate word hasher is several times cheaper.
//! Its output is fixed by its code alone (the golden values below pin
//! it), so hash-table behaviour never depends on the host. A hash is only
//! a filter: every table that uses it compares full keys on a hash hit,
//! so a collision costs a comparison, never a wrong group.
//!
//! Values are fed through [`Value`](crate::Value)'s `Hash`, which hashes
//! `Int(1)`, `Double(1.0)` and `Date(1)` alike because they compare
//! equal.

use std::hash::{Hash, Hasher};

/// Odd multiplier of the word mix (the FxHash constant).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// Word-at-a-time multiply-rotate hasher with a final avalanche, so the
/// low bits a power-of-two table indexes by depend on every input bit.
#[derive(Debug, Clone, Copy)]
pub struct KeyHasher(u64);

impl Default for KeyHasher {
    /// A non-zero start, so leading zero words (a NULL, an integer 0)
    /// still move the state.
    fn default() -> KeyHasher {
        KeyHasher(K)
    }
}

impl KeyHasher {
    #[inline]
    fn add(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(K);
    }
}

impl Hasher for KeyHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The murmur3 64-bit finalizer over the running state.
    #[inline]
    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        z = (z ^ (z >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        z ^ (z >> 33)
    }
}

/// Hashes a sequence of items (a composite key's values, in key order).
#[inline]
pub fn hash_all<'a, T: Hash + 'a>(items: impl IntoIterator<Item = &'a T>) -> u64 {
    let mut h = KeyHasher::default();
    for v in items {
        v.hash(&mut h);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    fn one(v: &Value) -> u64 {
        hash_all([v])
    }

    /// Golden values: the hasher is part of no on-disk format, but a
    /// change to it changes hash-table iteration nowhere visible either,
    /// so the pins only guard against an accidental edit (and against a
    /// host-dependent hasher sneaking in).
    #[test]
    fn golden_values() {
        let got: Vec<u64> = [
            Value::Null,
            Value::Int(0),
            Value::Int(1),
            Value::Int(-7),
            Value::Double(2.5),
            Value::str(""),
            Value::str("emp42"),
            Value::str("a longer string of 27 bytes"),
            Value::Bool(true),
        ]
        .iter()
        .map(one)
        .collect();
        let want = [
            0xdb5d_73c8_1264_5360,
            0xf092_60ad_dd6c_c05a,
            0x3dd9_fd9f_907a_8728,
            0xc91e_4d49_28c4_345b,
            0x90c9_6b5a_999b_cf7f,
            0x2a86_b820_107f_35e7,
            0xcd8c_c7bc_91bc_5261,
            0xa42f_18d5_7353_15d9,
            0xf29f_c8b8_28e6_a604,
        ];
        assert_eq!(got, want, "{got:#x?}");
        let pair = hash_all(&[Value::Int(3), Value::str("t1")]);
        assert_eq!(pair, 0xeb3f_fd57_ce50_5328, "{pair:#x}");
    }

    #[test]
    fn equal_numbers_hash_equal() {
        let h = one(&Value::Int(1));
        assert_eq!(h, one(&Value::Double(1.0)));
        assert_eq!(h, one(&Value::Date(1)));
        assert_eq!(one(&Value::Double(0.0)), one(&Value::Double(-0.0)));
        assert_ne!(h, one(&Value::Int(2)));
        assert_ne!(h, one(&Value::str("1")));
    }

    #[test]
    fn key_order_matters() {
        let (a, b) = (Value::Int(1), Value::Int(2));
        assert_ne!(hash_all([&a, &b]), hash_all([&b, &a]));
        // a NULL is a value of the key, not nothing
        assert_ne!(hash_all([&a]), hash_all([&a, &Value::Null]));
    }

    #[test]
    fn low_bits_spread() {
        // consecutive integers must not crowd a power-of-two table
        let mut used = [false; 64];
        for i in 0..64 {
            used[(one(&Value::Int(i)) & 63) as usize] = true;
        }
        assert!(used.iter().filter(|u| **u).count() > 32);
    }
}
