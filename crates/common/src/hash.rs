//! One small, fixed hasher for every hash table of the workspace: the
//! executor's (hash-join build sides, GROUP BY and DISTINCT groups, the
//! subquery cache), the optimizer's (the join enumerator's subset memo,
//! per-block statistics), the plan cache, the feedback store, the
//! catalog, storage and the tools. [`HashMap`] and [`HashSet`] are std's
//! tables over it, and a lint (`disallowed-types` in `clippy.toml`)
//! keeps std's `RandomState` tables out.
//!
//! std's default is SipHash with a per-process random key, written for
//! untrusted keys. The keys here are ids, masks, names and SQL values,
//! hashed on every probe (the join enumerator probes its memo twice per
//! split of every connected set), where a multiply-rotate word hasher is
//! several times cheaper. Its output is fixed by its code alone (the
//! golden values and the pinned iteration order below), so hash-table
//! behaviour, iteration order included, is the same in every process
//! and on every host.
//!
//! It does not defend against hash flooding, and needs not: a hash is
//! only a filter, since every table that uses it compares full keys on a
//! hash hit, so a collision costs a comparison, never a wrong answer;
//! and the tables that grow with their input are bounded (the plan
//! cache and its recipes by a byte budget, the feedback store by its
//! capacity), so crafted keys can slow a probe but not grow memory.
//!
//! Where a 64-bit hash *is* an identity and no full-key compare follows
//! — the §3.4.2 annotation key (`cbqt_qgm::fingerprint`) and a plan's
//! metrics fingerprint (`PlanIndex::build`) — a collision would be a
//! wrong answer, so those keep std's SipHash with its fixed keys.
//!
//! Values are fed through [`Value`](crate::Value)'s `Hash`, which hashes
//! `Int(1)`, `Double(1.0)` and `Date(1)` alike because they compare
//! equal.

use std::hash::{BuildHasherDefault, Hash, Hasher};

/// `std`'s `HashMap` over [`KeyHasher`]. Build one with `default()` or
/// `with_capacity_and_hasher(n, Default::default())`.
#[allow(clippy::disallowed_types)]
pub type HashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<KeyHasher>>;

/// `std`'s `HashSet` over [`KeyHasher`].
#[allow(clippy::disallowed_types)]
pub type HashSet<K> = std::collections::HashSet<K, BuildHasherDefault<KeyHasher>>;

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

    /// Golden values: the hasher is part of no on-disk format, so the
    /// pins guard against an accidental edit (which would move every
    /// map's iteration order) and a host-dependent hasher sneaking in.
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

    /// Map iteration order is a function of the keys alone, the same in
    /// every process: a swap back to a per-process `RandomState`, or an
    /// edit to the hasher, moves these lists.
    #[test]
    fn iteration_order_is_pinned() {
        let ints: HashSet<u64> = [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 1 << 40, u64::MAX]
            .into_iter()
            .collect();
        let got: Vec<u64> = ints.iter().copied().collect();
        let want = [0, 5, 8, 34, 55, 1, 144, 1 << 40, u64::MAX, 2, 89, 13, 3, 21];
        assert_eq!(got, want, "{got:?}");

        /// Shaped like the optimizer's table references.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        struct Ref(u32);
        let refs: HashMap<Ref, usize> = (0..16).map(|i| (Ref(i), i as usize)).collect();
        let got: Vec<u32> = refs.keys().map(|r| r.0).collect();
        let want = [0, 5, 1, 10, 9, 2, 4, 6, 7, 12, 8, 14, 15, 11, 13, 3];
        assert_eq!(got, want, "{got:?}");
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
