//! The benchmark's own PRNG (splitmix64). Owning it means a change to
//! `cbqt-testkit`'s generator can never change the benchmark's inputs.

#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one named part of one workload, so adding
    /// a draw to one generator never shifts another generator's values.
    pub fn stream(seed: u64, label: &str) -> Rng {
        let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
        for b in label.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut r = Rng(h);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is far below anything
    /// the workloads can observe.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as u64) as i64
    }

    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 <= p
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_labels_are_independent() {
        let draw = |seed, label| {
            let mut r = Rng::stream(seed, label);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(42, "x"), draw(42, "x"));
        assert_ne!(
            Rng::stream(42, "x").next_u64(),
            Rng::stream(42, "y").next_u64()
        );
        assert_ne!(
            Rng::stream(42, "x").next_u64(),
            Rng::stream(43, "x").next_u64()
        );
    }

    #[test]
    fn range_stays_in_bounds() {
        let mut r = Rng::stream(1, "range");
        for _ in 0..1000 {
            let v = r.range(-3, 4);
            assert!((-3..4).contains(&v));
        }
    }
}
