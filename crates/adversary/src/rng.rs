//! The workspace's one deterministic PRNG (SplitMix64).
//!
//! Reproducibility matters more than statistical quality here: every
//! tamper offset, validation case, arrival draw, and tenant sealing key
//! derives from a root seed, so a failing matrix cell or validation case
//! can be replayed exactly and every seeded output is pinned. Each
//! consumer advances its own derived stream ([`Rng::derive`]), so no two
//! consumers ever share state. `seda-validate` and `seda-serve` use this
//! generator too; it lives here because both depend on this crate.

/// SplitMix64 generator.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a raw seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The derived sub-seed for stream `idx` under `seed` — one
    /// SplitMix64 step over the combined value, so neighbouring streams
    /// are uncorrelated.
    pub fn sub_seed(seed: u64, idx: u64) -> u64 {
        Self::new(seed ^ idx.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
    }

    /// A generator for stream `idx` (a matrix cell, a validation case, a
    /// serving stream) of the run under `seed`.
    pub fn derive(seed: u64, idx: u64) -> Self {
        Self::new(Self::sub_seed(seed, idx))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`. `bound` must be positive.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0)");
        // Modulo bias is irrelevant at these bounds (all ≪ 2^32).
        self.next_u64() % bound
    }

    /// Uniform value in `[lo, hi]` inclusive.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        lo + self.below(hi - lo + 1)
    }

    /// Picks one element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }

    /// A biased coin: true with probability `num / den`.
    pub fn coin(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    /// Uniform `f64` in the half-open interval `(0, 1]` — never zero, so
    /// it is safe under `ln()`.
    pub fn unit_open(&mut self) -> f64 {
        // 53 mantissa bits, shifted into (0, 1] by the +1.
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// One exponential draw with the given mean (inverse-CDF over
    /// [`unit_open`](Self::unit_open)), in the mean's unit.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -self.unit_open().ln() * mean
    }

    /// A random 16-byte block (AES key / plaintext material).
    pub fn block(&mut self) -> [u8; 16] {
        let mut out = [0u8; 16];
        self.fill(&mut out);
        out
    }

    /// Fills `buf` with pseudo-random bytes.
    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn derived_streams_differ() {
        let a = Rng::derive(1, 0).next_u64();
        let b = Rng::derive(1, 1).next_u64();
        assert_ne!(a, b);
        for idx in 0..64 {
            let mut derived = Rng::derive(1, idx);
            assert_eq!(
                derived.next_u64(),
                Rng::new(Rng::sub_seed(1, idx)).next_u64()
            );
        }
    }

    #[test]
    fn streams_are_distinct() {
        let seeds: Vec<u64> = (0..64).map(|s| Rng::sub_seed(1, s)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
    }

    #[test]
    fn sub_seeds_differ_across_cases() {
        let seeds: Vec<u64> = (0..4)
            .flat_map(|root| (0..64).map(move |c| Rng::sub_seed(root, c)))
            .collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
    }

    #[test]
    fn fill_covers_partial_chunks() {
        let mut rng = Rng::new(9);
        let mut buf = [0u8; 13];
        rng.fill(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn block_is_two_little_endian_words() {
        let mut words = Rng::new(11);
        let mut expect = [0u8; 16];
        expect[..8].copy_from_slice(&words.next_u64().to_le_bytes());
        expect[8..].copy_from_slice(&words.next_u64().to_le_bytes());
        assert_eq!(Rng::new(11).block(), expect);
    }

    #[test]
    fn range_is_inclusive_and_in_bounds() {
        let mut rng = Rng::new(7);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..2000 {
            let v = rng.range(3, 6);
            assert!((3..=6).contains(&v));
            saw_lo |= v == 3;
            saw_hi |= v == 6;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn unit_open_stays_in_bounds() {
        let mut rng = Rng::new(7);
        for _ in 0..10_000 {
            let u = rng.unit_open();
            assert!(u > 0.0 && u <= 1.0, "{u}");
        }
    }

    #[test]
    fn exponential_draws_are_positive() {
        let mut rng = Rng::new(9);
        for _ in 0..10_000 {
            assert!(rng.exp(25.0) >= 0.0);
        }
    }
}
