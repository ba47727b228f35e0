//! The benchmark's own input generator: SplitMix64, so the inputs a seed
//! produces do not change when a crate under test changes its generator.

/// A SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream for `seed`, separated from other streams by `salt`.
    #[must_use]
    pub fn new(seed: u64, salt: u64) -> SplitMix {
        let mut rng = SplitMix(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A value in `-magnitude..=magnitude`.
    pub fn signed(&mut self, magnitude: i64) -> i64 {
        self.below(2 * magnitude as u64 + 1) as i64 - magnitude
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_and_differ_by_salt() {
        let a: Vec<u64> = (0..4).scan(SplitMix::new(7, 1), |r, _| Some(r.next_u64())).collect();
        let b: Vec<u64> = (0..4).scan(SplitMix::new(7, 1), |r, _| Some(r.next_u64())).collect();
        let c: Vec<u64> = (0..4).scan(SplitMix::new(7, 2), |r, _| Some(r.next_u64())).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = SplitMix::new(1, 0);
        assert!((0..1000).map(|_| r.signed(3)).all(|v| (-3..=3).contains(&v)));
    }
}
