//! SplitMix64: a small deterministic generator, so every input of a run
//! depends on the seed alone and on no library's choice of algorithm.

/// A seeded pseudo-random stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream `label` of `seed`: distinct labels give independent
    /// streams, so data, warm-up and each client draw from their own.
    pub fn stream(seed: u64, label: u64) -> Rng {
        let mut rng = Rng(seed ^ label.wrapping_mul(0xD1B5_4A32_D192_ED03));
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

    /// Uniform in `0..n`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Log-uniform in `[lo, hi]`, for selectivities spanning decades.
    pub fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        (lo.ln() + self.unit() * (hi.ln() - lo.ln())).exp()
    }
}
