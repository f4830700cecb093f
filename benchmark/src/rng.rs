//! Seeded input generation: the benchmark's own random source, Poisson
//! arrival schedules and Zipf-skewed choice.
//!
//! Everything here is a pure function of the workload seed, so the same
//! `--seed` always yields the same codes, queries, operation mix and
//! arrival schedule. The program under test never sees the seed.

use ha_bitcode::BinaryCode;

/// SplitMix64: tiny, fast, and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `stream` of workload `seed` (independent streams
    /// for codes, queries, schedule, … so changing one leaves the others
    /// alone).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Exponential with mean `mean`.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    /// A uniformly random code of `bits` bits.
    pub fn code(&mut self, bits: usize) -> BinaryCode {
        let words: Vec<u64> = (0..bits.div_ceil(64)).map(|_| self.next_u64()).collect();
        BinaryCode::from_words(&words, bits)
    }

    /// `code` with `flips` distinct random bit positions flipped.
    pub fn perturb(&mut self, code: &BinaryCode, flips: usize) -> BinaryCode {
        let mut out = code.clone();
        let mut done: Vec<usize> = Vec::with_capacity(flips);
        while done.len() < flips.min(code.len()) {
            let i = self.below(code.len());
            if !done.contains(&i) {
                done.push(i);
                out.flip(i);
            }
        }
        out
    }
}

/// Send offsets (seconds from the start of the open loop) of a Poisson
/// arrival process at `rate` per second, covering `[0, seconds)`.
pub fn poisson_schedule(rate: f64, seconds: f64, rng: &mut Rng) -> Vec<f64> {
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    let mut t = rng.exp(1.0 / rate);
    while t < seconds {
        out.push(t);
        t += rng.exp(1.0 / rate);
    }
    out
}

/// Zipf(`s`) choice over ranks `0..n`: rank `r` is drawn with probability
/// proportional to `1 / (r + 1)^s`, by inverting the cumulative weights.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n >= 1` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// One rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(8, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let d: Vec<u64> = {
            let mut r = Rng::new(7, 2);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c, "seed changes the stream");
        assert_ne!(a, d, "stream id changes the stream");
    }

    #[test]
    fn poisson_schedule_is_seeded_sorted_and_at_rate() {
        let s1 = poisson_schedule(2_000.0, 5.0, &mut Rng::new(3, 9));
        let s2 = poisson_schedule(2_000.0, 5.0, &mut Rng::new(3, 9));
        let s3 = poisson_schedule(2_000.0, 5.0, &mut Rng::new(4, 9));
        assert_eq!(s1, s2);
        assert_ne!(s1, s3);
        assert!(s1.windows(2).all(|w| w[0] <= w[1]));
        assert!(s1.iter().all(|&t| (0.0..5.0).contains(&t)));
        // 10 000 expected arrivals; the Poisson sd is 100.
        let n = s1.len() as f64;
        assert!((n - 10_000.0).abs() < 500.0, "{n} arrivals");
    }

    #[test]
    fn zipf_prefers_low_ranks_and_is_seeded() {
        let z = Zipf::new(100, 1.0);
        let mut r = Rng::new(1, 1);
        let draws: Vec<usize> = (0..20_000).map(|_| z.sample(&mut r)).collect();
        assert!(draws.iter().all(|&d| d < 100));
        let top = draws.iter().filter(|&&d| d == 0).count();
        let mid = draws.iter().filter(|&&d| d == 50).count();
        assert!(top > 10 * mid.max(1), "rank 0: {top}, rank 50: {mid}");
        let mut r2 = Rng::new(1, 1);
        let again: Vec<usize> = (0..20_000).map(|_| z.sample(&mut r2)).collect();
        assert_eq!(draws, again);
    }

    #[test]
    fn codes_and_perturbation() {
        let mut r = Rng::new(5, 5);
        let c = r.code(512);
        assert_eq!(c.len(), 512);
        let p = r.perturb(&c, 3);
        assert_eq!(c.hamming(&p), 3);
        assert_eq!(Rng::new(5, 5).code(512), c);
        assert_eq!(r.code(64).len(), 64);
    }
}
