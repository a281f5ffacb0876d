//! Deterministic pseudo-random number generation for simulations.
//!
//! The kernel owns a single [`SimRng`] (xoshiro256++), seeded once per
//! experiment. Actors draw from it through their [`crate::Context`], so a
//! given seed always produces a bit-identical event history regardless of
//! host platform or dependency versions — a property the reproduction
//! harness relies on.
//!
//! xoshiro256++ is implemented here (public-domain algorithm by Blackman &
//! Vigna) instead of pulling a RNG crate so that the stream is frozen
//! forever.

use crate::time::{round_u64, SimDuration};

/// SplitMix64, used to expand a single `u64` seed into the 256-bit xoshiro
/// state and to derive independent sub-streams.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256++ generator.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
    /// Cached second normal variate from Box–Muller.
    spare_normal: Option<f64>,
}

impl SimRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // All-zero state would be a fixed point; splitmix64 cannot produce
        // four zeros from any seed, but guard anyway.
        if s == [0; 4] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        SimRng {
            s,
            spare_normal: None,
        }
    }

    /// Derive an independent generator for a sub-stream (e.g. one per
    /// generator actor) without perturbing this stream's future output.
    pub fn derive(&self, stream: u64) -> SimRng {
        // Mix the current state with the stream id through splitmix.
        let mut sm = self.s[0]
            ^ self.s[1].rotate_left(17)
            ^ self.s[2].rotate_left(31)
            ^ self.s[3].rotate_left(47)
            ^ stream.wrapping_mul(0xD2B7_4407_B1CE_6E93);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        if s == [0; 4] {
            s[0] = 1;
        }
        SimRng {
            s,
            spare_normal: None,
        }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)`. Uses the top 53 bits for a dyadic uniform.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` via Lemire's multiply-shift with
    /// rejection. `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Rejection zone keeps the distribution exactly uniform.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "range_u64: lo > hi");
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        lo + self.below(hi - lo + 1)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Exponentially-distributed float with the given mean.
    pub fn exp_f64(&mut self, mean: f64) -> f64 {
        debug_assert!(mean >= 0.0);
        // Avoid ln(0).
        let u = 1.0 - self.f64();
        -mean * u.ln()
    }

    /// Standard normal via Box–Muller (caches the spare variate).
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // u1 in (0,1] to avoid ln(0).
        let u1 = 1.0 - self.f64();
        let u2 = self.f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, stddev: f64) -> f64 {
        mean + stddev * self.standard_normal()
    }

    /// Uniform duration in `[lo, hi]` (inclusive, microsecond resolution).
    pub fn duration_between(&mut self, lo: SimDuration, hi: SimDuration) -> SimDuration {
        SimDuration::from_micros(self.range_u64(lo.as_micros(), hi.as_micros()))
    }

    /// Exponentially-distributed duration with the given mean.
    pub fn exp_duration(&mut self, mean: SimDuration) -> SimDuration {
        SimDuration::from_micros(round_u64(self.exp_f64(mean.as_micros() as f64)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should be essentially uncorrelated");
    }

    #[test]
    fn derive_is_deterministic_and_independent() {
        let root = SimRng::new(7);
        let mut d1 = root.derive(3);
        let mut d2 = root.derive(3);
        let mut d3 = root.derive(4);
        let v1: Vec<u64> = (0..16).map(|_| d1.next_u64()).collect();
        let v2: Vec<u64> = (0..16).map(|_| d2.next_u64()).collect();
        let v3: Vec<u64> = (0..16).map(|_| d3.next_u64()).collect();
        assert_eq!(v1, v2);
        assert_ne!(v1, v3);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SimRng::new(9);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_within_bound_and_covers() {
        let mut rng = SimRng::new(5);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = rng.below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn range_inclusive_endpoints_reachable() {
        let mut rng = SimRng::new(11);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..10_000 {
            match rng.range_u64(3, 5) {
                3 => lo_seen = true,
                5 => hi_seen = true,
                4 => {}
                other => panic!("out of range: {other}"),
            }
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn uniform_mean_close() {
        let mut rng = SimRng::new(13);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn exp_mean_close() {
        let mut rng = SimRng::new(17);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.exp_f64(10.0)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.3, "mean={mean}");
    }

    #[test]
    fn normal_moments_close() {
        let mut rng = SimRng::new(19);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.normal(5.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.05, "mean={mean}");
        assert!((var - 4.0).abs() < 0.15, "var={var}");
    }

    #[test]
    fn chance_edge_cases() {
        let mut rng = SimRng::new(23);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-0.5));
        assert!(rng.chance(1.5));
        let hits = (0..100_000).filter(|_| rng.chance(0.25)).count();
        assert!((hits as f64 / 100_000.0 - 0.25).abs() < 0.01);
    }

    #[test]
    fn duration_helpers() {
        let mut rng = SimRng::new(29);
        for _ in 0..1000 {
            let d =
                rng.duration_between(SimDuration::from_millis(10), SimDuration::from_millis(20));
            assert!(d >= SimDuration::from_millis(10));
            assert!(d <= SimDuration::from_millis(20));
        }
        let mean = SimDuration::from_millis(100);
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| rng.exp_duration(mean).as_micros()).sum();
        let avg = sum as f64 / n as f64;
        assert!((avg - 100_000.0).abs() < 3_000.0, "avg={avg}");
    }
}
