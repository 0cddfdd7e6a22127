//! Open-loop arrival schedules and seed derivation.
//!
//! Every input of a run is a pure function of `(--seed, phase)`: the same
//! seed gives the same requests at the same offsets, on every commit.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

/// Derives the seed of one phase (or one input stream) from the run seed,
/// so phases draw independent inputs.
pub fn derive(seed: u64, stream: u64) -> u64 {
    // SplitMix64 finalizer over the pair.
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(0x94d0_49bb_1331_11eb);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded generator for one stream of a run.
pub fn rng(seed: u64, stream: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(derive(seed, stream))
}

/// Poisson arrival offsets at `rate` per second over `length`: exponential
/// gaps with mean `1 / rate`, every offset strictly inside the window.
pub fn poisson(seed: u64, stream: u64, rate: f64, length: Duration) -> Vec<Duration> {
    assert!(
        rate.is_finite() && rate > 0.0,
        "arrival rate must be positive"
    );
    let mut rng = rng(seed, stream);
    let horizon = length.as_secs_f64();
    let mut offsets = Vec::with_capacity((rate * horizon * 1.1) as usize + 16);
    let mut at = 0.0;
    loop {
        let unit: f64 = rng.gen();
        at += -(1.0 - unit).ln() / rate;
        if at >= horizon {
            return offsets;
        }
        offsets.push(Duration::from_secs_f64(at));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_in_the_seed() {
        let length = Duration::from_secs(2);
        let a = poisson(7, 3, 500.0, length);
        let b = poisson(7, 3, 500.0, length);
        assert_eq!(a, b);
        assert_ne!(a, poisson(8, 3, 500.0, length), "seed must matter");
        assert_ne!(a, poisson(7, 4, 500.0, length), "phase must matter");
    }

    #[test]
    fn schedules_are_monotone_and_paced() {
        let offsets = poisson(11, 0, 1000.0, Duration::from_secs(4));
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        assert!(offsets.iter().all(|o| *o < Duration::from_secs(4)));
        // 4000 expected arrivals, standard deviation ~63: allow 5 sigma.
        let count = offsets.len() as f64;
        assert!((count - 4000.0).abs() < 320.0, "count {count}");
    }

    #[test]
    fn derived_seeds_differ_per_stream() {
        assert_ne!(derive(1, 0), derive(1, 1));
        assert_ne!(derive(1, 0), derive(2, 0));
        assert_eq!(derive(5, 9), derive(5, 9));
    }
}
