//! The benchmark's arithmetic: seed derivation, exact quantiles,
//! Little's-law queue depth, and sampled-timer scaling. Everything
//! here is a pure function with a unit test, because every reported
//! number passes through one of them.

/// One output of the splitmix64 generator whose state is `state`
/// (Steele, Lea & Flood 2014): advance by the golden-ratio increment,
/// then mix.
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `index`-th output (0-based) of splitmix64 seeded with `base`:
/// the seed of the campaign's `index`-th simulation. Pure in
/// `(base, index)`, so pass `i` gets the same inputs however many
/// passes the time budget allows.
pub fn derive_seed(base: u64, index: u64) -> u64 {
    splitmix64(base.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// Exact nearest-rank quantile of an ascending slice: the smallest
/// sample such that at least `q` of the samples are `<=` it (rank
/// `ceil(q * n)`, clamped to `1..=n`). No interpolation, so the result
/// is always one of the samples and repeats exactly between runs of a
/// deterministic simulation.
///
/// # Panics
///
/// Panics on an empty slice or `q` outside `[0, 1]`.
pub fn nearest_rank<T: Copy + PartialOrd>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "quantile of no samples");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "unsorted samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of wall-clock samples (mean of the two middle samples when
/// the count is even). Sorts in place.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    samples.sort_by(f64::total_cmp);
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

/// First and third quartile by nearest rank over wall-clock samples.
/// Sorts in place.
pub fn quartiles(samples: &mut [f64]) -> (f64, f64) {
    assert!(!samples.is_empty(), "quartiles of no samples");
    samples.sort_by(f64::total_cmp);
    (nearest_rank(samples, 0.25), nearest_rank(samples, 0.75))
}

/// Little's law: the mean number of entries resident in the event
/// queue is the arrival rate (`arrivals / end_tick`) times the mean
/// residence (`mean_delay` ticks between scheduling and firing).
pub fn littles_depth(arrivals: u64, mean_delay: f64, end_tick: u64) -> f64 {
    if end_tick == 0 {
        0.0
    } else {
        arrivals as f64 * mean_delay / end_tick as f64
    }
}

/// Scales a 1-in-k sampled timer to all calls: the mean sampled
/// duration, less the cost of the `Instant` pair that measured it,
/// times the number of calls. Returns estimated total nanoseconds.
pub fn scale_sampled(sampled_ns: u64, sampled_calls: u64, calls: u64, timer_cost_ns: f64) -> f64 {
    if sampled_calls == 0 {
        return 0.0;
    }
    let per_call = (sampled_ns as f64 / sampled_calls as f64 - timer_cost_ns).max(0.0);
    per_call * calls as f64
}

/// `num / den`, or 0 when the denominator is 0 (a layer that did not
/// run reports 0, not NaN).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_reference_vector() {
        // First three outputs of the reference implementation seeded
        // with 0.
        assert_eq!(derive_seed(0, 0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(derive_seed(0, 1), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(derive_seed(0, 2), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn derived_seeds_are_distinct_and_stable() {
        let a: Vec<u64> = (0..64).map(|i| derive_seed(1, i)).collect();
        let b: Vec<u64> = (0..64).map(|i| derive_seed(1, i)).collect();
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), a.len());
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
    }

    #[test]
    fn nearest_rank_is_exact() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&s, 0.5), 50);
        assert_eq!(nearest_rank(&s, 0.99), 99);
        assert_eq!(nearest_rank(&s, 1.0), 100);
        assert_eq!(nearest_rank(&s, 0.0), 1);
        // Always a sample, never an interpolation.
        assert_eq!(nearest_rank(&[10, 20], 0.5), 10);
        assert_eq!(nearest_rank(&[10, 20], 0.51), 20);
        assert_eq!(nearest_rank(&[7], 0.99), 7);
        // 5 samples: p50 is the 3rd (ceil(2.5)), p99 the 5th.
        assert_eq!(nearest_rank(&[1, 2, 3, 4, 1000], 0.5), 3);
        assert_eq!(nearest_rank(&[1, 2, 3, 4, 1000], 0.99), 1000);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn nearest_rank_rejects_empty() {
        nearest_rank::<u64>(&[], 0.5);
    }

    #[test]
    fn median_and_quartiles() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut s: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(quartiles(&mut s), (2.0, 6.0));
    }

    #[test]
    fn littles_law_depth() {
        // Two-Phase on clique(512): 524 288 deliveries and acks, mean
        // delay 4.5 ticks, decided at tick 16.
        let d = littles_depth(524_288, 4.5, 16);
        assert!((d - 147_456.0).abs() < 1e-9);
        assert_eq!(littles_depth(10, 4.5, 0), 0.0);
    }

    #[test]
    fn sampled_timer_scaling() {
        // 1000 sampled calls took 150 µs with a 50 ns timer: 100 ns
        // per call, scaled to 8000 calls.
        let total = scale_sampled(150_000, 1000, 8000, 50.0);
        assert!((total - 800_000.0).abs() < 1e-6);
        // The timer's own cost never drives an estimate negative.
        assert_eq!(scale_sampled(10_000, 1000, 8000, 50.0), 0.0);
        assert_eq!(scale_sampled(0, 0, 0, 50.0), 0.0);
    }
}
