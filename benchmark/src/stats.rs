//! Order statistics, the slice-median rule, and the seeded request
//! stream. Pure functions, tested against sorted-vector oracles.

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Nearest-rank percentile of an ascending slice: the smallest element
/// with at least `q` of the samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.total_cmp(b));
}

/// Median of unsorted values: the mean of the two middle elements when
/// the count is even.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Is the distribution's middle on one mode? The median of a bimodal
/// mix can jump between modes from run to run; this holds when p40 and
/// p60 both lie within `tol` of p50.
pub fn middle_is_unimodal(sorted: &[f64], tol: f64) -> bool {
    let p50 = percentile(sorted, 0.5);
    let near = |q| (percentile(sorted, q) - p50).abs() <= tol * p50;
    near(0.4) && near(0.6)
}

/// Index `i` repeated `weights[i]` times, the whole repeated until there
/// are at least `min_len` entries, shuffled by `seed`: the order in which
/// a mix requests its programs.
pub fn shuffled_deck(weights: &[usize], min_len: usize, seed: u64) -> Vec<usize> {
    let pass: Vec<usize> = weights
        .iter()
        .enumerate()
        .flat_map(|(i, &w)| std::iter::repeat_n(i, w))
        .collect();
    assert!(!pass.is_empty(), "a deck needs a positive weight");
    let copies = min_len.div_ceil(pass.len()).max(1);
    let mut deck: Vec<usize> = (0..copies).flat_map(|_| pass.iter().copied()).collect();
    deck.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
    deck
}

/// Arrival offsets in seconds of a Poisson process of `rate` per second,
/// up to `horizon` seconds.
pub fn poisson_schedule(rate: f64, horizon: f64, seed: u64) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut t = 0.0;
    let mut due = Vec::new();
    loop {
        // Inverse-CDF draw of an exponential gap; the argument of `ln`
        // stays in (0, 1].
        let u: f64 = rng.gen_range(0.0..1.0);
        t += -(1.0 - u).ln() / rate;
        if t >= horizon {
            return due;
        }
        due.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle_percentile(values: &[f64], q: f64) -> f64 {
        // Definition by counting: the smallest value v such that at
        // least q*n samples are <= v.
        let mut v = values.to_vec();
        sort(&mut v);
        let need = q * v.len() as f64;
        *v.iter()
            .find(|&&x| v.iter().filter(|&&y| y <= x).count() as f64 >= need)
            .unwrap_or(v.last().unwrap())
    }

    #[test]
    fn percentile_matches_counting_oracle() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for n in [1usize, 2, 3, 10, 99, 100, 101] {
            let mut v: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..50.0)).collect();
            let raw = v.clone();
            sort(&mut v);
            for q in [0.01, 0.4, 0.5, 0.6, 0.9, 0.99, 1.0] {
                assert_eq!(percentile(&v, q), oracle_percentile(&raw, q), "n={n} q={q}");
            }
        }
    }

    #[test]
    fn percentile_edges() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 2.0);
        assert_eq!(percentile(&v, 0.51), 3.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
    }

    #[test]
    fn median_of_slices_matches_sorted_oracle() {
        assert_eq!(median(&[5.0, 1.0, 4.0, 2.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[9.0]), 9.0);
        // One slice hit by a stall does not move the reported value.
        assert_eq!(median(&[100.0, 101.0, 99.0, 100.5, 12.0]), 100.0);
    }

    #[test]
    fn unimodality_check_separates_one_mode_from_two() {
        let mut one: Vec<f64> = (0..1000).map(|i| 1.0 + i as f64 * 1e-4).collect();
        sort(&mut one);
        assert!(middle_is_unimodal(&one, 0.2));
        // Half the requests at 0.5 ms, half at 18 ms: p40 and p60 sit on
        // different modes.
        let mut two: Vec<f64> = (0..1000)
            .map(|i| if i % 2 == 0 { 0.5 } else { 18.0 })
            .collect();
        sort(&mut two);
        assert!(!middle_is_unimodal(&two, 0.2));
    }

    #[test]
    fn deck_is_reproducible_and_balanced() {
        let weights = [8, 8, 1, 1, 2];
        let a = shuffled_deck(&weights, 100, 42);
        assert_eq!(a, shuffled_deck(&weights, 100, 42));
        assert_ne!(a, shuffled_deck(&weights, 100, 43));
        // Five passes of 20 reach 100.
        for (k, w) in weights.iter().enumerate() {
            assert_eq!(a.iter().filter(|&&x| x == k).count(), 5 * w);
        }
        assert_eq!(shuffled_deck(&[1, 1], 0, 1).len(), 2);
    }

    #[test]
    fn poisson_schedule_is_reproducible_and_has_the_rate() {
        let a = poisson_schedule(200.0, 10.0, 3);
        assert_eq!(a, poisson_schedule(200.0, 10.0, 3));
        assert_ne!(a, poisson_schedule(200.0, 10.0, 4));
        assert!(a.windows(2).all(|w| w[0] < w[1]), "arrivals ascend");
        assert!(a.last().unwrap() < &10.0);
        // 2000 expected, standard deviation ~45.
        assert!((1800..2200).contains(&a.len()), "{} arrivals", a.len());
    }
}
