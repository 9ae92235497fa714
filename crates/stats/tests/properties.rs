//! Property tests of the statistics toolkit's invariants.
//!
//! Each property runs 256 randomized cases drawn from the workspace's
//! own seeded RNG, so the suite is deterministic and needs no external
//! crate. Every case has its own seed; a failing case prints it
//! (`eyeorg_stats::rng::for_each_case`).

use eyeorg_stats::{
    bootstrap_ci, classify_shape, pearson, percentile, percentile_band, spearman, Ecdf,
    Histogram, Rng, Seed, ShapeParams, Summary,
};
use eyeorg_stats::rng::for_each_case;

/// Cases per property.
const CASES: u64 = 256;

/// A sample of 1 to `max_len - 1` finite values in ±1e6.
fn finite_vec(rng: &mut Rng, max_len: usize) -> Vec<f64> {
    let n = rng.random_range(1..max_len);
    (0..n).map(|_| rng.random_range(-1e6..1e6)).collect()
}

#[test]
fn percentile_within_sample_bounds() {
    for_each_case(1, CASES, |rng| {
        let sample = finite_vec(rng, 64);
        let p = rng.random_range(0.0..=100.0);
        let v = percentile(&sample, p).unwrap();
        let lo = sample.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = sample.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(v >= lo && v <= hi);
    });
}

#[test]
fn percentile_monotone_in_p() {
    for_each_case(2, CASES, |rng| {
        let sample = finite_vec(rng, 64);
        let (a, b) = (rng.random_range(0.0..=100.0), rng.random_range(0.0..=100.0));
        let (lo_p, hi_p) = if a <= b { (a, b) } else { (b, a) };
        assert!(percentile(&sample, lo_p).unwrap() <= percentile(&sample, hi_p).unwrap());
    });
}

#[test]
fn band_is_a_subsequence_within_percentiles() {
    for_each_case(3, CASES, |rng| {
        let sample = finite_vec(rng, 64);
        let kept = percentile_band(&sample, 25.0, 75.0);
        let lo = percentile(&sample, 25.0).unwrap();
        let hi = percentile(&sample, 75.0).unwrap();
        assert!(kept.iter().all(|v| *v >= lo && *v <= hi));
        // Subsequence of the original (order preserved).
        let mut it = sample.iter();
        for k in &kept {
            assert!(it.any(|s| s == k), "band must be a subsequence");
        }
        // Non-empty for n >= 3 (the median always survives).
        if sample.len() >= 3 {
            assert!(!kept.is_empty());
        }
    });
}

#[test]
fn ecdf_is_a_cdf() {
    for_each_case(4, CASES, |rng| {
        let sample = finite_vec(rng, 64);
        let probe = rng.random_range(-1e6..1e6);
        let e = Ecdf::new(&sample).unwrap();
        let y = e.eval(probe);
        assert!((0.0..=1.0).contains(&y));
        assert_eq!(e.eval(e.max()), 1.0);
        assert!(e.eval(e.min() - 1.0) == 0.0);
        // Monotone on a small grid.
        let pts = e.sampled(16);
        for w in pts.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
    });
}

#[test]
fn pearson_bounded_and_symmetric() {
    for_each_case(5, CASES, |rng| {
        let n = rng.random_range(3..40);
        let pairs: Vec<(f64, f64)> =
            (0..n).map(|_| (rng.random_range(-1e3..1e3), rng.random_range(-1e3..1e3))).collect();
        let x: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let y: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        if let Some(r) = pearson(&x, &y) {
            assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
            assert!((pearson(&y, &x).unwrap() - r).abs() < 1e-9);
            // Invariance under positive affine transforms of x.
            let xt: Vec<f64> = x.iter().map(|v| 3.0 * v + 7.0).collect();
            if let Some(rt) = pearson(&xt, &y) {
                assert!((rt - r).abs() < 1e-6);
            }
        }
        if let Some(rs) = spearman(&x, &y) {
            assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&rs));
        }
    });
}

#[test]
fn histogram_conserves_mass() {
    for_each_case(6, CASES, |rng| {
        let sample = finite_vec(rng, 128);
        let h = Histogram::auto(&sample).unwrap();
        assert_eq!(h.total() as usize + h.outside() as usize, sample.len());
    });
}

#[test]
fn summary_consistent() {
    for_each_case(7, CASES, |rng| {
        let sample = finite_vec(rng, 64);
        let s = Summary::of(&sample).unwrap();
        assert!(s.min <= s.median && s.median <= s.max);
        assert!(s.min <= s.mean && s.mean <= s.max);
        assert!(s.stdev >= 0.0);
    });
}

#[test]
fn bootstrap_ci_brackets_point() {
    for_each_case(8, CASES, |rng| {
        let sample = finite_vec(rng, 40);
        let seed = rng.random_range(0..500u64);
        if let Some(ci) = bootstrap_ci(&sample, 0.9, 100, Seed(seed), eyeorg_stats::summary::mean)
        {
            assert!(ci.lo <= ci.point + 1e-9 && ci.point <= ci.hi + 1e-9);
        }
    });
}

#[test]
fn classification_total() {
    for_each_case(9, CASES, |rng| {
        let sample = finite_vec(rng, 64);
        // classify_shape never panics and returns None only for tiny input.
        let r = classify_shape(&sample, &ShapeParams::default());
        if sample.len() >= 3 {
            assert!(r.is_some());
        }
    });
}

#[test]
fn seed_derivation_deterministic() {
    for_each_case(10, CASES, |rng| {
        let root = rng.next_u64();
        let label: String =
            (0..rng.random_range(1..=12)).map(|_| char::from(b'a' + rng.below(26) as u8)).collect();
        let idx = rng.random_range(0..1000u64);
        let s = Seed(root);
        assert_eq!(s.derive(&label), s.derive(&label));
        assert_eq!(s.derive_index(&label, idx), s.derive_index(&label, idx));
        // Child differs from parent and from a sibling index.
        assert_ne!(s.derive(&label).value(), root);
        assert_ne!(s.derive_index(&label, idx), s.derive_index(&label, idx + 1));
    });
}
