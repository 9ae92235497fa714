//! Internal deterministic RNG (xoshiro256++).
//!
//! Every stochastic module in the workspace used to seed an external
//! `StdRng` from a [`Seed`](crate::Seed); the build environment has no
//! registry access, so the narrow surface those modules actually use
//! lives here instead: [`Rng::seed_from_u64`], [`Rng::random_range`]
//! over integer and `f64` ranges, [`Rng::random_bool`], and a Box–Muller
//! [`Rng::standard_normal`].
//!
//! xoshiro256++ is a small, fast, well-dispersed generator; its state is
//! expanded from the 64-bit seed with the same SplitMix64 finaliser the
//! seed-derivation tree uses, per the generator authors' recommendation.
//! Statistical quality comfortably exceeds what the simulation needs
//! (uniform/Bernoulli/normal draws with test tolerances of percents).
//!
//! Determinism contract: the byte stream depends only on the seed — not
//! on platform, pointer width, or call-site inlining — so campaign
//! regeneration is reproducible across machines, a property the
//! parallel execution layer ([`crate::par`]) also relies on.

use std::ops::{Range, RangeInclusive};

/// `2^-53`: converts the top 53 bits of a raw output into `[0, 1)`.
const F53: f64 = 1.0 / (1u64 << 53) as f64;

/// A seeded xoshiro256++ generator.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

/// SplitMix64 step: advances `state` and returns the next output.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng {
    /// Construct a generator from a 64-bit seed (typically
    /// `seed.derive("label").value()`).
    #[inline]
    pub fn seed_from_u64(seed: u64) -> Rng {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Expand a block of 64-bit seeds into ready generators, reusing the
    /// caller's buffer. One generator per seed, each identical to
    /// `seed_from_u64` on that seed; the batched loop exposes the four
    /// independent SplitMix64 chains per state to instruction-level
    /// parallelism, which the one-at-a-time constructor cannot.
    pub fn seed_block(seeds: &[u64], out: &mut Vec<Rng>) {
        out.clear();
        out.reserve(seeds.len());
        out.extend(seeds.iter().map(|&s| Rng::seed_from_u64(s)));
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.s;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s2 = s2 ^ s0;
        let mut s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        s2 ^= t;
        s3 = s3.rotate_left(45);
        self.s = [s0, s1, s2, s3];
        result
    }

    /// Fill `out` with the next `out.len()` raw outputs — exactly the
    /// sequence `out.len()` calls to [`Rng::next_u64`] would produce,
    /// with the state kept in locals across the whole block instead of
    /// being stored and reloaded per draw.
    #[inline]
    pub fn fill_u64(&mut self, out: &mut [u64]) {
        let [mut s0, mut s1, mut s2, mut s3] = self.s;
        for slot in out.iter_mut() {
            *slot = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
            let t = s1 << 17;
            s2 ^= s0;
            s3 ^= s1;
            s1 ^= s2;
            s0 ^= s3;
            s2 ^= t;
            s3 = s3.rotate_left(45);
        }
        self.s = [s0, s1, s2, s3];
    }

    /// Advance the stream by `n` outputs, discarding the values. Used by
    /// the draw-elision fast path: a draw whose value is never consumed
    /// still has to advance the stream so later draws land on the same
    /// outputs as the full path.
    #[inline]
    pub fn skip_u64(&mut self, n: usize) {
        let [mut s0, mut s1, mut s2, mut s3] = self.s;
        for _ in 0..n {
            let t = s1 << 17;
            s2 ^= s0;
            s3 ^= s1;
            s1 ^= s2;
            s0 ^= s3;
            s2 ^= t;
            s3 = s3.rotate_left(45);
        }
        self.s = [s0, s1, s2, s3];
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn random_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * F53
    }

    /// Bernoulli draw: `true` with probability `p`.
    ///
    /// # Panics
    /// Panics unless `0.0 <= p <= 1.0`.
    #[inline]
    pub fn random_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        self.random_f64() < p
    }

    /// Uniform draw from a range (`lo..hi` or `lo..=hi`), for the
    /// integer types used across the workspace and `f64`.
    ///
    /// # Panics
    /// Panics on an empty range.
    #[inline]
    pub fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// Uniform draw in `[0, n)` — Lemire's debiased multiply-shift.
    ///
    /// # Panics
    /// Panics when `n == 0`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        let mut m = u128::from(self.next_u64()) * u128::from(n);
        let mut lo = m as u64;
        if lo < n {
            // Rejection zone for exact uniformity.
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                m = u128::from(self.next_u64()) * u128::from(n);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// One standard-normal draw (Box–Muller, first output only — wasting
    /// the second keeps the sampler stateless, which matters for
    /// reproducibility across call sites).
    ///
    /// Restructured over the generic range sampler: both uniforms come
    /// from one two-output block, and the range set-up that
    /// `random_range` recomputes per call (span, clamp constants) is
    /// hoisted into the constants below. The arithmetic is kept
    /// *literally* identical to the generic path — including the
    /// clamp branch on `u1`, which never fires because
    /// `MIN_POSITIVE + f < 1.0` for every representable `f < 1.0` — so
    /// the output is bit-for-bit the sequence the old body produced
    /// (asserted against a reference copy in the tests).
    #[inline]
    pub fn standard_normal(&mut self) -> f64 {
        let mut raw = [0u64; 2];
        self.fill_u64(&mut raw);
        // u1 ~ random_range(f64::MIN_POSITIVE..1.0): the guard away from
        // zero keeps ln() finite. Same scale-shift-clamp as
        // `f64::sample_uniform` on that range.
        let v = f64::MIN_POSITIVE + (raw[0] >> 11) as f64 * F53 * (1.0 - f64::MIN_POSITIVE);
        let u1 = if v < 1.0 { v } else { f64::MIN_POSITIVE };
        // u2 ~ random_range(0.0..1.0): scale-shift by (0, 1) is the
        // identity and the `< 1.0` clamp can't fire on a 53-bit draw.
        let u2 = (raw[1] >> 11) as f64 * F53;
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// The old `standard_normal` body, verbatim, kept as the reference
    /// for the bitwise-identity test of the restructured path.
    #[cfg(test)]
    fn standard_normal_reference(&mut self) -> f64 {
        // Guard u1 away from 0 so ln() stays finite.
        let u1: f64 = self.random_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.random_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// Ranges [`Rng::random_range`] can sample from. Mirrors `rand`'s
/// two-parameter shape — a blanket impl over `Range<T>`/`RangeInclusive<T>`
/// ties the element type to the range type structurally, so inference
/// flows in both directions (from an annotated literal *or* from the
/// expected output type) exactly as call sites written against `rand`
/// assume.
pub trait SampleRange<T> {
    /// Draw one value uniformly from the range.
    fn sample(self, rng: &mut Rng) -> T;
}

/// Element types with a uniform sampler over `[lo, hi)` / `[lo, hi]`.
pub trait Uniform: Copy + PartialOrd {
    /// Draw uniformly from `[lo, hi)` (`inclusive == false`) or
    /// `[lo, hi]` (`inclusive == true`).
    fn sample_uniform(lo: Self, hi: Self, inclusive: bool, rng: &mut Rng) -> Self;
}

impl<T: Uniform> SampleRange<T> for Range<T> {
    #[inline]
    fn sample(self, rng: &mut Rng) -> T {
        assert!(self.start < self.end, "empty range");
        T::sample_uniform(self.start, self.end, false, rng)
    }
}

impl<T: Uniform> SampleRange<T> for RangeInclusive<T> {
    #[inline]
    fn sample(self, rng: &mut Rng) -> T {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range");
        T::sample_uniform(lo, hi, true, rng)
    }
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl Uniform for $t {
            #[inline]
            fn sample_uniform(lo: $t, hi: $t, inclusive: bool, rng: &mut Rng) -> $t {
                let span = (hi as i128 - lo as i128) as u128 + u128::from(inclusive);
                // A full-width inclusive range would overflow `below`;
                // no call site needs it, so keep the simple path.
                assert!(span <= u64::MAX as u128, "range too wide");
                let off = rng.below(span as u64);
                (lo as i128 + off as i128) as $t
            }
        }
    )*};
}

uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Uniform for f64 {
    #[inline]
    fn sample_uniform(lo: f64, hi: f64, inclusive: bool, rng: &mut Rng) -> f64 {
        // Scale-and-shift; clamp keeps a half-open draw inside [lo, hi)
        // for the finite, modest-magnitude ranges the workspace uses.
        let v = lo + rng.random_f64() * (hi - lo);
        if inclusive || v < hi {
            v
        } else {
            lo
        }
    }
}

impl Uniform for f32 {
    #[inline]
    fn sample_uniform(lo: f32, hi: f32, inclusive: bool, rng: &mut Rng) -> f32 {
        let v = lo + rng.random_f64() as f32 * (hi - lo);
        if inclusive || v < hi {
            v
        } else {
            lo
        }
    }
}

/// Seeded property-test driver: run `property` on `cases` cases, each
/// with its own generator seeded from `stream` and the case index. If a
/// case panics, its seed is printed to stderr, so the failure reproduces
/// with [`Rng::seed_from_u64`] on that seed.
pub fn for_each_case(stream: u64, cases: u64, mut property: impl FnMut(&mut Rng)) {
    /// Prints the running case's seed when its property panics.
    struct CaseSeed(u64);

    impl Drop for CaseSeed {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("failing case seed: {:#x}", self.0);
            }
        }
    }

    for case in 0..cases {
        let seed = crate::Seed(stream).derive_index("case", case).value();
        let _report = CaseSeed(seed);
        property(&mut Rng::seed_from_u64(seed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn property_cases_are_reproducible_and_distinct() {
        let mut first = Vec::new();
        for_each_case(7, 16, |rng| first.push(rng.next_u64()));
        let mut again = Vec::new();
        for_each_case(7, 16, |rng| again.push(rng.next_u64()));
        assert_eq!(first, again, "same stream, same cases");
        let distinct: std::collections::BTreeSet<u64> = first.iter().copied().collect();
        assert_eq!(distinct.len(), 16, "every case has its own seed");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seeds_diverge() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn range_draws_stay_in_bounds() {
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x: u32 = rng.random_range(3..17);
            assert!((3..17).contains(&x));
            let y: u8 = rng.random_range(1..=5);
            assert!((1..=5).contains(&y));
            let z: f64 = rng.random_range(0.25..0.75);
            assert!((0.25..0.75).contains(&z));
            let w: i32 = rng.random_range(-10..=10);
            assert!((-10..=10).contains(&w));
        }
    }

    #[test]
    fn range_draws_are_roughly_uniform() {
        let mut rng = Rng::seed_from_u64(11);
        let n = 60_000;
        let mut counts = [0u32; 6];
        for _ in 0..n {
            counts[rng.random_range(0..6usize)] += 1;
        }
        for &c in &counts {
            let expected = n as f64 / 6.0;
            assert!(
                (f64::from(c) - expected).abs() < expected * 0.05,
                "{counts:?}"
            );
        }
    }

    #[test]
    fn bool_probability_respected() {
        let mut rng = Rng::seed_from_u64(13);
        let hits = (0..100_000).filter(|_| rng.random_bool(0.3)).count();
        assert!((28_000..32_000).contains(&hits), "{hits}");
        assert!((0..100).all(|_| rng.random_bool(1.0)));
        assert!(!(0..100).any(|_| rng.random_bool(0.0)));
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = Rng::seed_from_u64(17);
        let n = 200_000;
        let draws: Vec<f64> = (0..n).map(|_| rng.standard_normal()).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn fill_u64_matches_next_u64_sequence() {
        for seed in [0u64, 1, 42, 0xdead_beef, u64::MAX] {
            for len in [0usize, 1, 2, 7, 64, 257] {
                let mut a = Rng::seed_from_u64(seed);
                let mut b = Rng::seed_from_u64(seed);
                let mut block = vec![0u64; len];
                a.fill_u64(&mut block);
                let singles: Vec<u64> = (0..len).map(|_| b.next_u64()).collect();
                assert_eq!(block, singles, "seed {seed} len {len}");
                // The post-block states must agree too.
                assert_eq!(a.next_u64(), b.next_u64(), "state after block, seed {seed}");
            }
        }
    }

    #[test]
    fn skip_u64_matches_discarded_draws() {
        for seed in [3u64, 99, 0x1234_5678] {
            for n in [0usize, 1, 2, 5, 33] {
                let mut a = Rng::seed_from_u64(seed);
                let mut b = Rng::seed_from_u64(seed);
                a.skip_u64(n);
                for _ in 0..n {
                    b.next_u64();
                }
                assert_eq!(a.next_u64(), b.next_u64(), "seed {seed} n {n}");
            }
        }
    }

    #[test]
    fn seed_block_matches_one_at_a_time() {
        let seeds: Vec<u64> = (0..100).map(|i| i * 0x9e37_79b9 + 7).collect();
        let mut block = Vec::new();
        Rng::seed_block(&seeds, &mut block);
        assert_eq!(block.len(), seeds.len());
        for (s, rng) in seeds.iter().zip(block.iter_mut()) {
            assert_eq!(rng.next_u64(), Rng::seed_from_u64(*s).next_u64());
        }
        // Buffer reuse replaces, never appends.
        Rng::seed_block(&seeds[..3], &mut block);
        assert_eq!(block.len(), 3);
    }

    #[test]
    fn restructured_standard_normal_is_bitwise_identical() {
        for seed in [0u64, 17, 42, 0xfeed_face, u64::MAX - 1] {
            let mut fast = Rng::seed_from_u64(seed);
            let mut reference = Rng::seed_from_u64(seed);
            for i in 0..10_000 {
                let f = fast.standard_normal();
                let r = reference.standard_normal_reference();
                assert_eq!(f.to_bits(), r.to_bits(), "seed {seed} draw {i}: {f} vs {r}");
            }
        }
    }

    #[test]
    fn full_u64_range_supported() {
        let mut rng = Rng::seed_from_u64(19);
        let draws: Vec<u64> = (0..64).map(|_| rng.random_range(0..u64::MAX)).collect();
        // High bits must actually vary.
        assert!(draws.iter().any(|&x| x > u64::MAX / 2));
        assert!(draws.iter().any(|&x| x < u64::MAX / 2));
    }
}
