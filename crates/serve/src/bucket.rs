//! Shape classes and bucket keys: how the batcher coalesces mixed-shape
//! traffic.
//!
//! Every request is classified by the *geometry* of its `(m, k, n)`
//! product, not its exact dimensions. Two requests in the same bucket
//! are batched together and share a worker-affinity hint, so the worker
//! that served a bucket last batch still holds pack buffers and a
//! workspace arena sized for it. The bucket does not choose the plan:
//! every request runs [`strassen::StrassenConfig::dgefmm`].
//!
//! The classes mirror the traffic mix the differential fuzzer draws
//! (square / skinny / odd-prime — see `accuracy::fuzz`):
//!
//! - [`ShapeClass::OddPrime`]: any odd dimension (primes included).
//!   These run the dynamic-peeling fixup path at every level, so their
//!   crossover sits elsewhere than the even shapes'.
//! - [`ShapeClass::Skinny`]: even shapes with aspect ratio ≥ 4 — the
//!   rectangular `τm`/`τk`/`τn` arms of eq. (15) dominate.
//! - [`ShapeClass::Square`]: everything else; the square-`τ` arm
//!   dominates.
//!
//! The size bin is the power of two at or above the largest dimension,
//! so a bucket key reads like `square/64` or `odd/128`.

use std::fmt;

/// Coarse geometry class of an `(m, k, n)` product.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ShapeClass {
    /// All dimensions even, aspect ratio below 4.
    Square,
    /// All dimensions even, `max(m,k,n) ≥ 4 · min(m,k,n)`.
    Skinny,
    /// At least one odd dimension (primes included): the peel/pad
    /// fixup paths run at every recursion level.
    OddPrime,
}

impl ShapeClass {
    /// Short stable name used in bucket keys and statistics.
    pub fn name(self) -> &'static str {
        match self {
            ShapeClass::Square => "square",
            ShapeClass::Skinny => "skinny",
            ShapeClass::OddPrime => "odd",
        }
    }
}

impl fmt::Display for ShapeClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The batcher's coalescing key: shape class × power-of-two size bin.
///
/// ```
/// use serve::BucketKey;
///
/// let key = BucketKey::classify(100, 80, 120);
/// assert_eq!(key.to_string(), "square/128");
/// assert_eq!(BucketKey::classify(33, 40, 27).to_string(), "odd/64");
/// assert_eq!(BucketKey::classify(256, 16, 256).to_string(), "skinny/256");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BucketKey {
    /// Geometry class.
    pub class: ShapeClass,
    /// `max(m, k, n)` rounded up to a power of two.
    pub bin: usize,
}

impl BucketKey {
    /// Classify an `(m, k, n)` product (dimensions of `op(A)·op(B)`,
    /// i.e. after transposition). Panics on a zero dimension — admission
    /// rejects those before classification.
    pub fn classify(m: usize, k: usize, n: usize) -> BucketKey {
        assert!(m > 0 && k > 0 && n > 0, "bucket: degenerate shape {m}x{k}x{n}");
        let max = m.max(k).max(n);
        let min = m.min(k).min(n);
        let class = if m % 2 == 1 || k % 2 == 1 || n % 2 == 1 {
            ShapeClass::OddPrime
        } else if max >= 4 * min {
            ShapeClass::Skinny
        } else {
            ShapeClass::Square
        };
        BucketKey { class, bin: max.next_power_of_two() }
    }

    /// The stable textual form used in per-bucket statistics.
    pub fn label(&self) -> String {
        format!("{}/{}", self.class, self.bin)
    }
}

impl fmt::Display for BucketKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.class, self.bin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_cover_the_fuzzer_mix() {
        assert_eq!(BucketKey::classify(64, 64, 64).class, ShapeClass::Square);
        assert_eq!(BucketKey::classify(64, 62, 60).class, ShapeClass::Square);
        assert_eq!(BucketKey::classify(256, 16, 256).class, ShapeClass::Skinny);
        assert_eq!(BucketKey::classify(8, 32, 8).class, ShapeClass::Skinny);
        // Any odd dimension wins over aspect ratio: peeling dominates.
        assert_eq!(BucketKey::classify(257, 16, 256).class, ShapeClass::OddPrime);
        assert_eq!(BucketKey::classify(63, 64, 64).class, ShapeClass::OddPrime);
    }

    #[test]
    fn bins_are_powers_of_two_of_the_max_dim() {
        assert_eq!(BucketKey::classify(100, 80, 120).bin, 128);
        assert_eq!(BucketKey::classify(64, 64, 64).bin, 64);
        assert_eq!(BucketKey::classify(65, 2, 2).bin, 128);
        assert_eq!(BucketKey::classify(1, 1, 1).bin, 1);
    }

    #[test]
    #[should_panic(expected = "degenerate shape")]
    fn zero_dimension_is_rejected() {
        BucketKey::classify(0, 4, 4);
    }
}
