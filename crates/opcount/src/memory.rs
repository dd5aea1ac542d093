//! Temporary-memory requirement formulas — paper Table 1 and Section 3.2.
//!
//! All quantities are in *elements* (multiply by `size_of::<T>()` for
//! bytes) and describe the extra storage beyond `A`, `B`, and `C`.

/// The Strassen implementations whose memory footprints Table 1 compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Implementation {
    /// CRAY `SGEMMS` (Bailey's scheme, Strassen's original variant).
    CraySgemms,
    /// IBM ESSL `DGEMMS` (multiply-only interface).
    IbmDgemms,
    /// Douglas et al. `DGEMMW`.
    Dgemmw,
    /// The paper's STRASSEN1 schedule.
    Strassen1,
    /// The paper's STRASSEN2 schedule.
    Strassen2,
    /// The paper's combined routine (STRASSEN1 when `β = 0`, else STRASSEN2).
    Dgefmm,
}

/// Table 1: temporary elements needed to multiply order-`m` square
/// matrices; `None` where the implementation does not support the case.
pub fn square_temp_elements(imp: Implementation, m: u128, beta_zero: bool) -> Option<f64> {
    let m2 = (m * m) as f64;
    Some(match (imp, beta_zero) {
        (Implementation::CraySgemms, _) => 7.0 * m2 / 3.0,
        (Implementation::IbmDgemms, true) => 1.40 * m2,
        (Implementation::IbmDgemms, false) => return None, // not directly supported
        (Implementation::Dgemmw, true) => 2.0 * m2 / 3.0,
        (Implementation::Dgemmw, false) => 5.0 * m2 / 3.0,
        (Implementation::Strassen1, true) => 2.0 * m2 / 3.0,
        (Implementation::Strassen1, false) => 2.0 * m2,
        (Implementation::Strassen2, _) => m2,
        (Implementation::Dgefmm, true) => 2.0 * m2 / 3.0,
        (Implementation::Dgefmm, false) => m2,
    })
}

/// STRASSEN1 rectangular bound (Section 3.2): `(4mn + m·max(k,n) + kn)/3`
/// in general, `(m·max(k,n) + kn)/3` when `β = 0`.
pub fn strassen1_bound(m: u128, k: u128, n: u128, beta_zero: bool) -> f64 {
    let mx = m * k.max(n);
    if beta_zero {
        ((mx + k * n) as f64) / 3.0
    } else {
        ((4 * m * n + mx + k * n) as f64) / 3.0
    }
}

/// STRASSEN2 rectangular bound (Section 3.2): `(mk + kn + mn)/3`.
pub fn strassen2_bound(m: u128, k: u128, n: u128) -> f64 {
    ((m * k + k * n + m * n) as f64) / 3.0
}

/// DGEFMM bound: STRASSEN1's `β = 0` bound or STRASSEN2's general bound.
pub fn dgefmm_bound(m: u128, k: u128, n: u128, beta_zero: bool) -> f64 {
    if beta_zero {
        strassen1_bound(m, k, n, true)
    } else {
        strassen2_bound(m, k, n)
    }
}

/// One *level* of STRASSEN2's temporaries: `R1 (mk/4) + R2 (kn/4) + R3 (mn/4)`.
pub fn strassen2_per_level(m: u128, k: u128, n: u128) -> u128 {
    (m / 2) * (k / 2) + (k / 2) * (n / 2) + (m / 2) * (n / 2)
}

/// Boyer–Dumas–Pernet–Zhou two-temp/in-place recursion-total bound:
/// only the operand temporaries `X (mk/4)` and `Y (kn/4)` per level,
/// summing geometrically to `(mk + kn)/3` — below every Table 1 entry,
/// including STRASSEN2's `(mk + kn + mn)/3` minimum among the paper's
/// general-β schedules.
///
/// ```
/// // Square: 2m²/3 — Table 1's best β = 0 number, but valid for any β.
/// assert_eq!(opcount::memory::bdpz_bound(300, 300, 300), 2.0 * 300.0 * 300.0 / 3.0);
/// ```
pub fn bdpz_bound(m: u128, k: u128, n: u128) -> f64 {
    ((m * k + k * n) as f64) / 3.0
}

/// A naive no-reuse implementation's bound (Section 3.2 intro):
/// `(4mk + 4kn + 14mn)/3`.
pub fn naive_bound(m: u128, k: u128, n: u128) -> f64 {
    ((4 * m * k + 4 * k * n + 14 * m * n) as f64) / 3.0
}

/// Percentage reduction of `ours` relative to `theirs` (paper's
/// "reduced by 40 to more than 70 percent" comparisons).
pub fn reduction_percent(ours: f64, theirs: f64) -> f64 {
    100.0 * (1.0 - ours / theirs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use Implementation::*;

    #[test]
    fn table1_square_entries() {
        let m = 300u128;
        let m2 = (m * m) as f64;
        assert_eq!(square_temp_elements(CraySgemms, m, true), Some(7.0 * m2 / 3.0));
        assert_eq!(square_temp_elements(IbmDgemms, m, true), Some(1.40 * m2));
        assert_eq!(square_temp_elements(IbmDgemms, m, false), None);
        assert_eq!(square_temp_elements(Dgemmw, m, false), Some(5.0 * m2 / 3.0));
        assert_eq!(square_temp_elements(Strassen2, m, false), Some(m2));
        assert_eq!(square_temp_elements(Dgefmm, m, true), Some(2.0 * m2 / 3.0));
        assert_eq!(square_temp_elements(Dgefmm, m, false), Some(m2));
    }

    #[test]
    fn rectangular_bounds_specialize_to_square() {
        let m = 64u128;
        assert_eq!(strassen1_bound(m, m, m, true), 2.0 * (m * m) as f64 / 3.0);
        assert_eq!(strassen2_bound(m, m, m), (m * m) as f64);
        // STRASSEN1 general: (4m² + m² + m²)/3 = 2m².
        assert_eq!(strassen1_bound(m, m, m, false), 2.0 * (m * m) as f64);
    }

    #[test]
    fn paper_reduction_claims() {
        let m = 1000u128;
        // β≠0: DGEFMM m² vs DGEMMW 5m²/3 → 40% reduction …
        let ours = square_temp_elements(Dgefmm, m, false).unwrap();
        let w = square_temp_elements(Dgemmw, m, false).unwrap();
        assert!((reduction_percent(ours, w) - 40.0).abs() < 1e-9);
        // … and vs CRAY 7m²/3 → ~57%.
        let cray = square_temp_elements(CraySgemms, m, false).unwrap();
        assert!((reduction_percent(ours, cray) - 400.0 / 7.0).abs() < 1e-9);
        // β=0: 2m²/3 vs CRAY 7m²/3 → > 70%.
        let ours0 = square_temp_elements(Dgefmm, m, true).unwrap();
        assert!(reduction_percent(ours0, cray) > 70.0);
    }

    #[test]
    fn per_level_sums_to_geometric_bound() {
        // Σ_{i≥1} per_level(m/2^{i-1}) = bound (geometric 1/4 factor).
        let (m, k, n) = (1024u128, 1024, 1024);
        let mut total = 0.0;
        let (mut mm, mut kk, mut nn) = (m, k, n);
        while mm >= 2 && kk >= 2 && nn >= 2 {
            total += strassen2_per_level(mm, kk, nn) as f64;
            mm /= 2;
            kk /= 2;
            nn /= 2;
        }
        let bound = strassen2_bound(m, k, n);
        assert!(total <= bound, "{total} > {bound}");
        assert!(total > 0.99 * bound);
    }

    #[test]
    fn bdpz_bound_undercuts_every_table1_schedule() {
        let (m, k, n) = (600u128, 600, 600);
        let bdpz = bdpz_bound(m, k, n);
        assert!(bdpz < strassen2_bound(m, k, n));
        // Square specialization: 2m²/3, tied with STRASSEN1's β=0 bound
        // but valid for *any* β.
        assert!(bdpz <= strassen1_bound(m, k, n, true));
        assert_eq!(bdpz, 2.0 * (m * m) as f64 / 3.0);
    }

    #[test]
    fn naive_bound_dwarfs_reused_bounds() {
        let (m, k, n) = (512u128, 512, 512);
        assert!(naive_bound(m, k, n) > 5.0 * strassen2_bound(m, k, n));
    }
}
