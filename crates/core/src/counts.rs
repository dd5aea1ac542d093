//! Analytic execution profile of a DGEFMM call.
//!
//! Because the recursion is deterministic, the exact number of base-GEMM
//! calls, peel fixups, elementwise add/subtract passes, and floating
//! point operations a configuration will execute is computable without
//! running it — the same mirroring trick the workspace sizing uses. The
//! unit tests tie these numbers back to the closed forms of Section 2
//! (7^d products, `(7^d − 4^d)` add terms), connecting the model crate to
//! the real implementation.

use crate::config::{OddHandling, StrassenConfig};
use crate::probe::PassKind;
use crate::workspace::{resolve_scheme, ResolvedScheme};

/// Predicted execution profile for one `dgefmm` call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CallCounts {
    /// Conventional GEMM calls at the recursion leaves.
    pub gemm_calls: u64,
    /// Rank-one (`GER`) fixups from dynamic peeling.
    pub ger_calls: u64,
    /// Matrix-vector (`GEMV`) fixups from dynamic peeling.
    pub gemv_calls: u64,
    /// Scalar dot-product corner fixups from dynamic peeling.
    pub dot_calls: u64,
    /// Thin GEMM strip fixups (non-⟨2,2,2⟩ family peeling).
    pub strip_calls: u64,
    /// Elementwise matrix add/subtract passes (the `G` operations).
    pub add_passes: u64,
    /// Recursion nodes that split (schedule applications).
    pub splits: u64,
    /// Padded copies performed (dynamic/static padding only).
    pub pad_copies: u64,
    /// Deepest recursion level reached.
    pub max_depth: u32,
}

impl CallCounts {
    fn merge_child(&mut self, child: CallCounts, times: u64) {
        self.gemm_calls += times * child.gemm_calls;
        self.ger_calls += times * child.ger_calls;
        self.gemv_calls += times * child.gemv_calls;
        self.dot_calls += times * child.dot_calls;
        self.strip_calls += times * child.strip_calls;
        self.add_passes += times * child.add_passes;
        self.splits += times * child.splits;
        self.pad_copies += times * child.pad_copies;
        self.max_depth = self.max_depth.max(child.max_depth + 1);
    }
}

/// Compute the execution profile of `dgefmm(cfg, …)` on an `(m, k, n)`
/// problem with the given `β` class.
///
/// The model mirrors the *classic* temp-based schedules; it does not
/// account for the fused last-level kernels replacing a split with a
/// flat plan. When comparing against a live [`crate::probe::Trace`]
/// (as `tests/probe_crosscheck.rs` does), run with
/// [`StrassenConfig::fused`]`(false)`.
pub fn predict(cfg: &StrassenConfig, m: usize, k: usize, n: usize, beta_zero: bool) -> CallCounts {
    predict_at(cfg, m, k, n, beta_zero, 0)
}

fn predict_at(
    cfg: &StrassenConfig,
    m: usize,
    k: usize,
    n: usize,
    beta_zero: bool,
    depth: usize,
) -> CallCounts {
    let mut out = CallCounts::default();
    if depth >= cfg.max_depth || cfg.criterion_for(beta_zero).should_stop(m, k, n) {
        out.gemm_calls = 1;
        return out;
    }

    let scheme = resolve_scheme(cfg, beta_zero);
    if scheme == ResolvedScheme::OriginalGeneral {
        // Stage D ← αAB (β=0 run) then one axpby fold into C.
        let mut staged = predict_at(cfg, m, k, n, true, depth);
        staged.add_passes += 1;
        return staged;
    }

    if cfg.odd == OddHandling::StaticPadding && depth == 0 {
        let d = crate::workspace::static_padding_depth_for(cfg, m, k, n, beta_zero);
        let (dm, dk, dn) = cfg.family.dims();
        let (mp, kp, np) =
            (m.next_multiple_of(dm.pow(d)), k.next_multiple_of(dk.pow(d)), n.next_multiple_of(dn.pow(d)));
        let inner = StrassenConfig { odd: OddHandling::DynamicPadding, ..*cfg };
        if (mp, kp, np) == (m, k, n) {
            return predict_at(&inner, m, k, n, beta_zero, depth);
        }
        // The padded product runs β=0 into scratch, then writes back:
        // an add pass when β ≠ 0 folds, a plain copy otherwise.
        let mut c = predict_at(&inner, mp, kp, np, true, depth);
        c.pad_copies += 1;
        if !beta_zero {
            c.add_passes += 1;
        }
        return c;
    }

    let (dm, dk, dn) = cfg.family.dims();
    let odd = m % dm != 0 || k % dk != 0 || n % dn != 0;
    if odd {
        match cfg.odd {
            OddHandling::DynamicPeeling | OddHandling::DynamicPeelingFirst => {
                let (me, ke, ne) = (m - m % dm, k - k % dk, n - n % dn);
                out = predict_at(cfg, me, ke, ne, beta_zero, depth);
                if cfg.family == crate::fastmm::Family::F222 {
                    if ke != k {
                        out.ger_calls += 1;
                    }
                    if ne != n {
                        out.gemv_calls += 1;
                    }
                    if me != m {
                        out.gemv_calls += 1;
                    }
                    if me != m && ne != n {
                        out.dot_calls += 1;
                    }
                } else {
                    // Wider family residues fold back in as thin GEMM
                    // strips: one each for the k/n/m residues plus the
                    // m×n corner.
                    out.strip_calls += u64::from(ke != k)
                        + u64::from(ne != n)
                        + u64::from(me != m)
                        + u64::from(me != m && ne != n);
                }
                return out;
            }
            OddHandling::DynamicPadding | OddHandling::StaticPadding => {
                let (mp, kp, np) = (m.next_multiple_of(dm), k.next_multiple_of(dk), n.next_multiple_of(dn));
                // The padded product runs β=0 into scratch, then writes
                // back: an add pass when β ≠ 0, a plain copy otherwise.
                let mut c = predict_at(cfg, mp, kp, np, true, depth);
                c.pad_copies += 1;
                if !beta_zero {
                    c.add_passes += 1;
                }
                return c;
            }
        }
    }

    // Divisible split: one program application. Its add passes are
    // exactly those the runtime executes — the probe's traced counters
    // match them pass for pass. Copy and `β`-scaling passes are not
    // counted (they move or scale data without adding); the trace keeps
    // them separately.
    out.splits = 1;
    let prog = scheme.program();
    out.add_passes = prog.passes(PassKind::Add, beta_zero, |_| true);
    let (m2, k2, n2) = (m / dm, k / dk, n / dn);
    let (zero_children, general_children) = prog.child_mix(beta_zero);
    for (count, bz) in [(zero_children, true), (general_children, false)] {
        if count > 0 {
            out.merge_child(predict_at(cfg, m2, k2, n2, bz, depth + 1), count);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cutoff::CutoffCriterion;
    use crate::{StrassenConfig, Variant};

    fn cfg_tau(tau: usize) -> StrassenConfig {
        StrassenConfig::dgefmm().cutoff(CutoffCriterion::Simple { tau })
    }

    #[test]
    fn power_of_two_matches_closed_form() {
        // d recursion levels ⇒ 7^d GEMM leaves — the 7^d of eq. (4).
        let cfg = cfg_tau(16);
        for d in 1..=4u32 {
            let m = 16usize << d;
            let c = predict(&cfg, m, m, m, true);
            assert_eq!(c.gemm_calls, 7u64.pow(d), "d={d}");
            assert_eq!(c.max_depth, d);
            // Splits: 1 + 7 + … + 7^(d−1) = (7^d − 1)/6.
            assert_eq!(c.splits, (7u64.pow(d) - 1) / 6);
            assert_eq!(c.ger_calls + c.gemv_calls + c.dot_calls, 0, "even sizes never peel");
            assert_eq!(c.pad_copies, 0);
        }
    }

    #[test]
    fn add_passes_match_section2_counts() {
        // One level of Winograd: 15 add passes; original: 18.
        let cfg = cfg_tau(16);
        let c = predict(&cfg, 32, 32, 32, true);
        assert_eq!(c.add_passes, 15);
        let c = predict(&cfg.variant(Variant::Original), 32, 32, 32, true);
        assert_eq!(c.add_passes, 18);
    }

    #[test]
    fn below_cutoff_is_one_gemm() {
        let cfg = cfg_tau(64);
        let c = predict(&cfg, 64, 64, 64, true);
        assert_eq!(c, CallCounts { gemm_calls: 1, ..CallCounts::default() });
    }

    #[test]
    fn all_odd_peels_three_fixups() {
        let cfg = cfg_tau(16);
        // 33 odd in every dimension: GER + 2 GEMV + dot around the
        // 32×32×32 core, which recurses exactly once (16 ≤ τ stops).
        let c = predict(&cfg, 33, 33, 33, true);
        assert_eq!(c.ger_calls, 1);
        assert_eq!(c.gemv_calls, 2);
        assert_eq!(c.dot_calls, 1);
        // Core 32×32×32 recurses once: 7 leaves.
        assert_eq!(c.gemm_calls, 7);
    }

    #[test]
    fn padding_copies_counted() {
        let peel = cfg_tau(8);
        let pad = peel.odd(crate::OddHandling::DynamicPadding);
        let c_peel = predict(&peel, 33, 33, 33, true);
        let c_pad = predict(&pad, 33, 33, 33, true);
        assert_eq!(c_peel.pad_copies, 0);
        assert!(c_pad.pad_copies >= 1);
        assert_eq!(c_pad.ger_calls, 0);
    }

    #[test]
    fn max_depth_limits_profile() {
        let cfg = cfg_tau(4).max_depth(2);
        let c = predict(&cfg, 256, 256, 256, true);
        assert_eq!(c.max_depth, 2);
        assert_eq!(c.gemm_calls, 49);
    }

    #[test]
    fn strassen2_chain_counts() {
        // β≠0 auto ⇒ STRASSEN2 at every level (children sized β≠0 for the
        // worst case, but the profile's child mix is exact per schedule).
        let cfg = cfg_tau(16);
        let c = predict(&cfg, 64, 64, 64, false);
        assert_eq!(c.gemm_calls, 49);
        assert_eq!(c.splits, 8);
    }
}
