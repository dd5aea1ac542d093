//! Two-class rank-R recursion cost analysis.
//!
//! The paper's eq. (2) is the special case "rank 7, base case ⟨2,2,2⟩,
//! every child in the β = 0 class" of a family of recurrences. A
//! schedule of rank `R` over an ⟨dm,dk,dn⟩ base case, with
//! schedule-dependent elementwise pass counts, obeys
//!
//! ```text
//! W_cls(m,k,n) = M_cls(m,k,n)                       if cutoff fires
//!              = Σ_child W_child(m/dm, k/dk, n/dn)
//!                + a·G(m/dm, k/dk) + b·G(k/dk, n/dn) + c·G(m/dm, n/dn)
//! ```
//!
//! where `cls` is the β class the node runs in (`β = 0` leaves cost
//! `2mkn − mn`, multiply-accumulate leaves `2mkn`), the child mix and
//! the pass counts `(a, b, c)` depend on the class, and every add pass
//! costs its destination area. [`FamilySpec`] carries both class
//! descriptions, and [`family_flops`] evaluates the recurrence exactly
//! in `u128` (no float rounding at any depth). With the Winograd
//! ⟨2,2,2⟩ : 7 structure it reproduces the paper's eqs. (3)–(5).
//!
//! The recurrence exists for the two schedules whose β classes differ:
//! [`bdpz_spec`] encodes the Boyer–Dumas–Pernet–Zhou two-temp/in-place
//! pair, whose counts are fixed by the ISSAC '09 schedules themselves.

/// Per-level structure of one β class of a family recursion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClassLevel {
    /// Children launched in the `β = 0` class (fresh products).
    pub children_beta_zero: u128,
    /// Children launched as multiply-accumulates (`β = 1`).
    pub children_accumulate: u128,
    /// Elementwise add passes on A-shaped blocks (`m/dm × k/dk`).
    pub a_passes: u128,
    /// Elementwise add passes on B-shaped blocks (`k/dk × n/dn`).
    pub b_passes: u128,
    /// Elementwise add passes on C-shaped blocks (`m/dm × n/dn`).
    pub c_passes: u128,
}

/// A two-class rank-R family recursion: base-case split plus the level
/// structure for each β class a node can run in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FamilySpec {
    /// Base-case split ⟨dm, dk, dn⟩.
    pub dims: (u128, u128, u128),
    /// Level structure when a node is entered with `β = 0`.
    pub beta_zero: ClassLevel,
    /// Level structure when a node is entered as a multiply-accumulate.
    pub accumulate: ClassLevel,
}

/// The Boyer–Dumas–Pernet–Zhou ⟨2,2,2⟩ pair (arXiv:0707.2347 / ISSAC
/// '09), as the dispatcher schedules it:
///
/// * `β = 0` runs the **two-temp** schedule — products P1, P5, P6, P7
///   land in `C` quadrants as fresh (`β = 0`) children, P2, P3, P4
///   accumulate; 4 + 4 operand stagings and 5 cross-quadrant
///   accumulation passes (13 adds total);
/// * `β ≠ 0` runs the **in-place accumulating** schedule — all seven
///   children are multiply-accumulates, with 5 + 5 operand stagings and
///   10 bracket import/export passes on `C` quadrants (20 adds total;
///   the `β` pre-scale is a multiply pass, not an add).
pub fn bdpz_spec() -> FamilySpec {
    FamilySpec {
        dims: (2, 2, 2),
        beta_zero: ClassLevel {
            children_beta_zero: 4,
            children_accumulate: 3,
            a_passes: 4,
            b_passes: 4,
            c_passes: 5,
        },
        accumulate: ClassLevel {
            children_beta_zero: 0,
            children_accumulate: 7,
            a_passes: 5,
            b_passes: 5,
            c_passes: 10,
        },
    }
}

/// Exact flop count of a two-class family recursion. Leaves cost
/// `2mkn − mn` in the `β = 0` class and `2mkn` otherwise; recursion also
/// stops when a dimension stops being divisible by its base-case unit
/// (the model, like the paper's Section 2, assumes exact splits — the
/// runtime's peel/pad residues are accounted separately).
///
/// ```
/// use opcount::family::{bdpz_spec, family_flops};
/// // One β = 0 BDPZ two-temp level on 8³ with order-4 leaves: four
/// // fresh children (2·4³ − 4²), three accumulating ones (2·4³), and
/// // 13 add passes of 4² elements.
/// let cut = |m: u128, _: u128, _: u128, _: bool| m <= 4;
/// assert_eq!(
///     family_flops(&bdpz_spec(), 8, 8, 8, true, &cut),
///     4 * (2 * 64 - 16) + 3 * (2 * 64) + 13 * 16,
/// );
/// ```
pub fn family_flops(
    spec: &FamilySpec,
    m: u128,
    k: u128,
    n: u128,
    beta_zero: bool,
    cutoff: &dyn Fn(u128, u128, u128, bool) -> bool,
) -> u128 {
    let (dm, dk, dn) = spec.dims;
    if cutoff(m, k, n, beta_zero) || m < dm || k < dk || n < dn || m % dm != 0 || k % dk != 0 || n % dn != 0 {
        return 2 * m * k * n - if beta_zero { m * n } else { 0 };
    }
    let class = if beta_zero { spec.beta_zero } else { spec.accumulate };
    let (bm, bk, bn) = (m / dm, k / dk, n / dn);
    let mut total = class.a_passes * bm * bk + class.b_passes * bk * bn + class.c_passes * bm * bn;
    if class.children_beta_zero > 0 {
        total += class.children_beta_zero * family_flops(spec, bm, bk, bn, true, cutoff);
    }
    if class.children_accumulate > 0 {
        total += class.children_accumulate * family_flops(spec, bm, bk, bn, false, cutoff);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recurrence::{winograd_closed_form, winograd_square};

    /// Eq. (2)'s 7/⟨2,2,2⟩/4-4-7 structure as a [`FamilySpec`]: every
    /// child `β = 0`, 4 + 4 operand adds and 7 `C`-side adds per level.
    fn winograd_spec() -> FamilySpec {
        let level = ClassLevel {
            children_beta_zero: 7,
            children_accumulate: 0,
            a_passes: 4,
            b_passes: 4,
            c_passes: 7,
        };
        FamilySpec { dims: (2, 2, 2), beta_zero: level, accumulate: level }
    }

    #[test]
    fn closed_form_reduces_to_paper_equations() {
        let spec = winograd_spec();
        for d in 0..5u32 {
            let scale = 1u128 << d;
            let cut = |m: u128, _: u128, _: u128, _: bool| m <= 9;
            assert_eq!(
                family_flops(&spec, 9 * scale, 9 * scale, 9 * scale, true, &cut),
                winograd_square(d, 9)
            );
            let cut = |m: u128, _: u128, _: u128, _: bool| m <= 3;
            assert_eq!(
                family_flops(&spec, 3 * scale, 5 * scale, 7 * scale, true, &cut),
                winograd_closed_form(d, 3, 5, 7)
            );
        }
    }
    #[test]
    fn bdpz_one_level_counts_by_hand() {
        let spec = bdpz_spec();
        let t = 4u128; // leaf order
        let cut = move |a: u128, _: u128, _: u128, _: bool| a <= t;
        // β = 0: 4 fresh + 3 accumulate leaves, 13 add passes of t².
        let leaf_bz = 2 * t * t * t - t * t;
        let leaf_acc = 2 * t * t * t;
        assert_eq!(
            family_flops(&spec, 2 * t, 2 * t, 2 * t, true, &cut),
            4 * leaf_bz + 3 * leaf_acc + 13 * t * t
        );
        // β ≠ 0: 7 accumulate leaves, 20 add passes.
        assert_eq!(family_flops(&spec, 2 * t, 2 * t, 2 * t, false, &cut), 7 * leaf_acc + 20 * t * t);
    }

    #[test]
    fn bdpz_add_overhead_exceeds_winograds() {
        // The BDPZ schedules trade adds for memory: at equal depth their
        // flop count is never below the classic Winograd recursion's.
        let cut = |a: u128, _: u128, _: u128, _: bool| a <= 8;
        for &m in &[16u128, 32, 64, 128] {
            let bdpz = family_flops(&bdpz_spec(), m, m, m, true, &cut);
            let wino = family_flops(&winograd_spec(), m, m, m, true, &cut);
            assert!(bdpz >= wino, "m={m}: {bdpz} < {wino}");
        }
    }

    #[test]
    fn indivisible_dimensions_stop_the_model() {
        // 6×6×6: one exact split to 3×3×3 children, whose odd dimensions
        // stop the next level even with no cutoff.
        let cut = |_: u128, _: u128, _: u128, _: bool| false;
        let child = 2 * 3 * 3 * 3 - 3 * 3; // leaf 3×3×3, β = 0
        assert_eq!(family_flops(&winograd_spec(), 6, 6, 6, true, &cut), 7 * child + (4 + 4 + 7) * (3 * 3));
    }
}
