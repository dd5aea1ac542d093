//! Register-tiled micro-kernels shared by every packing GEMM path.
//!
//! The packed-panel format (see [`super::blocked`]) feeds an `MR x NR`
//! accumulator tile held entirely in registers. Three implementations sit
//! behind [`microkernel`], chosen by the cached [`kernel_class`] probe:
//!
//! * a generic, autovectorized kernel for any [`Scalar`];
//! * an `f64`-specialized kernel compiled with AVX2 + FMA codegen
//!   (`#[target_feature]`) and an explicit `mul_add` unroll; and
//! * an `f64` AVX-512 kernel holding each 8-row accumulator column in a
//!   single zmm register, over `P` adjacent packed-`A` row panels against
//!   one packed-`B` panel: a logical `P·8 x 6` tile. The 5-loop
//!   macro-kernel runs `P = 4` (a `32 x 6` tile in 24 zmm accumulators)
//!   on all but a block's last few panels.
//!
//! The tile is `8 x 6` for `f64`: on AVX2 that is twelve 4-lane FMA
//! accumulators (the BLIS `dgemm` shape for that ISA class); on AVX-512
//! one column is exactly one zmm vector. The accumulator is stored
//! column-major (`acc[column][row]`) so the row dimension, which is
//! contiguous in the packed-`A` panel, is the vectorized one.
//!
//! Every kernel accumulates each `(row, column)` slot with one
//! multiply-add per `kk` step in the same `kk` order. The two hardware
//! kernels (FMA and AVX-512, on one panel or several) fuse that
//! multiply-add, so their results are **bitwise identical** to each
//! other — the AVX-512 upgrade and the multi-panel macro iteration can
//! never change numerics. The generic kernel uses a contracted (unfused)
//! [`Scalar::mul_add`] and agrees to rounding tolerance; it is only ever
//! selected on CPUs where the hardware kernels cannot run, and
//! [`kernel_class`] is probed once per process, so results are always
//! deterministic within a process.

use matrix::Scalar;

/// Micro-tile rows (the packed-`A` panel height).
pub const MR: usize = 8;
/// Micro-tile columns (the packed-`B` panel width).
pub const NR: usize = 6;

/// One `MR x NR` register tile, column-major: `acc[cc][r]` is row `r` of
/// column `cc`.
pub(crate) type AccTile<T> = [[T; MR]; NR];

/// `acc += pa_panel * pb_panel` over depth `kb`, generic autovectorized
/// form. Panel layout: `pa[kk*MR + r]`, `pb[kk*NR + cc]`.
#[inline(always)]
fn microkernel_generic<T: Scalar>(kb: usize, pa: &[T], pb: &[T], acc: &mut AccTile<T>) {
    debug_assert!(pa.len() >= kb * MR && pb.len() >= kb * NR);
    for kk in 0..kb {
        let a_off = kk * MR;
        let b_off = kk * NR;
        for (cc, acc_col) in acc.iter_mut().enumerate() {
            // SAFETY: offsets bounded by the debug_assert above.
            let bv = unsafe { *pb.get_unchecked(b_off + cc) };
            for (r, slot) in acc_col.iter_mut().enumerate() {
                let av = unsafe { *pa.get_unchecked(a_off + r) };
                *slot = av.mul_add(bv, *slot);
            }
        }
    }
}

/// `f64` micro-kernel compiled for AVX2 + FMA: the same loop nest, but
/// with hardware-FMA `f64::mul_add` (contracting to `vfmadd` under the
/// enabled target features) and the depth loop unrolled by two so the
/// twelve accumulator vectors pipeline across independent FMA chains.
///
/// # Safety
/// The caller must ensure the running CPU supports AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn microkernel_f64_fma(kb: usize, pa: &[f64], pb: &[f64], acc: &mut AccTile<f64>) {
    debug_assert!(pa.len() >= kb * MR && pb.len() >= kb * NR);
    #[inline(always)]
    unsafe fn step(kk: usize, pa: &[f64], pb: &[f64], acc: &mut AccTile<f64>) {
        let a = pa.get_unchecked(kk * MR..kk * MR + MR);
        let b = pb.get_unchecked(kk * NR..kk * NR + NR);
        for cc in 0..NR {
            let bv = *b.get_unchecked(cc);
            let col = acc.get_unchecked_mut(cc);
            for r in 0..MR {
                let slot = col.get_unchecked_mut(r);
                *slot = a.get_unchecked(r).mul_add(bv, *slot);
            }
        }
    }
    let mut kk = 0;
    while kk + 2 <= kb {
        step(kk, pa, pb, acc);
        step(kk + 1, pa, pb, acc);
        kk += 2;
    }
    if kk < kb {
        step(kk, pa, pb, acc);
    }
}

/// `f64` micro-kernel for AVX-512 over `P` adjacent packed-`A` row
/// panels against one packed-`B` panel, a logical `P·MR x NR` tile. Each
/// accumulator column is one zmm register (`MR == 8` doubles); each `kk`
/// step is `P` contiguous loads of packed-`A` columns, `NR` broadcasts of
/// packed-`B` elements and `P·NR` fused multiply-adds. The macro-kernel
/// runs `P = 4`, a `32 x 6` tile: 24 accumulators, 4 `A` vectors and 1
/// broadcast, 29 of the 32 zmm registers, so each broadcast feeds four
/// FMAs and each packed-`B` panel is swept once per four `A` panels.
/// `P = 2` and `P = 1` take a block's last panels.
///
/// # Safety
/// The caller must ensure the running CPU supports AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn microkernel_f64_avx512<const P: usize>(
    kb: usize,
    pa: [&[f64]; P],
    pb: &[f64],
    acc: [&mut AccTile<f64>; P],
) {
    use core::arch::x86_64::*;
    debug_assert!(pa.iter().all(|p| p.len() >= kb * MR) && pb.len() >= kb * NR);
    let mut c = [[_mm512_setzero_pd(); NR]; P];
    for (cp, tile) in c.iter_mut().zip(acc.iter()) {
        for (v, col) in cp.iter_mut().zip(tile.iter()) {
            *v = _mm512_loadu_pd(col.as_ptr());
        }
    }
    for kk in 0..kb {
        let mut a = [_mm512_setzero_pd(); P];
        for (v, pa) in a.iter_mut().zip(pa) {
            *v = _mm512_loadu_pd(pa.as_ptr().add(kk * MR));
        }
        for cc in 0..NR {
            let bv = _mm512_set1_pd(*pb.get_unchecked(kk * NR + cc));
            for p in 0..P {
                c[p][cc] = _mm512_fmadd_pd(a[p], bv, c[p][cc]);
            }
        }
    }
    for (cp, tile) in c.iter().zip(acc) {
        for (v, col) in cp.iter().zip(tile.iter_mut()) {
            _mm512_storeu_pd(col.as_mut_ptr(), *v);
        }
    }
}

/// Which micro-kernel implementation runs for `f64` on this CPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelClass {
    /// Generic autovectorized kernel (any scalar, any ISA).
    Generic,
    /// AVX2 + FMA `f64` specialization.
    Fma,
    /// AVX-512F `f64` specialization with multi-panel macro iteration.
    Avx512,
}

/// Cached runtime probe for the `f64` kernel class. The two hardware
/// classes produce bitwise-identical results and the generic class agrees
/// to rounding tolerance (see module docs); the probe result never
/// changes within a process.
pub fn kernel_class() -> KernelClass {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::atomic::{AtomicU8, Ordering};
        // 0 = unprobed, 1 = generic, 2 = fma, 3 = avx512.
        static PROBE: AtomicU8 = AtomicU8::new(0);
        let v = match PROBE.load(Ordering::Relaxed) {
            0 => {
                let v = if std::is_x86_feature_detected!("avx512f") {
                    3
                } else if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
                    2
                } else {
                    1
                };
                PROBE.store(v, Ordering::Relaxed);
                v
            }
            v => v,
        };
        match v {
            3 => KernelClass::Avx512,
            2 => KernelClass::Fma,
            _ => KernelClass::Generic,
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    KernelClass::Generic
}

/// True when `T` is `f64` (the only type with specialized kernels).
#[inline(always)]
pub(crate) fn is_f64<T: Scalar>() -> bool {
    core::any::TypeId::of::<T>() == core::any::TypeId::of::<f64>()
}

/// `x` as `&[f64]`.
///
/// # Safety
/// `T` must be `f64` ([`is_f64`]), which makes the cast an identity.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn as_f64<T: Scalar>(x: &[T]) -> &[f64] {
    core::slice::from_raw_parts(x.as_ptr().cast::<f64>(), x.len())
}

/// `acc` as an `f64` tile.
///
/// # Safety
/// `T` must be `f64` ([`is_f64`]), which makes the cast an identity.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn as_f64_tile<T: Scalar>(acc: &mut AccTile<T>) -> &mut AccTile<f64> {
    &mut *(acc as *mut AccTile<T>).cast::<AccTile<f64>>()
}

/// `acc[p] += pa[p] * pb` over depth `kb` for `P` adjacent packed-`A`
/// row panels, in one pass over the packed-`B` panel. On AVX-512 `f64`
/// this runs the fused `P·MR x NR` kernel; on the FMA and generic classes
/// it is `P` one-panel kernels, so results never depend on `P` or on
/// which path ran.
#[inline(always)]
pub(crate) fn microkernel<T: Scalar, const P: usize>(
    kb: usize,
    pa: [&[T]; P],
    pb: &[T],
    acc: [&mut AccTile<T>; P],
) {
    #[cfg(target_arch = "x86_64")]
    if is_f64::<T>() {
        // SAFETY: T is exactly f64 (TypeId match on a 'static type), so the
        // slice and tile reinterpretations are identity casts; the CPU
        // probe guarantees the target features.
        unsafe {
            let pb = as_f64(pb);
            match kernel_class() {
                KernelClass::Avx512 => {
                    return microkernel_f64_avx512(kb, pa.map(|p| as_f64(p)), pb, acc.map(|t| as_f64_tile(t)))
                }
                KernelClass::Fma => {
                    for (pa, acc) in pa.into_iter().zip(acc) {
                        microkernel_f64_fma(kb, as_f64(pa), pb, as_f64_tile(acc));
                    }
                    return;
                }
                KernelClass::Generic => {}
            }
        }
    }
    for (pa, acc) in pa.into_iter().zip(acc) {
        microkernel_generic(kb, pa, pb, acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_tile(kb: usize, pa: &[f64], pb: &[f64]) -> AccTile<f64> {
        let mut acc = [[0.0; MR]; NR];
        for kk in 0..kb {
            for (cc, col) in acc.iter_mut().enumerate() {
                for (r, slot) in col.iter_mut().enumerate() {
                    *slot += pa[kk * MR + r] * pb[kk * NR + cc];
                }
            }
        }
        acc
    }

    fn panels(kb: usize) -> (Vec<f64>, Vec<f64>) {
        let pa: Vec<f64> = (0..kb * MR).map(|i| (i as f64 * 0.37).sin()).collect();
        let pb: Vec<f64> = (0..kb * NR).map(|i| (i as f64 * 0.61).cos()).collect();
        (pa, pb)
    }

    #[test]
    fn generic_matches_reference() {
        for kb in [0usize, 1, 2, 3, 7, 16, 33] {
            let (pa, pb) = panels(kb);
            let mut acc = [[0.0; MR]; NR];
            microkernel_generic(kb, &pa, &pb, &mut acc);
            let expect = reference_tile(kb, &pa, &pb);
            for cc in 0..NR {
                for r in 0..MR {
                    assert!((acc[cc][r] - expect[cc][r]).abs() < 1e-13, "kb={kb} ({r},{cc})");
                }
            }
        }
    }

    /// |got − want| within a few ulps of the accumulated magnitude, for
    /// comparing fused against contracted accumulation chains.
    fn close(got: f64, want: f64, kb: usize) -> bool {
        (got - want).abs() <= 1e-14 * (kb as f64 + 1.0)
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fma_kernel_matches_generic_to_tolerance() {
        // The generic kernel's multiply-add is contracted (two roundings),
        // the hardware kernel's is fused — same order, so they agree to
        // per-step rounding noise but not bitwise.
        if !std::is_x86_feature_detected!("fma") || !std::is_x86_feature_detected!("avx2") {
            return; // nothing to compare on this CPU
        }
        for kb in [1usize, 2, 5, 16, 31] {
            let (pa, pb) = panels(kb);
            let mut acc_g = [[1.0; MR]; NR];
            let mut acc_f = [[1.0; MR]; NR];
            microkernel_generic(kb, &pa, &pb, &mut acc_g);
            // SAFETY: feature detection checked above.
            unsafe { microkernel_f64_fma(kb, &pa, &pb, &mut acc_f) };
            for cc in 0..NR {
                for r in 0..MR {
                    assert!(close(acc_f[cc][r], acc_g[cc][r], kb), "kb={kb} ({r},{cc})");
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_kernels_match_fma_kernel_bitwise() {
        // All hardware kernels fuse the same multiply-add sequence in the
        // same order, so the AVX-512 kernel on one panel or two must equal
        // the FMA kernel bit for bit.
        if !std::is_x86_feature_detected!("avx512f") {
            return; // nothing to compare on this CPU
        }
        for kb in [1usize, 2, 5, 16, 31] {
            let (pa0, pb) = panels(kb);
            let pa1: Vec<f64> = (0..kb * MR).map(|i| (i as f64 * 0.23).cos()).collect();
            let mut f0 = [[0.5; MR]; NR];
            let mut f1 = [[-0.5; MR]; NR];
            // SAFETY: avx512f implies fma support.
            unsafe {
                microkernel_f64_fma(kb, &pa0, &pb, &mut f0);
                microkernel_f64_fma(kb, &pa1, &pb, &mut f1);
            }

            let mut s0 = [[0.5; MR]; NR];
            // SAFETY: feature detection checked above.
            unsafe { microkernel_f64_avx512(kb, [&pa0[..]], &pb, [&mut s0]) };
            let mut p0 = [[0.5; MR]; NR];
            let mut p1 = [[-0.5; MR]; NR];
            // SAFETY: feature detection checked above.
            unsafe { microkernel_f64_avx512(kb, [&pa0[..], &pa1], &pb, [&mut p0, &mut p1]) };
            for cc in 0..NR {
                for r in 0..MR {
                    assert_eq!(f0[cc][r].to_bits(), s0[cc][r].to_bits(), "single kb={kb} ({r},{cc})");
                    assert_eq!(f0[cc][r].to_bits(), p0[cc][r].to_bits(), "pair0 kb={kb} ({r},{cc})");
                    assert_eq!(f1[cc][r].to_bits(), p1[cc][r].to_bits(), "pair1 kb={kb} ({r},{cc})");
                }
            }
        }
    }

    #[test]
    fn paired_dispatch_matches_two_single_calls() {
        for kb in [0usize, 1, 3, 9, 24] {
            let (pa0, pb) = panels(kb);
            let pa1: Vec<f64> = (0..kb * MR).map(|i| (i as f64 * 0.11).sin()).collect();
            let mut a0 = [[2.0; MR]; NR];
            let mut a1 = [[3.0; MR]; NR];
            microkernel(kb, [&pa0[..]], &pb, [&mut a0]);
            microkernel(kb, [&pa1[..]], &pb, [&mut a1]);
            let mut b0 = [[2.0; MR]; NR];
            let mut b1 = [[3.0; MR]; NR];
            microkernel(kb, [&pa0[..], &pa1], &pb, [&mut b0, &mut b1]);
            for cc in 0..NR {
                for r in 0..MR {
                    assert_eq!(a0[cc][r].to_bits(), b0[cc][r].to_bits(), "kb={kb} ({r},{cc})");
                    assert_eq!(a1[cc][r].to_bits(), b1[cc][r].to_bits(), "kb={kb} ({r},{cc})");
                }
            }
        }
    }

    #[test]
    fn quad_dispatch_matches_two_paired_calls() {
        // The four-panel kernel runs the same ascending-kk fma chain per
        // element as the paired one, so the 32 x 6 tile equals two
        // 16 x 6 tiles bit for bit.
        for kb in [0usize, 1, 3, 9, 24] {
            let (_, pb) = panels(kb);
            let pa: Vec<Vec<f64>> =
                (0..4).map(|p| (0..kb * MR).map(|i| ((i + 5 * p) as f64 * 0.29).sin()).collect()).collect();
            let init = || [0.5, -1.5, 2.0, 3.0].map(|v| [[v; MR]; NR]);
            let mut want = init();
            let [w0, w1, w2, w3] = want.each_mut();
            microkernel(kb, [&pa[0][..], &pa[1]], &pb, [w0, w1]);
            microkernel(kb, [&pa[2][..], &pa[3]], &pb, [w2, w3]);
            let mut got = init();
            microkernel(kb, [&pa[0][..], &pa[1], &pa[2], &pa[3]], &pb, got.each_mut());
            for p in 0..4 {
                for cc in 0..NR {
                    for r in 0..MR {
                        assert_eq!(
                            want[p][cc][r].to_bits(),
                            got[p][cc][r].to_bits(),
                            "kb={kb} panel {p} ({r},{cc})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn kernel_class_probe_is_stable() {
        assert_eq!(kernel_class(), kernel_class());
    }

    #[test]
    fn dispatcher_runs_for_f32_and_f64() {
        let (pa, pb) = panels(4);
        let mut acc = [[0.0f64; MR]; NR];
        microkernel(4, [&pa[..]], &pb, [&mut acc]);
        let expect = reference_tile(4, &pa, &pb);
        assert!((acc[0][0] - expect[0][0]).abs() < 1e-12);

        let pa32: Vec<f32> = pa.iter().map(|&x| x as f32).collect();
        let pb32: Vec<f32> = pb.iter().map(|&x| x as f32).collect();
        let mut acc32 = [[0.0f32; MR]; NR];
        microkernel(4, [&pa32[..]], &pb32, [&mut acc32]);
        assert!((acc32[0][0] as f64 - expect[0][0]).abs() < 1e-5);
    }
}
