//! The packed GEMM nest: one BLIS 5-loop nest for every packed product,
//! from a plain GEMM to a whole Strassen recursion level.
//!
//! A block schedule is a list of products `(Σ γ·A_q)(Σ γ·B_q) → Σ δ·C_q`
//! over a `g x g` partition of the operands. Following Huang et al.,
//! *Implementing Strassen's Algorithm with BLIS*, the nest folds the
//! operand sums into the *packing* step — every grid block of `A` and `B`
//! is packed once per cache block, and a sum is a γ-weighted combination
//! of already-packed panels — and folds the destination updates into the
//! micro-tile *write-back*, scattering each `MR x NR` accumulator into
//! every destination block while it is still in registers. A plain GEMM
//! is the case `g = 1` with the one product `+A₀ · +B₀ → +C₀` (`PLAIN`):
//! one term, one destination, no combination buffer.
//!
//! # Example
//!
//! One Strassen level (the 1969 seven-product table over the 2 x 2
//! quadrants, flat index `q = row · 2 + col`) in a single call, with no
//! operand sum or product ever materialized:
//!
//! ```
//! use blas::level2::Op;
//! use blas::level3::{gemm, gemm_fused_level, BlockProduct, BlockTerms, GemmConfig};
//! use matrix::{norms, random, Matrix};
//!
//! let p = |a: &[(i8, u8)], b: &[(i8, u8)], c: &[(i8, u8)]| BlockProduct {
//!     a: BlockTerms::new(a),
//!     b: BlockTerms::new(b),
//!     c: BlockTerms::new(c),
//! };
//! let strassen = [
//!     p(&[(1, 0), (1, 3)], &[(1, 0), (1, 3)], &[(1, 0), (1, 3)]),
//!     p(&[(1, 2), (1, 3)], &[(1, 0)], &[(1, 2), (-1, 3)]),
//!     p(&[(1, 0)], &[(1, 1), (-1, 3)], &[(1, 1), (1, 3)]),
//!     p(&[(1, 3)], &[(1, 2), (-1, 0)], &[(1, 0), (1, 2)]),
//!     p(&[(1, 0), (1, 1)], &[(1, 3)], &[(-1, 0), (1, 1)]),
//!     p(&[(1, 2), (-1, 0)], &[(1, 0), (1, 1)], &[(1, 3)]),
//!     p(&[(1, 1), (-1, 3)], &[(1, 2), (1, 3)], &[(1, 0)]),
//! ];
//!
//! let (m, k, n) = (24, 20, 28);
//! let a = random::uniform::<f64>(m, k, 1);
//! let b = random::uniform::<f64>(k, n, 2);
//! let cfg = GemmConfig::blocked();
//! let mut c = Matrix::zeros(m, n);
//! gemm_fused_level(&cfg, 1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut(), &strassen, 2);
//!
//! let mut want = Matrix::zeros(m, n);
//! gemm(&cfg, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, want.as_mut());
//! assert!(norms::rel_diff(c.as_ref(), want.as_ref()) < 1e-13);
//! ```

use super::blocked::{clamp_blocking, pack_a, pack_b, panel_lens};
use super::kernel::{microkernel, AccTile, MR, NR};
use super::packbuf::with_pack_slab;
use super::parallel::{balanced_quanta, parallel_ways, thread_grid};
use super::{scale_c, GemmAlgo, GemmConfig};
use crate::level2::Op;
use matrix::{MatMut, MatRef, Scalar};

/// Maximum number of `γ · X_q` terms in one operand sum — the Winograd
/// schedule needs up to four (e.g. `A12 − S2 = A12 − A21 − A22 + A11`).
pub const MAX_TERMS: usize = 4;

/// Maximum number of destinations per product — a Strassen product feeds
/// at most all four `C` quadrants (`P1` in the Winograd schedule).
pub const MAX_DESTS: usize = 4;

/// Largest supported block grid (`g ≤ 4`, i.e. up to two flattened
/// Strassen levels — 4 x 4 quarter-blocks).
pub const MAX_GRID: usize = 4;
const MAX_GRID_BLOCKS: usize = MAX_GRID * MAX_GRID;

/// Up to [`MAX_TERMS`] signed block references `(γ, q)` over a `g x g`
/// partition, `q = block_row · g + block_col` flattened. Coefficients are
/// small integers (`±1` in every Strassen-family schedule).
#[derive(Clone, Copy, Debug)]
pub struct BlockTerms {
    /// `(γ, flat block index)` entries; slots at `len..` are ignored.
    pub t: [(i8, u8); MAX_TERMS],
    /// Number of live entries (`1..=MAX_TERMS`).
    pub len: u8,
}

impl BlockTerms {
    /// A single-term reference `γ · X_q`.
    pub const fn single(gamma: i8, q: u8) -> Self {
        BlockTerms { t: [(gamma, q), (0, 0), (0, 0), (0, 0)], len: 1 }
    }

    /// Build from a slice of `(γ, q)` terms.
    ///
    /// # Panics
    /// If `terms` is empty or longer than [`MAX_TERMS`].
    pub fn new(terms: &[(i8, u8)]) -> Self {
        assert!(
            !terms.is_empty() && terms.len() <= MAX_TERMS,
            "BlockTerms: need 1..={MAX_TERMS} terms, got {}",
            terms.len()
        );
        let mut t = [(0i8, 0u8); MAX_TERMS];
        t[..terms.len()].copy_from_slice(terms);
        BlockTerms { t, len: terms.len() as u8 }
    }

    /// Live `(γ, q)` entries.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (i8, u8)> + '_ {
        self.t[..self.len as usize].iter().copied()
    }

    /// The block `q` when the operand is a bare `+X_q`, whose packed
    /// panel the nest uses as is.
    fn bare(&self) -> Option<usize> {
        (self.len == 1 && self.t[0].0 == 1).then_some(self.t[0].1 as usize)
    }

    /// Same live terms in the same order: the two operands are one sum,
    /// combined by the same γ-ordered chain.
    fn same(&self, other: &Self) -> bool {
        self.t[..self.len as usize] == other.t[..other.len as usize]
    }
}

/// One fused sub-product `(Σ γ A_q)(Σ γ B_q) → Σ δ C_q` of a block
/// schedule, all operands addressed over the same `g x g` partition.
#[derive(Clone, Copy, Debug)]
pub struct BlockProduct {
    /// A-operand terms.
    pub a: BlockTerms,
    /// B-operand terms.
    pub b: BlockTerms,
    /// Destination blocks with their δ coefficients.
    pub c: BlockTerms,
}

/// The one-product table of a plain GEMM on a 1 x 1 grid:
/// `+A₀ · +B₀ → +C₀`.
pub(crate) const PLAIN: [BlockProduct; 1] =
    [BlockProduct { a: BlockTerms::single(1, 0), b: BlockTerms::single(1, 0), c: BlockTerms::single(1, 0) }];

/// Most distinct B operands one table may have: a seven-product table
/// flattened over two levels (49 products on a 4 x 4 grid) has 49.
const MAX_B_OPERANDS: usize = 49;

/// What the nest needs to know about a product table besides the
/// products: where β lands, which B operands it builds, and which
/// combination scratch it needs.
struct TablePlan {
    /// First product touching each C block — that touch carries β.
    first_touch: [usize; MAX_GRID_BLOCKS],
    /// The table's distinct B operands in order of first use; equal term
    /// lists share one packed slot.
    b_ops: [BlockTerms; MAX_B_OPERANDS],
    b_op_count: usize,
    /// The B blocks some sum or signed block reads: phase 1 packs them
    /// into its panel scratch and builds those operands from there.
    b_summed: [bool; MAX_GRID_BLOCKS],
    /// Some A operand is a sum or a signed block, so every compute task
    /// needs an A combination buffer.
    a_sums: bool,
}

impl TablePlan {
    /// # Panics
    /// If the table has more than [`MAX_B_OPERANDS`] distinct B operands.
    fn of(products: &[BlockProduct]) -> Self {
        let mut plan = TablePlan {
            first_touch: [usize::MAX; MAX_GRID_BLOCKS],
            b_ops: [BlockTerms::single(1, 0); MAX_B_OPERANDS],
            b_op_count: 0,
            b_summed: [false; MAX_GRID_BLOCKS],
            a_sums: products.iter().any(|p| p.a.bare().is_none()),
        };
        for (pi, p) in products.iter().enumerate() {
            for (_, q) in p.c.iter() {
                if plan.first_touch[q as usize] == usize::MAX {
                    plan.first_touch[q as usize] = pi;
                }
            }
            if p.b.bare().is_none() {
                for (_, q) in p.b.iter() {
                    plan.b_summed[q as usize] = true;
                }
            }
            if !plan.b_ops().iter().any(|o| o.same(&p.b)) {
                assert!(plan.b_op_count < MAX_B_OPERANDS, "more than {MAX_B_OPERANDS} distinct B operands");
                plan.b_ops[plan.b_op_count] = p.b;
                plan.b_op_count += 1;
            }
        }
        plan
    }

    fn b_ops(&self) -> &[BlockTerms] {
        &self.b_ops[..self.b_op_count]
    }

    /// The packed slot that holds the B operand `b`.
    fn b_slot(&self, b: &BlockTerms) -> usize {
        self.b_ops().iter().position(|o| o.same(b)).expect("every product's B operand has a slot")
    }

    /// Pack-slab parts at packed lengths `(a_len, b_len)` and depth `kc`:
    /// the shared B operand slots, one phase-1 task's panel scratch (one
    /// `NR x kc` panel per grid block), and one compute task's region
    /// (`g²` A slots, plus the A combination buffer when the table has
    /// A sums).
    fn slab_parts(&self, g: usize, (a_len, b_len): (usize, usize), kc: usize) -> (usize, usize, usize) {
        let g2 = g * g;
        let b_sums = self.b_summed.iter().any(|&s| s);
        (self.b_op_count * b_len, usize::from(b_sums) * g2 * NR * kc, (g2 + usize::from(self.a_sums)) * a_len)
    }
}

/// Pack-slab requirement (elements of `T`) of one serial
/// [`gemm_fused_level`] call running `products` at shape `m x k x n`
/// over a `g x g` grid, at the problem-clamped panel sizes: one slot per
/// distinct B operand, a `g² · NR · kc` panel scratch when some B operand
/// is a sum or a signed block, and the `g²` A block slots plus an A
/// combination buffer when some A operand is. For the 1969 Strassen table
/// that is `7·b_len + 4·NR·kc + 5·a_len`; for the plain GEMM's one bare
/// product it is `b_len + a_len`. Exposed for the Table-1 memory
/// accounting tests.
pub fn fused_level_pack_elements(
    cfg: &GemmConfig,
    m: usize,
    k: usize,
    n: usize,
    products: &[BlockProduct],
    g: usize,
) -> usize {
    let (mc, kc, nc) = clamp_blocking(cfg, m / g, k / g, n / g);
    let (b_slots, scratch, region) = TablePlan::of(products).slab_parts(g, panel_lens(mc, kc, nc), kc);
    b_slots + scratch + region
}

/// `dst[r] ← Σ_t γ_t · srcs_t[r]` with the term loop unrolled at compile
/// time: `γ_0 · x_0` first, then one `mul_add` per further term.
#[inline(always)]
fn fill_sum_rows<T: Scalar, const L: usize>(dst: &mut [T], srcs: &[&[T]; L], gammas: &[T; L]) {
    debug_assert!(srcs.iter().all(|s| s.len() == dst.len()));
    for (r, d) in dst.iter_mut().enumerate() {
        // SAFETY: every slice in `srcs` has dst.len() elements.
        let mut v = unsafe { gammas[0] * *srcs[0].get_unchecked(r) };
        for t in 1..L {
            v = unsafe { gammas[t].mul_add(*srcs[t].get_unchecked(r), v) };
        }
        *d = v;
    }
}

/// `dst ← Σ_t γ_t · slots[q_t]` over packed panels. Packed layouts are
/// position-identical across slots (same `(mb, kb)` or `(kb, nb)`), and
/// packing is linear in its source — `pack(Σ γ X) = Σ γ pack(X)`, zero
/// padding included — so combining after packing equals packing the
/// combination.
fn combine_packed<T: Scalar>(dst: &mut [T], terms: &BlockTerms, slots: &[T], slot_len: usize) {
    let lt = terms.len as usize;
    let mut srcs = [&[] as &[T]; MAX_TERMS];
    let mut gammas = [T::ZERO; MAX_TERMS];
    for t in 0..lt {
        let (gm, q) = terms.t[t];
        let base = q as usize * slot_len;
        srcs[t] = &slots[base..base + dst.len()];
        gammas[t] = T::from_f64(gm as f64);
    }
    match lt {
        1 => fill_sum_rows(dst, &[srcs[0]], &[gammas[0]]),
        2 => fill_sum_rows(dst, &[srcs[0], srcs[1]], &[gammas[0], gammas[1]]),
        3 => fill_sum_rows(dst, &[srcs[0], srcs[1], srcs[2]], &[gammas[0], gammas[1], gammas[2]]),
        _ => fill_sum_rows(dst, &srcs, &gammas),
    }
}

/// One destination of the tile write-back: `c ← coeff · tile + β · c`,
/// where an absent `β` accumulates into `c` as is.
pub(crate) struct Dest<'a, T> {
    pub(crate) c: MatMut<'a, T>,
    pub(crate) coeff: T,
    pub(crate) beta: Option<T>,
}

/// Write one accumulator tile into every destination at `(i0, j0)`.
///
/// `β = None` and `Some(1)` accumulate, `Some(0)` is a pure store (no
/// read of the destination, so NaN there is cleared), and any other `β`
/// fuses the scale into the write. The scalar sequences match a separate
/// `β` pre-sweep bitwise: `b·d + coeff·v` is what `scale` then `+=`
/// computed, and the exact multiply by one is skipped.
fn scatter_tile<T: Scalar>(
    dests: &mut [Dest<'_, T>],
    acc: &AccTile<T>,
    i0: usize,
    j0: usize,
    rows: usize,
    cols: usize,
) {
    for dest in dests.iter_mut() {
        let (coeff, ld) = (dest.coeff, dest.c.ld());
        // Hoist the destination base pointer: at leaf-sized `kb` the
        // per-column slice checks of safe indexing cost as much as the
        // micro-kernel itself.
        let base = dest.c.as_mut_ptr();
        for (cc, acc_col) in acc.iter().enumerate().take(cols) {
            // SAFETY: rows i0..i0+rows of column j0+cc are in bounds by
            // construction of the blocking, and `dests` holds exclusive
            // borrows of disjoint matrices.
            let cseg = unsafe { core::slice::from_raw_parts_mut(base.add((j0 + cc) * ld + i0), rows) };
            match dest.beta {
                None => {
                    for (d, &v) in cseg.iter_mut().zip(acc_col) {
                        *d += coeff * v;
                    }
                }
                Some(b) if b == T::ZERO => {
                    for (d, &v) in cseg.iter_mut().zip(acc_col) {
                        *d = coeff * v;
                    }
                }
                Some(b) if b == T::ONE => {
                    for (d, &v) in cseg.iter_mut().zip(acc_col) {
                        *d += coeff * v;
                    }
                }
                Some(b) => {
                    for (d, &v) in cseg.iter_mut().zip(acc_col) {
                        *d = b * *d + coeff * v;
                    }
                }
            }
        }
    }
}

/// Prefetch into L1 every cache line of the `rows x cols` tile at
/// `(i0, j0)` of each destination. Called just before the micro-kernel
/// that fills the tile, so its `kb` rank updates hide the fetch and the
/// write-back finds `C` in L1 rather than in L3.
#[inline(always)]
fn prefetch_tiles<T>(dests: &[Dest<'_, T>], i0: usize, j0: usize, rows: usize, cols: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        const LINE: usize = 64;
        let bytes = rows * core::mem::size_of::<T>();
        for dest in dests {
            let (base, ld) = (dest.c.as_ref().as_ptr(), dest.c.ld());
            for cc in 0..cols {
                let col = base.wrapping_add((j0 + cc) * ld + i0).cast::<i8>();
                // One prefetch per line the column segment starts in, and
                // its last byte's line when the segment is not aligned.
                for off in (0..bytes).step_by(LINE).chain([bytes - 1]) {
                    // SAFETY: a prefetch is only a hint: it never faults
                    // and changes no memory, whatever the address.
                    unsafe { _mm_prefetch::<_MM_HINT_T0>(col.wrapping_add(off)) };
                }
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (dests, i0, j0, rows, cols);
}

/// The macro-kernel: multiply one packed `mb x kb` A-block by one packed
/// `kb x nb` B-panel and write each register tile into every destination
/// at `(ic, jc)` of its view. The A-row panels are walked in quads, then
/// a pair, then a single, so AVX-512 parts run the fused `4·MR x NR`
/// micro-kernel on all but the last few panels of a block. Each tile's
/// destination lines are prefetched before its micro-kernel runs.
pub(crate) fn macrokernel_multi<T: Scalar>(
    mb: usize,
    kb: usize,
    nb: usize,
    packed_a: &[T],
    packed_b: &[T],
    dests: &mut [Dest<'_, T>],
    ic: usize,
    jc: usize,
) {
    // `scatter_tile` writes through raw pointers: the block must lie
    // inside every destination view.
    debug_assert!(dests.iter().all(|d| ic + mb <= d.c.nrows() && jc + nb <= d.c.ncols()));
    let mpanels = mb.div_ceil(MR);
    let npanels = nb.div_ceil(NR);
    let pa = |qm: usize| &packed_a[qm * MR * kb..(qm + 1) * MR * kb];
    for qn in 0..npanels {
        let col0 = qn * NR;
        let cols = NR.min(nb - col0);
        let pb = &packed_b[qn * NR * kb..(qn + 1) * NR * kb];
        // The rows of panels `qm..qm + panels` in every destination.
        let prefetch = |dests: &[Dest<'_, T>], qm: usize, panels: usize| {
            let row0 = qm * MR;
            prefetch_tiles(dests, ic + row0, jc + col0, (panels * MR).min(mb - row0), cols);
        };
        // Tiles `qm..` of `acc` into every destination.
        let scatter = |dests: &mut [Dest<'_, T>], acc: &[AccTile<T>], qm: usize| {
            for (p, tile) in acc.iter().enumerate() {
                let row0 = (qm + p) * MR;
                scatter_tile(dests, tile, ic + row0, jc + col0, MR.min(mb - row0), cols);
            }
        };
        let mut qm = 0;
        while qm + 4 <= mpanels {
            let mut acc = [[[T::ZERO; MR]; NR]; 4];
            prefetch(dests, qm, 4);
            microkernel(kb, [pa(qm), pa(qm + 1), pa(qm + 2), pa(qm + 3)], pb, acc.each_mut());
            scatter(dests, &acc, qm);
            qm += 4;
        }
        if qm + 2 <= mpanels {
            let mut acc = [[[T::ZERO; MR]; NR]; 2];
            prefetch(dests, qm, 2);
            microkernel(kb, [pa(qm), pa(qm + 1)], pb, acc.each_mut());
            scatter(dests, &acc, qm);
            qm += 2;
        }
        if qm < mpanels {
            let mut acc = [[[T::ZERO; MR]; NR]];
            prefetch(dests, qm, 1);
            microkernel(kb, [pa(qm)], pb, acc.each_mut());
            scatter(dests, &acc, qm);
        }
    }
}

/// Execute a whole fused block schedule — e.g. one Strassen recursion
/// level — through a single 5-loop nest with **shared packed panels**:
///
/// ```text
/// for jc (nc-wide slices of every C/B block column range)
///   for pc (kc-deep rank slices)
///     phase 1: pack and build every distinct B operand, once
///     phase 2: for ic (mc-tall slices)      A-block panels packed once,
///                for each product: combine its γ-weighted A panels,
///                multiply by its B operand, scatter into its
///                δ-weighted C blocks
/// ```
///
/// Every grid block of `A` and `B` is packed **once per cache block** and
/// reused by all products that reference it — for Strassen's 7-product
/// schedule that is 4 B-packing and 4 A-packing quadrant passes instead
/// of 12 each — and operand sums are cheap linear combinations of
/// already-packed panels. Each B operand is built once per `(jc, pc)`
/// step, panel by panel while its blocks' packed panels are in cache;
/// products with equal B term lists share it.
///
/// Semantics, for each product `p` in order:
/// `C_q ← α δ_q (Σ γ A_blk)(Σ γ B_blk) + [β C_q]` where `β` applies on
/// the first product that touches block `q` (BLAS semantics: `β = 0`
/// overwrites without reading). Blocks no product touches are scaled by
/// `β` directly.
///
/// `cfg.algo` picks serial or pool-parallel execution. Under
/// [`GemmAlgo::BlockedParallel`] the threads build disjoint panel ranges
/// of phase 1's shared `B` operand slots, then split phase 2 over a grid of row
/// bands and panel ranges of `C`, each task packing its own `A` blocks
/// (see [`super::gemm_parallel`]). Every element still sees the same
/// operations in the same order, so the result is bitwise equal to the
/// serial nest.
///
/// All of `m`, `k`, `n` must be divisible by `g`.
///
/// # Panics
/// On dimension mismatch, `g` out of `1..=`[`MAX_GRID`], indices outside
/// the grid, malformed term counts, a product listing the same
/// destination block twice, or more than 49 distinct B operands.
pub fn gemm_fused_level<T: Scalar>(
    cfg: &GemmConfig,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    beta: T,
    c: MatMut<'_, T>,
    products: &[BlockProduct],
    g: usize,
) {
    assert!((1..=MAX_GRID).contains(&g), "gemm_fused_level: grid {g} outside 1..={MAX_GRID}");
    let (m, k) = (a.nrows(), a.ncols());
    let n = b.ncols();
    assert_eq!(b.nrows(), k, "gemm_fused_level: inner dimensions disagree");
    assert!(
        c.nrows() == m && c.ncols() == n,
        "gemm_fused_level: destination is {}x{}, expected {m}x{n}",
        c.nrows(),
        c.ncols()
    );
    assert!(
        m % g == 0 && k % g == 0 && n % g == 0,
        "gemm_fused_level: {m}x{k}x{n} not divisible by grid {g}"
    );
    let ways = if cfg.algo == GemmAlgo::BlockedParallel { parallel_ways(m / g, k / g, n / g) } else { 1 };
    gemm_level(ways, cfg, alpha, Op::NoTrans, a, Op::NoTrans, b, beta, c, products, g);
}

/// The one packed nest, behind [`gemm_fused_level`], the packed path of
/// [`super::gemm_blocked`] and [`super::gemm_parallel`], on operands
/// `op(A)` and `op(B)` whose shapes the caller has checked. Only the
/// one-block grid `g = 1` is called with `Trans`. The nest splits `ways`
/// ways; `ways = 1` runs it inline on the calling thread.
pub(crate) fn gemm_level<T: Scalar>(
    ways: usize,
    cfg: &GemmConfig,
    alpha: T,
    op_a: Op,
    a: MatRef<'_, T>,
    op_b: Op,
    b: MatRef<'_, T>,
    beta: T,
    mut c: MatMut<'_, T>,
    products: &[BlockProduct],
    g: usize,
) {
    // The destination views in `grid_task` are built from raw pointers,
    // so the table is checked here, whoever the caller is.
    let g2 = g * g;
    for p in products {
        for terms in [&p.a, &p.b, &p.c] {
            let lt = terms.len as usize;
            assert!((1..=MAX_TERMS).contains(&lt), "gemm_fused_level: term count {lt}");
            assert!(terms.iter().all(|(_, q)| (q as usize) < g2), "block index outside grid");
        }
        let lc = p.c.len as usize;
        assert!(lc <= MAX_DESTS, "gemm_fused_level: {lc} destinations");
        for i in 0..lc {
            for j in i + 1..lc {
                assert_ne!(p.c.t[i].1, p.c.t[j].1, "product lists destination block twice");
            }
        }
    }
    let (m, k) = op_a.dims(&a);
    let n = c.ncols();
    let (bm, bk, bn) = (m / g, k / g, n / g);

    let plan = TablePlan::of(products);

    if alpha == T::ZERO || m == 0 || n == 0 || k == 0 || products.is_empty() {
        // Degenerate product: only the β scaling remains.
        scale_c(beta, &mut c);
        return;
    }
    // Blocks outside the schedule still owe their β scaling.
    for (q, &first) in plan.first_touch.iter().enumerate().take(g2) {
        if first == usize::MAX {
            scale_c(beta, &mut c.submatrix_mut((q / g) * bm, (q % g) * bn, bm, bn));
        }
    }

    let (mc, kc, nc) = clamp_blocking(cfg, bm, bk, bn);
    let nest = LevelNest {
        alpha,
        beta,
        op_a,
        a,
        op_b,
        b,
        c: CBase(c.as_mut_ptr()),
        ldc: c.ld(),
        products,
        plan,
        g,
        block: (bm, bk, bn),
        blocking: (mc, kc, nc),
        lens: panel_lens(mc, kc, nc),
    };
    run_nest(&nest, ways);
}

/// `C`'s base pointer, shared by the phase-2 tasks of a parallel nest.
#[derive(Clone, Copy)]
struct CBase<T>(*mut T);

// SAFETY: the one field is a pointer into C. Every phase-2 task reads
// and writes only its own row band and panel range of each C block
// (disjoint by construction in `run_nest`), so no element is touched
// through two copies of the pointer; `T: Send` because tasks on other
// threads write the elements.
unsafe impl<T: Send> Send for CBase<T> {}
unsafe impl<T: Send> Sync for CBase<T> {}

/// One fused level's operands, schedule and blocking: everything the
/// 5-loop nest needs.
struct LevelNest<'a, T> {
    alpha: T,
    beta: T,
    op_a: Op,
    a: MatRef<'a, T>,
    op_b: Op,
    b: MatRef<'a, T>,
    c: CBase<T>,
    ldc: usize,
    products: &'a [BlockProduct],
    plan: TablePlan,
    g: usize,
    /// Block dimensions `(m/g, k/g, n/g)`.
    block: (usize, usize, usize),
    /// Problem-clamped `(mc, kc, nc)`.
    blocking: (usize, usize, usize),
    /// Packed `(A, B)` slot lengths at that blocking.
    lens: (usize, usize),
}

/// One `(jc, pc)` step of the nest: the columns `jc..jc + nb` of every
/// block and the rank slice `pc..pc + kb`.
#[derive(Clone, Copy)]
struct Step {
    jc: usize,
    nb: usize,
    pc: usize,
    kb: usize,
}

/// Stored view of grid block `q` of `op(X)`, a `rows x cols` block of a
/// `g x g` partition.
fn op_block<'a, T>(op: Op, x: MatRef<'a, T>, q: usize, g: usize, rows: usize, cols: usize) -> MatRef<'a, T> {
    let (r0, c0) = ((q / g) * rows, (q % g) * cols);
    match op {
        Op::NoTrans => x.submatrix(r0, c0, rows, cols),
        Op::Trans => x.submatrix(c0, r0, cols, rows),
    }
}

/// Run the nest split `ways` ways. For each `(jc, pc)` step:
///
/// - **phase 1** packs and builds every distinct B operand into its
///   shared slot, the threads taking disjoint `NR`-panel ranges
///   ([`pack_b_panels`]); then one join;
/// - **phase 2** splits `C` over an `ic_ways x jr_ways` grid of tasks
///   ([`thread_grid`]): balanced `MR`-quantized row bands times panel
///   ranges of the shared B operands. Each task packs its own `A` blocks
///   and combines its own `A` sums.
///
/// The calling thread leases the one pack slab: the shared B operand
/// slots, then one panel scratch per phase-1 task, then one `A` region
/// per grid task, handed out by splitting. No task leases anything, and
/// `ways = 1` runs both phases inline, with no scope and no allocation.
fn run_nest<T: Scalar>(nest: &LevelNest<'_, T>, ways: usize) {
    let (bm, bk, bn) = nest.block;
    let (_, kc, nc) = nest.blocking;
    let b_len = nest.lens.1;
    let ops = nest.plan.b_op_count;
    let (ic_ways, jr_ways) = thread_grid(bm, ways);
    let (slots_len, scratch_len, region) = nest.plan.slab_parts(nest.g, nest.lens, kc);

    with_pack_slab::<T, _>(slots_len + ways * scratch_len + ic_ways * jr_ways * region, |slab| {
        let (b_slots, tail) = slab.split_at_mut(slots_len);
        let (scratches, regions) = tail.split_at_mut(ways * scratch_len);
        let row_bands = if ways == 1 { Vec::new() } else { balanced_quanta(bm.div_ceil(MR), ic_ways) };
        for jc in (0..bn).step_by(nc) {
            for pc in (0..bk).step_by(kc) {
                let step = Step { jc, nb: nc.min(bn - jc), pc, kb: kc.min(bk - pc) };
                let (panels, panel_len) = (step.nb.div_ceil(NR), NR * step.kb);
                // The used part of each operand slot, split off in panel
                // ranges.
                let mut rest: [&mut [T]; MAX_B_OPERANDS] = std::array::from_fn(|_| Default::default());
                for (r, slot) in rest.iter_mut().zip(b_slots.chunks_mut(b_len)) {
                    *r = &mut slot[..panels * panel_len];
                }
                if ways == 1 {
                    pack_b_panels(nest, step, (0, panels), &mut rest[..ops], scratches);
                    grid_task(nest, step, (0, bm), (0, panels), b_slots, regions);
                    continue;
                }

                pool::scope(|s| {
                    let (mut p0, mut scratches) = (0, &mut *scratches);
                    for (i, &np) in balanced_quanta(panels, ways).iter().enumerate() {
                        let mut chunks: [&mut [T]; MAX_B_OPERANDS] =
                            std::array::from_fn(|_| Default::default());
                        for (chunk, r) in chunks.iter_mut().zip(&mut rest).take(ops) {
                            (*chunk, *r) = std::mem::take(r).split_at_mut(np * panel_len);
                        }
                        let scratch;
                        (scratch, scratches) = std::mem::take(&mut scratches).split_at_mut(scratch_len);
                        let tag = pool::ring::tag::gemm_task(1, i as u8);
                        s.spawn_tagged(None, tag, move || {
                            pack_b_panels(nest, step, (p0, np), &mut chunks[..ops], scratch)
                        });
                        p0 += np;
                    }
                });

                let b_slots = &*b_slots;
                pool::scope(|s| {
                    let mut regions = regions.chunks_mut(region);
                    let (mut task, mut r0) = (0, 0);
                    for &band in &row_bands {
                        let rows = (band * MR).min(bm - r0);
                        let mut p0 = 0;
                        for &np in &balanced_quanta(panels, jr_ways) {
                            let region = regions.next().expect("one slab region per grid task");
                            let tag = pool::ring::tag::gemm_task(2, task as u8);
                            s.spawn_tagged(None, tag, move || {
                                grid_task(nest, step, (r0, rows), (p0, np), b_slots, region)
                            });
                            task += 1;
                            p0 += np;
                        }
                        r0 += rows;
                    }
                });
            }
        }
    });
}

/// Phase 1 task: build panels `p0..p0 + np` of every distinct B operand,
/// operand `o`'s into `slots[o]`. Per panel, the blocks that sums read
/// are packed into `scratch`, and every sum (or signed block) is combined
/// from there while those panels are still in cache; a bare `+B_q` whose
/// block no sum reads is packed straight into its slot, so a plain GEMM
/// packs `B` once and uses no scratch.
fn pack_b_panels<T: Scalar>(
    nest: &LevelNest<'_, T>,
    step: Step,
    (p0, np): (usize, usize),
    slots: &mut [&mut [T]],
    scratch: &mut [T],
) {
    let Step { jc, nb, pc, kb } = step;
    let (_, bk, bn) = nest.block;
    let plan = &nest.plan;
    let panel_len = NR * kb;
    for j in 0..np {
        let c0 = (p0 + j) * NR;
        let pack = |q: usize, buf: &mut [T]| {
            let blk = op_block(nest.op_b, nest.b, q, nest.g, bk, bn);
            pack_b(nest.op_b, &blk, pc, jc + c0, kb, NR.min(nb - c0), buf);
        };
        for q in (0..nest.g * nest.g).filter(|&q| plan.b_summed[q]) {
            pack(q, &mut scratch[q * panel_len..][..panel_len]);
        }
        for (terms, slot) in plan.b_ops().iter().zip(slots.iter_mut()) {
            let dst = &mut slot[j * panel_len..][..panel_len];
            match terms.bare() {
                Some(q) if !plan.b_summed[q] => pack(q, dst),
                _ => combine_packed(dst, terms, scratch, panel_len),
            }
        }
    }
}

/// Phase 2 task: rows `r0..r0 + rows` of every `C` block against panels
/// `p0..p0 + np` of the shared B operand slots. `region` holds this
/// task's `g²` `A` slots, then, when the table has A sums, its `A`
/// combination buffer.
fn grid_task<T: Scalar>(
    nest: &LevelNest<'_, T>,
    step: Step,
    (r0, rows): (usize, usize),
    (p0, np): (usize, usize),
    b_slots: &[T],
    region: &mut [T],
) {
    let &LevelNest { alpha, beta, op_a, a, ldc, products, g, .. } = nest;
    let (bm, bk, bn) = nest.block;
    let (mc, _, _) = nest.blocking;
    let (a_len, b_len) = nest.lens;
    let Step { jc, nb, pc, kb } = step;
    let (c0, b_off, b_used) = (p0 * NR, p0 * NR * kb, np * NR * kb);
    let cols = (np * NR).min(nb - c0);
    let (a_slots, comb_a) = region.split_at_mut(g * g * a_len);

    for ic in (r0..r0 + rows).step_by(mc) {
        let mb = mc.min(r0 + rows - ic);
        let a_used = mb.div_ceil(MR) * MR * kb;
        let mut a_valid = [false; MAX_GRID_BLOCKS];
        for (pi, p) in products.iter().enumerate() {
            // Lazily pack the grid blocks this product needs; later
            // products reuse them.
            for (_, q) in p.a.iter() {
                let q = q as usize;
                if !a_valid[q] {
                    let blk = op_block(op_a, a, q, g, bm, bk);
                    pack_a(op_a, &blk, ic, pc, mb, kb, &mut a_slots[q * a_len..][..a_used]);
                    a_valid[q] = true;
                }
            }
            // An A sum as a combination of packed panels; a bare `+A_q`
            // borrows the slot directly.
            let pa: &[T] = match p.a.bare() {
                Some(q) => &a_slots[q * a_len..][..a_used],
                None => {
                    combine_packed(&mut comb_a[..a_used], &p.a, a_slots, a_len);
                    &comb_a[..a_used]
                }
            };
            let pb = &b_slots[nest.plan.b_slot(&p.b) * b_len + b_off..][..b_used];

            let dest = |t: usize| {
                let (dl, q) = p.c.t[t];
                let q = q as usize;
                // SAFETY: grid blocks are disjoint, a product never lists
                // the same block twice (checked in `gemm_level`), grid
                // tasks own disjoint row bands and panel ranges of every
                // block, and the parent view `c` is dormant while the
                // block views are live.
                let view = unsafe {
                    MatMut::from_raw_parts(
                        nest.c.0.add((q / g) * bm + r0 + ((q % g) * bn + jc + c0) * ldc),
                        rows,
                        cols,
                        ldc,
                    )
                };
                let first = pc == 0 && nest.plan.first_touch[q] == pi;
                Dest { c: view, coeff: alpha * T::from_f64(dl as f64), beta: first.then_some(beta) }
            };
            let run = |dests: &mut [Dest<'_, T>]| {
                macrokernel_multi(mb, kb, cols, pa, pb, dests, ic - r0, 0);
            };
            match p.c.len {
                1 => run(&mut [dest(0)]),
                2 => run(&mut [dest(0), dest(1)]),
                3 => run(&mut [dest(0), dest(1), dest(2)]),
                _ => run(&mut [dest(0), dest(1), dest(2), dest(3)]),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matrix::{random, Matrix};

    /// Strassen's 1969 seven-product table over flat 2x2 block indices
    /// (q = row·2 + col).
    fn strassen_table() -> [BlockProduct; 7] {
        let t = BlockTerms::new;
        [
            BlockProduct { a: t(&[(1, 0), (1, 3)]), b: t(&[(1, 0), (1, 3)]), c: t(&[(1, 0), (1, 3)]) },
            BlockProduct { a: t(&[(1, 2), (1, 3)]), b: t(&[(1, 0)]), c: t(&[(1, 2), (-1, 3)]) },
            BlockProduct { a: t(&[(1, 0)]), b: t(&[(1, 1), (-1, 3)]), c: t(&[(1, 1), (1, 3)]) },
            BlockProduct { a: t(&[(1, 3)]), b: t(&[(1, 2), (-1, 0)]), c: t(&[(1, 0), (1, 2)]) },
            BlockProduct { a: t(&[(1, 0), (1, 1)]), b: t(&[(1, 3)]), c: t(&[(-1, 0), (1, 1)]) },
            BlockProduct { a: t(&[(1, 2), (-1, 0)]), b: t(&[(1, 0), (1, 1)]), c: t(&[(1, 3)]) },
            BlockProduct { a: t(&[(1, 1), (-1, 3)]), b: t(&[(1, 2), (1, 3)]), c: t(&[(1, 0)]) },
        ]
    }

    /// `Σ γ_t · X_t` with the γ-ordered chain `combine_packed` uses:
    /// `γ_0 · x_0`, then one `mul_add` per further term.
    fn materialize(terms: &[(f64, &Matrix<f64>)]) -> Matrix<f64> {
        let (r, c) = (terms[0].1.nrows(), terms[0].1.ncols());
        Matrix::from_fn(r, c, |i, j| {
            let mut v = terms[0].0 * terms[0].1.at(i, j);
            for (g, x) in &terms[1..] {
                v = g.mul_add(x.at(i, j), v);
            }
            v
        })
    }

    /// `op(X)` stored for `op`: an `rows x cols` matrix, or its transpose
    /// in storage.
    fn stored(op: Op, rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
        match op {
            Op::NoTrans => random::uniform::<f64>(rows, cols, seed),
            Op::Trans => random::uniform::<f64>(cols, rows, seed),
        }
    }

    /// Packing is linear: combining the packed panels of 1–4 blocks with
    /// ±1 coefficients must equal, bit for bit, packing the sum
    /// materialized with the same γ-ordered `mul_add` chain. `pack` packs
    /// one source into a `panel_len` buffer.
    fn assert_combination_packs_like_the_sum(
        xs: &[Matrix<f64>],
        panel_len: usize,
        pack: impl Fn(&Matrix<f64>, &mut [f64]),
        what: &str,
    ) {
        let signs: [i8; MAX_TERMS] = [1, -1, -1, 1];
        for len in 1..=MAX_TERMS {
            let terms = BlockTerms::new(&(0..len).map(|t| (signs[t], t as u8)).collect::<Vec<_>>());
            let sum = materialize(&(0..len).map(|t| (signs[t] as f64, &xs[t])).collect::<Vec<_>>());
            let mut slots = vec![f64::NAN; len * panel_len];
            for (x, slot) in xs.iter().zip(slots.chunks_exact_mut(panel_len)) {
                pack(x, slot);
            }
            let (mut got, mut want) = (vec![f64::NAN; panel_len], vec![f64::NAN; panel_len]);
            combine_packed(&mut got, &terms, &slots, panel_len);
            pack(&sum, &mut want);
            assert!(got.iter().zip(&want).all(|(g, w)| g.to_bits() == w.to_bits()), "{what}, {len} terms");
        }
    }

    #[test]
    fn pack_a_sum_matches_pack_a_on_materialized_sum() {
        // An A-operand sum is the combination of its blocks' packed
        // panels: an MR tail, a nonzero (ic, pc), zero padding, both ops.
        let (ic, pc, mb, kb) = (3, 2, 2 * MR + 3, 11);
        let len = mb.div_ceil(MR) * MR * kb;
        for op in [Op::NoTrans, Op::Trans] {
            let xs: Vec<_> =
                (0..MAX_TERMS as u64).map(|s| stored(op, ic + mb + 2, pc + kb + 2, 80 + s)).collect();
            let pack = |x: &Matrix<f64>, buf: &mut [f64]| pack_a(op, &x.as_ref(), ic, pc, mb, kb, buf);
            assert_combination_packs_like_the_sum(&xs, len, pack, &format!("A {op:?}"));
        }
    }

    #[test]
    fn pack_b_sum_matches_pack_b_with_transpose() {
        // The B side: an NR tail, a nonzero (pc, jc), zero padding, and
        // op(Σ γ X) = (Σ γ X)ᵀ as well as the untransposed sum.
        let (pc, jc, kb, nb) = (1, 5, 10, 2 * NR + 1);
        let len = nb.div_ceil(NR) * NR * kb;
        for op in [Op::NoTrans, Op::Trans] {
            let xs: Vec<_> =
                (0..MAX_TERMS as u64).map(|s| stored(op, pc + kb + 2, jc + nb + 2, 90 + s)).collect();
            let pack = |x: &Matrix<f64>, buf: &mut [f64]| pack_b(op, &x.as_ref(), pc, jc, kb, nb, buf);
            assert_combination_packs_like_the_sum(&xs, len, pack, &format!("B {op:?}"));
        }
    }

    #[test]
    fn four_term_sum_and_padding_coeffs_are_inert() {
        // Entries past `len` never contribute: a one-term `−X_1` whose
        // other three slots look live combines to exactly `−slot 1`.
        let slots: Vec<f64> = (0..4 * MR).map(|i| i as f64 + 0.5).collect();
        let padded = BlockTerms { t: [(-1, 1), (1, 2), (1, 3), (1, 0)], len: 1 };
        let mut got = vec![f64::NAN; MR];
        combine_packed(&mut got, &padded, &slots, MR);
        let want: Vec<f64> = slots[MR..2 * MR].iter().map(|x| -x).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn fused_multi_dest_matches_separate_gemm_plus_add() {
        // Product 1, (A11 − A12)·B11, scatters into C11 (δ = 1, its first
        // touch, so it applies β) and C22 (δ = −1, accumulating onto
        // product 0's first touch), on odd blocks so tile edges are
        // exercised.
        let cfg = GemmConfig { mc: 16, kc: 12, nc: 20, ..GemmConfig::blocked() };
        let (bm, bk, bn) = (13, 9, 17);
        let a = random::uniform::<f64>(2 * bm, 2 * bk, 10);
        let b = random::uniform::<f64>(2 * bk, 2 * bn, 12);
        let c_init = random::uniform::<f64>(2 * bm, 2 * bn, 13);
        let table = [
            BlockProduct {
                a: BlockTerms::single(1, 3),
                b: BlockTerms::single(1, 3),
                c: BlockTerms::single(1, 3),
            },
            BlockProduct {
                a: BlockTerms::new(&[(1, 0), (-1, 1)]),
                b: BlockTerms::single(1, 0),
                c: BlockTerms::new(&[(1, 0), (-1, 3)]),
            },
        ];
        let (alpha, beta) = (0.7, -0.5);
        let mut got = c_init.clone();
        gemm_fused_level(&cfg, alpha, a.as_ref(), b.as_ref(), beta, got.as_mut(), &table, 2);

        // Reference: materialize A11 − A12, then separate GEMMs per block.
        let quad = |x: &Matrix<f64>, q: usize, r: usize, c: usize| {
            x.as_ref().submatrix((q / 2) * r, (q % 2) * c, r, c).to_owned_matrix()
        };
        let diff = materialize(&[(1.0, &quad(&a, 0, bm, bk)), (-1.0, &quad(&a, 1, bm, bk))]);
        let mut want = c_init.clone();
        let mut w = want.as_mut();
        let gemm = |al: f64, x: &Matrix<f64>, y: &Matrix<f64>, be: f64, c: MatMut<'_, f64>| {
            super::super::gemm_blocked(&cfg, al, Op::NoTrans, x.as_ref(), Op::NoTrans, y.as_ref(), be, c)
        };
        gemm(alpha, &quad(&a, 3, bm, bk), &quad(&b, 3, bk, bn), beta, w.submatrix_mut(bm, bn, bm, bn));
        gemm(alpha, &diff, &quad(&b, 0, bk, bn), beta, w.submatrix_mut(0, 0, bm, bn));
        gemm(-alpha, &diff, &quad(&b, 0, bk, bn), 1.0, w.submatrix_mut(bm, bn, bm, bn));
        for q in [1, 2] {
            super::super::scale_in_place(beta, w.submatrix_mut((q / 2) * bm, (q % 2) * bn, bm, bn));
        }
        matrix::norms::assert_allclose(got.as_ref(), want.as_ref(), 1e-12, "two destinations");
    }

    #[test]
    fn beta_zero_first_touch_clears_nan() {
        let cfg = GemmConfig::blocked();
        let a = Matrix::from_row_major(1, 1, &[2.0]);
        let b = Matrix::from_row_major(1, 1, &[3.0]);
        let mut c = Matrix::from_row_major(1, 1, &[f64::NAN]);
        gemm_fused_level(&cfg, 1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut(), &PLAIN, 1);
        assert_eq!(c.at(0, 0), 6.0);
    }

    #[test]
    #[should_panic(expected = "block index outside grid")]
    fn block_index_outside_grid_panics() {
        let x = Matrix::<f64>::zeros(4, 4);
        let mut c = Matrix::<f64>::zeros(4, 4);
        let table = [BlockProduct { a: BlockTerms::single(1, 4), ..PLAIN[0] }];
        gemm_fused_level(&GemmConfig::blocked(), 1.0, x.as_ref(), x.as_ref(), 0.0, c.as_mut(), &table, 2);
    }

    #[test]
    fn fused_level_runs_one_strassen_level() {
        // Odd-ish blocking so every tail path is exercised, β grid.
        let cfg = GemmConfig { mc: 16, kc: 12, nc: 20, ..GemmConfig::blocked() };
        let table = strassen_table();
        for &(m, k, n) in &[(8usize, 8usize, 8usize), (26, 18, 34), (64, 32, 48)] {
            for beta in [0.0, 1.0, -0.7] {
                let a = random::uniform::<f64>(m, k, 31);
                let b = random::uniform::<f64>(k, n, 32);
                let c0 = random::uniform::<f64>(m, n, 33);
                let mut got = c0.clone();
                gemm_fused_level(&cfg, 1.1, a.as_ref(), b.as_ref(), beta, got.as_mut(), &table, 2);
                let mut want = c0.clone();
                super::super::gemm_naive(
                    1.1,
                    Op::NoTrans,
                    a.as_ref(),
                    Op::NoTrans,
                    b.as_ref(),
                    beta,
                    want.as_mut(),
                );
                let diff = matrix::norms::rel_diff(got.as_ref(), want.as_ref());
                assert!(diff < 1e-12, "{m}x{k}x{n} β={beta}: rel diff {diff:.3e}");
            }
        }
    }

    #[test]
    fn fused_level_grid_one_is_plain_gemm() {
        let cfg = GemmConfig::blocked();
        let (m, k, n) = (20, 12, 16);
        let a = random::uniform::<f64>(m, k, 41);
        let b = random::uniform::<f64>(k, n, 42);
        let c0 = random::uniform::<f64>(m, n, 43);
        let mut got = c0.clone();
        let table = [BlockProduct {
            a: BlockTerms::single(1, 0),
            b: BlockTerms::single(1, 0),
            c: BlockTerms::single(1, 0),
        }];
        gemm_fused_level(&cfg, 0.8, a.as_ref(), b.as_ref(), 0.3, got.as_mut(), &table, 1);
        let mut want = c0.clone();
        super::super::gemm_blocked(
            &cfg,
            0.8,
            Op::NoTrans,
            a.as_ref(),
            Op::NoTrans,
            b.as_ref(),
            0.3,
            want.as_mut(),
        );
        matrix::norms::assert_allclose(got.as_ref(), want.as_ref(), 1e-13, "grid 1");
    }

    #[test]
    fn fused_level_scales_untouched_blocks_by_beta() {
        // A one-product schedule touching only C block 0: the other three
        // blocks must still see β.
        let cfg = GemmConfig::blocked();
        let a = random::uniform::<f64>(8, 8, 51);
        let b = random::uniform::<f64>(8, 8, 52);
        let mut c = Matrix::from_fn(8, 8, |_, _| 2.0);
        let table = [BlockProduct {
            a: BlockTerms::single(1, 0),
            b: BlockTerms::single(1, 0),
            c: BlockTerms::single(1, 0),
        }];
        gemm_fused_level(&cfg, 1.0, a.as_ref(), b.as_ref(), 0.5, c.as_mut(), &table, 2);
        // Block (1,1) untouched by the product: pure β scaling.
        assert_eq!(c.at(7, 7), 1.0);
        assert_eq!(c.at(0, 7), 1.0);
        assert_eq!(c.at(7, 0), 1.0);
    }

    #[test]
    #[should_panic(expected = "destination block twice")]
    fn duplicate_destination_blocks_panic() {
        let cfg = GemmConfig::blocked();
        let a = Matrix::<f64>::zeros(4, 4);
        let b = Matrix::<f64>::zeros(4, 4);
        let mut c = Matrix::<f64>::zeros(4, 4);
        let table = [BlockProduct {
            a: BlockTerms::single(1, 0),
            b: BlockTerms::single(1, 0),
            c: BlockTerms::new(&[(1, 0), (-1, 0)]),
        }];
        gemm_fused_level(&cfg, 1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut(), &table, 2);
    }

    #[test]
    fn parallel_fused_level_is_bitwise_identical_to_serial() {
        // The pool-parallel nest re-partitions only the iteration space:
        // phase 1's B-operand panel ranges and phase 2's row bands and
        // panel ranges. Block widths 65 and 97 are not multiples of NR,
        // so the last panel is ragged; the tiny blocking makes the nest
        // run several nc blocks and kc chunks.
        let _ = pool::set_num_threads(4);
        let table = strassen_table();
        let tiny = GemmConfig { mc: 16, kc: 12, nc: 20, ..GemmConfig::blocked() };
        for serial in [GemmConfig::blocked(), tiny] {
            let parallel = GemmConfig { algo: GemmAlgo::BlockedParallel, ..serial };
            for &(m, k, n) in &[(140usize, 128usize, 130usize), (96, 160, 194)] {
                for beta in [0.0, -0.7] {
                    let a = random::uniform::<f64>(m, k, 71);
                    let b = random::uniform::<f64>(k, n, 72);
                    let c0 = random::uniform::<f64>(m, n, 73);
                    let mut want = c0.clone();
                    gemm_fused_level(&serial, 0.9, a.as_ref(), b.as_ref(), beta, want.as_mut(), &table, 2);
                    let mut got = c0.clone();
                    gemm_fused_level(&parallel, 0.9, a.as_ref(), b.as_ref(), beta, got.as_mut(), &table, 2);
                    assert!(
                        got.as_slice() == want.as_slice(),
                        "{m}x{k}x{n} β={beta} {serial:?}: parallel fused level differs from serial"
                    );
                }
            }
        }
    }

    #[test]
    fn every_thread_grid_is_bitwise_equal_to_serial() {
        // The nest split 2, 3 and 4 ways, and the public parallel entries
        // at this binary's pool size, against the nest run inline. Blocks
        // of 130 rows split rows only; blocks of 20 rows (below 4·MR·ways)
        // split the panels; 40-row blocks one NR panel wide split only
        // their rows, and k = 1400 there gives many kc steps. The tiny
        // blocking adds ragged MR/NR tails and several kc and nc blocks.
        let _ = pool::set_num_threads(4);
        let tiny = GemmConfig { mc: 16, kc: 12, nc: 20, ..GemmConfig::blocked() };
        let strassen = strassen_table();
        let ops = [Op::NoTrans, Op::Trans];
        let same_bits = |x: &Matrix<f64>, y: &Matrix<f64>| {
            x.as_slice().iter().zip(y.as_slice()).all(|(p, q)| p.to_bits() == q.to_bits())
        };
        for serial in [GemmConfig::blocked(), tiny] {
            let parallel = GemmConfig { algo: GemmAlgo::BlockedParallel, ..serial };
            for (table, g) in [(&PLAIN[..], 1), (&strassen[..], 2)] {
                for (bm, bk, bn) in [(130, 40, 61), (20, 40, 400), (40, 1400, 5)] {
                    let (m, k, n) = (g * bm, g * bk, g * bn);
                    // Trans operands for the plain GEMM only.
                    let op_pairs = ops.iter().flat_map(|&x| ops.map(|y| (x, y)));
                    for (op_a, op_b) in op_pairs.filter(|&pair| g == 1 || pair == (Op::NoTrans, Op::NoTrans))
                    {
                        let a = stored(op_a, m, k, 91);
                        let b = stored(op_b, k, n, 92);
                        for beta in [0.0, -0.5] {
                            let c0 = if beta == 0.0 {
                                Matrix::from_fn(m, n, |_, _| f64::NAN)
                            } else {
                                random::uniform::<f64>(m, n, 93)
                            };
                            let nest = |ways: usize| {
                                let mut c = c0.clone();
                                let (ar, br) = (a.as_ref(), b.as_ref());
                                gemm_level(
                                    ways,
                                    &serial,
                                    0.9,
                                    op_a,
                                    ar,
                                    op_b,
                                    br,
                                    beta,
                                    c.as_mut(),
                                    table,
                                    g,
                                );
                                c
                            };
                            let want = nest(1);
                            let what = format!("{m}x{k}x{n} g={g} {op_a:?}/{op_b:?} β={beta} {serial:?}");
                            assert!(want.as_slice().iter().all(|x| x.is_finite()), "{what}");
                            for ways in 2..=4 {
                                assert!(same_bits(&nest(ways), &want), "{ways} ways differ from one: {what}");
                            }
                            let mut got = c0.clone();
                            let (ar, br) = (a.as_ref(), b.as_ref());
                            if g == 1 {
                                crate::level3::gemm_parallel(
                                    &parallel,
                                    0.9,
                                    op_a,
                                    ar,
                                    op_b,
                                    br,
                                    beta,
                                    got.as_mut(),
                                );
                            } else {
                                gemm_fused_level(&parallel, 0.9, ar, br, beta, got.as_mut(), table, g);
                            }
                            assert!(same_bits(&got, &want), "parallel entry differs from serial: {what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fused_level_matches_per_product_fused_calls() {
        // The shared-panel level must agree with running each product as
        // its own one-product fused call, β applied once up front and
        // every call accumulating (β = 1). With one kc block (bk = 9 ≤
        // kc) every element sees the same operations in the same order,
        // so the two agree bit for bit.
        let cfg = GemmConfig { mc: 16, kc: 12, nc: 20, ..GemmConfig::blocked() };
        let table = strassen_table();
        let (m, k, n) = (26, 18, 34);
        let a = random::uniform::<f64>(m, k, 61);
        let b = random::uniform::<f64>(k, n, 62);
        let c0 = random::uniform::<f64>(m, n, 63);
        let beta = -0.3;

        let mut got = c0.clone();
        gemm_fused_level(&cfg, 1.1, a.as_ref(), b.as_ref(), beta, got.as_mut(), &table, 2);

        let mut want = c0.clone();
        crate::level3::scale_in_place(beta, want.as_mut());
        for p in &table {
            gemm_fused_level(
                &cfg,
                1.1,
                a.as_ref(),
                b.as_ref(),
                1.0,
                want.as_mut(),
                core::slice::from_ref(p),
                2,
            );
        }
        assert!(got.as_slice() == want.as_slice(), "fused level differs from per-product calls");
    }

    #[test]
    fn shared_and_signed_b_operands_match_per_product_calls() {
        // A 3 x 3 table whose B operands exercise every way phase 1
        // builds one: products 0 and 1 share the sum B0 + B4 (one slot),
        // product 2 reads the 4-term sum B1 − B2 − B5 + B7, product 3
        // the signed single −B3, products 4 and 6 share the bare B6 (no
        // sum reads it, so it is packed straight into its slot), and
        // product 5's bare B0 is built from the panel scratch because a
        // sum reads B0 too. Blocks 1, 2, 3, 5 and 7 are read only inside
        // sums. The nest runs 1–4 ways and is compared bit for bit with
        // each product run as its own one-product call (so each B operand
        // is built alone), kc slice by kc slice in table order, which is
        // the order in which the level accumulates every element.
        let _ = pool::set_num_threads(4);
        let t = BlockTerms::new;
        let p = |a: &[(i8, u8)], b: &[(i8, u8)], c: &[(i8, u8)]| BlockProduct { a: t(a), b: t(b), c: t(c) };
        let table = [
            p(&[(1, 0), (1, 4)], &[(1, 0), (1, 4)], &[(1, 0), (1, 4)]),
            p(&[(1, 1)], &[(1, 0), (1, 4)], &[(1, 1), (-1, 8)]),
            p(&[(1, 2), (-1, 3)], &[(1, 1), (-1, 2), (-1, 5), (1, 7)], &[(1, 2)]),
            p(&[(1, 8)], &[(-1, 3)], &[(1, 3), (1, 5)]),
            p(&[(1, 4)], &[(1, 6)], &[(1, 6), (-1, 0)]),
            p(&[(1, 5)], &[(1, 0)], &[(1, 7)]),
            p(&[(-1, 7)], &[(1, 6)], &[(1, 8)]),
        ];
        assert_eq!(TablePlan::of(&table).b_op_count, 5);
        let g = 3;
        let tiny = GemmConfig { mc: 16, kc: 12, nc: 20, ..GemmConfig::blocked() };
        // Columns `pc..pc + kb` of every block column of A (rows of every
        // block row of B), side by side: the operands of one kc slice.
        let a_slice = |a: &Matrix<f64>, bk: usize, pc: usize, kb: usize| {
            Matrix::from_fn(a.nrows(), g * kb, |i, j| a.at(i, (j / kb) * bk + pc + j % kb))
        };
        let b_slice = |b: &Matrix<f64>, bk: usize, pc: usize, kb: usize| {
            Matrix::from_fn(g * kb, b.ncols(), |i, j| b.at((i / kb) * bk + pc + i % kb, j))
        };
        for cfg in [GemmConfig::blocked(), tiny] {
            // 47-column blocks: three nc blocks under the tiny blocking
            // and ragged NR tails; 30-deep blocks: kc slices 12, 12, 6;
            // 37-row blocks split rows, 20-row blocks split panels.
            for (bm, bk, bn) in [(37, 30, 47), (20, 30, 47)] {
                let (m, k, n) = (g * bm, g * bk, g * bn);
                let a = random::uniform::<f64>(m, k, 101);
                let b = random::uniform::<f64>(k, n, 102);
                for beta in [0.0, -0.5] {
                    let c0 = if beta == 0.0 {
                        Matrix::from_fn(m, n, |_, _| f64::NAN)
                    } else {
                        random::uniform::<f64>(m, n, 103)
                    };
                    let mut want = c0.clone();
                    crate::level3::scale_in_place(beta, want.as_mut());
                    let (_, kc, _) = clamp_blocking(&cfg, bm, bk, bn);
                    for pc in (0..bk).step_by(kc) {
                        let kb = kc.min(bk - pc);
                        let (a_pc, b_pc) = (a_slice(&a, bk, pc, kb), b_slice(&b, bk, pc, kb));
                        for prod in &table {
                            let one = core::slice::from_ref(prod);
                            gemm_fused_level(
                                &cfg,
                                0.9,
                                a_pc.as_ref(),
                                b_pc.as_ref(),
                                1.0,
                                want.as_mut(),
                                one,
                                g,
                            );
                        }
                    }
                    assert!(want.as_slice().iter().all(|x| x.is_finite()));
                    for ways in 1..=4 {
                        let mut got = c0.clone();
                        let (ar, br) = (a.as_ref(), b.as_ref());
                        gemm_level(
                            ways,
                            &cfg,
                            0.9,
                            Op::NoTrans,
                            ar,
                            Op::NoTrans,
                            br,
                            beta,
                            got.as_mut(),
                            &table,
                            g,
                        );
                        assert!(
                            got.as_slice()
                                .iter()
                                .zip(want.as_slice())
                                .all(|(x, y)| x.to_bits() == y.to_bits()),
                            "{m}x{k}x{n} β={beta} {ways} ways {cfg:?}: level differs from per-product calls"
                        );
                    }
                }
            }
        }
    }
}
