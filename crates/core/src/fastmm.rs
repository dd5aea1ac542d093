//! Coefficient-table-driven fast ⟨m,k,n⟩ matrix-multiplication algorithms.
//!
//! A bilinear matrix-multiplication algorithm for the base case
//! `C (m×n) = A (m×k) · B (k×n)` with rank `R` is three coefficient
//! matrices `(U, V, W)`: product `r` computes
//!
//! ```text
//! P_r = (Σ_{i,l} U[(i,l),r] · A_il) · (Σ_{l,j} V[(l,j),r] · B_lj)
//! C_ij = Σ_r W[(i,j),r] · P_r
//! ```
//!
//! where `A_il`, `B_lj`, `C_ij` are the blocks of an `m×k` / `k×n` /
//! `m×n` partition. Strassen's 1969 construction and Winograd's variant
//! are the two classical ⟨2,2,2⟩ : 7 tables; Benson–Ballard
//! (*Generating Families of Practical Fast Matrix Multiplication
//! Algorithms*) showed that rectangular base cases like ⟨3,2,3⟩ or
//! ⟨2,3,4⟩ win on correspondingly rectangular problems. This module
//! represents such tables as data ([`FastAlgorithm`]), checks them
//! *exactly* against the Brent equations ([`FastAlgorithm::verify`]),
//! composes them ([`FastAlgorithm::stack_m`] and friends), and compiles
//! them into an executable schedule ([`CompiledSchedule`]): a level
//! program the recursion dispatcher runs through the same executor as
//! the hand-scheduled ⟨2,2,2⟩ programs.
//!
//! The shipped catalog is the [`Family`] enum; see `ALGORITHMS.md` at the
//! repository root for the spec of the table format and per-family facts.
//!
//! # Example
//!
//! ```
//! use strassen::fastmm::FastAlgorithm;
//!
//! let s = FastAlgorithm::strassen_222();
//! assert_eq!(s.dims(), (2, 2, 2));
//! assert_eq!(s.rank(), 7);
//! s.verify().unwrap(); // exact Brent-equation check
//! assert_eq!(s.stability_q(), 12); // Higham's per-level growth factor
//! assert_eq!(FastAlgorithm::winograd_222().stability_q(), 18);
//! ```

use crate::probe::PassKind;
use crate::schedules::compiled;
use crate::schedules::program::{Program, Shape, Slot};
use std::sync::OnceLock;

/// A bilinear fast-multiplication algorithm for an ⟨m,k,n⟩ base case, as
/// plain coefficient data (no code).
///
/// Coefficients are stored flattened per product: `U` is `rank` rows of
/// `m·k` entries (block `(i,l)` at index `i·k + l`), `V` is `rank` rows
/// of `k·n` entries (block `(l,j)` at `l·n + j`), `W` is `rank` rows of
/// `m·n` entries (block `(i,j)` at `i·n + j`).
///
/// Every constructor and combinator in this module produces tables whose
/// coefficients are `±1` or `0`, so [`FastAlgorithm::verify`]'s integer
/// arithmetic is exact and the runtime executor needs no general scalar
/// scaling.
///
/// ```
/// use strassen::fastmm::FastAlgorithm;
///
/// // Compose ⟨2,2,2⟩:7 with the trivial ⟨2,2,1⟩:4 along the n axis:
/// // the Hopcroft–Kerr-optimal rank 11 for ⟨2,2,3⟩.
/// let f223 = FastAlgorithm::strassen_222()
///     .stack_n(&FastAlgorithm::trivial(2, 2, 1), "f223");
/// assert_eq!(f223.dims(), (2, 2, 3));
/// assert_eq!(f223.rank(), 11);
/// f223.verify().unwrap();
/// ```
#[derive(Clone, Debug)]
pub struct FastAlgorithm {
    name: String,
    m: usize,
    k: usize,
    n: usize,
    rank: usize,
    u: Vec<i32>,
    v: Vec<i32>,
    w: Vec<i32>,
}

impl FastAlgorithm {
    /// Build an algorithm from raw coefficient tables.
    ///
    /// `u`, `v`, `w` hold `rank` consecutive rows of `m·k`, `k·n`, and
    /// `m·n` coefficients respectively (see the type-level docs for the
    /// in-row block order).
    ///
    /// # Panics
    /// If any table length disagrees with `rank` and the dimensions.
    pub fn new(
        name: &str,
        (m, k, n): (usize, usize, usize),
        rank: usize,
        u: Vec<i32>,
        v: Vec<i32>,
        w: Vec<i32>,
    ) -> Self {
        assert_eq!(u.len(), rank * m * k, "{name}: U length");
        assert_eq!(v.len(), rank * k * n, "{name}: V length");
        assert_eq!(w.len(), rank * m * n, "{name}: W length");
        Self { name: name.to_string(), m, k, n, rank, u, v, w }
    }

    /// The algorithm's name (used in reports and `ALGORITHMS.md`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The base-case dimensions ⟨m,k,n⟩.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.m, self.k, self.n)
    }

    /// Number of products (the algorithm's rank).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// `U` coefficient of block `(i,l)` in product `r`.
    pub fn u_at(&self, r: usize, i: usize, l: usize) -> i32 {
        self.u[r * self.m * self.k + i * self.k + l]
    }

    /// `V` coefficient of block `(l,j)` in product `r`.
    pub fn v_at(&self, r: usize, l: usize, j: usize) -> i32 {
        self.v[r * self.k * self.n + l * self.n + j]
    }

    /// `W` coefficient of product `r` in output block `(i,j)`.
    pub fn w_at(&self, r: usize, i: usize, j: usize) -> i32 {
        self.w[r * self.m * self.n + i * self.n + j]
    }

    /// Check the table against the Brent equations, exactly:
    ///
    /// ```text
    /// Σ_r U[(i,l),r] · V[(l',j),r] · W[(i',j'),r] = δ_{l,l'} δ_{i,i'} δ_{j,j'}
    /// ```
    ///
    /// for every index combination — the necessary *and sufficient*
    /// condition for the bilinear form to compute matrix multiplication.
    /// Integer arithmetic makes the check exact; an `Err` names the first
    /// violated equation.
    ///
    /// ```
    /// use strassen::fastmm::FastAlgorithm;
    ///
    /// let mut t = FastAlgorithm::trivial(2, 1, 2);
    /// t.verify().unwrap();
    /// ```
    pub fn verify(&self) -> Result<(), String> {
        for i in 0..self.m {
            for l in 0..self.k {
                for lp in 0..self.k {
                    for j in 0..self.n {
                        for ip in 0..self.m {
                            for jp in 0..self.n {
                                let mut s: i64 = 0;
                                for r in 0..self.rank {
                                    s += i64::from(self.u_at(r, i, l))
                                        * i64::from(self.v_at(r, lp, j))
                                        * i64::from(self.w_at(r, ip, jp));
                                }
                                let want = i64::from(l == lp && i == ip && j == jp);
                                if s != want {
                                    return Err(format!(
                                        "{}: Brent equation a[{i}{l}]·b[{lp}{j}] in c[{ip}{jp}]: got {s}, want {want}",
                                        self.name
                                    ));
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Higham's per-level stability quantity for the table:
    ///
    /// ```text
    /// q = max_{(i,j)} Σ_r |W[(i,j),r]| · ‖u_r‖₁ · ‖v_r‖₁
    /// ```
    ///
    /// The normwise forward-error bound of `d` recursion levels grows
    /// like `qᵈ` (versus `(mkn)^{?}`-free classic growth); 12 for
    /// Strassen's 1969 table, 18 for Winograd's. The accuracy crate
    /// derives each family's error envelope from this number.
    pub fn stability_q(&self) -> u64 {
        let mut q = 0u64;
        for i in 0..self.m {
            for j in 0..self.n {
                let mut s = 0u64;
                for r in 0..self.rank {
                    let w = self.w_at(r, i, j).unsigned_abs() as u64;
                    if w == 0 {
                        continue;
                    }
                    let un: u64 = (0..self.m * self.k)
                        .map(|x| self.u[r * self.m * self.k + x].unsigned_abs() as u64)
                        .sum();
                    let vn: u64 = (0..self.k * self.n)
                        .map(|x| self.v[r * self.k * self.n + x].unsigned_abs() as u64)
                        .sum();
                    s += w * un * vn;
                }
                q = q.max(s);
            }
        }
        q
    }

    /// The trivial (classical) ⟨m,k,n⟩ algorithm of rank `m·k·n`: one
    /// product per scalar term. The identity element for building
    /// composites.
    pub fn trivial(m: usize, k: usize, n: usize) -> Self {
        let rank = m * k * n;
        let mut u = vec![0; rank * m * k];
        let mut v = vec![0; rank * k * n];
        let mut w = vec![0; rank * m * n];
        let mut r = 0;
        for i in 0..m {
            for l in 0..k {
                for j in 0..n {
                    u[r * m * k + i * k + l] = 1;
                    v[r * k * n + l * n + j] = 1;
                    w[r * m * n + i * n + j] = 1;
                    r += 1;
                }
            }
        }
        Self::new(&format!("trivial{m}{k}{n}"), (m, k, n), rank, u, v, w)
    }

    /// Strassen's original 1969 ⟨2,2,2⟩ : 7 table (stability `q = 12`).
    pub fn strassen_222() -> Self {
        // M1=(A11+A22)(B11+B22)  M2=(A21+A22)B11   M3=A11(B12−B22)
        // M4=A22(B21−B11)        M5=(A11+A12)B22   M6=(A21−A11)(B11+B12)
        // M7=(A12−A22)(B21+B22)
        // C11=M1+M4−M5+M7  C12=M3+M5  C21=M2+M4  C22=M1−M2+M3+M6
        #[rustfmt::skip]
        let u = vec![
            1, 0, 0, 1,
            0, 0, 1, 1,
            1, 0, 0, 0,
            0, 0, 0, 1,
            1, 1, 0, 0,
            -1, 0, 1, 0,
            0, 1, 0, -1,
        ];
        #[rustfmt::skip]
        let v = vec![
            1, 0, 0, 1,
            1, 0, 0, 0,
            0, 1, 0, -1,
            -1, 0, 1, 0,
            0, 0, 0, 1,
            1, 1, 0, 0,
            0, 0, 1, 1,
        ];
        #[rustfmt::skip]
        let w = vec![
            1, 0, 0, 1,
            0, 0, 1, -1,
            0, 1, 0, 1,
            1, 0, 1, 0,
            -1, 1, 0, 0,
            0, 0, 0, 1,
            1, 0, 0, 0,
        ];
        Self::new("strassen222", (2, 2, 2), 7, u, v, w)
    }

    /// Winograd's ⟨2,2,2⟩ : 7 variant (15 adds when scheduled with
    /// temp reuse; stability `q = 18`) — the table form of the schedules
    /// in `crates/core/src/schedules/`.
    pub fn winograd_222() -> Self {
        // P1=A11·B11              P2=A12·B21      P3=(A11+A12−A21−A22)B22
        // P4=A22(B11−B12−B21+B22) P5=(A21+A22)(B12−B11)
        // P6=(A21+A22−A11)(B11−B12+B22)           P7=(A11−A21)(B22−B12)
        // C11=P1+P2  C12=P1+P6+P5+P3  C21=P1+P6+P7−P4  C22=P1+P6+P7+P5
        #[rustfmt::skip]
        let u = vec![
            1, 0, 0, 0,
            0, 1, 0, 0,
            1, 1, -1, -1,
            0, 0, 0, 1,
            0, 0, 1, 1,
            -1, 0, 1, 1,
            1, 0, -1, 0,
        ];
        #[rustfmt::skip]
        let v = vec![
            1, 0, 0, 0,
            0, 0, 1, 0,
            0, 0, 0, 1,
            1, -1, -1, 1,
            -1, 1, 0, 0,
            1, -1, 0, 1,
            0, -1, 0, 1,
        ];
        #[rustfmt::skip]
        let w = vec![
            1, 1, 1, 1,
            1, 0, 0, 0,
            0, 1, 0, 0,
            0, 0, -1, 0,
            0, 1, 0, 1,
            0, 1, 1, 1,
            0, 0, 1, 1,
        ];
        Self::new("winograd222", (2, 2, 2), 7, u, v, w)
    }

    /// Stack `self` ⟨m₁,k,n⟩ on top of `bottom` ⟨m₂,k,n⟩ along the row
    /// axis: an ⟨m₁+m₂,k,n⟩ algorithm of rank `R₁ + R₂` (the two row
    /// strips of `C` are computed independently).
    ///
    /// # Panics
    /// If `k` or `n` disagree.
    pub fn stack_m(&self, bottom: &FastAlgorithm, name: &str) -> Self {
        assert_eq!((self.k, self.n), (bottom.k, bottom.n), "stack_m: k/n must agree");
        let (m, k, n) = (self.m + bottom.m, self.k, self.n);
        let rank = self.rank + bottom.rank;
        let mut u = vec![0; rank * m * k];
        let mut v = vec![0; rank * k * n];
        let mut w = vec![0; rank * m * n];
        for (part, (moff, roff)) in [(self, (0, 0)), (bottom, (self.m, self.rank))] {
            for r in 0..part.rank {
                for i in 0..part.m {
                    for l in 0..k {
                        u[(roff + r) * m * k + (moff + i) * k + l] = part.u_at(r, i, l);
                    }
                    for j in 0..n {
                        w[(roff + r) * m * n + (moff + i) * n + j] = part.w_at(r, i, j);
                    }
                }
                for l in 0..k {
                    for j in 0..n {
                        v[(roff + r) * k * n + l * n + j] = part.v_at(r, l, j);
                    }
                }
            }
        }
        Self::new(name, (m, k, n), rank, u, v, w)
    }

    /// Stack `self` ⟨m,k₁,n⟩ beside `right` ⟨m,k₂,n⟩ along the inner
    /// axis: an ⟨m,k₁+k₂,n⟩ algorithm of rank `R₁ + R₂`
    /// (`C = A₁B₁ + A₂B₂`, both partial products written to the same
    /// output blocks).
    ///
    /// # Panics
    /// If `m` or `n` disagree.
    pub fn stack_k(&self, right: &FastAlgorithm, name: &str) -> Self {
        assert_eq!((self.m, self.n), (right.m, right.n), "stack_k: m/n must agree");
        let (m, k, n) = (self.m, self.k + right.k, self.n);
        let rank = self.rank + right.rank;
        let mut u = vec![0; rank * m * k];
        let mut v = vec![0; rank * k * n];
        let mut w = vec![0; rank * m * n];
        for (part, (koff, roff)) in [(self, (0, 0)), (right, (self.k, self.rank))] {
            for r in 0..part.rank {
                for i in 0..m {
                    for l in 0..part.k {
                        u[(roff + r) * m * k + i * k + (koff + l)] = part.u_at(r, i, l);
                    }
                    for j in 0..n {
                        w[(roff + r) * m * n + i * n + j] = part.w_at(r, i, j);
                    }
                }
                for l in 0..part.k {
                    for j in 0..n {
                        v[(roff + r) * k * n + (koff + l) * n + j] = part.v_at(r, l, j);
                    }
                }
            }
        }
        Self::new(name, (m, k, n), rank, u, v, w)
    }

    /// Stack `self` ⟨m,k,n₁⟩ beside `right` ⟨m,k,n₂⟩ along the column
    /// axis: an ⟨m,k,n₁+n₂⟩ algorithm of rank `R₁ + R₂` (the two column
    /// strips of `C` are computed independently).
    ///
    /// # Panics
    /// If `m` or `k` disagree.
    pub fn stack_n(&self, right: &FastAlgorithm, name: &str) -> Self {
        assert_eq!((self.m, self.k), (right.m, right.k), "stack_n: m/k must agree");
        let (m, k, n) = (self.m, self.k, self.n + right.n);
        let rank = self.rank + right.rank;
        let mut u = vec![0; rank * m * k];
        let mut v = vec![0; rank * k * n];
        let mut w = vec![0; rank * m * n];
        for (part, (noff, roff)) in [(self, (0, 0)), (right, (self.n, self.rank))] {
            for r in 0..part.rank {
                for i in 0..m {
                    for l in 0..k {
                        u[(roff + r) * m * k + i * k + l] = part.u_at(r, i, l);
                    }
                    for j in 0..part.n {
                        w[(roff + r) * m * n + i * n + (noff + j)] = part.w_at(r, i, j);
                    }
                }
                for l in 0..k {
                    for j in 0..part.n {
                        v[(roff + r) * k * n + l * n + (noff + j)] = part.v_at(r, l, j);
                    }
                }
            }
        }
        Self::new(name, (m, k, n), rank, u, v, w)
    }

    /// The cyclic rotation of the matrix-multiplication tensor: an
    /// ⟨m,k,n⟩ : R algorithm yields a ⟨k,n,m⟩ : R algorithm with
    /// `U' = V`, `V'[(l,j)] = W[(j,l)]`, `W'[(i,j)] = U[(j,i)]`.
    /// Rank is invariant under rotation, so e.g. the rank-11 ⟨2,2,3⟩
    /// table rotates into a rank-11 ⟨2,3,2⟩ one.
    ///
    /// ```
    /// use strassen::fastmm::FastAlgorithm;
    ///
    /// let f223 = FastAlgorithm::strassen_222()
    ///     .stack_n(&FastAlgorithm::trivial(2, 2, 1), "f223");
    /// let f232 = f223.rotate("f232");
    /// assert_eq!(f232.dims(), (2, 3, 2));
    /// assert_eq!(f232.rank(), 11);
    /// f232.verify().unwrap();
    /// ```
    pub fn rotate(&self, name: &str) -> Self {
        let (m, k, n) = (self.k, self.n, self.m);
        let mut u = vec![0; self.rank * m * k];
        let mut v = vec![0; self.rank * k * n];
        let mut w = vec![0; self.rank * m * n];
        for r in 0..self.rank {
            for i in 0..m {
                for l in 0..k {
                    u[r * m * k + i * k + l] = self.v_at(r, i, l);
                }
            }
            for l in 0..k {
                for j in 0..n {
                    v[r * k * n + l * n + j] = self.w_at(r, j, l);
                }
            }
            for i in 0..m {
                for j in 0..n {
                    w[r * m * n + i * n + j] = self.u_at(r, j, i);
                }
            }
        }
        Self::new(name, (m, k, n), self.rank, u, v, w)
    }
}

/// A [`FastAlgorithm`] compiled into executable schedule form: a level
/// program with, per product, the operand sums to stage and the output
/// blocks to update, and first-write bookkeeping so the caller's `β` is
/// applied exactly once per output block.
///
/// The program stages composite operand sums into two workspace
/// temporaries (`X` of `m/m̂ × k/k̂`, `Y` of `k/k̂ × n/n̂`), each product
/// into a third (`P` of `m/m̂ × n/n̂`), and accumulates `P` into `C`
/// blocks with `axpby` passes — every recursive child is a plain `β = 0`
/// product. Single-block operands skip the staging temp (their `±1`
/// coefficient folds into the product's `α`). The pass counts below are
/// read from that program.
///
/// ```
/// use strassen::fastmm::{CompiledSchedule, FastAlgorithm};
///
/// let sched = CompiledSchedule::compile(FastAlgorithm::winograd_222());
/// assert_eq!(sched.algorithm().rank(), 7);
/// // A β=0 level: 8 staged operand passes (S1–S4, T1–T4 cost 4+4 adds
/// // beyond their first-copy passes) plus the W-side accumulations.
/// assert!(sched.add_passes(true) < sched.add_passes(false));
/// ```
#[derive(Clone, Debug)]
pub struct CompiledSchedule {
    alg: FastAlgorithm,
    program: Program,
}

impl CompiledSchedule {
    /// Compile a verified table into schedule form.
    ///
    /// # Panics
    /// If the table fails its Brent-equation [`FastAlgorithm::verify`]
    /// check (no unverified table can reach the executor), or contains a
    /// coefficient outside `{−1, 0, +1}` (the executor folds operand
    /// coefficients into `±α`).
    pub fn compile(alg: FastAlgorithm) -> Self {
        alg.verify().expect("refusing to compile an invalid coefficient table");
        for (side, coeffs) in [("U", &alg.u), ("V", &alg.v), ("W", &alg.w)] {
            assert!(coeffs.iter().all(|cf| cf.abs() <= 1), "{}: {side} coefficient out of ±1", alg.name());
        }
        let program = compiled::lower(&alg);
        Self { alg, program }
    }

    /// The underlying coefficient table.
    pub fn algorithm(&self) -> &FastAlgorithm {
        &self.alg
    }

    /// The level program the executor runs.
    pub(crate) fn program(&self) -> &Program {
        &self.program
    }

    /// Staged `Add`-classified elementwise passes per level on the
    /// `A`-side and `B`-side operand temporaries: each composite sum of
    /// `t` terms costs one copy (not counted here) plus `t − 1` adds.
    pub fn staging_add_passes(&self) -> (u64, u64) {
        let staged = |shape| move |s| matches!(s, Slot::Tmp(_, t) if t == shape);
        (
            self.program.passes(PassKind::Add, true, staged(Shape::Mk)),
            self.program.passes(PassKind::Add, true, staged(Shape::Kn)),
        )
    }

    /// `Add`-classified write-back passes per level into `C` blocks: all
    /// writes except each block's first when `β = 0` (those are pure
    /// copies).
    pub fn write_add_passes(&self, beta_zero: bool) -> u64 {
        self.program.passes(PassKind::Add, beta_zero, |s| matches!(s, Slot::C(_)))
    }

    /// Total `Add`-classified elementwise passes one level executes —
    /// what [`crate::counts::predict`] charges per split and the traced
    /// probe must reproduce exactly.
    pub fn add_passes(&self, beta_zero: bool) -> u64 {
        self.program.passes(PassKind::Add, beta_zero, |_| true)
    }

    /// Whether any product stages a composite `A`-side sum.
    pub fn needs_x(&self) -> bool {
        self.program.ops().any(|op| matches!(op.slots().0, Slot::Tmp(_, Shape::Mk)))
    }

    /// Whether any product stages a composite `B`-side sum.
    pub fn needs_y(&self) -> bool {
        self.program.ops().any(|op| matches!(op.slots().0, Slot::Tmp(_, Shape::Kn)))
    }
}

/// The shipped ⟨m,k,n⟩ base-case families, selectable via
/// [`crate::StrassenConfig::family`]. `F222` runs the hand-scheduled
/// 2×2×2 programs (Winograd/1969 schedules, STRASSEN1/2 memory
/// policies, the BDPZ pair) and the fused last level; every other family
/// runs its lowered table. One executor runs both kinds of program.
///
/// Ranks are the best *machine-verified compositions* shipped here
/// (stacked/rotated Strassen ⟨2,2,2⟩ blocks — see `ALGORITHMS.md`);
/// literature algorithms of lower rank (⟨3,2,3⟩:15, ⟨2,3,4⟩:20,
/// Laderman's ⟨3,3,3⟩:23) drop in as data once transcribed, since the
/// compiler accepts any table that passes the Brent check.
///
/// ```
/// use strassen::fastmm::Family;
///
/// assert_eq!(Family::F323.dims(), (3, 2, 3));
/// assert_eq!(Family::F323.algorithm().rank(), 17); // beats trivial 18
/// assert_eq!(Family::F333.algorithm().rank(), 26); // beats trivial 27
/// for f in Family::ALL {
///     f.algorithm().verify().unwrap();
/// }
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// The classical ⟨2,2,2⟩ : 7 base case (hand-scheduled programs).
    F222,
    /// ⟨2,2,3⟩ : 11 — Hopcroft–Kerr-optimal rank via ⟨2,2,2⟩ ⊕ₙ trivial.
    F223,
    /// ⟨3,2,3⟩ : 17 — ⟨2,2,3⟩ : 11 stacked on trivial ⟨1,2,3⟩.
    F323,
    /// ⟨2,3,4⟩ : 22 — two rotated ⟨2,3,2⟩ : 11 blocks side by side.
    F234,
    /// ⟨3,3,3⟩ : 26 — ⟨2,3,3⟩ : 17 stacked on trivial ⟨1,3,3⟩.
    F333,
}

impl Family {
    /// Every family, for config-space sweeps and the differential fuzzer.
    pub const ALL: [Family; 5] = [Family::F222, Family::F223, Family::F323, Family::F234, Family::F333];

    /// The base-case split dimensions ⟨m,k,n⟩.
    pub fn dims(self) -> (usize, usize, usize) {
        match self {
            Family::F222 => (2, 2, 2),
            Family::F223 => (2, 2, 3),
            Family::F323 => (3, 2, 3),
            Family::F234 => (2, 3, 4),
            Family::F333 => (3, 3, 3),
        }
    }

    /// The family's compiled schedule (built and Brent-verified once per
    /// process). Defined for `F222` too — the lowered Winograd table the
    /// golden tests compare against the hand-scheduled programs — even
    /// though the dispatcher runs `F222` through those programs.
    pub fn compiled(self) -> &'static CompiledSchedule {
        static CATALOG: OnceLock<[CompiledSchedule; 5]> = OnceLock::new();
        let catalog = CATALOG.get_or_init(|| {
            let s222 = FastAlgorithm::strassen_222();
            let f223 = s222.stack_n(&FastAlgorithm::trivial(2, 2, 1), "f223");
            let f323 = f223.stack_m(&FastAlgorithm::trivial(1, 2, 3), "f323");
            let f232 = f223.rotate("f232");
            let f234 = f232.stack_n(&f232, "f234");
            let f233 = f223.stack_k(&FastAlgorithm::trivial(2, 1, 3), "f233");
            let f333 = f233.stack_m(&FastAlgorithm::trivial(1, 3, 3), "f333");
            [
                CompiledSchedule::compile(FastAlgorithm::winograd_222()),
                CompiledSchedule::compile(f223),
                CompiledSchedule::compile(f323),
                CompiledSchedule::compile(f234),
                CompiledSchedule::compile(f333),
            ]
        });
        &catalog[self as usize]
    }

    /// The family's coefficient table.
    pub fn algorithm(self) -> &'static FastAlgorithm {
        self.compiled().algorithm()
    }

    /// Leaf products per recursion level (the algorithm's rank).
    pub fn rank(self) -> usize {
        self.algorithm().rank()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classical_tables_verify_with_expected_q() {
        let s = FastAlgorithm::strassen_222();
        s.verify().unwrap();
        assert_eq!(s.stability_q(), 12);
        let w = FastAlgorithm::winograd_222();
        w.verify().unwrap();
        assert_eq!(w.stability_q(), 18);
    }

    #[test]
    fn trivial_tables_verify_and_have_classical_q() {
        for (m, k, n) in [(1, 1, 1), (2, 2, 2), (3, 2, 4), (1, 3, 2)] {
            let t = FastAlgorithm::trivial(m, k, n);
            assert_eq!(t.rank(), m * k * n);
            t.verify().unwrap();
            // Classical multiplication: q = k (each C block sums k
            // products of single entries).
            assert_eq!(t.stability_q(), k as u64);
        }
    }

    #[test]
    fn verify_rejects_a_corrupted_table() {
        let mut s = FastAlgorithm::strassen_222();
        s.w[3] = -s.w[3]; // flip one W sign
        assert!(s.verify().is_err());
    }

    #[test]
    fn combinators_produce_verified_tables_of_expected_rank() {
        for f in Family::ALL {
            let alg = f.algorithm();
            assert_eq!(alg.dims(), f.dims());
            alg.verify().unwrap();
        }
        assert_eq!(Family::F223.rank(), 11); // Hopcroft–Kerr optimal
        assert_eq!(Family::F323.rank(), 17); // trivial is 18
        assert_eq!(Family::F234.rank(), 22); // trivial is 24
        assert_eq!(Family::F333.rank(), 26); // trivial is 27
    }

    #[test]
    fn rotation_preserves_rank_and_validity() {
        let f232 = Family::F223.algorithm().rotate("f232");
        assert_eq!(f232.dims(), (2, 3, 2));
        assert_eq!(f232.rank(), 11);
        f232.verify().unwrap();
        // Three rotations come back to the original shape.
        let back = f232.rotate("a").rotate("b");
        assert_eq!(back.dims(), (2, 2, 3));
        back.verify().unwrap();
    }

    #[test]
    fn compiled_winograd_has_legacy_pass_structure() {
        let sched = Family::F222.compiled();
        assert!(sched.needs_x() && sched.needs_y());
        // Winograd: 4 composite A-sums (S1..S4 expanded: P3,P5,P6,P7)
        // and 4 composite B-sums, each contributing len−1 adds:
        // S-sums have 4,2,3,2 terms → 3+1+2+1 = 7 adds; T likewise.
        let (a, b) = sched.staging_add_passes();
        assert_eq!(a, 7);
        assert_eq!(b, 7);
        // W writes: 14 nonzeros, of which P1's 4 are first-writes.
        assert_eq!(sched.write_add_passes(true), 10);
        assert_eq!(sched.write_add_passes(false), 14);
        assert_eq!(sched.add_passes(true), 24);
        assert_eq!(sched.program().passes(PassKind::Copy, true, |_| true), 8 + 4);
    }

    #[test]
    fn per_level_workspace_scales_with_dims() {
        let sched = Family::F323.compiled();
        // ⟨3,2,3⟩ on a 6×4×6 problem: blocks are 2×2, 2×2, 2×2.
        let elems = sched.program().workspace_elements(6, 4, 6);
        assert_eq!(elems, usize::from(sched.needs_x()) * 4 + usize::from(sched.needs_y()) * 4 + 4);
    }

    #[test]
    #[should_panic(expected = "refusing to compile")]
    fn compile_panics_on_invalid_table() {
        let mut s = FastAlgorithm::strassen_222();
        s.u[0] = 0;
        let _ = CompiledSchedule::compile(s);
    }

    #[test]
    fn family_metadata_is_consistent() {
        for f in Family::ALL {
            let (m, k, n) = f.dims();
            assert!(f.rank() <= m * k * n, "{f:?} rank must beat or meet trivial");
            assert!(f.algorithm().stability_q() >= k as u64, "{f:?} q below classical floor");
        }
        assert_eq!(Family::F222.rank(), 7);
    }
}
