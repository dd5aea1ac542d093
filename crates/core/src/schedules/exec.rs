//! The one executor: runs a [`Program`] level serially, in node order,
//! or — the seven-temp program inside `parallel_depth` — as a pool task
//! DAG with the edges the program derives.
//!
//! Node bodies need overlapping access to the level's operands and
//! temporaries (one node writes `S1`, two read it), which the borrow
//! checker cannot express as simultaneous `&mut`/`&` captures. So a
//! [`Frame`] holds raw pointers and every op rebuilds its views from its
//! slots: a block from its operand's pointer and leading dimension, a
//! temporary from its carve-out (bounds-checked) with leading dimension
//! equal to its row count. That is the one `unsafe` core. Soundness: no
//! op's destination overlaps its sources ([`Program::new`] checks);
//! serially, program order separates any two ops; as a DAG, every pair
//! of nodes touching overlapping slots, one writing, is joined by a path
//! of derived edges, and the DAG executor publishes a completed node's
//! writes before its successors start (mutex-protected scheduling plus
//! Acq/Rel dependency counters). Serially every product recurses into
//! the shared arena tail; as a DAG each gets its own share.

use super::program::{Coef, Op, Program, Slot, MAX_TEMPS};
use crate::config::StrassenConfig;
use crate::dispatch::fmm;
use crate::trace;
use crate::trace::add::{
    accum, accum_sub, add_into, add_into_scaled, axpby, rsub_into, scale_in_place, sub_into, sub_into_scaled,
};
use matrix::{MatMut, MatRef, Scalar};
use pool::dag::DagBuilder;
use pool::ring::tag::strassen_node;

/// `C ← α A B + β C` through one level of `prog`; every dimension is
/// even, and `ws` holds the program's workspace plus its children's.
pub(crate) fn run<T: Scalar>(
    cfg: &StrassenConfig,
    prog: &Program,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    beta: T,
    mut c: MatMut<'_, T>,
    ws: &mut [T],
    depth: usize,
) {
    let (m, k, n) = (a.nrows(), a.ncols(), b.ncols());
    debug_assert!(m % 2 == 0 && k % 2 == 0 && n % 2 == 0);
    let blocks = (m / 2, k / 2, n / 2);
    let carve = prog.carve(blocks);
    let (tmp, rest) = ws.split_at_mut(carve[MAX_TEMPS]);
    let dag = prog.runs_as_dag(cfg, depth);
    let frame = Frame {
        a: (a.as_ptr(), a.ld()),
        b: (b.as_ptr(), b.ld()),
        c: (c.as_mut_ptr(), c.ld()),
        dims: (m, n),
        blocks,
        tmp: tmp.as_mut_ptr(),
        carve,
        rest: (rest.as_mut_ptr(), rest.len()),
        // All products in flight at once; required_workspace sizes the
        // tail for exactly this.
        share: dag.then(|| (rest.len() / prog.rank()).max(1)),
    };
    let level = dag.then(trace::dag_level).flatten();
    let mut builder = dag.then(DagBuilder::new);
    let mut product = 0;
    for (i, node) in prog.nodes().iter().enumerate() {
        let first = product;
        product += node.ops.iter().filter(|op| matches!(op, Op::Fmm(..))).count();
        match builder.as_mut() {
            // SAFETY: one thread, program order (module docs).
            None => unsafe { frame.node(cfg, &node.ops, first, alpha, beta, depth) },
            Some(dag) => {
                let tag = strassen_node(depth as u8, i as u8);
                let level = level.as_ref();
                // SAFETY: derived edges order every conflicting pair
                // (module docs).
                let body = move || {
                    trace::dag_node(level, || unsafe {
                        frame.node(cfg, &node.ops, first, alpha, beta, depth)
                    })
                };
                dag.node_tagged(prog.hints()[i], &prog.deps()[i], tag, body);
            }
        }
    }
    if let Some(dag) = builder {
        dag.run(cfg.parallel_width);
    }
    if let Some(level) = &level {
        level.merge();
    }
}

/// Raw pointers to one level's operands, temporaries and child arena;
/// `Copy` so every DAG node can capture it.
struct Frame<T> {
    a: (*const T, usize),
    b: (*const T, usize),
    c: (*mut T, usize),
    /// `C`'s `(m, n)`.
    dims: (usize, usize),
    blocks: (usize, usize, usize),
    tmp: *mut T,
    carve: [usize; MAX_TEMPS + 1],
    rest: (*mut T, usize),
    /// Per-product arena share as a DAG; `None` shares the whole tail.
    share: Option<usize>,
}

impl<T> Clone for Frame<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Frame<T> {}

// SAFETY: the pointers address the caller's operands and arena, which
// outlive the level (the DAG run is enclosed in `run`). Cross-thread
// access discipline is the module-doc edge argument.
unsafe impl<T: Send> Send for Frame<T> {}

impl<T: Scalar> Frame<T> {
    /// Run a node's ops, whose first product is the level's `product`-th.
    /// SAFETY (caller): no node touching an overlapping slot, one of the
    /// two writing, runs concurrently.
    unsafe fn node(
        &self,
        cfg: &StrassenConfig,
        ops: &[Op],
        mut product: usize,
        alpha: T,
        beta: T,
        depth: usize,
    ) {
        let r = |s| {
            let (p, rows, cols, ld) = self.parts(s);
            MatRef::from_raw_parts(p, rows, cols, ld)
        };
        let w = |s| {
            let (p, rows, cols, ld) = self.parts(s);
            MatMut::from_raw_parts(p, rows, cols, ld)
        };
        let v = |c: Coef| c.value(alpha, beta);
        for op in ops {
            match *op {
                Op::AddInto(d, a, b) => add_into(w(d), r(a), r(b)),
                Op::SubInto(d, a, b) => sub_into(w(d), r(a), r(b)),
                Op::AddIntoScaled(d, s, a, b) => add_into_scaled(w(d), v(s), r(a), r(b)),
                Op::SubIntoScaled(d, s, a, b) => sub_into_scaled(w(d), v(s), r(a), r(b)),
                Op::Accum(d, a) => accum(w(d), r(a)),
                Op::AccumSub(d, a) => accum_sub(w(d), r(a)),
                Op::RSubInto(d, a) => rsub_into(w(d), r(a)),
                Op::Axpby(s, a, t, d) => axpby(v(s), r(a), v(t), w(d)),
                Op::Scale(s, d) => scale_in_place(v(s), w(d)),
                Op::Fmm(s, a, b, t, d) => {
                    fmm(cfg, v(s), r(a), r(b), v(t), w(d), self.child_ws(product), depth + 1);
                    product += 1;
                }
            }
        }
    }

    /// `(pointer, rows, cols, ld)` of a slot. `A`/`B` pointers are only
    /// ever read through ([`Program::new`] rejects writes to them).
    fn parts(&self, s: Slot) -> (*mut T, usize, usize, usize) {
        let (bm, bk, bn) = self.blocks;
        let block = |(p, ld): (*const T, usize), i: u8, (rows, cols): (usize, usize)| {
            let (i, j) = (i as usize / 2, i as usize % 2);
            (p.wrapping_add(i * rows + j * cols * ld) as *mut T, rows, cols, ld)
        };
        match s {
            Slot::A(i) => block(self.a, i, (bm, bk)),
            Slot::B(i) => block(self.b, i, (bk, bn)),
            Slot::C(i) => block((self.c.0, self.c.1), i, (bm, bn)),
            Slot::WholeC => (self.c.0, self.dims.0, self.dims.1, self.c.1),
            Slot::Tmp(t, shape) => {
                let (rows, cols) = shape.dims(self.blocks);
                let (lo, hi) = (self.carve[t as usize], self.carve[t as usize + 1]);
                assert!(rows * cols <= hi - lo, "temporary {t}: {rows}x{cols} view in {} elements", hi - lo);
                (self.tmp.wrapping_add(lo), rows, cols, rows.max(1))
            }
        }
    }

    /// The arena product `p` recurses into.
    /// SAFETY (caller): serially one product runs at a time; as a DAG
    /// each product owns its share.
    unsafe fn child_ws<'x>(&self, p: usize) -> &'x mut [T] {
        let (ptr, len) = self.rest;
        let (lo, hi) = self.share.map_or((0, len), |size| ((p * size).min(len), ((p + 1) * size).min(len)));
        std::slice::from_raw_parts_mut(ptr.add(lo), hi - lo)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use blas::level3::{gemm, GemmConfig};
    use blas::Op;
    use matrix::{norms, random, Matrix};

    /// One level of `prog` (children as `cfg` stops them) on seeded
    /// operands with exactly `ws` elements of workspace, against the
    /// naive kernel. `C` starts from zeros when it has no seed.
    pub(crate) fn check_one_level(
        cfg: &StrassenConfig,
        prog: &Program,
        (m, k, n): (usize, usize, usize),
        (a_seed, b_seed, c_seed): (u64, u64, Option<u64>),
        (alpha, beta): (f64, f64),
        ws: usize,
        tol: f64,
    ) {
        let a = random::uniform::<f64>(m, k, a_seed);
        let b = random::uniform::<f64>(k, n, b_seed);
        let c0 = c_seed.map_or_else(|| Matrix::zeros(m, n), |s| random::uniform::<f64>(m, n, s));
        let (mut c, mut expect) = (c0.clone(), c0);
        run(cfg, prog, alpha, a.as_ref(), b.as_ref(), beta, c.as_mut(), &mut vec![0.0; ws], 0);
        let (a, b) = (a.as_ref(), b.as_ref());
        gemm(&GemmConfig::naive(), alpha, Op::NoTrans, a, Op::NoTrans, b, beta, expect.as_mut());
        norms::assert_allclose(c.as_ref(), expect.as_ref(), tol, &format!("{m}x{k}x{n} α={alpha} β={beta}"));
    }
}
