//! Level schedules as data.
//!
//! A [`Program`] is one recursion level of a schedule, written the way
//! the paper's Figure 1 writes STRASSEN1 and STRASSEN2: named
//! [`Node`]s in order, each a short list of [`Op`]s. An op is one of the
//! nine traced elementwise kernels (`crate::trace::add`, same operand
//! order) or a recursive product `fmm(s·α, lhs, rhs, β′, dst)`. Operands
//! are [`Slot`]s: a block of `A`, `B` or `C` in the base-case grid, all
//! of `C` (the β pre-scale), or a workspace temporary viewed at one
//! block [`Shape`]. Coefficients come from the closed set [`Coef`].
//!
//! Everything else that knows a schedule's shape reads it from here: the
//! per-level workspace, the pass counts per β class, the β classes of
//! the children, and the task-DAG edges and affinity hints.
//! `schedules::exec` runs a program.

use crate::config::StrassenConfig;
use crate::probe::PassKind;
use matrix::Scalar;

/// Temporaries one program may carve (the seven-temp schedule uses 15).
pub(crate) const MAX_TEMPS: usize = 16;

/// A slot's shape in units of the level's blocks: `bm × bk`, `bk × bn`
/// or `bm × bn`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Shape {
    Mk,
    Kn,
    Mn,
}

impl Shape {
    pub(crate) fn dims(self, (bm, bk, bn): (usize, usize, usize)) -> (usize, usize) {
        [(bm, bk), (bk, bn), (bm, bn)][self as usize]
    }
}

/// An operand. Block indices are flat row-major in the 2×2 grid: `A`
/// block `(i, l)` is `2i + l`, so `A(1)` is `A₁₂`. A temporary's view
/// has leading dimension equal to its row count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Slot {
    A(u8),
    B(u8),
    C(u8),
    WholeC,
    Tmp(u8, Shape),
}

impl Slot {
    /// Whether the two slots can share an element.
    pub(crate) fn overlaps(self, other: Slot) -> bool {
        match (self, other) {
            (Slot::WholeC, Slot::C(_) | Slot::WholeC) | (Slot::C(_), Slot::WholeC) => true,
            (Slot::Tmp(s, _), Slot::Tmp(t, _)) => s == t,
            _ => self == other,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Coef {
    Zero,
    One,
    NegOne,
    Alpha,
    NegAlpha,
    Beta,
}

impl Coef {
    pub(crate) fn value<T: Scalar>(self, alpha: T, beta: T) -> T {
        [T::ZERO, T::ONE, -T::ONE, alpha, -alpha, beta][self as usize]
    }

    fn is_zero(self, beta_zero: bool) -> bool {
        self == Coef::Zero || (self == Coef::Beta && beta_zero)
    }
}

/// One op, operands in the order its kernel takes them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Op {
    AddInto(Slot, Slot, Slot),
    SubInto(Slot, Slot, Slot),
    AddIntoScaled(Slot, Coef, Slot, Slot),
    SubIntoScaled(Slot, Coef, Slot, Slot),
    Accum(Slot, Slot),
    AccumSub(Slot, Slot),
    RSubInto(Slot, Slot),
    Axpby(Coef, Slot, Coef, Slot),
    Scale(Coef, Slot),
    Fmm(Coef, Slot, Slot, Coef, Slot),
}

impl Op {
    /// The written slot, then the read ones (`dst` itself excluded).
    pub(crate) fn slots(&self) -> (Slot, [Option<Slot>; 2]) {
        match *self {
            Op::AddInto(d, a, b)
            | Op::SubInto(d, a, b)
            | Op::AddIntoScaled(d, _, a, b)
            | Op::SubIntoScaled(d, _, a, b)
            | Op::Fmm(_, a, b, _, d) => (d, [Some(a), Some(b)]),
            Op::Accum(d, a) | Op::AccumSub(d, a) | Op::RSubInto(d, a) | Op::Axpby(_, a, _, d) => {
                (d, [Some(a), None])
            }
            Op::Scale(_, d) => (d, [None, None]),
        }
    }

    /// `op` with every slot passed through `f`.
    fn map(self, f: impl Fn(Slot) -> Slot) -> Op {
        match self {
            Op::AddInto(d, a, b) => Op::AddInto(f(d), f(a), f(b)),
            Op::SubInto(d, a, b) => Op::SubInto(f(d), f(a), f(b)),
            Op::AddIntoScaled(d, s, a, b) => Op::AddIntoScaled(f(d), s, f(a), f(b)),
            Op::SubIntoScaled(d, s, a, b) => Op::SubIntoScaled(f(d), s, f(a), f(b)),
            Op::Accum(d, a) => Op::Accum(f(d), f(a)),
            Op::AccumSub(d, a) => Op::AccumSub(f(d), f(a)),
            Op::RSubInto(d, a) => Op::RSubInto(f(d), f(a)),
            Op::Axpby(s, a, t, d) => Op::Axpby(s, f(a), t, f(d)),
            Op::Scale(s, d) => Op::Scale(s, f(d)),
            Op::Fmm(s, a, b, t, d) => Op::Fmm(s, f(a), f(b), t, f(d)),
        }
    }

    /// How the trace classifies the pass (`None` for a product): an
    /// `axpby` whose `β′` is zero never reads `dst`, so it is a copy. A
    /// `β` scale is elided at runtime when `β = 1`.
    pub(crate) fn pass(&self, beta_zero: bool) -> Option<PassKind> {
        match *self {
            Op::Fmm(..) => None,
            Op::Scale(..) => Some(PassKind::Scale),
            Op::Axpby(_, _, t, _) if t.is_zero(beta_zero) => Some(PassKind::Copy),
            _ => Some(PassKind::Add),
        }
    }
}

/// A named group of ops: one task when the program runs as a DAG.
#[derive(Clone, Debug)]
pub(crate) struct Node {
    pub(crate) name: String,
    pub(crate) ops: Vec<Op>,
}

/// One ⟨2,2,2⟩ recursion level of a schedule plus what is derived from
/// it.
#[derive(Clone, Debug)]
pub(crate) struct Program {
    nodes: Vec<Node>,
    dag: bool,
    /// Per temporary, whether it is used at each [`Shape`].
    temps: Vec<[bool; 3]>,
    deps: Vec<Vec<usize>>,
    hints: Vec<Option<usize>>,
}

impl Program {
    /// A program from named op lists; `dag` marks the one schedule that
    /// runs as a task DAG inside `parallel_depth`.
    pub(crate) fn hand(dag: bool, nodes: &[(&str, &[Op])]) -> Self {
        let nodes = nodes.iter().map(|&(name, ops)| Node { name: name.into(), ops: ops.to_vec() });
        Self::new(dag, nodes.collect())
    }

    /// Check the ops and derive temporaries, edges and hints.
    ///
    /// # Panics
    /// If an op writes `A` or `B`, its destination overlaps a source,
    /// its operand shapes disagree, a block leaves the grid, or more than
    /// [`MAX_TEMPS`] temporaries are used.
    fn new(dag: bool, nodes: Vec<Node>) -> Self {
        let mut temps: Vec<[bool; 3]> = Vec::new();
        for op in nodes.iter().flat_map(|n| &n.ops) {
            let (dst, src) = op.slots();
            assert!(!matches!(dst, Slot::A(_) | Slot::B(_)), "{op:?} writes an input");
            assert!(src.iter().flatten().all(|s| !s.overlaps(dst)), "{op:?} aliases its destination");
            let mut shape = |s| match s {
                Slot::A(i) if i < 4 => Some(Shape::Mk),
                Slot::B(i) if i < 4 => Some(Shape::Kn),
                Slot::C(i) if i < 4 => Some(Shape::Mn),
                Slot::WholeC => None,
                Slot::Tmp(t, shape) if (t as usize) < MAX_TEMPS => {
                    temps.resize(temps.len().max(t as usize + 1), [false; 3]);
                    temps[t as usize][shape as usize] = true;
                    Some(shape)
                }
                bad => panic!("{op:?}: {bad:?} is outside the grid or one temporary too many"),
            };
            let want = match op {
                Op::Fmm(..) => [Shape::Mn, Shape::Mk, Shape::Kn].map(Some),
                _ => [shape(dst); 3],
            };
            for (s, w) in [Some(dst), src[0], src[1]].into_iter().zip(want) {
                assert!(s.is_none_or(|s| shape(s) == w), "{op:?} mixes shapes");
            }
        }
        let mut prog = Self { nodes, dag, temps, deps: Vec::new(), hints: Vec::new() };
        prog.deps = prog.derive_deps();
        prog.hints = prog.derive_hints();
        prog
    }

    /// STRASSEN1's general form from its `β = 0` program: each `C` block
    /// write goes to a fresh quadrant temporary, then one `C ← Q + βC`
    /// fold per block.
    pub(crate) fn with_staged_c(&self) -> Self {
        let base = self.temps.len() as u8;
        let stage = |s| match s {
            Slot::C(i) => Slot::Tmp(base + i, Shape::Mn),
            Slot::WholeC => panic!("a whole-C op cannot be staged by block"),
            other => other,
        };
        let mut nodes: Vec<Node> = self
            .nodes
            .iter()
            .map(|n| Node { name: n.name.clone(), ops: n.ops.iter().map(|op| op.map(stage)).collect() })
            .collect();
        nodes.extend((0..4u8).map(|i| Node {
            name: format!("c{}{}", i / 2 + 1, i % 2 + 1),
            ops: vec![Op::Axpby(Coef::One, stage(Slot::C(i)), Coef::Beta, Slot::C(i))],
        }));
        Self::new(self.dag, nodes)
    }

    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    pub(crate) fn ops(&self) -> impl Iterator<Item = &Op> {
        self.nodes.iter().flat_map(|n| &n.ops)
    }

    /// Recursive products per level.
    pub(crate) fn rank(&self) -> usize {
        self.ops().filter(|op| matches!(op, Op::Fmm(..))).count()
    }

    /// Whether this level runs as a pool task DAG: the seven-temp
    /// program, inside `parallel_depth`.
    pub(crate) fn runs_as_dag(&self, cfg: &StrassenConfig, depth: usize) -> bool {
        self.dag && depth < cfg.parallel_depth
    }

    /// Temporary `t` occupies `[carve[t], carve[t + 1])` of the level's
    /// workspace: each temporary at the largest shape it is used at.
    pub(crate) fn carve(&self, blocks: (usize, usize, usize)) -> [usize; MAX_TEMPS + 1] {
        let mut at = [0; MAX_TEMPS + 1];
        for t in 0..MAX_TEMPS {
            let used = self.temps.get(t).copied().unwrap_or_default();
            let sizes = [Shape::Mk, Shape::Kn, Shape::Mn].map(|s| s.dims(blocks).0 * s.dims(blocks).1);
            at[t + 1] = at[t] + (0..3).filter(|&s| used[s]).map(|s| sizes[s]).max().unwrap_or(0);
        }
        at
    }

    /// Workspace one level draws for a divisible `(m, k, n)`.
    pub(crate) fn workspace_elements(&self, m: usize, k: usize, n: usize) -> usize {
        self.carve((m / 2, k / 2, n / 2))[MAX_TEMPS]
    }

    /// Passes of `kind` one level executes in the given β class into a
    /// destination `dst` accepts — what [`crate::counts::predict`]
    /// charges per split and the traced probe reproduces.
    pub(crate) fn passes(&self, kind: PassKind, beta_zero: bool, dst: impl Fn(Slot) -> bool) -> u64 {
        self.ops().filter(|op| op.pass(beta_zero) == Some(kind) && dst(op.slots().0)).count() as u64
    }

    /// Recursive children per level as `(β = 0, β ≠ 0)` counts.
    pub(crate) fn child_mix(&self, beta_zero: bool) -> (u64, u64) {
        self.ops().fold((0, 0), |(z, g), op| match op {
            Op::Fmm(.., t, _) if t.is_zero(beta_zero) => (z + 1, g),
            Op::Fmm(..) => (z, g + 1),
            _ => (z, g),
        })
    }

    /// Per node, the earlier nodes it waits for in the task DAG.
    pub(crate) fn deps(&self) -> &[Vec<usize>] {
        &self.deps
    }

    /// Per node, the worker-affinity hint for the task DAG.
    pub(crate) fn hints(&self) -> &[Option<usize>] {
        &self.hints
    }

    /// DAG edges: the transitive reduction of "an earlier node touches
    /// an overlapping slot, one of the two writing" (read-after-write,
    /// write-after-read, write-after-write). Nearest candidates come
    /// first, and one already reachable through a chosen edge adds
    /// nothing, so every conflicting pair is ordered by a path.
    fn derive_deps(&self) -> Vec<Vec<usize>> {
        let touch = |n: &Node| -> Vec<(Slot, bool)> {
            let slots = n.ops.iter().map(Op::slots);
            slots
                .flat_map(|(d, src)| src.into_iter().flatten().map(|s| (s, false)).chain([(d, true)]))
                .collect()
        };
        let touches: Vec<_> = self.nodes.iter().map(touch).collect();
        let conflict = |i: usize, j: usize| {
            touches[i].iter().any(|&(s, w)| touches[j].iter().any(|&(t, v)| (w || v) && s.overlaps(t)))
        };
        let n = self.nodes.len();
        let (mut ancestors, mut deps) = (Vec::<Vec<bool>>::new(), Vec::new());
        for j in 0..n {
            let (mut reach, mut mine) = (vec![false; n], Vec::new());
            for i in (0..j).rev().filter(|&i| conflict(i, j)) {
                if !reach[i] {
                    mine.insert(0, i);
                    reach[i] = true;
                    reach.iter_mut().zip(&ancestors[i]).for_each(|(r, &a)| *r |= a);
                }
            }
            ancestors.push(reach);
            deps.push(mine);
        }
        deps
    }

    /// Affinity: the node holding the `p`-th product hints worker `p`;
    /// a node writing a temporary hints the first product that touches
    /// it (the product reading an operand sum, or owning a product
    /// buffer); `C` write-backs carry none.
    fn derive_hints(&self) -> Vec<Option<usize>> {
        let mut home = [None; MAX_TEMPS];
        for (p, op) in self.ops().filter(|op| matches!(op, Op::Fmm(..))).enumerate() {
            let (d, src) = op.slots();
            for s in src.into_iter().flatten().chain([d]) {
                if let Slot::Tmp(t, _) = s {
                    home[t as usize].get_or_insert(p);
                }
            }
        }
        let mut p = 0;
        self.nodes
            .iter()
            .map(|node| {
                let products = node.ops.iter().filter(|op| matches!(op, Op::Fmm(..))).count();
                p += products;
                if products > 0 {
                    return Some(p - products);
                }
                node.ops.iter().find_map(|op| match op.slots().0 {
                    Slot::Tmp(t, _) => home[t as usize],
                    _ => None,
                })
            })
            .collect()
    }
}

/// ⟨2,2,2⟩ quadrant slots, named as the paper writes them.
pub(crate) mod quad {
    use super::Slot;

    pub(crate) const A11: Slot = Slot::A(0);
    pub(crate) const A12: Slot = Slot::A(1);
    pub(crate) const A21: Slot = Slot::A(2);
    pub(crate) const A22: Slot = Slot::A(3);
    pub(crate) const B11: Slot = Slot::B(0);
    pub(crate) const B12: Slot = Slot::B(1);
    pub(crate) const B21: Slot = Slot::B(2);
    pub(crate) const B22: Slot = Slot::B(3);
    pub(crate) const C11: Slot = Slot::C(0);
    pub(crate) const C12: Slot = Slot::C(1);
    pub(crate) const C21: Slot = Slot::C(2);
    pub(crate) const C22: Slot = Slot::C(3);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::{per_level_elements, ResolvedScheme as R};

    /// The numbers the programs derive, as literals: add passes per β
    /// class (β = 0, β ≠ 0), children as (β = 0, β ≠ 0) products, and the
    /// per-level workspace at a shape with k ≠ n against its closed form.
    #[test]
    fn derived_counts_match_the_closed_forms() {
        // ⟨2,2,2⟩ at (12, 8, 20): quadrants 6×4, 4×10, 6×10.
        let (mk, kn, mn, x1) = (6 * 4, 4 * 10, 6 * 10, 6 * 10); // x1 = m/2·max(k/2, n/2)
        #[rustfmt::skip]
        let rows = [
            (R::Strassen1BetaZero, (15, 15), (7, 0), x1 + kn),
            // The four `C ← Q + βC` folds are copies when β = 0.
            (R::Strassen1General, (15, 19), (7, 0), x1 + kn + 4 * mn),
            (R::Strassen2, (14, 14), (2, 5), mk + kn + mn),
            (R::OriginalBetaZero, (18, 18), (7, 0), mk + kn + mn),
            (R::OriginalGeneral, (18, 18), (7, 0), mk + kn + mn + 4 * mn),
            (R::SevenTemp, (19, 19), (7, 0), 4 * mk + 4 * kn + 7 * mn),
        ];
        for (scheme, adds, mix, elems) in rows {
            let prog = scheme.program();
            let derived = [true, false].map(|bz| prog.passes(PassKind::Add, bz, |_| true));
            assert_eq!(derived, [adds.0, adds.1], "{scheme:?} add passes");
            assert_eq!([prog.child_mix(true), prog.child_mix(false)], [mix; 2], "{scheme:?} children");
            assert_eq!(per_level_elements(scheme, 12, 8, 20), elems, "{scheme:?} per-level elements");
        }
    }

    /// Soundness of the DAG mode, for every program: any two nodes that
    /// touch overlapping slots, one writing, are joined by a path of
    /// derived edges.
    #[test]
    fn derived_edges_order_every_conflict() {
        assert!(Slot::WholeC.overlaps(Slot::C(3)) && Slot::C(3).overlaps(Slot::WholeC));
        assert!(Slot::Tmp(0, Shape::Mk).overlaps(Slot::Tmp(0, Shape::Mn)));
        assert!(
            !Slot::Tmp(0, Shape::Mk).overlaps(Slot::Tmp(1, Shape::Mk)) && !Slot::C(1).overlaps(Slot::C(2))
        );
        let schemes =
            [R::Strassen1BetaZero, R::Strassen1General, R::Strassen2, R::OriginalBetaZero, R::SevenTemp];
        for scheme in schemes {
            let prog = scheme.program();
            let n = prog.nodes().len();
            let mut reach = vec![vec![false; n]; n];
            for j in 0..n {
                for &i in &prog.deps()[j] {
                    assert!(i < j, "{scheme:?}: edge {i} → {j} points forward");
                    reach[j][i] = true;
                    let via = reach[i].clone();
                    reach[j].iter_mut().zip(via).for_each(|(r, v)| *r |= v);
                }
            }
            // Each node's (slot, written) pairs, straight from its ops.
            let touches = |i: usize| -> Vec<(Slot, bool)> {
                let slots = prog.nodes()[i].ops.iter().map(Op::slots);
                slots
                    .flat_map(|(d, src)| src.into_iter().flatten().map(|s| (s, false)).chain([(d, true)]))
                    .collect()
            };
            for j in 0..n {
                for i in 0..j {
                    let (x, y) = (touches(i), touches(j));
                    let hazard = x.iter().any(|&(s, w)| y.iter().any(|&(t, v)| (w || v) && s.overlaps(t)));
                    assert!(!hazard || reach[j][i], "{scheme:?}: nodes {i} and {j} conflict without a path");
                }
            }
        }
    }

    /// The seven-temp program derives the 21-node, 25-edge task DAG, its
    /// affinity hints and its timeline names.
    #[test]
    fn seven_temp_dag_nodes_edges_and_hints() {
        let prog = R::SevenTemp.program();
        let name = |i: usize| prog.nodes()[i].name.as_str();
        let names: Vec<&str> = (0..prog.nodes().len()).map(name).collect();
        assert_eq!(names.join(" "), "s1 s2 s3 s4 t1 t2 t3 t4 p1 p2 p3 p4 p5 p6 p7 c11 u2 u3 c12 c21 c22");
        let edges: Vec<String> = (0..21)
            .filter(|&j| !prog.deps()[j].is_empty())
            .map(|j| {
                format!(
                    "{}<{}",
                    name(j),
                    prog.deps()[j].iter().map(|&i| name(i)).collect::<Vec<_>>().join(",")
                )
            })
            .collect();
        assert_eq!(
            edges.join(" "),
            "s2<s1 s4<s2 t2<t1 t4<t2 p3<s4 p4<t4 p5<s1,t1 p6<s2,t2 p7<s3,t3 \
             c11<p1,p2 u2<p1,p6 u3<p7,u2 c12<p3,p5,u2 c21<p4,u3 c22<p5,u3"
        );
        assert_eq!(prog.deps().iter().map(Vec::len).sum::<usize>(), 25);
        let mut hints = [4, 5, 6, 2, 4, 5, 6, 3, 0, 1, 2, 3, 4, 5, 6].map(Some).to_vec();
        hints.extend([None, Some(5), Some(6), None, None, None]);
        assert_eq!(prog.hints(), hints);
    }
}
