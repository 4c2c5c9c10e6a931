//! Program generation.
//!
//! Two generators live here, serving different oracles:
//!
//! 1. **Syntactic strategies** ([`int_expr`] .. [`program`]) — proptest
//!    combinators producing arbitrary *well-formed but not necessarily
//!    executable* programs. These were promoted from the language crate's
//!    round-trip test so every crate can property-test against the same
//!    shapes (pretty/parse fixpoints, pass no-panic, validator totality).
//!
//! 2. **The executable generator** ([`executable_program`]) — a seeded
//!    template instantiator whose output is guaranteed to type-check,
//!    terminate, and be schedule-deterministic, so differential execution
//!    has a well-defined expected fingerprint. Programs are sequences of
//!    *closed* communication templates:
//!
//!    * local `iown`-guarded compute loops with static bounds,
//!    * the canonical naive fetch-combine loop (each send matched by
//!      exactly one receive, rendezvous tags made unique by a per-template
//!      constant salt),
//!    * an owner multicast received by every processor,
//!    * `redistribute` between enumerable distributions — after which the
//!      moved array is *retired*: the optimizer reasons from declared
//!      (static) ownership, so later static-owner templates on a moved
//!      array would be a generator bug, not a compiler bug.
//!
//!    Every array is `F64` and all constants are dyadic, so arithmetic is
//!    exact and fingerprints compare bit-for-bit.

use proptest::prelude::*;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use xdp_ir::build as b;
use xdp_ir::{
    pretty, BoolExpr, CmpOp, DestSet, DimDist, Distribution, ElemExpr, ElemType, IntExpr, ProcGrid,
    Program, SectionRef, Stmt, Subscript, TransferKind, VarId,
};

/// Processor count used by the syntactic strategies.
pub const NPROCS: usize = 4;
/// Declared arrays available to the syntactic strategies.
pub const NVARS: u32 = 3;
/// Index-space extent used by the syntactic strategies.
pub const N: i64 = 12;

// ---------------------------------------------------------------------------
// Syntactic strategies (shared with crates/lang round-trip tests).
// ---------------------------------------------------------------------------

/// Integer expressions over constants, `mypid`, and the loop variable `i`.
pub fn int_expr(depth: u32) -> BoxedStrategy<IntExpr> {
    let leaf = prop_oneof![
        (1i64..N).prop_map(IntExpr::Const),
        Just(IntExpr::MyPid),
        Just(IntExpr::Var("i".into())),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let sub = int_expr(depth - 1);
    prop_oneof![
        4 => leaf,
        1 => (sub.clone(), sub.clone()).prop_map(|(a, b2)| a.add(b2)),
        1 => (sub.clone(), sub).prop_map(|(a, b2)| a.mul(b2)),
    ]
    .boxed()
}

/// Point, full-range, and strided-triplet subscripts.
pub fn subscript() -> BoxedStrategy<Subscript> {
    prop_oneof![
        2 => int_expr(1).prop_map(Subscript::Point),
        1 => Just(Subscript::All),
        1 => (1i64..N / 2, 1i64..N, 1i64..3).prop_map(|(lo, hi, st)| {
            b::span_st(b::c(lo), b::c(lo + hi % (N - lo)), b::c(st))
        }),
    ]
    .boxed()
}

/// A section of one of the [`NVARS`] declared arrays.
pub fn section_ref() -> BoxedStrategy<SectionRef> {
    (0..NVARS, subscript())
        .prop_map(|(v, s)| SectionRef::new(VarId(v), vec![s]))
        .boxed()
}

/// Compute rules: ownership/accessibility/await tests and comparisons.
pub fn bool_expr(depth: u32) -> BoxedStrategy<BoolExpr> {
    let leaf = prop_oneof![
        section_ref().prop_map(BoolExpr::Iown),
        section_ref().prop_map(BoolExpr::Accessible),
        section_ref().prop_map(BoolExpr::Await),
        (int_expr(1), int_expr(1)).prop_map(|(a, b2)| BoolExpr::Cmp(CmpOp::Le, a, b2)),
        (int_expr(1), int_expr(1)).prop_map(|(a, b2)| BoolExpr::Cmp(CmpOp::Eq, a, b2)),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let sub = bool_expr(depth - 1);
    prop_oneof![
        3 => leaf,
        1 => (sub.clone(), sub.clone()).prop_map(|(a, b2)| a.and(b2)),
        1 => sub.prop_map(|a| BoolExpr::Not(Box::new(a))),
    ]
    .boxed()
}

/// Element expressions: references, literals, and integer injections.
pub fn elem_expr(depth: u32) -> BoxedStrategy<ElemExpr> {
    let leaf = prop_oneof![
        section_ref().prop_map(ElemExpr::Ref),
        (0i64..100).prop_map(|v| ElemExpr::LitF(v as f64 / 4.0)),
        (0i64..100).prop_map(ElemExpr::LitI),
        int_expr(1).prop_map(ElemExpr::FromInt),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let sub = elem_expr(depth - 1);
    prop_oneof![
        3 => leaf,
        1 => (sub.clone(), sub).prop_map(|(a, b2)| a.add(b2)),
    ]
    .boxed()
}

/// One of the rank-1 distributions the generators draw from.
fn dist_choice() -> BoxedStrategy<Distribution> {
    prop_oneof![
        Just(Distribution::new(
            vec![DimDist::Block],
            ProcGrid::linear(NPROCS)
        )),
        Just(Distribution::new(
            vec![DimDist::Cyclic],
            ProcGrid::linear(NPROCS)
        )),
        Just(Distribution::new(
            vec![DimDist::BlockCyclic(2)],
            ProcGrid::linear(NPROCS)
        )),
        Just(Distribution::collapsed(1, NPROCS)),
    ]
    .boxed()
}

/// Statements, including every transfer form and `redistribute`.
pub fn stmt(depth: u32) -> BoxedStrategy<Stmt> {
    let leaf = prop_oneof![
        (section_ref(), elem_expr(1)).prop_map(|(t, r)| b::assign(t, r)),
        section_ref().prop_map(b::send),
        section_ref().prop_map(b::send_own),
        section_ref().prop_map(b::send_own_val),
        (section_ref(), int_expr(1)).prop_map(|(s, e)| b::send_salted(s, e)),
        (section_ref(), 0i64..NPROCS as i64).prop_map(|(s, q)| Stmt::Send {
            sec: s,
            kind: TransferKind::Value,
            dest: DestSet::Pids(vec![IntExpr::Const(q)]),
            salt: None,
        }),
        (section_ref(), section_ref()).prop_map(|(t, n)| b::recv_val(t, n)),
        section_ref().prop_map(b::recv_own),
        section_ref().prop_map(b::recv_own_val),
        section_ref().prop_map(|s| b::kernel("fft1d", vec![s])),
        (0..NVARS, dist_choice()).prop_map(|(v, d)| b::redistribute(VarId(v), d)),
        Just(Stmt::Barrier),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let sub = stmt(depth - 1);
    prop_oneof![
        4 => leaf,
        1 => (bool_expr(1), prop::collection::vec(sub.clone(), 1..3))
            .prop_map(|(rule, body)| b::guarded(rule, body)),
        1 => (int_expr(0), prop::collection::vec(sub, 1..3))
            .prop_map(|(hi, body)| b::do_loop("i", b::c(1), hi, body)),
    ]
    .boxed()
}

/// A whole program over three fixed declarations (`A`, `B`, `C`).
pub fn program() -> BoxedStrategy<Program> {
    prop::collection::vec(stmt(2), 1..6)
        .prop_map(|body| {
            let mut p = Program::new();
            let grid = ProcGrid::linear(NPROCS);
            p.declare(b::array(
                "A",
                ElemType::F64,
                vec![(1, N)],
                vec![DimDist::Block],
                grid.clone(),
            ));
            p.declare(b::array(
                "B",
                ElemType::C64,
                vec![(1, N)],
                vec![DimDist::Cyclic],
                grid.clone(),
            ));
            p.declare(b::array(
                "C",
                ElemType::I64,
                vec![(1, N)],
                vec![DimDist::BlockCyclic(2)],
                grid,
            ));
            p.body = body;
            p
        })
        .boxed()
}

// ---------------------------------------------------------------------------
// Executable generator.
// ---------------------------------------------------------------------------

/// Shape parameters for [`executable_program_with`].
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// Processor count (linear grid).
    pub nprocs: usize,
    /// Extent of every data array (`[1:n]`).
    pub n: i64,
    /// Inclusive range for the number of templates per program.
    pub min_templates: usize,
    pub max_templates: usize,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig {
            nprocs: 4,
            n: 12,
            min_templates: 3,
            max_templates: 7,
        }
    }
}

/// A generated executable program plus the metadata the differential
/// driver needs.
#[derive(Clone, Debug)]
pub struct TestProgram {
    pub program: Program,
    /// Processor count the program was generated for.
    pub nprocs: usize,
    /// Declared names whose final contents are *observable*: compared
    /// across pass-pipeline prefixes. Scratch receive temporaries are
    /// excluded — eliding a communication legitimately leaves its
    /// temporary unwritten.
    pub observable: Vec<String>,
    /// The seed that regenerates this program.
    pub seed: u64,
}

/// The enumerable rank-1 distributions `redistribute` templates move
/// between (the last entry is fully collapsed: pid 0 owns everything).
fn enumerable_dists(nprocs: usize) -> Vec<Distribution> {
    vec![
        Distribution::new(vec![DimDist::Block], ProcGrid::linear(nprocs)),
        Distribution::new(vec![DimDist::Cyclic], ProcGrid::linear(nprocs)),
        Distribution::new(vec![DimDist::BlockCyclic(2)], ProcGrid::linear(nprocs)),
        Distribution::new(vec![DimDist::BlockCyclic(3)], ProcGrid::linear(nprocs)),
        Distribution::collapsed(1, nprocs),
    ]
}

/// Generate an executable program from `seed` with the default shape.
pub fn executable_program(seed: u64) -> TestProgram {
    executable_program_with(&GenConfig::default(), seed)
}

/// Generate an executable program from `seed`.
pub fn executable_program_with(cfg: &GenConfig, seed: u64) -> TestProgram {
    Gen::new(cfg.clone(), seed).build()
}

struct Gen {
    cfg: GenConfig,
    rng: ChaCha8Rng,
    p: Program,
    /// Data arrays still usable by templates (retired on redistribute).
    live: Vec<VarId>,
    observable: Vec<String>,
    next_salt: i64,
    next_temp: usize,
    seed: u64,
}

impl Gen {
    fn new(cfg: GenConfig, seed: u64) -> Gen {
        Gen {
            cfg,
            rng: ChaCha8Rng::seed_from_u64(seed),
            p: Program::new(),
            live: Vec::new(),
            observable: Vec::new(),
            next_salt: 101,
            next_temp: 0,
            seed,
        }
    }

    fn salt(&mut self) -> i64 {
        let s = self.next_salt;
        self.next_salt += 1;
        s
    }

    /// A fresh per-processor scratch array `T<k>[0:P-1]`, block-distributed
    /// so each processor owns exactly `T<k>[mypid]`.
    fn fresh_temp(&mut self) -> VarId {
        let name = format!("T{}", self.next_temp);
        self.next_temp += 1;
        self.p.declare(b::array(
            &name,
            ElemType::F64,
            vec![(0, self.cfg.nprocs as i64 - 1)],
            vec![DimDist::Block],
            ProcGrid::linear(self.cfg.nprocs),
        ))
    }

    fn pick_live(&mut self) -> VarId {
        let k = self.rng.gen_range(0..self.live.len());
        self.live[k]
    }

    fn build(mut self) -> TestProgram {
        let names = ["A", "B", "C", "D"];
        let narrays = self.rng.gen_range(2..5usize);
        let dists = enumerable_dists(self.cfg.nprocs);
        for name in names.iter().take(narrays) {
            // Favour the partitioned distributions; collapsed is rarer.
            let di = if self.rng.gen_range(0..8u32) == 0 {
                dists.len() - 1
            } else {
                self.rng.gen_range(0..dists.len() - 1)
            };
            let var = self.p.declare(xdp_ir::Decl {
                name: name.to_string(),
                elem: ElemType::F64,
                bounds: vec![xdp_ir::Triplet::range(1, self.cfg.n)],
                ownership: xdp_ir::Ownership::Exclusive,
                dist: Some(dists[di].clone()),
                segment_shape: None,
            });
            self.live.push(var);
            self.observable.push(name.to_string());
        }
        let ntemplates = self
            .rng
            .gen_range(self.cfg.min_templates..self.cfg.max_templates + 1);
        let mut body = Vec::new();
        for _ in 0..ntemplates {
            let choice = self.rng.gen_range(0..10u32);
            match choice {
                0..=2 => body.push(self.local_loop()),
                3..=5 if self.live.len() >= 2 => body.extend(self.fetch_combine()),
                6..=7 => body.extend(self.broadcast()),
                8 if self.live.len() >= 2 => body.extend(self.redistribute_template(&dists)),
                _ => body.push(Stmt::Barrier),
            }
        }
        self.p.body = body;
        TestProgram {
            program: self.p,
            nprocs: self.cfg.nprocs,
            observable: self.observable,
            seed: self.seed,
        }
    }

    /// `do i = 1, n { iown(X[i]) : { X[i] = <local rhs> } }`
    fn local_loop(&mut self) -> Stmt {
        let x = self.pick_live();
        let xi = b::sref(x, vec![b::at(b::iv("i"))]);
        let rhs = self.local_rhs(&xi);
        b::do_loop(
            "i",
            b::c(1),
            b::c(self.cfg.n),
            vec![b::guarded(b::iown(xi.clone()), vec![b::assign(xi, rhs)])],
        )
    }

    /// A dyadic-exact right-hand side over `x` itself, the loop variable,
    /// and `mypid`.
    fn local_rhs(&mut self, x: &SectionRef) -> ElemExpr {
        match self.rng.gen_range(0..4u32) {
            0 => b::val(x.clone())
                .mul(ElemExpr::LitF(0.5))
                .add(ElemExpr::FromInt(b::iv("i"))),
            1 => b::val(x.clone()).add(ElemExpr::FromInt(b::mypid())),
            2 => b::val(x.clone()).mul(ElemExpr::LitF(2.0)),
            _ => {
                let k = self.rng.gen_range(1..16i64);
                b::val(x.clone()).add(ElemExpr::LitF(k as f64 * 0.25))
            }
        }
    }

    /// The canonical naive owner-computes communication loop (§2.2):
    /// owners of `S[i]` send its value, the owner of `D[i]` receives it
    /// into a per-processor temporary and combines. This is exactly the
    /// shape the elide/vectorize/localize/bind passes recognize.
    fn fetch_combine(&mut self) -> Vec<Stmt> {
        let s = self.pick_live();
        let d = loop {
            let d = self.pick_live();
            if d != s {
                break d;
            }
        };
        let t = self.fresh_temp();
        let salt = self.salt();
        let si = b::sref(s, vec![b::at(b::iv("i"))]);
        let di = b::sref(d, vec![b::at(b::iv("i"))]);
        let tm = b::sref(t, vec![b::at(b::mypid())]);
        let combined = match self.rng.gen_range(0..3u32) {
            0 => b::val(di.clone()).add(b::val(tm.clone())),
            1 => b::val(di.clone())
                .mul(ElemExpr::LitF(0.5))
                .add(b::val(tm.clone())),
            _ => b::val(tm.clone()),
        };
        vec![b::do_loop(
            "i",
            b::c(1),
            b::c(self.cfg.n),
            vec![
                b::guarded(
                    b::iown(si.clone()),
                    vec![b::send_salted(si.clone(), b::c(salt))],
                ),
                b::guarded(
                    b::iown(di.clone()),
                    vec![
                        b::recv_val_salted(tm.clone(), si, b::c(salt)),
                        b::guarded(b::await_(tm), vec![b::assign(di, combined)]),
                    ],
                ),
            ],
        )]
    }

    /// The owner of one element multicasts it to every processor; each
    /// processor folds its replica into the elements it owns.
    fn broadcast(&mut self) -> Vec<Stmt> {
        let x = self.pick_live();
        let d = self.pick_live();
        let r = self.fresh_temp();
        let salt = self.salt();
        let j = self.rng.gen_range(1..self.cfg.n + 1);
        let xj = b::sref(x, vec![b::at(b::c(j))]);
        let rm = b::sref(r, vec![b::at(b::mypid())]);
        let di = b::sref(d, vec![b::at(b::iv("i"))]);
        let dests: Vec<IntExpr> = (0..self.cfg.nprocs as i64).map(b::c).collect();
        vec![
            b::guarded(
                b::iown(xj.clone()),
                vec![Stmt::Send {
                    sec: xj.clone(),
                    kind: TransferKind::Value,
                    dest: DestSet::Pids(dests),
                    salt: Some(b::c(salt)),
                }],
            ),
            b::recv_val_salted(rm.clone(), xj, b::c(salt)),
            b::guarded(
                b::await_(rm.clone()),
                vec![b::do_loop(
                    "i",
                    b::c(1),
                    b::c(self.cfg.n),
                    vec![b::guarded(
                        b::iown(di.clone()),
                        vec![b::assign(
                            di.clone(),
                            b::val(di).add(b::val(rm).mul(ElemExpr::LitF(0.25))),
                        )],
                    )],
                )],
            ),
        ]
    }

    /// Move one live array to another enumerable distribution and retire
    /// it: the optimizer reasons from *declared* ownership, so templates
    /// after the move must not touch the array again.
    fn redistribute_template(&mut self, dists: &[Distribution]) -> Vec<Stmt> {
        let x = self.pick_live();
        self.live.retain(|&v| v != x);
        let d = dists[self.rng.gen_range(0..dists.len())].clone();
        vec![b::redistribute(x, d), Stmt::Barrier]
    }
}

/// Pretty-print a generated program with a reproduction header.
pub fn render_repro(tp: &TestProgram, note: &str) -> String {
    format!(
        "// xdp-verify repro: seed={} nprocs={} {}\n{}",
        tp.seed,
        tp.nprocs,
        note,
        pretty::program(&tp.program)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn executable_programs_validate_and_roundtrip() {
        for seed in 0..60 {
            let tp = executable_program(seed);
            let errs = xdp_ir::validate(&tp.program);
            assert!(errs.is_empty(), "seed {seed}: {errs:?}");
            let text1 = pretty::program(&tp.program);
            let reparsed = xdp_lang::parse_program(&text1)
                .unwrap_or_else(|e| panic!("seed {seed}: parse failed: {e}\n---\n{text1}"));
            let text2 = pretty::program(&reparsed);
            assert_eq!(text1, text2, "seed {seed}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = executable_program(42);
        let b2 = executable_program(42);
        assert_eq!(pretty::program(&a.program), pretty::program(&b2.program));
        assert_eq!(a.observable, b2.observable);
    }

    #[test]
    fn seeds_vary_the_shape() {
        let texts: std::collections::HashSet<String> = (0..20)
            .map(|s| pretty::program(&executable_program(s).program))
            .collect();
        assert!(texts.len() > 15, "only {} distinct programs", texts.len());
    }

    #[test]
    fn retired_arrays_are_not_touched_after_redistribute() {
        for seed in 0..120 {
            let tp = executable_program(seed);
            let mut moved: Vec<VarId> = Vec::new();
            let mut after_move_use = false;
            for s in &tp.program.body {
                if let Stmt::Redistribute { var, .. } = s {
                    moved.push(*var);
                    continue;
                }
                after_move_use |= xdp_ir::walk::any(
                    xdp_ir::walk::Node::Stmt(s),
                    |n| matches!(n, xdp_ir::walk::Node::Ref(r, _) if moved.contains(&r.var)),
                );
            }
            assert!(!after_move_use, "seed {seed}: retired array used");
        }
    }
}
