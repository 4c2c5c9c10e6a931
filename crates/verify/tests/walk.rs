//! `xdp_ir::walk` is complete: over generated programs and the corpus, the
//! visit yields every reference the tree holds — counted here the naive
//! way, by scanning the tree's `Debug` text — and substitution built on
//! the map is the identity on `x := x` and round-trips through a fresh
//! name. (The test lives here, not in `crates/ir`, because the generator
//! does.)

use proptest::prelude::*;
use std::collections::BTreeMap;
use xdp_ir::walk::{self, Node};
use xdp_ir::{build, IntExpr, Program};

/// References per variable, by the walk.
fn visited(p: &Program) -> BTreeMap<u32, usize> {
    let mut seen = BTreeMap::new();
    for s in &p.body {
        walk::visit(Node::Stmt(s), &mut |n| {
            if let Node::Ref(r, _) = n {
                *seen.entry(r.var.0).or_default() += 1;
            }
        });
    }
    seen
}

/// References per variable, by the text: every `SectionRef { var: VarId(n)`.
fn printed(p: &Program) -> BTreeMap<u32, usize> {
    let mut seen = BTreeMap::new();
    let text = format!("{:?}", p.body);
    for at in text.split("SectionRef { var: VarId(").skip(1) {
        let n = at[..at.find(')').unwrap()].parse().unwrap();
        *seen.entry(n).or_default() += 1;
    }
    seen
}

fn check(p: &Program) {
    assert_eq!(visited(p), printed(p), "{}", xdp_ir::pretty::program(p));
    // Every variable the program mentions, and one it does not.
    let mut names = vec!["i".to_string()];
    for s in &p.body {
        walk::visit(Node::Stmt(s), &mut |n| {
            if let Node::Int(IntExpr::Var(v)) = n {
                names.push(v.clone());
            }
        });
    }
    let fresh = build::iv("a_name_no_program_uses");
    for s in &p.body {
        for x in &names {
            assert_eq!(&s.subst(x, &build::iv(x)), s);
            let there = s.subst(x, &fresh);
            assert_eq!(&there.subst("a_name_no_program_uses", &build::iv(x)), s);
        }
    }
}

#[test]
fn the_walk_reaches_every_reference_of_500_generated_programs_and_the_corpus() {
    for seed in 1..=500 {
        check(&xdp_verify::executable_program(seed).program);
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../xdp-programs");
    let mut nested = 0;
    for entry in std::fs::read_dir(dir).unwrap() {
        let src = std::fs::read_to_string(entry.unwrap().path()).unwrap();
        let p = xdp_lang::parse_program(&src).unwrap();
        check(&p);
        // The corpus is where a reference stands inside another's subscript.
        let text = format!("{:?}", p.body);
        nested += text.matches("lb: MyLb(").count() + text.matches("Point(MyLb(").count();
        // Lowered and optimized, the generated temporaries and ghosts too.
        let auto = xdp_compiler::CompileOptions::default().with_seq(xdp_compiler::SeqMode::Auto);
        check(
            &xdp_compiler::compile_program(&p, &auto.optimized())
                .unwrap()
                .program,
        );
    }
    assert!(
        nested > 0,
        "no corpus program subscripts by mylb/myub any more"
    );
}

proptest! {
    #[test]
    fn the_walk_reaches_every_reference_of_a_syntactic_program(p in xdp_verify::gen::program()) {
        check(&p);
    }
}
