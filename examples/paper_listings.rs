//! The paper's listings, parsed from their concrete syntax and executed.
//!
//! Two adaptations from the 1993 text, both noted in DESIGN.md: processor
//! ids are 0-based (`T[mypid]` with `T[0:3]`), and the paper's 1-based
//! processor grid means its `A[*,n,p]` FFT subscripts stay as written
//! because the loop variable `p` ranges over plane indices, not pids.
//!
//! ```text
//! cargo run --example paper_listings
//! ```

use std::sync::Arc;
use xdp::prelude::*;
use xdp_apps::fft3d::{cube_ordinal, input_cube};
use xdp_lang::parse_program;
use xdp_runtime::Complex;

/// §2.2, first listing: the straightforward owner-computes translation.
const SIMPLE: &str = r#"
real A[1:16] distribute (BLOCK) onto 4
real B[1:16] distribute (BLOCK) onto 4
real T[0:3] distribute (BLOCK) onto 4 segment (1)

do i = 1, 16
  iown(B[i]) : { B[i] -> }
  iown(A[i]) : {
    T[mypid] <- B[i]
    await(T[mypid]) : { A[i] = A[i] + T[mypid] }
  }
enddo
"#;

/// §2.2, second listing: the ownership-migration strategy.
const MIGRATE: &str = r#"
real A[1:16] distribute (BLOCK) onto 4 segment (1)
real B[1:16] distribute (CYCLIC) onto 4

do i = 1, 16
  iown(A[i]) : { A[i] -=> }
  iown(B[i]) : { A[i] <=- }
  await(A[i]) : { A[i] = A[i] + B[i] }
enddo
"#;

/// §4, first listing: the 3-D FFT with ownership redistribution
/// (4x4x4 on 4 processors — one plane each, exactly as printed).
const FFT: &str = r#"
complex A[1:4,1:4,1:4] distribute (*,*,BLOCK) onto 4 segment (4,1,1)

// Loop1: 1-D FFT in the j direction
do k = 1, 4
  iown(A[*,*,k]) : {
    do i = 1, 4
      fft1d(A[i,*,k])
    enddo
  }
enddo
// Loop2: 1-D FFT in the i direction
do k = 1, 4
  iown(A[*,*,k]) : {
    do j = 1, 4
      fft1d(A[*,j,k])
    enddo
  }
enddo
// Loop3: Redistribute A as (*,BLOCK,*)
do p = 1, 4
  iown(A[*,*,p]) : {
    do n = 1, 4
      A[*,n,p] -=>
    enddo
    do n = 1, 4
      A[*,p,n] <=-
    enddo
  }
enddo
// Loop4: 1-D FFT in the k direction
do j = 1, 4
  await(A[*,j,*]) : {
    do i = 1, 4
      fft1d(A[i,j,*])
    enddo
  }
enddo
"#;

fn main() {
    // ---- §2.2 owner-computes --------------------------------------------
    println!("==== §2.2 listing 1: owner-computes translation ====\n");
    let p = parse_program(SIMPLE).expect("parse simple");
    let a = p.lookup("A").unwrap();
    let b = p.lookup("B").unwrap();
    let mut exec = SimExec::new(
        Arc::new(p),
        KernelRegistry::standard(),
        MachineConfig::new(4),
    );
    exec.init_exclusive(a, |idx| Value::F64(idx[0] as f64));
    exec.init_exclusive(b, |idx| Value::F64(100.0 * idx[0] as f64));
    let r = exec.run().expect("simple");
    let g = exec.gather(a);
    for i in 1..=16 {
        assert_eq!(g.get(&[i]).unwrap().as_f64(), 101.0 * i as f64);
    }
    println!(
        "verified A[i] = A[i] + B[i] for all i; {} messages, t = {:.1}\n",
        r.net.messages, r.virtual_time
    );

    // ---- §2.2 ownership migration ----------------------------------------
    println!("==== §2.2 listing 2: ownership migration ====\n");
    let p = parse_program(MIGRATE).expect("parse migrate");
    let a = p.lookup("A").unwrap();
    let b = p.lookup("B").unwrap();
    let mut exec = SimExec::new(
        Arc::new(p),
        KernelRegistry::standard(),
        MachineConfig::new(4),
    );
    exec.init_exclusive(a, |idx| Value::F64(idx[0] as f64));
    exec.init_exclusive(b, |idx| Value::F64(100.0 * idx[0] as f64));
    let r = exec.run().expect("migrate");
    let g = exec.gather(a);
    for i in 1..=16i64 {
        assert_eq!(g.get(&[i]).unwrap().as_f64(), 101.0 * i as f64);
        assert_eq!(
            g.owner(&[i]),
            Some(((i - 1) % 4) as usize),
            "A[{i}] follows B"
        );
    }
    println!("verified results AND that A's ownership now follows B (cyclic);");
    println!(
        "{} ownership transfers, t = {:.1}\n",
        r.net.messages, r.virtual_time
    );

    // ---- §4 3-D FFT -------------------------------------------------------
    println!("==== §4 listing: 3-D FFT with redistribution ====\n");
    let p = parse_program(FFT).expect("parse fft");
    let a = p.lookup("A").unwrap();
    let n = 4i64;
    let input = input_cube(n, 99);
    let mut expect: Vec<Complex> = input.clone();
    xdp_apps::fft3d_seq(&mut expect, n as usize);
    let mut exec = SimExec::new(Arc::new(p), xdp_apps::app_kernels(), MachineConfig::new(4));
    exec.init_exclusive(a, |idx| Value::C64(input[cube_ordinal(n, idx)]));
    let r = exec.run().expect("fft");
    let g = exec.gather(a);
    let mut max_err: f64 = 0.0;
    for i in 1..=n {
        for j in 1..=n {
            for k in 1..=n {
                let got = g.get(&[i, j, k]).unwrap().as_c64();
                let want = expect[cube_ordinal(n, &[i, j, k])];
                max_err = max_err.max((got - want).abs());
            }
        }
    }
    assert!(max_err < 1e-9);
    println!(
        "verified against sequential 3-D FFT (max error {max_err:.2e});\n\
         {} column transfers, t = {:.1}",
        r.net.messages, r.virtual_time
    );
}
