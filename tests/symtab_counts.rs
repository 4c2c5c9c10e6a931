//! What a run counts, pinned. The simulator charges §3.1's run-time
//! symbol-table work as virtual time, so the queries each processor asks,
//! the segment descriptors it scans to answer them and its storage
//! high-water mark are part of what a program *does*, like its messages and
//! the fingerprint's memory, movement and section states — the last two
//! recorded both as a request records them (`TraceConfig::movement()`) and
//! as a flight recorder does (`full()`). How a query, an ownership transfer
//! or a fingerprint line is computed on the host may change; none of these
//! may.
//!
//! Rows cover the request mix of the benchmark's `exec-comm` workload
//! (redistribution round trip, transpose, `membound.xdp`, halo exchange,
//! written out here) and every `xdp-programs/` file, plain and optimized,
//! each on the simulator with the bytecode VM and with the interpreter.
//! The pins were recorded while every query still built a section per
//! segment it scanned. A deliberate change to what a program does re-pins
//! its rows.

use std::path::PathBuf;
use std::sync::Arc;
use xdp::prelude::*;
use xdp_compiler::{compile, Backend, CompileOptions, SeqMode};
use xdp_verify::{machine, Fingerprint};

/// BLOCK -> CYCLIC and back at N = 1024, P = 16.
const REDIST_ROUNDTRIP: &str = "real A[1:1024] distribute (BLOCK) onto 16\n\
     redistribute A (CYCLIC) onto 16\n\
     redistribute A (BLOCK) onto 16\n";

/// A 64 x 64 transpose of the distributed dimension.
const TRANSPOSE: &str = "real A[1:64,1:64] distribute (*,BLOCK) onto 16\n\
     redistribute A (BLOCK,*) onto 16\n";

/// Sixteen sweeps of a boundary-row exchange with both neighbours, then a
/// local update of the boundary rows.
const HALO: &str = "real U[1:64,1:32] distribute (BLOCK,*) onto 16\n\
     real GUP[0:15,1:32] distribute (BLOCK,*) onto 16\n\
     real GDN[0:15,1:32] distribute (BLOCK,*) onto 16\n\
     do t = 1, 16 {\n\
       mypid > 0 : { U[mylb(U[*,*], 1),*] -> }\n\
       mypid < 15 : { U[myub(U[*,*], 1),*] -> }\n\
       mypid > 0 : { GUP[mypid,*] <- U[(mylb(U[*,*], 1) - 1),*] }\n\
       mypid < 15 : { GDN[mypid,*] <- U[(myub(U[*,*], 1) + 1),*] }\n\
       (mypid > 0 && await(GUP[mypid,*])) : {\n\
         U[mylb(U[*,*], 1),2:31] = (0.5 * (U[mylb(U[*,*], 1),2:31] + GUP[mypid,2:31]))\n\
       }\n\
       (mypid < 15 && await(GDN[mypid,*])) : {\n\
         U[myub(U[*,*], 1),2:31] = (0.5 * (U[myub(U[*,*], 1),2:31] + GDN[mypid,2:31]))\n\
       }\n\
       barrier\n\
     }\n";

fn fnv1a<'a>(texts: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for text in texts {
        for b in text.bytes().chain([b'\n']) {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// (label, source, options) of every pinned program.
fn programs() -> Vec<(String, String, CompileOptions)> {
    let comm = CompileOptions::default();
    let mut out = vec![
        (
            "exec-comm/redist-roundtrip".into(),
            REDIST_ROUNDTRIP.into(),
            comm.clone(),
        ),
        (
            "exec-comm/transpose-64".into(),
            TRANSPOSE.into(),
            comm.clone(),
        ),
        (
            "exec-comm/membound".into(),
            include_str!("../xdp-programs/membound.xdp").into(),
            comm.clone(),
        ),
        ("exec-comm/halo-16".into(), HALO.into(), comm),
    ];
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("xdp-programs");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("xdp-programs/ exists")
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "xdp"))
        .collect();
    files.sort();
    let auto = CompileOptions::default().with_seq(SeqMode::Auto);
    for path in files {
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let source = std::fs::read_to_string(&path).unwrap();
        out.push((name.clone(), source.clone(), auto.clone()));
        out.push((format!("{name}+opt"), source, auto.clone().optimized()));
    }
    out
}

/// One run as a pinned row: per-processor symbol-table totals and their
/// digest, virtual time, messages, and the fingerprint's memory, movement
/// and state digests (or the error the run dies with); then the movement
/// and state digests of the same run recorded by the flight recorder's
/// `TraceConfig::full()`.
fn row(label: &str, backend: Backend, program: &Arc<Program>, nprocs: usize) -> String {
    let run = |trace: TraceConfig| {
        let cfg = MachineConfig::new(nprocs).with_trace(trace);
        let mut exec = machine(
            MachineKind::Sim,
            backend,
            program.clone(),
            xdp_apps::app_kernels(),
            cfg,
        );
        Fingerprint::of_run(exec.as_mut(), &program.decls)
    };
    let tag = format!("{label} {backend:?}");
    let (fp, report) = match run(TraceConfig::movement()) {
        Ok(run) => run,
        Err(e) => return format!("{tag} error {:016x}", fnv1a([e.to_string().as_str()])),
    };
    let (full, _) = run(TraceConfig::full()).unwrap_or_else(|e| panic!("{tag} under full(): {e}"));
    let per_proc: Vec<String> = report
        .procs
        .iter()
        .map(|p| {
            let s = p.symtab;
            format!("{} {} {}", s.queries, s.segments_scanned, s.peak_bytes)
        })
        .collect();
    let total = |f: fn(&xdp_runtime::symtab::SymtabStats) -> u64| -> u64 {
        report.procs.iter().map(|p| f(&p.symtab)).sum()
    };
    format!(
        "{tag} q={} scanned={} peak={} procs={:016x} vt={:?} msgs={} mem={:016x} mov={:016x} \
         states={:016x} full.mov={:016x} full.states={:016x}",
        total(|s| s.queries),
        total(|s| s.segments_scanned),
        total(|s| s.peak_bytes),
        fnv1a(per_proc.iter().map(String::as_str)),
        report.virtual_time,
        fp.messages,
        fnv1a(fp.memory_all().iter().map(String::as_str)),
        fnv1a(fp.movement.lines().iter().map(String::as_str)),
        fnv1a(fp.states.lines().iter().map(String::as_str)),
        fnv1a(full.movement.lines().iter().map(String::as_str)),
        fnv1a(full.states.lines().iter().map(String::as_str)),
    )
}

#[test]
fn symtab_work_virtual_time_and_fingerprint_are_pinned() {
    let mut got = Vec::new();
    for (label, source, opts) in programs() {
        let compiled =
            compile(&source, &opts).unwrap_or_else(|e| panic!("{label}: compile failed: {e}"));
        for backend in [Backend::Vm, Backend::Interp] {
            got.push(row(&label, backend, &compiled.program, compiled.nprocs));
        }
    }
    let want: Vec<&str> = PINS.lines().map(str::trim).collect();
    let moved: Vec<&String> = got
        .iter()
        .filter(|row| !want.contains(&row.as_str()))
        .collect();
    assert!(
        got == want,
        "rows that moved: {moved:#?}\nfull table:\n{}",
        got.join("\n")
    );
}

const PINS: &str = "\
    exec-comm/redist-roundtrip Vm q=1440 scanned=113760 peak=8192 procs=3709fd4c9b235965 vt=1510.5000000000025 msgs=480 mem=b94b9f254da7f0eb mov=b5d9c2915b5c5b95 states=7ad39757cbf42fb1 full.mov=b5d9c2915b5c5b95 full.states=7ad39757cbf42fb1
    exec-comm/redist-roundtrip Interp q=1440 scanned=113760 peak=8192 procs=3709fd4c9b235965 vt=1510.5000000000025 msgs=480 mem=b94b9f254da7f0eb mov=b5d9c2915b5c5b95 states=7ad39757cbf42fb1 full.mov=b5d9c2915b5c5b95 full.states=7ad39757cbf42fb1
    exec-comm/transpose-64 Vm q=784 scanned=24304 peak=32768 procs=c25df7a4ebcc16b5 vt=701.3500000000003 msgs=240 mem=4ad11a1305a0117b mov=3b0d5de160ab0f77 states=86c4a3bf1f490b2b full.mov=3b0d5de160ab0f77 full.states=86c4a3bf1f490b2b
    exec-comm/transpose-64 Interp q=784 scanned=24304 peak=32768 procs=c25df7a4ebcc16b5 vt=701.3500000000003 msgs=240 mem=4ad11a1305a0117b mov=3b0d5de160ab0f77 states=86c4a3bf1f490b2b full.mov=3b0d5de160ab0f77 full.states=86c4a3bf1f490b2b
    exec-comm/membound Vm q=1986 scanned=46723 peak=70656 procs=a2f5a3f03d748f91 vt=1550.6499999999915 msgs=133 mem=8070fd6ce06f140f mov=6b15c54314f092ed states=df4ed423699ab1d3 full.mov=6b15c54314f092ed full.states=df4ed423699ab1d3
    exec-comm/membound Interp q=1986 scanned=46723 peak=70656 procs=a2f5a3f03d748f91 vt=1550.6499999999915 msgs=133 mem=8070fd6ce06f140f mov=6b15c54314f092ed states=df4ed423699ab1d3 full.mov=6b15c54314f092ed full.states=df4ed423699ab1d3
    exec-comm/halo-16 Vm q=3824 scanned=1904 peak=24576 procs=7dadba7e170edaad vt=3267.199999999997 msgs=480 mem=f5d75a04e9401cd0 mov=208d6fc43031bdc5 states=605ca3d3596914c5 full.mov=208d6fc43031bdc5 full.states=605ca3d3596914c5
    exec-comm/halo-16 Interp q=3824 scanned=1904 peak=24576 procs=7dadba7e170edaad vt=3267.199999999997 msgs=480 mem=f5d75a04e9401cd0 mov=208d6fc43031bdc5 states=605ca3d3596914c5 full.mov=208d6fc43031bdc5 full.states=605ca3d3596914c5
    fft3d Vm q=100 scanned=400 peak=1024 procs=97be45aad2c2a4a1 vt=259.1 msgs=16 mem=027f1334e24cab1e mov=07f7b501b9f28b35 states=3d8958065e801cdd full.mov=07f7b501b9f28b35 full.states=3d8958065e801cdd
    fft3d Interp q=100 scanned=400 peak=1024 procs=97be45aad2c2a4a1 vt=259.1 msgs=16 mem=027f1334e24cab1e mov=07f7b501b9f28b35 states=3d8958065e801cdd full.mov=07f7b501b9f28b35 full.states=3d8958065e801cdd
    fft3d+opt Vm q=68 scanned=272 peak=1024 procs=a5799a215b4ec7ed vt=253.50000000000003 msgs=16 mem=027f1334e24cab1e mov=711a2be278d7d635 states=3d8958065e801cdd full.mov=711a2be278d7d635 full.states=3d8958065e801cdd
    fft3d+opt Interp q=68 scanned=272 peak=1024 procs=a5799a215b4ec7ed vt=253.50000000000003 msgs=16 mem=027f1334e24cab1e mov=711a2be278d7d635 states=3d8958065e801cdd full.mov=711a2be278d7d635 full.states=3d8958065e801cdd
    jacobi2d Vm q=204 scanned=44 peak=1920 procs=4a23f7c4f231e64d vt=357.20000000000005 msgs=12 mem=5f7536e2c8330f95 mov=6c094d8b9bc0016d states=dd49fcbe40a87e15 full.mov=6c094d8b9bc0016d full.states=dd49fcbe40a87e15
    jacobi2d Interp q=204 scanned=44 peak=1920 procs=4a23f7c4f231e64d vt=357.20000000000005 msgs=12 mem=5f7536e2c8330f95 mov=6c094d8b9bc0016d states=dd49fcbe40a87e15 full.mov=6c094d8b9bc0016d full.states=dd49fcbe40a87e15
    jacobi2d+opt Vm q=204 scanned=44 peak=1920 procs=4a23f7c4f231e64d vt=357.20000000000005 msgs=12 mem=5f7536e2c8330f95 mov=6c094d8b9bc0016d states=dd49fcbe40a87e15 full.mov=6c094d8b9bc0016d full.states=dd49fcbe40a87e15
    jacobi2d+opt Interp q=204 scanned=44 peak=1920 procs=4a23f7c4f231e64d vt=357.20000000000005 msgs=12 mem=5f7536e2c8330f95 mov=6c094d8b9bc0016d states=dd49fcbe40a87e15 full.mov=6c094d8b9bc0016d full.states=dd49fcbe40a87e15
    membound Vm q=1986 scanned=46723 peak=70656 procs=a2f5a3f03d748f91 vt=1550.6499999999915 msgs=133 mem=8070fd6ce06f140f mov=6b15c54314f092ed states=df4ed423699ab1d3 full.mov=6b15c54314f092ed full.states=df4ed423699ab1d3
    membound Interp q=1986 scanned=46723 peak=70656 procs=a2f5a3f03d748f91 vt=1550.6499999999915 msgs=133 mem=8070fd6ce06f140f mov=6b15c54314f092ed states=df4ed423699ab1d3 full.mov=6b15c54314f092ed full.states=df4ed423699ab1d3
    membound+opt Vm q=994 scanned=34947 peak=70656 procs=ed909c1972de779d vt=1403.8499999999901 msgs=133 mem=8070fd6ce06f140f mov=07fe130e82fdd731 states=df4ed423699ab1d3 full.mov=07fe130e82fdd731 full.states=df4ed423699ab1d3
    membound+opt Interp q=994 scanned=34947 peak=70656 procs=ed909c1972de779d vt=1403.8499999999901 msgs=133 mem=8070fd6ce06f140f mov=07fe130e82fdd731 states=df4ed423699ab1d3 full.mov=07fe130e82fdd731 full.states=df4ed423699ab1d3
    migration Vm q=236 scanned=940 peak=304 procs=7fe0faeca33af884 vt=719.9000000000004 msgs=16 mem=54893e416e51a14f mov=b1e44705c7c6745d states=3c6b735598f63e91 full.mov=b1e44705c7c6745d full.states=3c6b735598f63e91
    migration Interp q=236 scanned=940 peak=304 procs=7fe0faeca33af884 vt=719.9000000000004 msgs=16 mem=54893e416e51a14f mov=b1e44705c7c6745d states=3c6b735598f63e91 full.mov=b1e44705c7c6745d full.states=3c6b735598f63e91
    migration+opt Vm q=236 scanned=940 peak=304 procs=7fe0faeca33af884 vt=719.9000000000004 msgs=16 mem=54893e416e51a14f mov=b1e44705c7c6745d states=3c6b735598f63e91 full.mov=b1e44705c7c6745d full.states=3c6b735598f63e91
    migration+opt Interp q=236 scanned=940 peak=304 procs=7fe0faeca33af884 vt=719.9000000000004 msgs=16 mem=54893e416e51a14f mov=b1e44705c7c6745d states=3c6b735598f63e91 full.mov=b1e44705c7c6745d full.states=3c6b735598f63e91
    pipeline Vm q=13 scanned=52 peak=6144 procs=42167277a00045ab vt=2844.8 msgs=4 mem=0044f91d77e95caf mov=4af9ec6d17dbdce9 states=9f75db608893cb17 full.mov=4af9ec6d17dbdce9 full.states=9f75db608893cb17
    pipeline Interp q=13 scanned=52 peak=6144 procs=42167277a00045ab vt=2844.8 msgs=4 mem=0044f91d77e95caf mov=4af9ec6d17dbdce9 states=9f75db608893cb17 full.mov=4af9ec6d17dbdce9 full.states=9f75db608893cb17
    pipeline+opt Vm q=13 scanned=52 peak=6144 procs=42167277a00045ab vt=2844.8 msgs=4 mem=0044f91d77e95caf mov=4af9ec6d17dbdce9 states=9f75db608893cb17 full.mov=4af9ec6d17dbdce9 full.states=9f75db608893cb17
    pipeline+opt Interp q=13 scanned=52 peak=6144 procs=42167277a00045ab vt=2844.8 msgs=4 mem=0044f91d77e95caf mov=4af9ec6d17dbdce9 states=9f75db608893cb17 full.mov=4af9ec6d17dbdce9 full.states=9f75db608893cb17
    remap Vm q=208 scanned=8112 peak=2048 procs=44ab638cb3b10215 vt=312.0499999999999 msgs=56 mem=3546dbb6b3c09539 mov=90e2daff9aec44dd states=80a9430ae50089d9 full.mov=90e2daff9aec44dd full.states=80a9430ae50089d9
    remap Interp q=208 scanned=8112 peak=2048 procs=44ab638cb3b10215 vt=312.0499999999999 msgs=56 mem=3546dbb6b3c09539 mov=90e2daff9aec44dd states=80a9430ae50089d9 full.mov=90e2daff9aec44dd full.states=80a9430ae50089d9
    remap+opt Vm q=208 scanned=8112 peak=2048 procs=44ab638cb3b10215 vt=312.0499999999999 msgs=56 mem=3546dbb6b3c09539 mov=90e2daff9aec44dd states=80a9430ae50089d9 full.mov=90e2daff9aec44dd full.states=80a9430ae50089d9
    remap+opt Interp q=208 scanned=8112 peak=2048 procs=44ab638cb3b10215 vt=312.0499999999999 msgs=56 mem=3546dbb6b3c09539 mov=90e2daff9aec44dd states=80a9430ae50089d9 full.mov=90e2daff9aec44dd full.states=80a9430ae50089d9
    seq_sum Vm q=183 scanned=183 peak=288 procs=6c559627abcc9a3b vt=813.3999999999997 msgs=16 mem=11e96041c69d047f mov=5898b5695fd5b6c1 states=2724c75a1ac7f97b full.mov=5898b5695fd5b6c1 full.states=2724c75a1ac7f97b
    seq_sum Interp q=183 scanned=183 peak=288 procs=6c559627abcc9a3b vt=813.3999999999997 msgs=16 mem=11e96041c69d047f mov=5898b5695fd5b6c1 states=2724c75a1ac7f97b full.mov=5898b5695fd5b6c1 full.states=2724c75a1ac7f97b
    seq_sum+opt Vm q=172 scanned=512 peak=416 procs=397872e74ba3b169 vt=189.79999999999998 msgs=12 mem=ecb0e13f50b21003 mov=578dee2610179755 states=7af646d392eff0fb full.mov=578dee2610179755 full.states=7af646d392eff0fb
    seq_sum+opt Interp q=172 scanned=512 peak=416 procs=397872e74ba3b169 vt=189.79999999999998 msgs=12 mem=ecb0e13f50b21003 mov=578dee2610179755 states=7af646d392eff0fb full.mov=578dee2610179755 full.states=7af646d392eff0fb
    simple Vm q=183 scanned=183 peak=288 procs=6c559627abcc9a3b vt=811.8999999999997 msgs=16 mem=f3fa12e5a2e098f3 mov=5898b5695fd5b6c1 states=2724c75a1ac7f97b full.mov=5898b5695fd5b6c1 full.states=2724c75a1ac7f97b
    simple Interp q=183 scanned=183 peak=288 procs=6c559627abcc9a3b vt=811.8999999999997 msgs=16 mem=f3fa12e5a2e098f3 mov=5898b5695fd5b6c1 states=2724c75a1ac7f97b full.mov=5898b5695fd5b6c1 full.states=2724c75a1ac7f97b
    simple+opt Vm q=172 scanned=512 peak=416 procs=397872e74ba3b169 vt=189.79999999999998 msgs=12 mem=873b0fe49e6770f7 mov=578dee2610179755 states=7af646d392eff0fb full.mov=578dee2610179755 full.states=7af646d392eff0fb
    simple+opt Interp q=172 scanned=512 peak=416 procs=397872e74ba3b169 vt=189.79999999999998 msgs=12 mem=873b0fe49e6770f7 mov=578dee2610179755 states=7af646d392eff0fb full.mov=578dee2610179755 full.states=7af646d392eff0fb
    twophase Vm q=552 scanned=3096 peak=32768 procs=560423a2a4ae9f8d vt=1110.450000000003 msgs=12 mem=2194cf5b4f985171 mov=f82fa102002f5a6b states=70417a907b5f7a59 full.mov=f82fa102002f5a6b full.states=70417a907b5f7a59
    twophase Interp q=552 scanned=3096 peak=32768 procs=560423a2a4ae9f8d vt=1110.450000000003 msgs=12 mem=2194cf5b4f985171 mov=f82fa102002f5a6b states=70417a907b5f7a59 full.mov=f82fa102002f5a6b full.states=70417a907b5f7a59
    twophase+opt Vm q=56 scanned=280 peak=32768 procs=9e6647c07182b765 vt=1003.6500000000013 msgs=12 mem=2194cf5b4f985171 mov=8a04d75d70b9166f states=70417a907b5f7a59 full.mov=8a04d75d70b9166f full.states=70417a907b5f7a59
    twophase+opt Interp q=56 scanned=280 peak=32768 procs=9e6647c07182b765 vt=1003.6500000000013 msgs=12 mem=2194cf5b4f985171 mov=8a04d75d70b9166f states=70417a907b5f7a59 full.mov=8a04d75d70b9166f full.states=70417a907b5f7a59";
