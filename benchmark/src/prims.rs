//! Primitives under the request stages: one number per call for the
//! operations a request performs thousands of times. The bodies are the
//! ones `crates/bench/benches/*` and `crates/vm/benches/vm_speed.rs`
//! hand to Criterion, timed here with `Instant` so that one command
//! records them next to the request-level numbers.
//!
//! Each figure is the minimum over `k` repetitions of a fixed batch:
//! on a shared two-core machine the minimum is the repetition that was
//! disturbed least. `bench.calib_ns` is one quantum of the host-speed
//! kernel ([`crate::calib`]), so a primitive can be read relative to the
//! machine it ran on.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xdp_core::{
    Action, AsyncConfig, AsyncExec, Interp, KernelRegistry, Processor, SimConfig, SimExec,
    ThreadConfig, ThreadExec,
};
use xdp_ir::build as b;
use xdp_ir::{DimDist, ElemType, ProcGrid, Program, Section, TransferKind, Triplet, VarId};
use xdp_machine::{CostModel, SimNet, ThreadNet, Topology};
use xdp_runtime::{Buffer, Complex, Msg, RtSymbolTable, Tag, Value};
use xdp_trace::{Trace, TraceConfig, TraceEvent, TraceKind};

/// Minimum over `k` repetitions of the time `batch` takes, divided by the
/// `calls` it makes: seconds per call.
fn min_per_call(k: usize, calls: u64, mut batch: impl FnMut()) -> f64 {
    let best = (0..k)
        .map(|_| {
            let t = Instant::now();
            batch();
            t.elapsed()
        })
        .min()
        .expect("k is at least 1");
    best.as_secs_f64() / calls as f64
}

fn ns(seconds: f64) -> f64 {
    seconds * 1e9
}

fn us(seconds: f64) -> f64 {
    seconds * 1e6
}

fn symtab_with_segments(n: i64, seg: i64) -> RtSymbolTable {
    let decls = vec![b::array_seg(
        "A",
        ElemType::F64,
        vec![(1, n)],
        vec![DimDist::Block],
        ProcGrid::linear(1),
        vec![seg],
    )];
    RtSymbolTable::build(0, &decls)
}

fn tag(k: i64) -> Tag {
    Tag::salted(VarId(0), Section::new(vec![Triplet::point(k)]), 0)
}

fn msg(k: i64) -> Msg {
    Msg {
        tag: tag(k),
        kind: TransferKind::Value,
        payload: Some(Buffer::zeros(ElemType::F64, 8).into()),
        src: 0,
    }
}

/// Every processor sends its element to the right neighbour and adds the
/// one arriving from the left: one message per processor, all in flight
/// at once.
fn ring_program(nprocs: usize) -> Arc<Program> {
    let hi = nprocs - 1;
    let src = format!(
        "real A[0:{hi}] distribute (BLOCK) onto {nprocs}\n\
         real T[0:{hi}] distribute (BLOCK) onto {nprocs}\n\
         A[mypid] ->\n\
         T[mypid] <- A[((mypid + {hi}) % {nprocs})]\n\
         await(T[mypid]) : {{ A[mypid] = (A[mypid] + T[mypid]) }}\n"
    );
    Arc::new(xdp_lang::parse_program(&src).expect("ring program parses"))
}

/// Steps of a communication-free program on one bare processor.
fn steps_to_done(mut p: impl Processor) -> u64 {
    let mut steps = 0;
    loop {
        steps += 1;
        match p.step().expect("local program steps").action {
            Action::Done => return steps,
            Action::Continue => {}
            other => panic!("local program asked for {other:?}"),
        }
    }
}

/// The primitives [`run`] reports, in its order; the suffix is the unit.
pub const NAMES: [&str; 18] = [
    "bench.calib_ns",
    "ir.triplet_intersect_ns",
    "ir.section_intersect_ns",
    "runtime.symtab_iown_ns",
    "runtime.symtab_mylb_ns",
    "runtime.ownership_transfer_ns",
    "machine.simnet_match_ns",
    "machine.threadnet_match_ns",
    "core.thread.ring64_us",
    "core.async.ring64_us",
    "core.interp.step_ns",
    "vm.step_ns",
    "metrics.hist_observe_ns",
    "metrics.counter_inc_ns",
    "trace.push_ns",
    "trace.critical_path_us",
    "fault.decide_ns",
    "apps.fft1d_us",
];

/// All primitives as `(metric name, value)`.
pub fn run(k: usize) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    const N: u64 = 20_000;

    // One quantum of the host-speed kernel the closed loop scales by.
    out.push((
        "bench.calib_ns",
        (0..k)
            .map(|_| crate::calib::quantum())
            .fold(f64::INFINITY, f64::min),
    ));

    // Section algebra.
    let (ta, tb) = (Triplet::new(2, 50_000, 6), Triplet::new(8, 40_000, 4));
    out.push(("ir.triplet_intersect_ns", {
        ns(min_per_call(k, N, || {
            for _ in 0..N {
                black_box(black_box(ta).intersect(black_box(&tb)));
            }
        }))
    }));
    let s1 = Section::new(vec![Triplet::range(1, 512), Triplet::new(2, 1024, 2)]);
    let s2 = Section::new(vec![Triplet::range(200, 700), Triplet::new(4, 900, 4)]);
    out.push(("ir.section_intersect_ns", {
        ns(min_per_call(k, N, || {
            for _ in 0..N {
                black_box(black_box(&s1).intersect(black_box(&s2)));
            }
        }))
    }));

    // Run-time symbol table: 1024 elements in 64 segments.
    let mut st = symtab_with_segments(1024, 16);
    let full = Section::new(vec![Triplet::range(1, 1024)]);
    out.push(("runtime.symtab_iown_ns", {
        ns(min_per_call(k, N, || {
            for _ in 0..N {
                black_box(st.iown(VarId(0), black_box(&full)));
            }
        }))
    }));
    out.push(("runtime.symtab_mylb_ns", {
        ns(min_per_call(k, N, || {
            for _ in 0..N {
                black_box(st.mylb(VarId(0), black_box(&full), 1));
            }
        }))
    }));
    let mut st = symtab_with_segments(256, 1);
    let point = Section::new(vec![Triplet::point(7)]);
    out.push(("runtime.ownership_transfer_ns", {
        ns(min_per_call(k, 2_000, || {
            for _ in 0..2_000 {
                let data = st.remove_ownership(VarId(0), &point).expect("owned");
                let sid = st.begin_ownership_recv(VarId(0), &point).expect("unowned");
                st.complete_ownership_recv(VarId(0), sid, Some(&data))
                    .expect("transitional");
            }
        }))
    }));

    // Rendezvous matching: 1000 sends, then 1000 receives that match them.
    out.push(("machine.simnet_match_ns", {
        ns(min_per_call(k, 1_000, || {
            let mut net = SimNet::new(4, CostModel::default_1993(), Topology::Uniform);
            for i in 0..1000 {
                net.post_send(msg(i), None, i as f64);
            }
            for i in 0..1000 {
                black_box(net.post_recv(tag(i), 1, i as f64, i as u64));
            }
        }))
    }));
    out.push(("machine.threadnet_match_ns", {
        ns(min_per_call(k, 1_000, || {
            let net = ThreadNet::new(2);
            for i in 0..1000 {
                net.send(msg(i), None);
            }
            for i in 0..1000 {
                black_box(net.recv(&tag(i), 1, Duration::from_secs(1)));
            }
        }))
    }));

    // A 64-processor ring on the two real-concurrency machines.
    let ring = ring_program(64);
    out.push(("core.thread.ring64_us", {
        us(min_per_call(k, 1, || {
            let mut exec = ThreadExec::new(
                ring.clone(),
                KernelRegistry::standard(),
                ThreadConfig::new(64),
            );
            exec.init_exclusive(VarId(0), |idx| Value::F64(idx[0] as f64));
            black_box(exec.run().expect("ring runs on threads"));
        }))
    }));
    out.push(("core.async.ring64_us", {
        us(min_per_call(k, 1, || {
            let mut exec = AsyncExec::new(
                ring.clone(),
                KernelRegistry::standard(),
                AsyncConfig::new(64),
            );
            exec.init_exclusive(VarId(0), |idx| Value::F64(idx[0] as f64));
            black_box(exec.run().expect("ring runs on tasks"));
        }))
    }));

    // One `Processor::step` on each backend, scalar element loop.
    let local = Arc::new(
        xdp_lang::parse_program(&crate::workloads::element_loop_source(64, 50))
            .expect("element loop parses"),
    );
    let kernels = KernelRegistry::standard();
    let steps = steps_to_done(Interp::new(local.clone(), kernels.clone(), 0, 4, true));
    out.push(("core.interp.step_ns", {
        ns(min_per_call(k, steps, || {
            black_box(steps_to_done(Interp::new(
                local.clone(),
                kernels.clone(),
                0,
                4,
                true,
            )));
        }))
    }));
    let vm = xdp_vm::VmProgram::compile(local.clone(), &kernels);
    out.push(("vm.step_ns", {
        ns(min_per_call(k, steps, || {
            black_box(steps_to_done(xdp_vm::VmProc::new(vm.clone(), 0, 4, true)));
        }))
    }));

    // Telemetry.
    let hist = xdp_metrics::Histogram::new();
    out.push(("metrics.hist_observe_ns", {
        ns(min_per_call(k, N, || {
            for i in 0..N {
                hist.observe(black_box(i * 37));
            }
        }))
    }));
    let registry = xdp_metrics::MetricsRegistry::new();
    let counter = registry.counter("bench_total", &[]);
    out.push(("metrics.counter_inc_ns", {
        ns(min_per_call(k, N, || {
            for _ in 0..N {
                black_box(&counter).inc();
            }
        }))
    }));
    out.push(("trace.push_ns", {
        ns(min_per_call(k, N, || {
            let mut trace = Trace::new(4);
            for i in 0..N {
                trace.push(TraceEvent::span(
                    TraceKind::Compute,
                    (i % 4) as usize,
                    i as f64,
                    i as f64 + 1.0,
                ));
            }
            black_box(trace);
        }))
    }));
    let traced = {
        let prog = Arc::new(
            xdp_lang::parse_program(include_str!("../../xdp-programs/simple.xdp"))
                .expect("simple.xdp parses"),
        );
        let mut exec = SimExec::new(
            prog,
            KernelRegistry::standard(),
            SimConfig::new(4).with_trace(TraceConfig::full()),
        );
        for o in 0..3 {
            exec.init_exclusive(VarId(o), |idx| Value::F64(idx[0] as f64));
        }
        exec.run().expect("simple.xdp runs").trace
    };
    let labels = HashMap::new();
    out.push(("trace.critical_path_us", {
        us(min_per_call(k, 20, || {
            for _ in 0..20 {
                black_box(traced.critical_path(&labels));
            }
        }))
    }));
    let injector = xdp_fault::Injector::new(
        xdp_fault::FaultPlan::parse("drop=0.1,dup=0.05,seed=9").expect("fault spec parses"),
    );
    out.push(("fault.decide_ns", {
        ns(min_per_call(k, N, || {
            for i in 0..N {
                black_box(injector.decide((i % 4) as usize, i, 0));
            }
        }))
    }));

    // Local FFT kernel, 256 points.
    let input: Vec<Complex> = (0..256)
        .map(|i| Complex::new((i as f64).sin(), 0.0))
        .collect();
    out.push(("apps.fft1d_us", {
        us(min_per_call(k, 200, || {
            for _ in 0..200 {
                let mut v = input.clone();
                xdp_apps::fft::fft1d_in_place(&mut v);
                black_box(v);
            }
        }))
    }));
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_primitive_reports_a_positive_time() {
        let got = super::run(1);
        for (name, value) in &got {
            assert!(*value > 0.0 && value.is_finite(), "{name} = {value}");
        }
        let names: Vec<&str> = got.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, super::NAMES);
    }
}
