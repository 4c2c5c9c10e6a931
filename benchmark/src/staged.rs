//! One request performed stage by stage from the benchmark's own code,
//! with a span around every call into a layer.
//!
//! The stages are the ones `xdp_serve::pool` runs inside `run_one`, in
//! its order and with its configuration; [`crate::layers`] asserts that
//! the fingerprint produced here equals the one `run_one` returns, so the
//! staged path is the pool's path and not a lookalike.

use crate::spans::Recorder;
use std::sync::Arc;
use xdp_compiler::Backend;
use xdp_core::{AsyncConfig, AsyncExec, SimConfig, SimExec};
use xdp_ir::VarId;
use xdp_runtime::{SymtabStats, Value};
use xdp_serve::{CompileCache, PoolMachine, RequestSpec};
use xdp_trace::{Trace, TraceConfig};
use xdp_verify::Fingerprint;
use xdp_vm::{VmProc, VmProgram};

/// Work counted during one run, from its report.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub msgs: u64,
    pub wire_bytes: u64,
    pub redist_peak_bytes: u64,
    pub symtab_queries: u64,
    pub segments_scanned: u64,
    /// Largest per-processor storage high-water mark.
    pub peak_bytes: u64,
    pub trace_events: u64,
}

pub struct Staged {
    pub fingerprint: Fingerprint,
    pub counts: Counts,
}

/// `pool::init_value`: element `idx` of declaration ordinal `o` starts as
/// an integer that depends on both.
fn init_value(o: usize, idx: &[i64]) -> Value {
    let mut v = (o as i64 + 1) * 1000;
    for (k, x) in idx.iter().enumerate() {
        v += x * (k as i64 + 1);
    }
    Value::F64(v as f64)
}

fn counts(net: &xdp_machine::NetStats, symtab: &[SymtabStats], trace: &Trace) -> Counts {
    Counts {
        msgs: net.messages,
        wire_bytes: net.wire_bytes,
        redist_peak_bytes: net.redist_peak_bytes,
        symtab_queries: symtab.iter().map(|s| s.queries).sum(),
        segments_scanned: symtab.iter().map(|s| s.segments_scanned).sum(),
        peak_bytes: symtab.iter().map(|s| s.peak_bytes).max().unwrap_or(0),
        trace_events: trace.events.len() as u64,
    }
}

/// Init, run, gather and fingerprint on a built machine: the body of
/// `pool::finish_run` / `finish_run_tasks` with a span per stage. The two
/// machines share method names but no trait, hence a macro.
macro_rules! finish {
    ($rec:ident, $root:ident, $cached:ident, $exec:ident, $run_span:expr, $report:ident => $symtab:expr) => {{
        let decls = &$cached.compiled.program.decls;
        $rec.time("core.init", $root, || {
            for o in 0..decls.len() {
                $exec.init_exclusive(VarId(o as u32), move |idx| init_value(o, idx));
            }
        });
        let $report = $rec
            .time($run_span, $root, || $exec.run())
            .map_err(|e| format!("run: {e}"))?;
        let gathered = $rec.time("core.gather", $root, || {
            (0..decls.len())
                .map(|o| $exec.gather(VarId(o as u32)))
                .collect::<Vec<_>>()
        });
        let mut fp = Fingerprint::default();
        $rec.time("verify.fingerprint", $root, || {
            for (d, g) in decls.iter().zip(&gathered) {
                fp.record_memory(&d.name, g);
            }
            fp.record_trace(&$report.trace);
            fp.messages = $report.net.messages;
        });
        let symtab: Vec<SymtabStats> = $symtab;
        (fp, counts(&$report.net, &symtab, &$report.trace))
    }};
}

fn vm_procs(prog: &Arc<VmProgram>, nprocs: usize, checked: bool) -> Vec<VmProc> {
    (0..nprocs)
        .map(|pid| VmProc::new(prog.clone(), pid, nprocs, checked))
        .collect()
}

/// Perform one request under the root span `root`. `cold` requests take
/// the cache's miss path and warm ones must hit.
pub fn request(
    rec: &mut Recorder,
    root: usize,
    cache: &mut CompileCache,
    spec: &RequestSpec,
    machine: PoolMachine,
    cold: bool,
) -> Result<Staged, String> {
    let cached = if cold {
        rec.time("serve.cache_miss", root, || cache.get_or_compile(spec))
            .map_err(|e| e.to_string())
            .and_then(|(c, hit)| {
                if hit {
                    Err("expected a miss".into())
                } else {
                    Ok(c)
                }
            })?
    } else {
        rec.time("serve.cache_hit", root, || cache.lookup(spec))
            .ok_or("expected a cache hit")?
    };
    let compiled = &cached.compiled;
    let program = compiled.program.clone();
    let n = compiled.nprocs;
    let trace = TraceConfig::full();

    let (fingerprint, counts) = match machine {
        PoolMachine::Sim => {
            let mut cfg = SimConfig::new(n).with_trace(trace);
            cfg.cost.mem_budget = compiled.mem_budget;
            let symtab = |r: &xdp_core::ExecReport| r.procs.iter().map(|p| p.symtab).collect();
            match compiled.backend {
                Backend::Interp => {
                    let mut exec = rec.time("core.build", root, || {
                        SimExec::new(program, xdp_apps::app_kernels(), cfg)
                    });
                    finish!(rec, root, cached, exec, "core.interp.run", report => symtab(&report))
                }
                Backend::Vm => {
                    let kernels = rec.time("core.build", root, xdp_apps::app_kernels);
                    let prog =
                        rec.time("vm.compile", root, || VmProgram::compile(program, &kernels));
                    let mut exec = rec.time("core.build", root, || {
                        SimExec::from_procs(vm_procs(&prog, n, cfg.checked), cfg)
                    });
                    finish!(rec, root, cached, exec, "vm.run", report => symtab(&report))
                }
            }
        }
        PoolMachine::Tasks => {
            let cfg = AsyncConfig::new(n).with_trace(trace);
            match compiled.backend {
                Backend::Interp => {
                    let mut exec = rec.time("core.build", root, || {
                        AsyncExec::new(program, xdp_apps::app_kernels(), cfg)
                    });
                    finish!(rec, root, cached, exec, "core.async.run", report => report.symtab.clone())
                }
                Backend::Vm => {
                    let kernels = rec.time("core.build", root, xdp_apps::app_kernels);
                    let prog =
                        rec.time("vm.compile", root, || VmProgram::compile(program, &kernels));
                    let mut exec = rec.time("core.build", root, || {
                        AsyncExec::from_procs(vm_procs(&prog, n, cfg.checked), cfg)
                    });
                    finish!(rec, root, cached, exec, "core.async.run", report => report.symtab.clone())
                }
            }
        }
    };
    Ok(Staged {
        fingerprint,
        counts,
    })
}
