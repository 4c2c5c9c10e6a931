//! The traced run: per-layer numbers for one workload.
//!
//! One request at a time, except for the open-loop rows. Four sources; the
//! prefix of a metric's name is the crate that does the work:
//!
//! * spans the benchmark records around its own calls into each crate
//!   ([`crate::staged`] for the request stages, the compile probes here);
//! * the pool's own registry, the counters production exposes;
//! * work counts from run reports, exact from run to run;
//! * primitives ([`crate::prims`]) and the open-loop curve
//!   ([`crate::openloop`]).
//!
//! Host time and the modelled machine's virtual time never share a row.

use crate::spans::{self_times_ns, Recorder};
use crate::staged::{self, Counts};
use crate::stats;
use crate::verify::{check, Ready};
use crate::workloads::CACHE_CAPACITY;
use crate::{metric, openloop, prims};
use serde_json::{Map, Value as Json};
use std::collections::BTreeMap;
use std::time::Instant;
use xdp_collectives::plan;
use xdp_ir::Stmt;
use xdp_machine::{CostModel, Topology};
use xdp_serve::{CompileCache, PoolMachine, ServePool};
use xdp_verify::Fingerprint;

const PASSES: [&str; 6] = [
    "elide-same-owner-comm",
    "vectorize-messages",
    "localize-bounds",
    "bind-communication",
    "elide-accessible-checks",
    "auto-place",
];

/// Request-stage spans, in `pool::execute` order.
const STAGES: [&str; 10] = [
    "serve.cache_hit",
    "serve.cache_miss",
    "vm.compile",
    "core.build",
    "core.init",
    "core.interp.run",
    "vm.run",
    "core.async.run",
    "core.gather",
    "verify.fingerprint",
];
const RUN_STAGES: [&str; 3] = ["core.interp.run", "vm.run", "core.async.run"];
const COMPILE_STAGES: [&str; 2] = ["serve.cache_miss", "vm.compile"];
const PROBES: [&str; 4] = [
    "lang.parse",
    "compiler.compile",
    "place.optimize",
    "collectives.plan",
];
const OPEN_RATES: [&str; 3] = ["r25", "r50", "r75"];

/// Every per-layer metric and its unit, the list `BENCHMARK.json` carries.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut push = |name: String, unit| out.push((name, unit));
    for s in PROBES {
        push(format!("{s}_us"), "us");
    }
    for p in PASSES {
        push(format!("compiler.pass.{p}_us"), "us");
    }
    for s in STAGES {
        push(format!("{s}_us"), "us");
    }
    for (name, unit) in [
        ("serve.overhead_us", "us"),
        ("core.run_ns_per_event", "ns"),
        ("bench.run_one_us", "us"),
        ("bench.trace_overhead_pct", "%"),
        ("serve.resolve_us", "us"),
        ("serve.execute_us", "us"),
        ("serve.cache_hits", "count"),
        ("serve.cache_misses", "count"),
        ("serve.cache_evictions", "count"),
        ("serve.hit_ratio", "ratio"),
        ("machine.msgs", "count"),
        ("machine.wire_bytes", "count"),
        ("machine.redist_peak_bytes", "count"),
        ("runtime.symtab_queries", "count"),
        ("runtime.segments_scanned", "count"),
        ("runtime.peak_bytes", "count"),
        ("trace.events", "count"),
        ("compiler.ir_nodes_out", "count"),
        ("model.virtual_us", "virt_us"),
        ("model.wire_msgs", "count"),
    ] {
        push(name.to_string(), unit);
    }
    for name in prims::NAMES {
        let unit = if name.ends_with("_ns") { "ns" } else { "us" };
        push(name.to_string(), unit);
    }
    for r in OPEN_RATES {
        push(format!("serve.open.{r}.p50_ms"), "ms");
        push(format!("serve.open.{r}.p99_ms"), "ms");
        push(format!("serve.open.{r}.late_max_ms"), "ms");
        push(format!("serve.open.{r}.depth_max"), "count");
    }
    out
}

pub struct LayerReport {
    pub metrics: Map<String, Json>,
    pub attempted: u64,
    pub failed: u64,
}

/// Does the staged run observe what `run_one` observed? On the simulator
/// every line must agree. On the task machine section-state instants
/// depend on real interleaving, so memory, movement and message count
/// are compared.
fn same_observation(machine: PoolMachine, a: &Fingerprint, b: &Fingerprint) -> bool {
    match machine {
        PoolMachine::Sim => a == b,
        PoolMachine::Tasks => {
            a.memory == b.memory && a.movement == b.movement && a.messages == b.messages
        }
    }
}

struct Tally {
    m: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
    next_id: u64,
}

impl Tally {
    fn set(&mut self, name: impl Into<String>, value: f64) {
        // An empty sum is -0.0; adding 0.0 prints it as 0.
        self.m.insert(name.into(), value + 0.0);
    }

    /// Request ids of the traced run, clear of the closed loop's.
    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }
}

/// What the request pass found for each distinct program.
struct Passes {
    /// Median untraced `run_one` time, microseconds.
    run_one_us: Vec<f64>,
    /// `(program, root span)` of every staged request.
    roots: Vec<(usize, usize)>,
    counts: Vec<Counts>,
}

/// Every request twice, single client: untraced through a pool of its
/// own (the base, and the registry rows), then stage by stage with one
/// span per call into a layer. The two alternate request by request, so
/// that a disturbance of the host falls on both.
fn request_passes(
    ready: &Ready,
    rounds: usize,
    rec: &mut Recorder,
    t: &mut Tally,
) -> Result<Passes, String> {
    let w = &ready.workload;
    let solo = ServePool::new(1, CACHE_CAPACITY).with_machine(w.machine);
    let mut cache = CompileCache::new(CACHE_CAPACITY);
    if !w.cold {
        // Fill both caches; these misses are not timed.
        for (k, p) in w.progs.iter().enumerate() {
            t.attempted += 1;
            let exp = &ready.expected[k];
            if let Err(why) = check(solo.run_one(&p.spec), &exp.names, exp.digest) {
                t.failed += 1;
                println!("  request FAILED: {}: {why}", p.name);
            }
            cache.get_or_compile(&p.spec).map_err(|e| e.to_string())?;
        }
    }
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); w.progs.len()];
    let mut roots = Vec::new();
    let mut counts = vec![Counts::default(); w.progs.len()];
    for _ in 0..rounds {
        for (k, p) in w.progs.iter().enumerate() {
            let spec = w.request(k, t.fresh_id());
            let sent = Instant::now();
            let outcome = solo.run_one(&spec);
            let took = sent.elapsed();
            t.attempted += 1;
            let exp = &ready.expected[k];
            let served = match check(outcome, &exp.names, exp.digest) {
                Ok(o) => o,
                Err(why) => {
                    t.failed += 1;
                    println!("  request FAILED: {}: {why}", p.name);
                    continue;
                }
            };
            times[k].push(took.as_secs_f64() * 1e6);

            let id = t.fresh_id();
            let spec = w.request(k, id);
            let root = rec.open("request", None, id);
            let staged = staged::request(rec, root, &mut cache, &spec, w.machine, w.cold);
            rec.close(root);
            let staged = staged.map_err(|e| format!("{}: staged request: {e}", p.name))?;
            t.attempted += 1;
            if !same_observation(w.machine, &served.fingerprint, &staged.fingerprint) {
                t.failed += 1;
                println!(
                    "  staged run of {} does not reproduce run_one's fingerprint",
                    p.name
                );
            }
            counts[k] = staged.counts;
            roots.push((k, root));
        }
    }
    if times.iter().any(|v| v.len() < rounds) {
        return Err("a request failed on the single-client pass".into());
    }

    let snap = solo.metrics_snapshot();
    let hist_mean = |name| snap.histogram(name, &[]).map_or(0.0, |h| h.mean());
    let counter = |name| snap.counter(name, &[]).unwrap_or(0) as f64;
    t.set("serve.resolve_us", hist_mean("xdp_request_resolve_us"));
    t.set("serve.execute_us", hist_mean("xdp_request_execute_us"));
    let hits = counter("xdp_cache_hits_total");
    let misses = counter("xdp_cache_misses_total");
    t.set("serve.cache_hits", hits);
    t.set("serve.cache_misses", misses);
    t.set(
        "serve.cache_evictions",
        counter("xdp_cache_evictions_total"),
    );
    t.set("serve.hit_ratio", hits / (hits + misses).max(1.0));
    Ok(Passes {
        run_one_us: times.iter().map(|v| stats::median(v)).collect(),
        roots,
        counts,
    })
}

/// What a miss costs, layer by layer, under a root span of its own: on a
/// warm mix no request performs these. Every figure is a mean over the
/// mix's requests; a program that skips a stage counts 0 for it.
fn compile_probes(ready: &Ready, rec: &mut Recorder, t: &mut Tally) -> Result<(), String> {
    let w = &ready.workload;
    let total_weight: usize = w.progs.iter().map(|p| p.weight).sum();
    let mut mean_us: BTreeMap<&str, f64> = BTreeMap::new();
    let mut nodes_out = 0.0;
    for p in &w.progs {
        let share = p.weight as f64 / total_weight as f64;
        let fail = |e: &dyn std::fmt::Display| format!("{}: {e}", p.name);
        let root = rec.open("compile.probe", None, t.fresh_id());
        let first_child = rec.spans.len();
        let parsed = rec
            .time("lang.parse", root, || {
                xdp_lang::parse_program(&p.spec.source)
            })
            .map_err(|e| fail(&e))?;
        let compiled = rec
            .time("compiler.compile", root, || {
                xdp_compiler::compile_program(&parsed, &p.spec.opts)
            })
            .map_err(|e| fail(&e))?;
        if p.spec.opts.place {
            let mut unplaced = p.spec.opts.clone();
            unplaced.place = false;
            let before = xdp_compiler::compile_program(&parsed, &unplaced).map_err(|e| fail(&e))?;
            let mut options = xdp_place::PlaceOptions::default();
            options.model.mem_budget = p.spec.opts.mem_budget;
            // An inapplicable search is a result too: the pass keeps the program.
            let _ = rec.time("place.optimize", root, || {
                xdp_place::optimize(&before.program, &options)
            });
        }
        let mut dists = BTreeMap::new();
        for stmt in &compiled.program.body {
            let Stmt::Redistribute { var, dist } = stmt else {
                continue;
            };
            let decl = compiled.program.decl(*var);
            let Some(src) = dists.get(var).or(decl.dist.as_ref()).cloned() else {
                continue;
            };
            rec.time("collectives.plan", root, || {
                plan(
                    *var,
                    &decl.bounds,
                    decl.elem.size_bytes(),
                    &src,
                    dist,
                    &CostModel::default_1993(),
                    &Topology::Uniform,
                    true,
                )
            });
            dists.insert(*var, dist.clone());
        }
        rec.close(root);
        for s in &rec.spans[first_child..] {
            // Every simulated processor plans each redistribution itself
            // at run time: one call is timed and charged `nprocs` times.
            let times = match s.name {
                "collectives.plan" => compiled.nprocs as f64,
                _ => 1.0,
            };
            *mean_us.entry(s.name).or_default() += s.dur_ns() as f64 / 1e3 * times * share;
        }
        for pass in &compiled.trace.passes {
            if let Some(name) = PASSES.iter().find(|n| **n == pass.name) {
                *mean_us.entry(name).or_default() += pass.wall_ms * 1e3 * share;
            }
        }
        nodes_out += xdp_ir::pretty::stmt_table(&compiled.program).len() as f64 * share;
    }
    let mean = |name: &str| mean_us.get(name).copied().unwrap_or(0.0);
    for name in PROBES {
        t.set(format!("{name}_us"), mean(name));
    }
    for name in PASSES {
        t.set(format!("compiler.pass.{name}_us"), mean(name));
    }
    t.set("compiler.ir_nodes_out", nodes_out);
    Ok(())
}

pub fn traced_run(
    ready: &Ready,
    seed: u64,
    seconds: f64,
    smoke: bool,
    clients: usize,
) -> Result<LayerReport, String> {
    let w = &ready.workload;
    let nprogs = w.progs.len();
    let rounds = if smoke { 3 } else { w.trace_rounds };
    let mut t = Tally {
        m: BTreeMap::new(),
        attempted: 0,
        failed: 0,
        next_id: 1 << 32,
    };
    let mut rec = Recorder::new();
    let Passes {
        run_one_us: solo_us,
        roots,
        counts,
    } = request_passes(ready, rounds, &mut rec, &mut t)?;
    compile_probes(ready, &mut rec, &mut t)?;

    // Per stage: mean per request within a program, then over programs by
    // their share of the mix's requests.
    let total_weight: usize = w.progs.iter().map(|p| p.weight).sum();
    let share_of = |k: usize| w.progs[k].weight as f64 / total_weight as f64;
    let mean_over_mix = |per_program: &dyn Fn(usize) -> f64| {
        (0..nprogs)
            .map(|k| per_program(k) * share_of(k))
            .sum::<f64>()
    };
    // One pass over the spans of the staged requests: microseconds per
    // span name and program (a root is named "request").
    let mut prog_of = vec![None; rec.spans.len()];
    for &(k, root) in &roots {
        prog_of[root] = Some(k);
    }
    let mut us_by: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (i, s) in rec.spans.iter().enumerate() {
        if let Some(k) = prog_of[s.parent.unwrap_or(i)] {
            us_by.entry(s.name).or_insert_with(|| vec![0.0; nprogs])[k] += s.dur_ns() as f64 / 1e3;
        }
    }
    let mean_per_request = |name: &str| {
        us_by.get(name).map_or(0.0, |per_prog| {
            mean_over_mix(&|k| per_prog[k] / rounds as f64)
        })
    };
    let mut stage_sum = 0.0;
    let mut run_us = 0.0;
    for name in STAGES {
        let v = mean_per_request(name);
        stage_sum += v;
        if RUN_STAGES.contains(&name) {
            run_us += v;
        }
        t.set(format!("{name}_us"), v);
    }
    let staged_us = mean_per_request("request");
    let run_one_us = mean_over_mix(&|k| solo_us[k]);
    let mean_count = |f: &dyn Fn(&Counts) -> u64| mean_over_mix(&|k| f(&counts[k]) as f64);
    let events = mean_count(&|c| c.trace_events);
    t.set("bench.run_one_us", run_one_us);
    t.set("serve.overhead_us", run_one_us - stage_sum);
    t.set("core.run_ns_per_event", run_us * 1e3 / events.max(1.0));
    t.set(
        "bench.trace_overhead_pct",
        (staged_us - run_one_us) / run_one_us * 100.0,
    );
    t.set("machine.msgs", mean_count(&|c| c.msgs));
    t.set("machine.wire_bytes", mean_count(&|c| c.wire_bytes));
    t.set(
        "machine.redist_peak_bytes",
        mean_count(&|c| c.redist_peak_bytes),
    );
    t.set("runtime.symtab_queries", mean_count(&|c| c.symtab_queries));
    t.set(
        "runtime.segments_scanned",
        mean_count(&|c| c.segments_scanned),
    );
    t.set("runtime.peak_bytes", mean_count(&|c| c.peak_bytes));
    t.set("trace.events", events);
    t.set("model.virtual_us", ready.virtual_us);
    t.set("model.wire_msgs", ready.wire_msgs as f64);

    // Where a staged request's time goes: self time by span name.
    let own = self_times_ns(&rec.spans);
    let mut self_by_name: BTreeMap<&str, u64> = BTreeMap::new();
    for (s, &ns) in rec.spans.iter().zip(&own) {
        let top = s.parent.map_or(s.name, |p| rec.spans[p].name);
        if top == "request" {
            *self_by_name.entry(s.name).or_default() += ns;
        }
    }
    let self_total: u64 = self_by_name.values().sum();
    let share = |names: &[&str]| {
        let part: u64 = names.iter().filter_map(|n| self_by_name.get(n)).sum();
        part as f64 / self_total.max(1) as f64 * 100.0
    };
    let covered = stage_sum / staged_us * 100.0;

    for (name, value) in prims::run(if smoke { 1 } else { 5 }) {
        t.set(name, value);
    }

    let workers = clients.saturating_sub(1).max(1);
    for (i, (label, rate)) in OPEN_RATES.iter().zip(w.open_rates).enumerate() {
        let o = openloop::run(
            ready,
            rate,
            seconds * 0.1,
            workers,
            seed,
            (2 + i as u64) << 40,
        );
        t.attempted += o.attempted;
        t.failed += o.failed;
        t.set(format!("serve.open.{label}.p50_ms"), o.p50_ms);
        t.set(format!("serve.open.{label}.p99_ms"), o.p99_ms);
        t.set(format!("serve.open.{label}.late_max_ms"), o.late_max_ms);
        t.set(format!("serve.open.{label}.depth_max"), o.depth_max as f64);
    }

    write_trace(w.name, seed, &rec)?;

    println!(
        "  traced: {} staged requests over {nprogs} programs, single client; \
         stage spans cover {covered:.1}% of the staged request",
        roots.len(),
    );
    println!(
        "  self time of staged requests: compile side {:.1}%  run {:.1}%  \
         (run_one {run_one_us:.1} us, staged {staged_us:.1} us)",
        share(&COMPILE_STAGES),
        share(&RUN_STAGES),
    );
    println!("  {:<44} {:>16}  unit", "per-layer", "value");
    let mut metrics = Map::new();
    for (name, unit) in per_layer_metrics() {
        let value =
            t.m.remove(&name)
                .ok_or_else(|| format!("per-layer metric `{name}` was not measured"))?;
        println!("  {name:<44} {value:>16.3}  {unit}");
        metrics.insert(name, metric(value, unit));
    }
    if let Some(extra) = t.m.keys().next() {
        return Err(format!(
            "measured `{extra}`, which is not a declared per-layer metric"
        ));
    }
    if covered < 95.0 {
        return Err(format!(
            "stage spans cover only {covered:.1}% of the staged request"
        ));
    }
    Ok(LayerReport {
        metrics,
        attempted: t.attempted,
        failed: t.failed,
    })
}

/// Spans go to `out/` beside the benchmark's sources, wherever the
/// command was started from.
fn write_trace(workload: &str, seed: u64, rec: &Recorder) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{workload}.json"));
    let mut doc = Map::new();
    doc.insert("workload".into(), Json::from(workload));
    doc.insert("seed".into(), Json::from(seed));
    doc.insert("spans".into(), rec.to_json());
    std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::write(&path, Json::Object(doc).to_string()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}
