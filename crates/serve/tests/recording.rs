//! A request records what is read.
//!
//! A pool runs a request under `TraceConfig::movement()` — the events its
//! fingerprint reads — unless a flight recorder is attached, whose dumps
//! are whole timelines and which therefore gets `TraceConfig::full()`.
//! The switch must be invisible in the answer: for the corpus and the
//! benchmark's program shapes, on both backends and both machines, a pool
//! with a (disarmed) recorder and one without return the same
//! fingerprint. And the recorder must still get its timeline.

use std::path::PathBuf;
use xdp_compiler::{Backend, CompileOptions, SeqMode};
use xdp_core::MachineKind;
use xdp_metrics::FlightConfig;
use xdp_serve::{RequestSpec, ServePool};

fn programs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../xdp-programs")
}

/// A directory of this test's own under the system's temporary one.
fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xdp-recording-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The benchmark's program shapes (`benchmark/src/workloads.rs`) at sizes
/// a debug build runs in milliseconds, P = 4 throughout.
fn benchmark_shapes() -> Vec<(String, String)> {
    let knest = "real A1[1:16] distribute (BLOCK) onto 4\n\
                 real B1[1:16] distribute (CYCLIC) onto 4\n\
                 real A2[1:16] distribute (BLOCK) onto 4\n\
                 real B2[1:16] distribute (CYCLIC) onto 4\n\
                 do i = 1, 16\n  A1[i] = A1[i] + B1[i]\nenddo\n\
                 do i = 1, 16\n  A2[i] = A2[i] + B2[i]\nenddo\n";
    let (lo, hi) = ("mylb(U[*,*], 1)", "myub(U[*,*], 1)");
    let rowsweep = format!(
        "real U[1:8,1:8] distribute (BLOCK,*) onto 4\n\
         real V[1:8,1:8] distribute (BLOCK,*) onto 4\n\
         do t = 1, 2 {{\n\
           do r = {lo}, {hi} {{\n\
             V[r,2:7] = (0.25 * (((U[r,1:6] + U[r,3:8]) + U[r,2:7]) + V[r,2:7]))\n\
           }}\n\
           do r = {lo}, {hi} {{\n\
             U[r,2:7] = V[r,2:7]\n\
           }}\n\
         }}\n"
    );
    let elemloop = "real A[1:16] distribute (BLOCK) onto 4\n\
                    real B[1:16] distribute (BLOCK) onto 4\n\
                    do t = 1, 2 {\n\
                      do i = mylb(A[*], 1), myub(A[*], 1) {\n\
                        A[i] = ((A[i] * 0.5) + B[i])\n\
                      }\n\
                    }\n";
    let roundtrip = "real A[1:64] distribute (BLOCK) onto 4\n\
                     redistribute A (CYCLIC) onto 4\n\
                     redistribute A (BLOCK) onto 4\n";
    let transpose = "real A[1:8,1:8] distribute (*,BLOCK) onto 4\n\
                     redistribute A (BLOCK,*) onto 4\n";
    let halo = format!(
        "real U[1:16,1:8] distribute (BLOCK,*) onto 4\n\
         real GUP[0:3,1:8] distribute (BLOCK,*) onto 4\n\
         real GDN[0:3,1:8] distribute (BLOCK,*) onto 4\n\
         do t = 1, 2 {{\n\
           mypid > 0 : {{ U[{lo},*] -> }}\n\
           mypid < 3 : {{ U[{hi},*] -> }}\n\
           mypid > 0 : {{ GUP[mypid,*] <- U[({lo} - 1),*] }}\n\
           mypid < 3 : {{ GDN[mypid,*] <- U[({hi} + 1),*] }}\n\
           (mypid > 0 && await(GUP[mypid,*])) : {{\n\
             U[{lo},2:7] = (0.5 * (U[{lo},2:7] + GUP[mypid,2:7]))\n\
           }}\n\
           (mypid < 3 && await(GDN[mypid,*])) : {{\n\
             U[{hi},2:7] = (0.5 * (U[{hi},2:7] + GDN[mypid,2:7]))\n\
           }}\n\
           barrier\n\
         }}\n"
    );
    [
        ("knest", knest.to_string()),
        ("rowsweep", rowsweep),
        ("elemloop", elemloop.to_string()),
        ("redist-roundtrip", roundtrip.to_string()),
        ("transpose", transpose.to_string()),
        ("halo", halo),
    ]
    .map(|(name, source)| (name.to_string(), source))
    .into()
}

/// Every `xdp-programs/*.xdp`, then the benchmark's shapes.
fn sources() -> Vec<(String, String)> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(programs_dir())
        .expect("xdp-programs/ exists")
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "xdp"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no programs in {:?}", programs_dir());
    let mut out: Vec<(String, String)> = files
        .iter()
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(path).unwrap())
        })
        .collect();
    out.extend(benchmark_shapes());
    out
}

#[test]
fn the_movement_record_fingerprints_like_the_full_trace() {
    let dir = scratch_dir("fingerprints");
    for kind in [MachineKind::Sim, MachineKind::Tasks] {
        // No recorder: `movement()`. A recorder, its slow trigger
        // disarmed and no request failing, dumps nothing: `full()`.
        let lean = ServePool::new(1, 64).with_machine(kind);
        let full = ServePool::new(1, 64)
            .with_machine(kind)
            .with_flight(FlightConfig::new(&dir));
        for (name, source) in sources() {
            for backend in [Backend::Interp, Backend::Vm] {
                let opts = CompileOptions::default()
                    .with_seq(SeqMode::Auto)
                    .with_backend(backend);
                let spec = RequestSpec::new(source.clone()).with_opts(opts);
                let what = format!("{name} on {backend:?} / {kind:?}");
                let a = lean
                    .run_one(&spec)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                let b = full
                    .run_one(&spec)
                    .unwrap_or_else(|e| panic!("{what}, recorder attached: {e}"));
                assert_eq!(a.messages, b.messages, "{what}");
                match kind {
                    MachineKind::Sim => {
                        assert_eq!(a.fingerprint, b.fingerprint, "{what}");
                        assert_eq!(a.virtual_time, b.virtual_time, "{what}");
                    }
                    // Wall-clock recording order: the timing-free parts.
                    MachineKind::Tasks => {
                        assert_eq!(a.fingerprint.memory, b.fingerprint.memory, "{what}");
                        assert_eq!(a.fingerprint.movement, b.fingerprint.movement, "{what}");
                        assert_eq!(a.fingerprint.messages, b.fingerprint.messages, "{what}");
                    }
                }
            }
        }
        assert_eq!(full.flight().unwrap().dumps(), 0);
    }
    assert!(!dir.exists(), "a disarmed recorder wrote under {dir:?}");
}

#[test]
fn a_pool_with_a_flight_recorder_still_dumps_compute_spans() {
    let dir = scratch_dir("flight");
    // Armed at a microsecond: every request is "slow" and dumps its timeline.
    let pool = ServePool::new(1, 4).with_flight(FlightConfig::new(&dir).slow_at_us(1));
    let shapes = benchmark_shapes();
    let (_, elemloop) = shapes.iter().find(|(name, _)| name == "elemloop").unwrap();
    pool.run_one(&RequestSpec::new(elemloop.clone())).unwrap();
    let recorder = pool.flight().unwrap();
    assert_eq!(recorder.dumps(), 1);
    let dump = recorder.last_dump().expect("a dump was written");
    let stem = dump.file_stem().unwrap().to_string_lossy().into_owned();
    let chrome = std::fs::read_to_string(dir.join(format!("{stem}.trace.json")))
        .expect("the dump's Chrome-trace twin");
    assert!(
        chrome.contains("\"compute\""),
        "a communication-free run's dumped timeline has compute spans"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
