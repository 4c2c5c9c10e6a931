//! The programs several suites run: every corpus file and every
//! application builder.

use std::path::PathBuf;
use std::sync::Arc;
use xdp::prelude::*;
use xdp_apps::farm::FarmConfig;
use xdp_apps::fft3d::{Fft3dConfig, Stage};
use xdp_compiler::{compile, CompileOptions, SeqMode};

/// (label, program, machine size) of every corpus file, plain, optimized
/// and auto-placed.
pub fn corpus() -> Vec<(String, Program, usize)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("xdp-programs");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("xdp-programs/ exists")
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "xdp"))
        .collect();
    files.sort();
    let auto = CompileOptions::default().with_seq(SeqMode::Auto);
    let variants = [
        ("plain", auto.clone()),
        ("opt", auto.clone().optimized()),
        ("placed", auto.placed()),
    ];
    let mut out = Vec::new();
    for path in files {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let source = std::fs::read_to_string(&path).unwrap();
        for (variant, opts) in &variants {
            let compiled = compile(&source, opts)
                .unwrap_or_else(|e| panic!("{name}+{variant}: compile failed: {e}"));
            let program = Arc::unwrap_or_clone(compiled.program);
            out.push((format!("{name}+{variant}"), program, compiled.nprocs));
        }
    }
    out
}

/// (label, program, machine size) of every 3-D FFT stage and every other
/// application builder, all on four processors.
pub fn apps() -> Vec<(String, Program, usize)> {
    use xdp_apps::{farm, fft3d, halo2d, matvec, reduce};
    let cfg = Fft3dConfig::new(4, 4);
    let jobs = FarmConfig {
        tasks: 8,
        nprocs: 4,
        scale: 1,
    };
    let mut out: Vec<(&str, Program)> = Stage::all()
        .into_iter()
        .map(|s| (s.label(), fft3d::build(cfg, s).0))
        .collect();
    out.extend([
        ("fft3d-listing-v0", fft3d::paper_listing_v0(cfg).0),
        ("fft3d-chunked", fft3d::build_chunked(cfg, 2).0),
        ("jacobi2d", halo2d::build_jacobi2d(8, 10, 4, 2).0),
        ("jacobi2d-cols", halo2d::build_jacobi2d_cols(10, 8, 4, 2).0),
        ("matvec", matvec::build_matvec(8, 4).0),
        ("reduce", reduce::build_reduce(16, 4).0),
        ("farm", farm::build_farm(jobs).0),
        ("farm-static", farm::build_static(jobs).0),
    ]);
    out.into_iter()
        .map(|(label, program)| (label.to_string(), program, 4))
        .collect()
}
