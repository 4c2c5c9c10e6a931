//! # xdp-apps — the paper's application workloads
//!
//! * [`fft`] — a real radix-2 complex FFT (`fft1D` in the paper), its naive
//!   DFT cross-check, a sequential 3-D FFT reference, and the `fft1d` /
//!   `work_data` kernels registered with the executor.
//! * [`fft3d`] — the §4 example: the four derivation stages of the
//!   distributed 3-D FFT with `(*,*,BLOCK) -> (*,BLOCK,*)` ownership
//!   redistribution, as explicit IL+XDP programs.
//! * [`halo2d`] — 2-D Jacobi with explicit halo exchange written directly
//!   in IL+XDP (ghost rows, overlap of halo transfer with interior
//!   compute).
//! * [`farm`] — the §2.7 load-balancing idiom: multiple outstanding
//!   sends/receives on one name as a self-scheduling task farm.
//! * [`workloads`] — seeded, reproducible workload generators.

pub mod farm;
pub mod fft;
pub mod fft3d;
pub mod halo2d;
pub mod matvec;
pub mod reduce;
pub mod workloads;

pub use fft::{app_kernels, fft1d_in_place, fft3d_seq, naive_dft};
