//! The local FFT kernel (`fft1D()` in §4) and sequential references.

use std::sync::Arc;
use xdp_core::kernels::sections;
use xdp_core::{Kernel, KernelRegistry};
use xdp_runtime::{Buffer, Complex};

/// In-place iterative radix-2 Cooley-Tukey FFT. Length must be a power of
/// two. Returns the flop count (the standard `5 n log2 n` estimate).
pub fn fft1d_in_place(a: &mut [Complex]) -> u64 {
    let n = a.len();
    assert!(n.is_power_of_two(), "fft1d length {n} not a power of two");
    if n <= 1 {
        return 0;
    }
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u64).reverse_bits() >> (64 - bits) as u64;
        let j = j as usize;
        if i < j {
            a.swap(i, j);
        }
    }
    // Butterflies.
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::cis(ang);
        let mut i = 0;
        while i < n {
            let mut w = Complex::ONE;
            for k in 0..len / 2 {
                let u = a[i + k];
                let v = a[i + k + len / 2] * w;
                a[i + k] = u + v;
                a[i + k + len / 2] = u - v;
                w = w * wlen;
            }
            i += len;
        }
        len <<= 1;
    }
    5 * n as u64 * bits as u64
}

/// O(n^2) reference DFT (same sign convention as [`fft1d_in_place`]).
pub fn naive_dft(a: &[Complex]) -> Vec<Complex> {
    let n = a.len();
    let mut out = vec![Complex::ZERO; n];
    for (k, o) in out.iter_mut().enumerate() {
        for (j, &x) in a.iter().enumerate() {
            let ang = -2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
            *o = *o + x * Complex::cis(ang);
        }
    }
    out
}

/// Sequential 3-D FFT over a row-major `n x n x n` array, applying 1-D FFTs
/// along dimension 2 (j), then 1 (i), then 3 (k) — the paper's order.
pub fn fft3d_seq(data: &mut [Complex], n: usize) {
    assert_eq!(data.len(), n * n * n);
    let idx = |i: usize, j: usize, k: usize| (i * n + j) * n + k;
    let mut line = vec![Complex::ZERO; n];
    // Along j (second dim).
    for i in 0..n {
        for k in 0..n {
            for j in 0..n {
                line[j] = data[idx(i, j, k)];
            }
            fft1d_in_place(&mut line);
            for j in 0..n {
                data[idx(i, j, k)] = line[j];
            }
        }
    }
    // Along i (first dim).
    for j in 0..n {
        for k in 0..n {
            for i in 0..n {
                line[i] = data[idx(i, j, k)];
            }
            fft1d_in_place(&mut line);
            for i in 0..n {
                data[idx(i, j, k)] = line[i];
            }
        }
    }
    // Along k (third dim).
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                line[k] = data[idx(i, j, k)];
            }
            fft1d_in_place(&mut line);
            for k in 0..n {
                data[idx(i, j, k)] = line[k];
            }
        }
    }
}

/// The `fft1D()` kernel: in-place 1-D FFT over the gathered section.
struct Fft1dKernel;

impl Kernel for Fft1dKernel {
    fn name(&self) -> &str {
        "fft1d"
    }
    fn run(&self, args: &mut [Buffer], _int_args: &[i64]) -> Result<u64, String> {
        sections(args, 1, "(X)")?;
        let ty = args[0].ty();
        let v = (args[0].as_c64_mut())
            .ok_or_else(|| format!("needs a complex section, given a {ty} one"))?;
        Ok(fft1d_in_place(v))
    }
}

/// `work_data(X, scale)` — synthetic task execution whose cost is carried
/// in the data itself: charges `round(X[0]) * scale` flops. Used by the
/// task-farm workloads, where each claimed message *is* the job.
struct WorkDataKernel;

impl Kernel for WorkDataKernel {
    fn name(&self) -> &str {
        "work_data"
    }
    fn run(&self, args: &mut [Buffer], int_args: &[i64]) -> Result<u64, String> {
        let scale = int_args.first().copied().unwrap_or(1).max(0) as u64;
        let cost = args
            .first()
            .filter(|b| !b.is_empty())
            .map(|b| b.get(0).as_f64().max(0.0) as u64)
            .unwrap_or(0);
        Ok(cost * scale)
    }
}

/// The standard registry plus the application kernels.
pub fn app_kernels() -> KernelRegistry {
    let mut r = KernelRegistry::standard();
    r.register(Arc::new(Fft1dKernel));
    r.register(Arc::new(WorkDataKernel));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex, b: Complex) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn fft_matches_naive_dft() {
        for n in [1usize, 2, 4, 8, 16, 32] {
            let input: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64).sin() + 1.0, (i as f64 * 0.7).cos()))
                .collect();
            let want = naive_dft(&input);
            let mut got = input.clone();
            fft1d_in_place(&mut got);
            for k in 0..n {
                assert!(
                    close(got[k], want[k]),
                    "n={n} k={k}: {} vs {}",
                    got[k],
                    want[k]
                );
            }
        }
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut a = vec![Complex::ZERO; 8];
        a[0] = Complex::ONE;
        fft1d_in_place(&mut a);
        for v in &a {
            assert!(close(*v, Complex::ONE));
        }
    }

    #[test]
    fn fft_linearity() {
        let n = 16;
        let x: Vec<Complex> = (0..n).map(|i| Complex::real(i as f64)).collect();
        let y: Vec<Complex> = (0..n)
            .map(|i| Complex::new(0.0, (i as f64).cos()))
            .collect();
        let mut fx = x.clone();
        let mut fy = y.clone();
        let mut fxy: Vec<Complex> = x.iter().zip(&y).map(|(a, b)| *a + *b).collect();
        fft1d_in_place(&mut fx);
        fft1d_in_place(&mut fy);
        fft1d_in_place(&mut fxy);
        for k in 0..n {
            assert!(close(fxy[k], fx[k] + fy[k]));
        }
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_panics() {
        let mut a = vec![Complex::ZERO; 6];
        fft1d_in_place(&mut a);
    }

    #[test]
    fn fft3d_seq_impulse() {
        let n = 4;
        let mut data = vec![Complex::ZERO; n * n * n];
        data[0] = Complex::ONE;
        fft3d_seq(&mut data, n);
        for v in &data {
            assert!(close(*v, Complex::ONE));
        }
    }

    #[test]
    fn kernels_registered() {
        let r = app_kernels();
        assert!(r.get("fft1d").is_some());
        assert!(r.get("work_data").is_some());
        assert!(r.get("work").is_some());
        // work_data charges by data value.
        let mut args = vec![xdp_runtime::Buffer::F64(vec![42.0])];
        let flops = r.get("work_data").unwrap().run(&mut args, &[10]);
        assert_eq!(flops, Ok(420));
    }
}
