//! Local computation kernels callable from IL+XDP.
//!
//! The paper's 3-D FFT example invokes a library routine `fft1D()` on array
//! sections; XDP treats such calls as opaque local computation. Kernels
//! here execute on gathered row-major buffers and report a flop count,
//! which the simulated machine converts to virtual time.
//!
//! `xdp-core` registers generic kernels (`work`, `copy`, `scale`,
//! `add_into`); applications (e.g. `xdp-apps`' `fft1d`) register their own.

use std::collections::HashMap;
use std::sync::Arc;
use xdp_runtime::{Buffer, Value};

/// A named local kernel.
pub trait Kernel: Send + Sync {
    /// Kernel name as referenced from IL.
    fn name(&self) -> &str;
    /// Execute in place on the gathered argument buffers; `int_args` are
    /// evaluated scalar parameters. Returns the flop count performed, or
    /// what is wrong with the call (the machine names the kernel).
    fn run(&self, args: &mut [Buffer], int_args: &[i64]) -> Result<u64, String>;
}

/// A call passed `want` sections, or the error saying what it should pass.
pub fn sections(args: &[Buffer], want: usize, signature: &str) -> Result<(), String> {
    match args.len() {
        n if n == want => Ok(()),
        1 => Err(format!("takes {signature}, given 1 section")),
        n => Err(format!("takes {signature}, given {n} sections")),
    }
}

/// A shareable set of kernels.
#[derive(Clone)]
pub struct KernelRegistry {
    kernels: HashMap<String, Arc<dyn Kernel>>,
}

impl KernelRegistry {
    /// An empty registry.
    pub fn empty() -> KernelRegistry {
        KernelRegistry {
            kernels: HashMap::new(),
        }
    }

    /// The default registry with the generic kernels registered.
    pub fn standard() -> KernelRegistry {
        let mut r = KernelRegistry::empty();
        r.register(Arc::new(WorkKernel));
        r.register(Arc::new(CopyKernel));
        r.register(Arc::new(ScaleKernel));
        r.register(Arc::new(AddIntoKernel));
        r
    }

    /// Register (or replace) a kernel.
    pub fn register(&mut self, k: Arc<dyn Kernel>) {
        self.kernels.insert(k.name().to_string(), k);
    }

    /// Look up by name.
    pub fn get(&self, name: &str) -> Option<&Arc<dyn Kernel>> {
        self.kernels.get(name)
    }
}

impl std::fmt::Debug for KernelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<&str> = self.kernels.keys().map(|s| s.as_str()).collect();
        names.sort_unstable();
        write!(f, "KernelRegistry{names:?}")
    }
}

/// `work(X, cost)` — synthetic computation charging `cost` flops and
/// touching `X[0]` (adds 1) so data dependence is real. The task-farm and
/// load-balance experiments build skewed workloads from it.
struct WorkKernel;

impl Kernel for WorkKernel {
    fn name(&self) -> &str {
        "work"
    }
    fn run(&self, args: &mut [Buffer], int_args: &[i64]) -> Result<u64, String> {
        let cost = int_args.first().copied().unwrap_or(0).max(0) as u64;
        if let Some(b) = args.first_mut() {
            if !b.is_empty() {
                let v = Value::add(b.get(0), Value::I64(1));
                b.set(0, v);
            }
        }
        Ok(cost)
    }
}

/// `copy(dst, src)` — element-wise copy.
struct CopyKernel;

impl Kernel for CopyKernel {
    fn name(&self) -> &str {
        "copy"
    }
    fn run(&self, args: &mut [Buffer], _int_args: &[i64]) -> Result<u64, String> {
        sections(args, 2, "(dst, src)")?;
        let (dst, src) = args.split_at_mut(1);
        let n = dst[0].len().min(src[0].len());
        dst[0].copy_from(0, &src[0], 0, n);
        Ok(n as u64)
    }
}

/// `scale(X, k)` — multiply every element by integer `k`.
struct ScaleKernel;

impl Kernel for ScaleKernel {
    fn name(&self) -> &str {
        "scale"
    }
    fn run(&self, args: &mut [Buffer], int_args: &[i64]) -> Result<u64, String> {
        sections(args, 1, "(X, k)")?;
        let k = Value::I64(int_args.first().copied().unwrap_or(1));
        let b = &mut args[0];
        for i in 0..b.len() {
            let v = Value::mul(b.get(i), k);
            b.set(i, v);
        }
        Ok(b.len() as u64)
    }
}

/// `add_into(dst, src)` — `dst += src` element-wise.
struct AddIntoKernel;

impl Kernel for AddIntoKernel {
    fn name(&self) -> &str {
        "add_into"
    }
    fn run(&self, args: &mut [Buffer], _int_args: &[i64]) -> Result<u64, String> {
        sections(args, 2, "(dst, src)")?;
        let (dst, src) = args.split_at_mut(1);
        let n = dst[0].len().min(src[0].len());
        for i in 0..n {
            let v = Value::add(dst[0].get(i), src[0].get(i));
            dst[0].set(i, v);
        }
        Ok(n as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdp_ir::ElemType;

    #[test]
    fn standard_registry_has_generic_kernels() {
        let r = KernelRegistry::standard();
        for k in ["work", "copy", "scale", "add_into"] {
            assert!(r.get(k).is_some(), "{k} missing");
        }
        assert!(r.get("fft1d").is_none());
    }

    #[test]
    fn work_charges_and_touches() {
        let r = KernelRegistry::standard();
        let mut args = vec![Buffer::zeros(ElemType::F64, 2)];
        let flops = r.get("work").unwrap().run(&mut args, &[1234]);
        assert_eq!(flops, Ok(1234));
        assert_eq!(args[0].get(0), Value::F64(1.0));
    }

    #[test]
    fn copy_and_scale_and_add() {
        let r = KernelRegistry::standard();
        let mut src = Buffer::zeros(ElemType::F64, 3);
        for i in 0..3 {
            src.set(i, Value::F64(i as f64 + 1.0));
        }
        let mut args = vec![Buffer::zeros(ElemType::F64, 3), src.clone()];
        r.get("copy").unwrap().run(&mut args, &[]).unwrap();
        assert_eq!(args[0], src);
        r.get("scale").unwrap().run(&mut args[..1], &[10]).unwrap();
        assert_eq!(args[0].get(2), Value::F64(30.0));
        let mut args2 = vec![args[0].clone(), src];
        r.get("add_into").unwrap().run(&mut args2, &[]).unwrap();
        assert_eq!(args2[0].get(0), Value::F64(11.0));
    }
}
