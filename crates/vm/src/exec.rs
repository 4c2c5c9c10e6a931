//! Constructors wiring compiled processors onto the two machines.

use crate::compile::VmProgram;
use crate::proc::VmProc;
use std::sync::Arc;
use xdp_core::{AsyncConfig, AsyncExec, KernelRegistry, SimConfig, SimExec};
use xdp_ir::Program;

/// Entry points for running a program on the VM backend.
///
/// Compiles the program once (`VmProgram::compile` handles redistribution
/// preparation, so the bytecode matches what `SimExec::new` /
/// `AsyncExec::new` would interpret) and loads one [`VmProc`] per
/// processor.
pub struct VmExec;

impl VmExec {
    /// Compile `program` and build its `nprocs` processors, in pid order.
    fn load(
        program: Arc<Program>,
        kernels: &KernelRegistry,
        nprocs: usize,
        checked: bool,
    ) -> Vec<VmProc> {
        let prog = VmProgram::compile(program, kernels);
        (0..nprocs)
            .map(|pid| VmProc::new(prog.clone(), pid, nprocs, checked))
            .collect()
    }

    /// Compile `program` and load it onto every processor of a simulated
    /// machine.
    pub fn sim(program: Arc<Program>, kernels: KernelRegistry, cfg: SimConfig) -> SimExec<VmProc> {
        SimExec::from_procs(Self::load(program, &kernels, cfg.nprocs, cfg.checked), cfg)
    }

    /// Compile `program` and load it onto every processor of the async
    /// (task-per-processor) machine.
    pub fn tasks(
        program: Arc<Program>,
        kernels: KernelRegistry,
        cfg: AsyncConfig,
    ) -> AsyncExec<VmProc> {
        AsyncExec::from_procs(Self::load(program, &kernels, cfg.nprocs, cfg.checked), cfg)
    }
}
