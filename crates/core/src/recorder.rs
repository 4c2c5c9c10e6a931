//! The one trace recorder every machine emits through.
//!
//! Figure 1's data-movement events — `SendInit`, `RecvPost`, the
//! `WireTransit`/`RecvComplete` pair and the section-state instants — are
//! built here and nowhere else, so the movement multiset
//! ([`xdp_trace::Trace::movement_keys`]) is the same function of a
//! program on every machine. Callers bring their own clock: `t0`/`t1` are
//! virtual time on [`crate::SimExec`], wall-clock microseconds on
//! [`crate::AsyncExec`] and round numbers on verify's `Lockstep`.
//!
//! Movement events are kept whatever their extent — a cost model with no
//! per-message CPU overhead still moved the data — while compute and wait
//! spans are kept only when `t1 > t0`. Which trace class keeps which kind
//! is [`TraceConfig`]'s table: the movement events belong to `messages`
//! as much as to `spans` / `instants`, so [`TraceConfig::movement`] keeps
//! every event a fingerprint reads and drops the per-statement ones.

use crate::interp::StepNote;
use crate::proc::Processor;
use std::collections::HashMap;
use std::sync::Arc;
use xdp_ir::Section;
use xdp_runtime::{Msg, Tag};
use xdp_trace::{LabelId, SecId, Trace, TraceConfig, TraceEvent, TraceKind, VarName, WaitCause};

/// Event sink for one processor (task machine) or one whole machine
/// (simulator, lockstep): request ids are machine-unique, so either works.
///
/// It renders nothing. An event names its variable by ordinal, its section
/// by an id interned here by value, and its annotation by a label id, so a
/// message records a few copies and, once its section has been seen, no
/// allocation.
pub struct Recorder {
    cfg: TraceConfig,
    /// The events and the labels; sections join them at [`Recorder::take`].
    trace: Trace,
    /// Every section seen, by value, with its id.
    sec_ids: HashMap<Section, SecId>,
    /// Kernel names seen, with their label ids.
    kernel_ids: HashMap<Arc<str>, LabelId>,
    /// Statement and section of each outstanding receive, to attribute and
    /// label its eventual wire-transit / recv-complete / accessible events.
    recv_sid: HashMap<u64, (Option<u32>, SecId)>,
}

impl Recorder {
    /// A recorder naming variables by `names` (see [`Recorder::names`]).
    pub fn new(names: Arc<[Arc<str>]>, cfg: TraceConfig) -> Recorder {
        Recorder {
            cfg,
            trace: Trace::with_vars(0, names),
            sec_ids: HashMap::new(),
            kernel_ids: HashMap::new(),
            recv_sid: HashMap::new(),
        }
    }

    /// Declared names by variable ordinal of the program `procs` run,
    /// shareable by every recorder of their machine.
    pub fn names<P: Processor>(procs: &[P]) -> Arc<[Arc<str>]> {
        let decls = procs.first().map_or(&[][..], |p| &p.env().decls);
        decls.iter().map(|d| d.name.as_str().into()).collect()
    }

    /// Everything recorded so far, in emission order, as a trace over
    /// `nprocs` processors.
    pub fn take(&mut self, nprocs: usize) -> Trace {
        let mut secs: Vec<(SecId, Section)> = self.sec_ids.drain().map(|(s, id)| (id, s)).collect();
        secs.sort_unstable_by_key(|&(id, _)| id);
        let mut trace = std::mem::take(&mut self.trace);
        trace.nprocs = nprocs;
        for (_, sec) in secs {
            trace.push_section(sec);
        }
        self.trace = Trace::with_vars(0, trace.vars().clone());
        self.kernel_ids.clear();
        trace
    }

    /// Are the send-init / recv-post / recv-complete spans kept? They tile
    /// a timeline (`spans`) and they are the movement record (`messages`).
    fn keeps_movement_spans(&self) -> bool {
        self.cfg.spans || self.cfg.messages
    }

    /// Are the section-state instants kept?
    fn keeps_states(&self) -> bool {
        self.cfg.instants || self.cfg.messages
    }

    /// The id of `sec`, interned on first sight.
    fn sec_id(&mut self, sec: &Section) -> SecId {
        if let Some(&id) = self.sec_ids.get(sec) {
            return id;
        }
        let id = SecId(self.sec_ids.len() as u32);
        self.sec_ids.insert(sec.clone(), id);
        id
    }

    /// The id of kernel `name`'s label, added on first sight.
    fn kernel_id(&mut self, name: Arc<str>) -> LabelId {
        if let Some(&id) = self.kernel_ids.get(&name) {
            return id;
        }
        let id = self.trace.push_label(name.clone());
        self.kernel_ids.insert(name, id);
        id
    }

    /// One executed statement over `[t0, t1]`: its compute span, then the
    /// symbol-table-query and kernel/collective instants at `t1`.
    pub fn step(
        &mut self,
        pid: usize,
        sid: Option<u32>,
        symtab_ops: u64,
        note: Option<StepNote>,
        t0: f64,
        t1: f64,
    ) {
        if self.cfg.spans && t1 > t0 {
            self.trace.push(TraceEvent {
                sid,
                ..TraceEvent::span(TraceKind::Compute, pid, t0, t1)
            });
        }
        if !self.cfg.instants {
            return;
        }
        if symtab_ops > 0 {
            self.trace.push(TraceEvent {
                sid,
                bytes: symtab_ops,
                ..TraceEvent::instant(TraceKind::SymtabQuery, pid, t1)
            });
        }
        match note {
            None => {}
            Some(StepNote::Kernel { name, flops }) => {
                let detail = Some(self.kernel_id(name));
                self.trace.push(TraceEvent {
                    sid,
                    bytes: flops,
                    detail,
                    ..TraceEvent::instant(TraceKind::KernelInvoke, pid, t1)
                })
            }
            Some(StepNote::Collective { var, label }) => {
                let detail = Some(self.trace.push_label(label.into()));
                self.trace.push(TraceEvent {
                    sid,
                    var: Some(VarName(var.0)),
                    detail,
                    ..TraceEvent::instant(TraceKind::CollectiveRound, pid, t1)
                })
            }
        }
    }

    /// A send was initiated; `[t0, t1]` is its CPU overhead.
    pub fn send_init(&mut self, pid: usize, sid: Option<u32>, msg: &Msg, t0: f64, t1: f64) {
        if !self.keeps_movement_spans() {
            return;
        }
        let sec = Some(self.sec_id(&msg.tag.sec));
        self.trace.push(TraceEvent {
            sid,
            var: Some(VarName(msg.tag.var.0)),
            sec,
            bytes: msg.payload_bytes(),
            ..TraceEvent::span(TraceKind::SendInit, pid, t0, t1)
        });
    }

    /// Receive `req` was posted over `[t0, t1]`; its section turns
    /// transitional at `t1`.
    pub fn recv_post(
        &mut self,
        pid: usize,
        sid: Option<u32>,
        tag: &Tag,
        req: u64,
        t0: f64,
        t1: f64,
    ) {
        if !self.cfg.enabled() {
            return;
        }
        let sec = self.sec_id(&tag.sec);
        self.recv_sid.insert(req, (sid, sec));
        let (var, sec) = (Some(VarName(tag.var.0)), Some(sec));
        if self.keeps_movement_spans() {
            self.trace.push(TraceEvent {
                sid,
                var,
                sec,
                msg_id: Some(req),
                ..TraceEvent::span(TraceKind::RecvPost, pid, t0, t1)
            });
        }
        if self.keeps_states() {
            self.trace.push(TraceEvent {
                sid,
                var,
                sec,
                detail: Some(LabelId::TRANSITIONAL),
                ..TraceEvent::instant(TraceKind::SectionState, pid, t1)
            });
        }
    }

    /// Receive `req` was matched with `msg`: the wire edge `wire` (sent,
    /// arrived), the handling span `[t0, t1]`, and the section turning
    /// accessible at `t1`, labelled with the section `recv_post` interned
    /// (a receive matches only a message of its own tag).
    pub fn completed(
        &mut self,
        pid: usize,
        req: u64,
        msg: &Msg,
        wire: (f64, f64),
        t0: f64,
        t1: f64,
    ) {
        if !self.cfg.enabled() {
            return;
        }
        let (sid, sec) = self
            .recv_sid
            .remove(&req)
            .expect("a receive completes after recv_post recorded it");
        debug_assert_eq!(
            self.sec_ids.get(&msg.tag.sec),
            Some(&sec),
            "receive {req} matched another tag"
        );
        let (var, sec) = (Some(VarName(msg.tag.var.0)), Some(sec));
        let bytes = msg.payload_bytes();
        if self.cfg.messages {
            self.trace.push(TraceEvent {
                sid,
                var,
                sec,
                bytes,
                src: Some(msg.src as u32),
                msg_id: Some(req),
                ..TraceEvent::span(TraceKind::WireTransit, pid, wire.0, wire.1)
            });
        }
        if self.keeps_movement_spans() {
            self.trace.push(TraceEvent {
                sid,
                var,
                sec,
                bytes,
                msg_id: Some(req),
                ..TraceEvent::span(TraceKind::RecvComplete, pid, t0, t1)
            });
        }
        if self.keeps_states() {
            self.trace.push(TraceEvent {
                sid,
                var,
                sec,
                detail: Some(LabelId::ACCESSIBLE),
                ..TraceEvent::instant(TraceKind::SectionState, pid, t1)
            });
        }
    }

    /// The processor sat blocked over `[t0, t1]` for `cause`; `req` links
    /// the span to the receive it waited on.
    pub fn wait(&mut self, pid: usize, cause: WaitCause, req: Option<u64>, t0: f64, t1: f64) {
        if self.cfg.spans && t1 > t0 {
            self.trace.push(TraceEvent {
                cause,
                msg_id: req,
                ..TraceEvent::span(TraceKind::Wait, pid, t0, t1)
            });
        }
    }
}
