//! The one trace recorder every machine emits through.
//!
//! Figure 1's data-movement events — `SendInit`, `RecvPost`, the
//! `WireTransit`/`RecvComplete` pair and the section-state instants — are
//! built here and nowhere else, so the movement multiset
//! ([`xdp_trace::Trace::movement_multiset`]) is the same function of a
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
use xdp_runtime::{Msg, Tag};
use xdp_trace::{TraceConfig, TraceEvent, TraceKind, WaitCause};

/// Event sink for one processor (task machine) or one whole machine
/// (simulator, lockstep): request ids are machine-unique, so either works.
pub struct Recorder {
    cfg: TraceConfig,
    names: Arc<[Arc<str>]>,
    /// The two section states, rendered once.
    transitional: Arc<str>,
    accessible: Arc<str>,
    /// Statement that posted each outstanding receive, to attribute its
    /// eventual wire-transit / recv-complete events.
    recv_sid: HashMap<u64, u32>,
    events: Vec<TraceEvent>,
}

impl Recorder {
    /// A recorder rendering variables by `names` (see [`Recorder::names`]).
    pub fn new(names: Arc<[Arc<str>]>, cfg: TraceConfig) -> Recorder {
        Recorder {
            cfg,
            names,
            transitional: "transitional".into(),
            accessible: "accessible".into(),
            recv_sid: HashMap::new(),
            events: Vec::new(),
        }
    }

    /// Declared names by variable ordinal of the program `procs` run,
    /// shareable by every recorder of their machine.
    pub fn names<P: Processor>(procs: &[P]) -> Arc<[Arc<str>]> {
        let decls = procs.first().map_or(&[][..], |p| &p.env().decls);
        decls.iter().map(|d| d.name.as_str().into()).collect()
    }

    /// Everything recorded so far, in emission order.
    pub fn take_events(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
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

    /// Rendered (variable, section) of a message tag.
    fn tag_meta(&self, tag: &Tag) -> (Option<Arc<str>>, Option<Arc<str>>) {
        (
            self.names.get(tag.var.index()).cloned(),
            Some(tag.sec.to_string().into()),
        )
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
            self.events.push(TraceEvent {
                sid,
                ..TraceEvent::span(TraceKind::Compute, pid, t0, t1)
            });
        }
        if !self.cfg.instants {
            return;
        }
        if symtab_ops > 0 {
            self.events.push(TraceEvent {
                sid,
                bytes: symtab_ops,
                ..TraceEvent::instant(TraceKind::SymtabQuery, pid, t1)
            });
        }
        match note {
            None => {}
            Some(StepNote::Kernel { name, flops }) => self.events.push(TraceEvent {
                sid,
                bytes: flops,
                detail: Some(name.into()),
                ..TraceEvent::instant(TraceKind::KernelInvoke, pid, t1)
            }),
            Some(StepNote::Collective {
                var,
                strategy,
                pieces,
            }) => self.events.push(TraceEvent {
                sid,
                var: Some(var.into()),
                detail: Some(format!("{strategy} x{pieces}").into()),
                ..TraceEvent::instant(TraceKind::CollectiveRound, pid, t1)
            }),
        }
    }

    /// A send was initiated; `[t0, t1]` is its CPU overhead.
    pub fn send_init(&mut self, pid: usize, sid: Option<u32>, msg: &Msg, t0: f64, t1: f64) {
        if !self.keeps_movement_spans() {
            return;
        }
        let (var, sec) = self.tag_meta(&msg.tag);
        self.events.push(TraceEvent {
            sid,
            var,
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
        if let Some(s) = sid {
            self.recv_sid.insert(req, s);
        }
        let (var, sec) = self.tag_meta(tag);
        if self.keeps_movement_spans() {
            self.events.push(TraceEvent {
                sid,
                var: var.clone(),
                sec: sec.clone(),
                msg_id: Some(req),
                ..TraceEvent::span(TraceKind::RecvPost, pid, t0, t1)
            });
        }
        if self.keeps_states() {
            self.events.push(TraceEvent {
                sid,
                var,
                sec,
                detail: Some(self.transitional.clone()),
                ..TraceEvent::instant(TraceKind::SectionState, pid, t1)
            });
        }
    }

    /// Receive `req` was matched with `msg`: the wire edge `wire` (sent,
    /// arrived), the handling span `[t0, t1]`, and the section turning
    /// accessible at `t1`.
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
        let sid = self.recv_sid.remove(&req);
        let (var, sec) = self.tag_meta(&msg.tag);
        let bytes = msg.payload_bytes();
        if self.cfg.messages {
            self.events.push(TraceEvent {
                sid,
                var: var.clone(),
                sec: sec.clone(),
                bytes,
                src: Some(msg.src as u32),
                msg_id: Some(req),
                ..TraceEvent::span(TraceKind::WireTransit, pid, wire.0, wire.1)
            });
        }
        if self.keeps_movement_spans() {
            self.events.push(TraceEvent {
                sid,
                var: var.clone(),
                sec: sec.clone(),
                bytes,
                msg_id: Some(req),
                ..TraceEvent::span(TraceKind::RecvComplete, pid, t0, t1)
            });
        }
        if self.keeps_states() {
            self.events.push(TraceEvent {
                sid,
                var,
                sec,
                detail: Some(self.accessible.clone()),
                ..TraceEvent::instant(TraceKind::SectionState, pid, t1)
            });
        }
    }

    /// The processor sat blocked over `[t0, t1]` for `cause`; `req` links
    /// the span to the receive it waited on.
    pub fn wait(&mut self, pid: usize, cause: WaitCause, req: Option<u64>, t0: f64, t1: f64) {
        if self.cfg.spans && t1 > t0 {
            self.events.push(TraceEvent {
                cause,
                msg_id: req,
                ..TraceEvent::span(TraceKind::Wait, pid, t0, t1)
            });
        }
    }
}
