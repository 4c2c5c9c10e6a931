//! Figure 1's transfer rules, written once.
//!
//! A processor is an evaluator plus these rules. The evaluator — the
//! tree-walking [`crate::Interp`] or the compiled `xdp_vm::VmProc` — owns
//! its code form, its frame stack, expression evaluation and section
//! gather/scatter. Everything that happens once a statement's operands
//! are values is here, on [`ProcEnv`] (which holds the state the rules
//! keep between steps): initiating a send or a receive, completing one,
//! the barrier round trip, and planning a `redistribute`.
//! Request ids, tags, error text, blocking behavior and trace notes of
//! these rules are therefore the same on every backend by construction.
//!
//! **Evaluation order is observable**: what a step charges becomes
//! virtual time, and rendezvous ties break on `(time, seq)`. So the rules
//! take *already evaluated* operands, in the steps the caller sequences —
//! a value receive is [`ProcEnv::check_value_recv`] (which may block
//! before the match name's subscripts are charged), then the caller
//! evaluates the match name, then [`ProcEnv::post_value_recv`] (which
//! only now takes a request id). They never take closures that could
//! reorder charging.
//!
//! A rule that returns [`Action::BlockOn`] or [`Action::Barrier`] has
//! changed nothing; the caller leaves its program counter on the
//! statement, which runs again when the processor is woken.

use crate::env::{ProcEnv, RtError};
use crate::interp::{Action, StepNote, StepOut};
use std::sync::Arc;
use xdp_collectives::PlanCtx;
use xdp_ir::{Distribution, Section, Stmt, TransferKind, VarId};
use xdp_runtime::symtab::{SecState, SymtabError};
use xdp_runtime::{Buffer, Msg, Tag};

/// An initiated, uncompleted receive.
#[derive(Clone, Debug)]
pub(crate) enum PendingRecv {
    Value {
        var: VarId,
        sec: Section,
        touched: Vec<usize>,
    },
    Own {
        var: VarId,
        seg_id: usize,
        kind: TransferKind,
    },
}

impl ProcEnv {
    /// Join a machine: plan redistributions through its shared context.
    /// Every processor of one machine must be handed the same context
    /// (identical plans are what make schedules and tags agree
    /// machine-wide).
    pub fn set_plan_ctx(&mut self, ctx: Arc<PlanCtx>) {
        self.plan_ctx = ctx;
    }

    // ---- the step envelope ----

    /// Attribute the step in progress to program statement `sid`.
    pub fn at_stmt(&mut self, sid: u32) {
        self.cur_sid = Some(sid);
    }

    /// A local kernel ran in this step: charge its work and note it.
    pub fn ran_kernel(&mut self, name: String, flops: u64) {
        self.ops.flops += flops;
        self.cur_note = Some(StepNote::Kernel { name, flops });
    }

    /// Close the step that produced `action`: drain the work it charged
    /// and take its statement id and note.
    pub fn end_step(&mut self, action: Result<Action, RtError>) -> Result<StepOut, RtError> {
        let (sid, note) = (self.cur_sid.take(), self.cur_note.take());
        Ok(StepOut {
            action: action?,
            ops: self.drain_ops(),
            sid,
            note,
        })
    }

    // ---- send ----

    /// Initiate a send of `var[sec]`. A value send (`E =>`) ships
    /// `gathered`, the section as the caller gathered it — the one part of
    /// a send that differs between processors. The ownership sends
    /// (`E -=>`, `E -=>>`) give the section up here, and ship its value if
    /// `kind` is [`TransferKind::OwnershipValue`]: "owner send operations
    /// block until the section is accessible" (§2.6).
    pub fn send(
        &mut self,
        var: VarId,
        sec: Section,
        kind: TransferKind,
        salt: i64,
        dest: Option<Vec<usize>>,
        gathered: Option<Buffer>,
    ) -> Result<Action, RtError> {
        let payload = match kind {
            TransferKind::Value => gathered,
            TransferKind::Ownership | TransferKind::OwnershipValue => {
                if dest.as_ref().is_some_and(|d| d.len() > 1) {
                    return Err(self.bad_transfer("ownership multicast is meaningless".to_string()));
                }
                match self.symtab.state_of(var, &sec) {
                    SecState::Unowned => {
                        return Err(
                            self.bad_transfer(format!("ownership send of unowned {var}{sec}"))
                        )
                    }
                    SecState::Transitional => return Ok(Action::BlockOn { var, sec }),
                    SecState::Accessible => {}
                }
                let data = self.symtab.remove_ownership(var, &sec)?;
                (kind == TransferKind::OwnershipValue).then_some(data)
            }
        };
        let msg = Msg {
            tag: Tag::salted(var, sec, salt),
            kind,
            payload: payload.map(Arc::new),
            src: self.pid,
        };
        Ok(Action::Send { msg, dest })
    }

    // ---- receive ----

    /// First half of `E <- X`: the target must be owned, and the receive
    /// "blocks until E is accessible" (§2.7) — `Some(BlockOn)` while it
    /// is transitional. `None`: evaluate the match name, then
    /// [`ProcEnv::post_value_recv`].
    pub fn check_value_recv(
        &mut self,
        var: VarId,
        sec: &Section,
    ) -> Result<Option<Action>, RtError> {
        match self.symtab.state_of(var, sec) {
            SecState::Unowned => Err(RtError::Symtab(SymtabError::NotOwned {
                var,
                sec: sec.clone(),
            })),
            SecState::Transitional => Ok(Some(Action::BlockOn {
                var,
                sec: sec.clone(),
            })),
            SecState::Accessible => Ok(None),
        }
    }

    /// Second half of `E <- X`: mark `var[sec]` transitional and post a
    /// receive for the message named `name`.
    pub fn post_value_recv(
        &mut self,
        var: VarId,
        sec: Section,
        name: (VarId, Section),
        salt: i64,
    ) -> Result<Action, RtError> {
        let touched = self.symtab.begin_value_recv(var, &sec)?;
        let tag = Tag::salted(name.0, name.1, salt);
        Ok(self.post_recv(tag, PendingRecv::Value { var, sec, touched }))
    }

    /// `U <=` / `U <=-`: `var[sec]` must be unowned; install a
    /// transitional placeholder (so a later `await(U)` blocks instead of
    /// failing) and post a receive named by the section itself.
    pub fn post_ownership_recv(
        &mut self,
        var: VarId,
        sec: Section,
        kind: TransferKind,
        salt: i64,
    ) -> Result<Action, RtError> {
        let seg_id = self.symtab.begin_ownership_recv(var, &sec)?;
        let tag = Tag::salted(var, sec, salt);
        Ok(self.post_recv(tag, PendingRecv::Own { var, seg_id, kind }))
    }

    fn post_recv(&mut self, tag: Tag, pending: PendingRecv) -> Action {
        self.next_req += 1;
        let req_id = self.next_req;
        self.pending.insert(req_id, (tag.clone(), pending));
        Action::PostRecv { tag, req_id }
    }

    /// Receives initiated but not yet completed, as `(req_id, tag)`.
    pub fn outstanding(&self) -> Vec<(u64, Tag)> {
        self.outstanding_where(|_| true)
    }

    /// Outstanding receives whose target overlaps `sec` of `var` — the
    /// receives that must complete to make it accessible.
    pub fn outstanding_for(&self, var: VarId, sec: &Section) -> Vec<(u64, Tag)> {
        self.outstanding_where(|p| match p {
            PendingRecv::Value {
                var: v2, sec: s2, ..
            } => *v2 == var && s2.overlaps(sec),
            PendingRecv::Own {
                var: v2, seg_id, ..
            } => {
                *v2 == var
                    && self
                        .symtab
                        .entry(*v2)
                        .is_some_and(|e| e.segments[*seg_id].section.overlaps(sec))
            }
        })
    }

    fn outstanding_where(&self, keep: impl Fn(&PendingRecv) -> bool) -> Vec<(u64, Tag)> {
        let mut v: Vec<(u64, Tag)> = self
            .pending
            .iter()
            .filter(|(_, (_, p))| keep(p))
            .map(|(r, (t, _))| (*r, t.clone()))
            .collect();
        v.sort_by_key(|(r, _)| *r);
        v
    }

    /// Apply a matched message to the receive it completes.
    pub fn complete_recv(&mut self, req_id: u64, msg: Msg) -> Result<(), RtError> {
        let (tag, pending) = self.pending.remove(&req_id).ok_or_else(|| {
            self.bad_transfer(format!("completion for unknown receive request {req_id}"))
        })?;
        debug_assert_eq!(tag, msg.tag, "matcher delivered a mismatched tag");
        match pending {
            PendingRecv::Value { var, sec, touched } => {
                if self.checked && msg.kind != TransferKind::Value {
                    return Err(self.bad_transfer(format!(
                        "value receive of {tag} matched a {:?} send",
                        msg.kind
                    )));
                }
                let payload = msg.payload.as_ref().ok_or_else(|| {
                    self.bad_transfer(format!("value receive of {tag} got no payload"))
                })?;
                self.symtab
                    .complete_value_recv(var, &sec, &touched, payload)?;
            }
            PendingRecv::Own { var, seg_id, kind } => {
                if self.checked && msg.kind != kind {
                    return Err(self.bad_transfer(format!(
                        "ownership receive of {tag} matched a {:?} send",
                        msg.kind
                    )));
                }
                let payload: Option<&Buffer> = if kind == TransferKind::OwnershipValue {
                    msg.payload.as_deref()
                } else {
                    None
                };
                self.symtab.complete_ownership_recv(var, seg_id, payload)?;
            }
        }
        Ok(())
    }

    fn bad_transfer(&self, detail: String) -> RtError {
        RtError::BadTransfer {
            pid: self.pid,
            detail,
        }
    }

    // ---- barrier ----

    /// `barrier`: [`Action::Barrier`] until the executor has called
    /// [`ProcEnv::pass_barrier`], then `Continue` (consuming the release).
    pub fn barrier(&mut self) -> Action {
        if self.barrier_passed {
            self.barrier_passed = false;
            Action::Continue
        } else {
            Action::Barrier
        }
    }

    /// Release this processor from a barrier (executor callback).
    pub fn pass_barrier(&mut self) {
        self.barrier_passed = true;
    }

    // ---- redistribute ----

    /// `redistribute var to dist`: plan the move from the variable's
    /// current distribution through the machine's context and return this
    /// processor's share of it as plain XDP statements, for the caller to
    /// run in its own code form. They inherit the redistribute's statement
    /// id, so trace attribution stays on the source line.
    pub fn redistribute(&mut self, var: VarId, dist: Distribution) -> Result<Vec<Stmt>, RtError> {
        let decls = self.decls.clone();
        let decl = &decls[var.index()];
        let src = self
            .cur_dist
            .get(&var)
            .or(decl.dist.as_ref())
            .ok_or_else(|| {
                self.bad_transfer(format!("redistribute of undistributed `{}`", decl.name))
            })?;
        let plan = self.plan_ctx.plan(var, decl, src, &dist);
        // Planning consults the section algebra once per message.
        self.ops.symtab_ops += plan.schedule.message_count() as u64;
        // Epoch-salted tags keep successive redistributions of one
        // variable from cross-matching.
        self.redist_epoch += 1;
        let salt_base = self.redist_epoch as i64 * 1_000_000;
        let stmts = xdp_collectives::lower_redistribute_for_pid(&plan, self.pid, salt_base);
        self.cur_note = Some(StepNote::Collective {
            var: decl.name.clone(),
            strategy: plan.strategy.to_string(),
            pieces: plan.schedule.message_count(),
        });
        self.cur_dist.insert(var, dist);
        Ok(stmts)
    }
}
