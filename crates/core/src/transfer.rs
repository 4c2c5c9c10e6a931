//! Figure 1's transfer rules, written once.
//!
//! A processor is an evaluator plus these rules. The evaluator — the
//! tree-walking [`crate::Interp`] or the compiled `xdp_vm::VmProc` — owns
//! its code form, its frame stack, expression evaluation and section
//! gather/scatter. Everything that happens once a statement's operands
//! are values is here, on [`ProcEnv`] (which holds the state the rules
//! keep between steps): initiating a send or a receive, completing one,
//! the barrier round trip, and a `redistribute`: its plan, and this
//! processor's share of it run through the same rules.
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

use crate::env::{ProcEnv, RtError, RuleVal};
use crate::interp::{Action, Dest, StepNote, StepOut};
use std::sync::Arc;
use xdp_collectives::{PlanCtx, RedistPlan, ShareCursor, ShareOp};
use xdp_ir::{Distribution, Section, TransferKind, VarId};
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
    /// Join a machine: plan redistributions through its shared context,
    /// and take at most `max_steps` steps. Every processor of one machine
    /// must be handed the same context (identical plans are what make
    /// schedules and tags agree machine-wide).
    pub fn join(&mut self, ctx: Arc<PlanCtx>, max_steps: u64) {
        self.plan_ctx = ctx;
        self.max_steps = max_steps;
    }

    // ---- the step envelope ----

    /// Attribute the step in progress to program statement `sid`.
    pub fn at_stmt(&mut self, sid: u32) {
        self.cur_sid = Some(sid);
    }

    /// A local kernel ran in this step: charge its work and note it, or
    /// name the kernel that refused its call.
    pub fn ran_kernel(&mut self, name: Arc<str>, ran: Result<u64, String>) -> Result<(), RtError> {
        let flops = ran.map_err(|detail| RtError::KernelCall {
            pid: self.pid,
            name: name.to_string(),
            detail,
        })?;
        self.ops.flops += flops;
        self.cur_note = Some(StepNote::Kernel { name, flops });
        Ok(())
    }

    /// Close the step that produced `action`: count it against the
    /// statement budget — the one place any machine counts steps — drain
    /// the work it charged and take its statement id and note. Inlined into
    /// both evaluators' `step`, across the crate boundary.
    #[inline]
    pub fn end_step(&mut self, action: Result<Action, RtError>) -> Result<StepOut, RtError> {
        let (sid, note) = (self.cur_sid.take(), self.cur_note.take());
        self.steps += 1;
        if self.steps > self.max_steps {
            return Err(RtError::StepBudget {
                pid: self.pid,
                max_steps: self.max_steps,
            });
        }
        // The action is unwrapped in place: moved into a local first, it
        // cost the VM's step loop 15 % (one more copy per step).
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
        dest: Dest,
        gathered: Option<Buffer>,
    ) -> Result<Action, RtError> {
        let payload = match kind {
            TransferKind::Value => gathered,
            TransferKind::Ownership | TransferKind::OwnershipValue => {
                if matches!(&dest, Dest::Many(pids) if pids.len() > 1) {
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

    /// The first uncompleted receive initiated after request `after`: a
    /// walk over the outstanding receives that copies nothing.
    pub fn next_outstanding(&self, after: u64) -> Option<(u64, &Tag)> {
        self.pending
            .range(after + 1..)
            .next()
            .map(|(req, (tag, _))| (*req, tag))
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
        self.pending
            .iter()
            .filter(|(_, (_, p))| keep(p))
            .map(|(r, (t, _))| (*r, t.clone()))
            .collect()
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

    /// One step of `redistribute var to dist`. The first plans the move
    /// from the variable's current distribution through the machine's
    /// context and begins this processor's share of the plan; each later
    /// one runs the share's next operation through the rules above — a
    /// receive, a send bound to one pid, an await — charged exactly as the
    /// statement [`xdp_collectives::lower_redistribute_for_pid`] renders it
    /// would be. The caller stays on the statement while
    /// [`ProcEnv::redistributing`], so every step is attributed to it; a
    /// blocked await leaves the share where it is.
    pub fn redistribute(&mut self, var: VarId, dist: &Distribution) -> Result<Action, RtError> {
        if let Some(mut share) = self.share.take() {
            let action = self.share_op(&mut share)?;
            if !matches!(action, Action::BlockOn { .. }) {
                share.cur.take();
            }
            // A share with no operation left is over: the caller moves on.
            if share.cur.seek(&share.plan, self.pid).is_some() {
                self.share = Some(share);
            }
            return Ok(action);
        }
        let decl = &self.decls[var.index()];
        let src = self
            .cur_dist
            .get(&var)
            .or(decl.dist.as_ref())
            .ok_or_else(|| {
                self.bad_transfer(format!("redistribute of undistributed `{}`", decl.name))
            })?;
        let plan = self.plan_ctx.plan(var, decl, src, dist);
        // Planning consults the section algebra once per message.
        self.ops.symtab_ops += plan.schedule.message_count() as u64;
        // Epoch-salted tags keep successive redistributions of one
        // variable from cross-matching.
        self.redist_epoch += 1;
        self.cur_note = Some(StepNote::Collective {
            var,
            label: format!("{} x{}", plan.strategy, plan.schedule.message_count()),
        });
        self.cur_dist.insert(var, dist.clone());
        let mut cur = ShareCursor::default();
        if cur.seek(&plan, self.pid).is_some() {
            self.share = Some(RunningShare {
                plan,
                cur,
                salt_base: self.redist_epoch as i64 * 1_000_000,
            });
        }
        Ok(Action::Continue)
    }

    /// A `redistribute`'s share is in progress: its statement is not done.
    #[inline]
    pub fn redistributing(&self) -> bool {
        self.share.is_some()
    }

    /// Where the share in progress stands, as the position of the block it
    /// renders to: `stmt <taken>/<length>`.
    pub fn share_position(&self) -> Option<String> {
        let share = self.share.as_ref()?;
        let len = share.plan.share(self.pid).count();
        Some(format!("stmt {}/{len}", share.cur.taken()))
    }

    /// Run the operation `share` stands at.
    fn share_op(&mut self, share: &mut RunningShare) -> Result<Action, RtError> {
        let (op, t) = share
            .cur
            .seek(&share.plan, self.pid)
            .expect("a share in progress has an operation");
        // A machine plans one section per transfer (`PlanCtx::plan`).
        let (var, sec) = (share.plan.var, &t.secs[0]);
        let (kind, salt) = (TransferKind::OwnershipValue, share.salt_base + t.salt);
        Ok(match op {
            ShareOp::Recv => self.post_ownership_recv(var, sec.clone(), kind, salt)?,
            ShareOp::Send => self.send(var, sec.clone(), kind, salt, Dest::One(t.dst), None)?,
            ShareOp::Await => match self.await_(var, sec)? {
                RuleVal::Block(var, sec) => Action::BlockOn { var, sec },
                RuleVal::True | RuleVal::False => Action::Continue,
            },
        })
    }
}

/// A processor's share of a plan, in progress: the plan, where the
/// processor stands in it, and the salt of this redistribution's tags.
#[derive(Debug)]
pub(crate) struct RunningShare {
    plan: Arc<RedistPlan>,
    cur: ShareCursor,
    salt_base: i64,
}
