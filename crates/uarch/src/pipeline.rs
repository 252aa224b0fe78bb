//! The out-of-order, speculative core.
//!
//! The pipeline is the piece of the reproduction that makes transient
//! execution *real*: fetch follows branch predictions, wrong-path
//! instructions execute (and speculative loads fill the caches) until the
//! mispredicted branch resolves and squashes them. What a speculative load
//! may do is delegated to the plugged-in [`SpecPolicy`]; everything else —
//! visibility-point tracking, squash/recovery, RSB/BTB interaction, store
//! forwarding, serializing kernel traps — is shared by every scheme, so
//! measured overheads differ only because of the policy, exactly as in the
//! paper's gem5 setup.
//!
//! ## Timing model
//!
//! Each in-flight instruction lives in the ROB. An instruction computes its
//! result when all producers have computed *and* their `ready_at` times have
//! passed; its own `ready_at` is then `now + latency`. Commit retires up to
//! `width` computed instructions per cycle in order. This is a standard
//! dependency-DAG timing model: absolute IPC is approximate, relative
//! overheads between schemes are meaningful.

use crate::config::CoreConfig;
use crate::hooks::{HookAction, HookHandler};
use crate::isa::{Inst, Srcs, Width, INST_BYTES, NUM_REGS, REG_SYSNO};
use crate::machine::{Machine, Mode};
use crate::policy::{BlockSource, LoadCtx, LoadDecision, SpecPolicy};
use crate::predictor::{History, Predictors, Rsb};
use crate::sni::{RetiredInst, SniChecker};
use crate::stats::SimStats;
use persp_mem::MemoryHierarchy;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Errors terminating a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Committed-path fetch from an unmapped address.
    UnmappedFetch {
        /// The faulting address.
        pc: u64,
    },
    /// A `ret` committed with an empty call stack.
    CallStackUnderflow {
        /// The `ret`'s address.
        pc: u64,
    },
    /// No instruction committed for an implausibly long time.
    Deadlock {
        /// Cycle at which the watchdog fired.
        cycle: u64,
        /// Program counter of the stuck ROB head, if any.
        head_pc: Option<u64>,
    },
    /// The cycle budget given to [`Core::run`] was exhausted.
    CycleBudgetExhausted {
        /// The budget that was exceeded.
        budget: u64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::UnmappedFetch { pc } => write!(f, "fetch from unmapped address {pc:#x}"),
            SimError::CallStackUnderflow { pc } => {
                write!(f, "return with empty call stack at {pc:#x}")
            }
            SimError::Deadlock { cycle, head_pc } => {
                write!(
                    f,
                    "pipeline deadlock at cycle {cycle} (head pc {head_pc:?})"
                )
            }
            SimError::CycleBudgetExhausted { budget } => {
                write!(f, "cycle budget of {budget} exhausted")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Result of a completed [`Core::run`].
#[derive(Debug, Clone, Copy)]
pub struct RunSummary {
    /// Statistics accumulated during this run only.
    pub stats: SimStats,
}

/// Bounded set of speculative-load "taint roots" for STT-style tracking.
///
/// A value is tainted while any of its root loads is still speculative.
/// The set saturates at four roots; a saturated set is conservatively
/// treated as tainted whenever the consumer is speculative.
#[derive(Debug, Clone, Copy, Default)]
struct TaintSet {
    roots: [u64; 4],
    len: u8,
    saturated: bool,
}

impl TaintSet {
    /// Add a root; returns `true` when the set *newly* saturated (the
    /// root could not be recorded individually), so the caller can count
    /// the overflow instead of dropping attribution silently.
    fn add_root(&mut self, seq: u64) -> bool {
        if self.roots[..self.len as usize].contains(&seq) {
            return false;
        }
        if (self.len as usize) < self.roots.len() {
            self.roots[self.len as usize] = seq;
            self.len += 1;
            false
        } else if self.saturated {
            false
        } else {
            self.saturated = true;
            true
        }
    }

    /// Merge another set in; returns `true` when the merge *newly*
    /// saturated this set (saturation itself always propagates).
    fn merge(&mut self, other: &TaintSet) -> bool {
        let mut newly = false;
        for &r in &other.roots[..other.len as usize] {
            newly |= self.add_root(r);
        }
        if other.saturated && !self.saturated {
            self.saturated = true;
            newly = true;
        }
        newly
    }
}

#[derive(Debug, Clone, Copy)]
struct SrcDep {
    reg: u8,
    /// Sequence number of the in-flight producer at decode, or `None` if
    /// the value was architectural at decode time.
    producer: Option<u64>,
    /// Snapshot used when `producer` is `None`.
    snapshot: u64,
}

/// The source operands of one instruction, inline (no instruction has
/// more than two register sources — see [`Srcs`]). `Copy` keeps
/// the execute stage's per-cycle operand gather allocation-free; a
/// heap `Vec` here was the single hottest allocation in the simulator.
#[derive(Debug, Clone, Copy)]
struct SrcList {
    deps: [SrcDep; 2],
    len: u8,
}

impl SrcList {
    fn new(regs: Srcs, mut resolve: impl FnMut(u8) -> SrcDep) -> Self {
        let empty = SrcDep {
            reg: 0,
            producer: None,
            snapshot: 0,
        };
        let mut deps = [empty; 2];
        for (slot, &reg) in deps.iter_mut().zip(regs.iter()) {
            *slot = resolve(reg);
        }
        SrcList {
            deps,
            len: regs.len() as u8,
        }
    }

    fn as_slice(&self) -> &[SrcDep] {
        &self.deps[..self.len as usize]
    }
}

#[derive(Debug)]
struct RobEntry {
    seq: u64,
    pc: u64,
    inst: Inst,
    srcs: SrcList,
    /// Earliest cycle this instruction can begin executing (front-end).
    fetch_ready: u64,
    computed: bool,
    value: u64,
    ready_at: u64,
    /// Host-side wakeup list: seqs of consumers whose operand gather is
    /// asleep until this entry computes (`wake_waiters` schedules them
    /// for this entry's `ready_at`). Capacity-bounded — consumers that
    /// don't fit poll every cycle instead. Never influences simulated
    /// behavior.
    waiters: [u64; 4],
    n_waiters: u8,
    /// Branch-like bookkeeping (conditional, indirect, return).
    can_mispredict: bool,
    pred_target: u64,
    actual_target: u64,
    mispred: bool,
    squash_done: bool,
    hist_snapshot: History,
    rsb_snapshot: Option<Rsb>,
    stack_snapshot: Option<Vec<u64>>,
    pred_taken: bool,
    actual_taken: bool,
    /// Memory bookkeeping.
    addr: u64,
    width: Width,
    store_val: u64,
    issued_mem: bool,
    blocked: Option<BlockSource>,
    /// First blocking source, kept after the VP re-issue clears `blocked`
    /// so the post-fence memory latency is still attributed to the fence.
    block_memo: Option<BlockSource>,
    was_blocked: bool,
    spec_at_issue: bool,
    taint: TaintSet,
    vp_notified: bool,
    /// Privilege the instruction was fetched in (for BTB privilege tags).
    in_kernel: bool,
}

impl RobEntry {
    fn is_load(&self) -> bool {
        matches!(self.inst, Inst::Load { .. })
    }
    fn is_store(&self) -> bool {
        matches!(self.inst, Inst::Store { .. })
    }
    /// Unresolved = could still redirect/squash younger instructions.
    fn unresolved_at(&self, now: u64) -> bool {
        self.can_mispredict && !(self.computed && self.ready_at <= now)
    }
}

const DEADLOCK_WINDOW: u64 = 50_000;

/// When a failed execute attempt is worth repeating (see
/// [`Core::exec_stage`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Retry {
    /// Only when something wakes it: it computed, it sleeps in a
    /// producer's `waiters` list, or it is a load blocked until its VP
    /// (where `vp_stage` issues it).
    OnWake,
    /// At this cycle.
    At(u64),
    /// When the oldest uncomputed store computes, in the same pass.
    OnStore,
}

/// The execute stage's wake-driven scheduler and the ordered trackers
/// behind its rolling flags. Host-side only: what it holds decides when
/// an attempt is made, never what the attempt does. Squashed and
/// committed seqs are dropped lazily (they no longer resolve in the ROB).
#[derive(Debug, Default)]
struct Sched {
    /// Attempts due, keyed by (cycle, seq).
    due: BinaryHeap<Reverse<(u64, u64)>>,
    /// The current pass, in seq order.
    pass: BinaryHeap<Reverse<u64>>,
    /// Loads waiting for the oldest uncomputed store to compute.
    behind_store: BinaryHeap<Reverse<u64>>,
    /// Entries waiting for the oldest fence to commit.
    behind_fence: BinaryHeap<Reverse<u64>>,
    /// Control entries (`can_mispredict`) in the ROB, ascending;
    /// resolved ones leave from the front.
    controls: VecDeque<u64>,
    /// Fences in the ROB, ascending.
    fences: VecDeque<u64>,
    /// Stores in the ROB, ascending; computed ones leave from the front.
    stores: VecDeque<u64>,
    /// Computed, mispredicted, not yet squashed entries as
    /// `(seq, ready_at)`, ascending by seq.
    mispredicts: Vec<(u64, u64)>,
}

impl Sched {
    fn at(&mut self, cycle: u64, seq: u64) {
        self.due.push(Reverse((cycle, seq)));
    }

    fn note_mispredict(&mut self, seq: u64, ready_at: u64) {
        let k = self.mispredicts.partition_point(|&(s, _)| s < seq);
        self.mispredicts.insert(k, (seq, ready_at));
    }

    /// A squash by `seq`: forget every tracked entry younger than it,
    /// and `seq` itself as a pending mispredict.
    fn squash_by(&mut self, seq: u64) {
        for q in [&mut self.controls, &mut self.fences, &mut self.stores] {
            while q.back().is_some_and(|&s| s > seq) {
                q.pop_back();
            }
        }
        let k = self.mispredicts.partition_point(|&(s, _)| s < seq);
        self.mispredicts.truncate(k);
    }
}

/// One stall-attribution class (mirrors the fields of
/// [`crate::stats::StallBreakdown`]); the classification half of stall
/// accounting, factored out so the idle fast-forward can attribute a
/// whole run of identical stall cycles in a single bump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StallClass {
    IsvFence,
    IsvMiss,
    DsvFence,
    DsvmtMiss,
    VpWait,
    Squash,
    Frontend,
    Backend,
}

/// The simulated out-of-order core.
pub struct Core {
    /// Configuration (Table 7.1).
    pub cfg: CoreConfig,
    /// Cache hierarchy.
    pub mem: MemoryHierarchy,
    /// Committed architectural state.
    pub machine: Machine,
    /// Prediction structures — shared across contexts, never flushed.
    pub pred: Predictors,
    policy: Box<dyn SpecPolicy>,
    hooks: Box<dyn HookHandler>,

    rob: VecDeque<RobEntry>,
    sched: Sched,
    /// Mirror of `rob`'s sequence numbers, maintained at every ROB
    /// push/pop. `index_of_seq` binary-searches this dense array instead
    /// of probing the wide `RobEntry`s — seq lookup is the single
    /// hottest operation in the simulator, and 8-byte keys keep the
    /// whole search window inside a few cache lines.
    rob_seqs: VecDeque<u64>,
    next_seq: u64,
    now: u64,
    last_commit_cycle: u64,
    halted: bool,

    fetch_pc: u64,
    fetch_stall_until: u64,
    /// End of the most recent mispredict-redirect penalty window — lets
    /// stall attribution tell squash recovery apart from other front-end
    /// stalls.
    squash_redirect_until: u64,
    fetch_halted: bool,
    fetch_wait_indirect: Option<u64>,
    last_fetch_line: u64,

    rename: [Option<u64>; NUM_REGS],
    spec_stack: Vec<u64>,
    lq_used: usize,
    sq_used: usize,

    /// Did the last `step` mutate anything beyond the per-cycle clocks
    /// and stall accounting? Set at every mutation site; a cycle that
    /// leaves it false is provably idempotent until the next time
    /// threshold, which is what licenses the idle fast-forward.
    made_progress: bool,
    /// Cycles skipped by the idle fast-forward. Deliberately *not* part
    /// of [`SimStats`]: it is a property of the simulator, not of the
    /// simulated machine, and must never reach serialized output (which
    /// is required to be byte-identical with fast-forward on and off).
    ff_skipped: u64,

    call_trace: Option<std::collections::HashSet<u64>>,
    sni: Option<SniChecker>,
    stats: SimStats,
}

impl Core {
    /// Build a core around a machine image, memory hierarchy, speculation
    /// policy and kernel hook handler.
    pub fn new(
        cfg: CoreConfig,
        machine: Machine,
        mem: MemoryHierarchy,
        policy: Box<dyn SpecPolicy>,
        hooks: Box<dyn HookHandler>,
    ) -> Self {
        let pred = Predictors::with_btb_mode(cfg.btb_entries, cfg.rsb_entries, cfg.btb_mode);
        Core {
            cfg,
            mem,
            machine,
            pred,
            policy,
            hooks,
            rob: VecDeque::new(),
            sched: Sched::default(),
            rob_seqs: VecDeque::new(),
            next_seq: 0,
            now: 0,
            last_commit_cycle: 0,
            halted: false,
            fetch_pc: 0,
            fetch_stall_until: 0,
            squash_redirect_until: 0,
            fetch_halted: false,
            fetch_wait_indirect: None,
            last_fetch_line: u64::MAX,
            rename: [None; NUM_REGS],
            spec_stack: Vec::new(),
            lq_used: 0,
            sq_used: 0,
            made_progress: false,
            ff_skipped: 0,
            call_trace: None,
            sni: None,
            stats: SimStats::default(),
        }
    }

    /// Attach a speculative non-interference checker; its counters
    /// accumulate into this core's [`SimStats::sni`] and export as
    /// `sim.sni.*` metrics.
    pub fn attach_sni(&mut self, checker: SniChecker) {
        self.sni = Some(checker);
    }

    /// Is an SNI checker attached?
    pub fn sni_attached(&self) -> bool {
        self.sni.is_some()
    }

    /// Start recording the *committed* control-transfer targets (calls,
    /// indirect calls, indirect jumps) — the substrate of dynamic ISV
    /// generation, analogous to kernel-level tracing (ftrace).
    pub fn enable_call_trace(&mut self) {
        self.call_trace = Some(std::collections::HashSet::new());
    }

    /// Stop tracing and return the recorded target set.
    pub fn take_call_trace(&mut self) -> std::collections::HashSet<u64> {
        self.call_trace.take().unwrap_or_default()
    }

    /// Cumulative statistics across all runs.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// The plugged-in policy (for counter inspection).
    pub fn policy(&self) -> &dyn SpecPolicy {
        self.policy.as_ref()
    }

    /// Mutable access to the policy (e.g. to reconfigure ISVs at runtime).
    pub fn policy_mut(&mut self) -> &mut dyn SpecPolicy {
        self.policy.as_mut()
    }

    /// Mutable access to the hook handler (the kernel).
    pub fn hooks_mut(&mut self) -> &mut dyn HookHandler {
        self.hooks.as_mut()
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Cycles the idle fast-forward has skipped so far (0 when disabled).
    /// A simulator-side diagnostic — intentionally outside [`SimStats`]
    /// so serialized experiment output stays byte-identical with the
    /// fast-forward on and off.
    pub fn ff_skipped_cycles(&self) -> u64 {
        self.ff_skipped
    }

    /// Run the program at `entry` until a `Halt` commits or `max_cycles`
    /// elapse. Pipeline state is reset; architectural and
    /// microarchitectural (cache, predictor) state persists across runs —
    /// which is exactly what cross-context attacks rely on.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] on unmapped committed-path fetches, call
    /// stack underflow, deadlock, or budget exhaustion.
    pub fn run(&mut self, entry: u64, max_cycles: u64) -> Result<RunSummary, SimError> {
        let start_stats = self.stats;
        let start_cycle = self.now;
        self.begin_run(entry);

        while !self.halted {
            if self.now - start_cycle > max_cycles {
                return Err(SimError::CycleBudgetExhausted { budget: max_cycles });
            }
            if self.now - self.last_commit_cycle > DEADLOCK_WINDOW {
                return Err(SimError::Deadlock {
                    cycle: self.now,
                    head_pc: self.rob.front().map(|e| e.pc),
                });
            }
            self.made_progress = false;
            self.step()?;
            if self.cfg.idle_fastforward && !self.made_progress {
                self.fast_forward(start_cycle, max_cycles);
            }
        }
        Ok(RunSummary {
            stats: self.stats.delta_since(&start_stats),
        })
    }

    /// Reset the pipeline (ROB, front end, rename and queue state) to
    /// start fetching at `entry`.
    fn begin_run(&mut self, entry: u64) {
        self.rob.clear();
        self.rob_seqs.clear();
        self.sched = Sched::default();
        self.halted = false;
        self.fetch_pc = entry;
        self.fetch_stall_until = self.now;
        self.squash_redirect_until = self.now;
        self.fetch_halted = false;
        self.fetch_wait_indirect = None;
        self.last_fetch_line = u64::MAX;
        self.rename = [None; NUM_REGS];
        self.spec_stack = self.machine.call_stack.clone();
        self.lq_used = 0;
        self.sq_used = 0;
        self.last_commit_cycle = self.now;
        if let Some(sni) = self.sni.as_mut() {
            sni.on_run_start(entry);
        }
    }

    fn step(&mut self) -> Result<(), SimError> {
        self.exec_stage();
        self.squash_stage();
        self.vp_stage();
        let committed = self.commit_stage()?;
        if committed == 0 {
            // Classify before fetch refills the ROB: the state that
            // produced the empty commit slot is what gets the blame.
            self.record_stall();
        } else {
            self.made_progress = true;
        }
        self.fetch_stage()?;
        if self.machine.mode == Mode::Kernel {
            self.stats.kernel_cycles += 1;
        } else {
            self.stats.user_cycles += 1;
        }
        self.stats.cycles += 1;
        self.now += 1;
        Ok(())
    }

    // ----- helpers ------------------------------------------------------

    /// Index of the in-flight entry with sequence number `seq`, if it is
    /// still in the ROB. Sequence numbers are monotonically increasing but
    /// *not* contiguous after squashes, so this is a binary search.
    fn index_of_seq(&self, seq: u64) -> Option<usize> {
        debug_assert_eq!(self.rob_seqs.len(), self.rob.len());
        let idx = self.rob_seqs.partition_point(|&s| s < seq);
        (idx < self.rob_seqs.len() && self.rob_seqs[idx] == seq).then_some(idx)
    }

    /// Is the source value available at cycle `now`? Returns
    /// `(value, taint)`, or the ROB index of the producer whose result
    /// is not ready yet.
    fn src_status(&self, dep: &SrcDep) -> Result<(u64, TaintSet), usize> {
        match dep.producer {
            None => Ok((dep.snapshot, TaintSet::default())),
            Some(seq) => match self.index_of_seq(seq) {
                None => Ok((self.machine.reg(dep.reg), TaintSet::default())),
                Some(idx) => {
                    let p = &self.rob[idx];
                    if p.computed && p.ready_at <= self.now {
                        Ok((p.value, p.taint))
                    } else {
                        Err(idx)
                    }
                }
            },
        }
    }

    /// Does the taint set contain a root load that is still speculative
    /// (in flight and not at its VP)?
    fn taint_active(&self, taint: &TaintSet, any_older_unresolved: bool) -> bool {
        if taint.saturated {
            return any_older_unresolved;
        }
        taint.roots[..taint.len as usize]
            .iter()
            .any(|&seq| self.index_of_seq(seq).is_some())
    }

    // ----- execute ------------------------------------------------------

    /// Oldest control entry that could still redirect or squash younger
    /// instructions (`u64::MAX` if none). Resolution is permanent, so
    /// resolved entries leave the tracker for good.
    fn oldest_unresolved_control(&mut self) -> u64 {
        while let Some(&seq) = self.sched.controls.front() {
            match self.index_of_seq(seq) {
                Some(i) if self.rob[i].unresolved_at(self.now) => return seq,
                _ => {
                    self.sched.controls.pop_front();
                }
            }
        }
        u64::MAX
    }

    /// Oldest store whose address is still unknown (`u64::MAX` if none).
    fn oldest_uncomputed_store(&mut self) -> u64 {
        while let Some(&seq) = self.sched.stores.front() {
            match self.index_of_seq(seq) {
                Some(i) if !self.rob[i].computed => return seq,
                _ => {
                    self.sched.stores.pop_front();
                }
            }
        }
        u64::MAX
    }

    /// Attempts, in program order, every entry due this cycle. An entry
    /// is due only in a cycle where its attempt can change something;
    /// otherwise it sleeps on what it waits for (see [`Retry`]), so the
    /// pass never re-walks waiting entries. The outcome equals
    /// attempting every uncomputed entry each cycle: a skipped attempt
    /// is one that would have changed nothing.
    ///
    /// An entry is attempted with three flags, each "some older entry
    /// is …", read from the ordered trackers in [`Sched`]:
    /// - an unresolved control entry (the attempt is speculative);
    /// - a fence (no attempt until the fence commits);
    /// - a store with an unknown address (loads wait: conservative
    ///   memory disambiguation).
    ///
    /// The first two cannot change within the pass — every compute here
    /// sets `ready_at > now`, and fences leave only at commit. The third
    /// can: when the oldest uncomputed store computes, the loads it held
    /// are attempted later in the same pass, as they are younger.
    fn exec_stage(&mut self) {
        let now = self.now;
        let oldest_unresolved = self.oldest_unresolved_control();
        let oldest_fence = self.sched.fences.front().copied().unwrap_or(u64::MAX);
        let mut oldest_store = self.oldest_uncomputed_store();
        while let Some(&Reverse((t, seq))) = self.sched.due.peek() {
            if t > now {
                break;
            }
            self.sched.due.pop();
            self.sched.pass.push(Reverse(seq));
        }
        let mut last = None;
        while let Some(Reverse(seq)) = self.sched.pass.pop() {
            // Squashed and committed entries no longer resolve; a
            // polling load may have been issued by `vp_stage` meanwhile.
            let Some(i) = self.index_of_seq(seq) else {
                continue;
            };
            debug_assert!(last < Some(seq), "each entry is attempted once, in order");
            last = Some(seq);
            if self.rob[i].computed {
                continue;
            }
            debug_assert!(self.rob[i].fetch_ready <= now);
            if seq > oldest_fence {
                self.sched.behind_fence.push(Reverse(seq));
                continue;
            }
            match self.try_compute(i, seq > oldest_unresolved, seq > oldest_store) {
                Retry::OnWake => {}
                Retry::At(t) => self.sched.at(t, seq),
                Retry::OnStore => self.sched.behind_store.push(Reverse(seq)),
            }
            if seq == oldest_store && self.rob[i].computed {
                oldest_store = self.oldest_uncomputed_store();
                while let Some(&Reverse(load)) = self.sched.behind_store.peek() {
                    if load > oldest_store {
                        break;
                    }
                    self.sched.behind_store.pop();
                    self.sched.pass.push(Reverse(load));
                }
            }
        }
    }

    fn try_compute(
        &mut self,
        i: usize,
        speculative: bool,
        older_store_addr_unknown: bool,
    ) -> Retry {
        // Gather sources (SrcList is Copy — no per-attempt allocation).
        let deps = self.rob[i].srcs;
        let mut vals = [0u64; 2];
        let mut nvals = 0;
        let mut taint = TaintSet::default();
        let mut bumped = false;
        for dep in deps.as_slice() {
            match self.src_status(dep) {
                Ok((v, t)) => {
                    vals[nvals] = v;
                    nvals += 1;
                    if taint.merge(&t) {
                        // Counted even if a later operand turns out not
                        // ready, so the bump repeats every cycle the
                        // attempt does.
                        self.stats.taint_roots_overflow += 1;
                        self.made_progress = true;
                        bumped = true;
                    }
                }
                Err(p) => {
                    // Operands not ready. Until the failing producer's
                    // result is ready nothing observable can change: the
                    // deps ahead of it are ready, and their values and
                    // whether their merge bumps the overflow counter are
                    // fixed for the whole wait. A bump must repeat every
                    // cycle, though, so a bumping attempt retries next
                    // cycle.
                    if bumped {
                        return Retry::At(self.now + 1);
                    }
                    if self.rob[p].computed {
                        return Retry::At(self.rob[p].ready_at);
                    }
                    // The producer hasn't computed, so no finish time
                    // exists yet: sleep in its waiter list until its
                    // compute site wakes us (poll if the list is full).
                    // The producer is strictly older, so any squash that
                    // kills it kills this entry too — a sleeper can't be
                    // stranded.
                    let my_seq = self.rob[i].seq;
                    let q = &mut self.rob[p];
                    if (q.n_waiters as usize) < q.waiters.len() {
                        q.waiters[q.n_waiters as usize] = my_seq;
                        q.n_waiters += 1;
                        return Retry::OnWake;
                    }
                    return Retry::At(self.now + 1);
                }
            }
        }

        let inst = self.rob[i].inst;
        let pc = self.rob[i].pc;
        let seq = self.rob[i].seq;
        match inst {
            Inst::Alu { op, .. } => {
                let e = &mut self.rob[i];
                e.value = op.apply(vals[0], vals[1]);
                e.ready_at = self.now + op.latency();
                e.taint = taint;
                e.computed = true;
            }
            Inst::AluImm { op, imm, .. } => {
                let e = &mut self.rob[i];
                e.value = op.apply(vals[0], imm);
                e.ready_at = self.now + op.latency();
                e.taint = taint;
                e.computed = true;
            }
            Inst::Branch { cond, target, .. } => {
                let taken = cond.eval(vals[0], vals[1]);
                let lat = self.cfg.branch_resolve_latency.max(1);
                let e = &mut self.rob[i];
                e.actual_taken = taken;
                e.actual_target = if taken { target } else { pc + INST_BYTES };
                e.mispred = e.actual_target != e.pred_target;
                e.ready_at = self.now + lat;
                e.computed = true;
            }
            Inst::JumpInd { .. } | Inst::CallInd { .. } => {
                let target = vals[0];
                let e = &mut self.rob[i];
                e.actual_target = target;
                e.mispred = e.pred_target != target;
                e.ready_at = self.now + 1;
                e.computed = true;
                let ready_at = e.ready_at;
                // Resume a front-end stalled on this unpredicted indirect.
                if self.fetch_wait_indirect == Some(seq) {
                    self.fetch_wait_indirect = None;
                    self.fetch_pc = target;
                    let extra = if self.policy.predict_indirect() {
                        0
                    } else {
                        self.cfg.retpoline_cost
                    };
                    self.fetch_stall_until = self.fetch_stall_until.max(ready_at + extra);
                    self.rob[i].mispred = false;
                    self.rob[i].pred_target = target;
                }
            }
            Inst::Store { width, .. } => {
                let e = &mut self.rob[i];
                e.store_val = vals[0];
                e.addr = vals[1].wrapping_add(store_offset(&inst) as u64);
                e.width = width;
                e.taint = taint;
                e.ready_at = self.now + 1;
                e.computed = true;
            }
            Inst::Load { offset, width, .. } => {
                let addr = vals[0].wrapping_add(offset as u64);
                // Memory disambiguation: conservative — wait while any older
                // store address is unknown.
                if older_store_addr_unknown {
                    return if bumped {
                        Retry::At(self.now + 1)
                    } else {
                        Retry::OnStore
                    };
                }
                // Store-to-load forwarding from the youngest matching older
                // store; overlap without exact match stalls until it drains.
                let mut forward: Option<(u64, TaintSet)> = None;
                let mut must_wait = false;
                for j in (0..i).rev() {
                    let s = &self.rob[j];
                    if !s.is_store() {
                        continue;
                    }
                    let (sa, sw) = (s.addr, s.width.bytes());
                    let (la, lw) = (addr, width.bytes());
                    if sa == la && sw == lw {
                        forward = Some((s.store_val, s.taint));
                        break;
                    }
                    if sa < la + lw && la < sa + sw {
                        must_wait = true;
                        break;
                    }
                }
                if must_wait {
                    return Retry::At(self.now + 1);
                }
                if let Some((v, t)) = forward {
                    let e = &mut self.rob[i];
                    e.value = mask_width(v, width);
                    e.addr = addr;
                    e.width = width;
                    e.ready_at = self.now + 1;
                    e.taint = t;
                    e.computed = true;
                    e.issued_mem = false;
                } else if self.rob[i].blocked.is_none() {
                    // Policy gate. A blocked load is issued by `vp_stage`
                    // once safe.
                    let tainted_addr = self.taint_active(&taint, speculative) && speculative;
                    let ctx = LoadCtx {
                        pc,
                        addr,
                        mode: self.machine.mode,
                        asid: self.machine.asid,
                        speculative,
                        tainted_addr,
                        l1_hit: self.mem.probe_l1d(addr),
                        cur_sysno: self.machine.cur_sysno,
                    };
                    match self.policy.check_load(&ctx) {
                        LoadDecision::Allow => {
                            if speculative {
                                if let Some(sni) = self.sni.as_mut() {
                                    sni.on_spec_issue(
                                        &ctx,
                                        seq,
                                        &taint.roots[..taint.len as usize],
                                        taint.saturated,
                                        &mut self.stats.sni,
                                    );
                                }
                            }
                            self.issue_load(i, addr, width, taint, speculative);
                        }
                        LoadDecision::BlockUntilVp(src) => {
                            let e = &mut self.rob[i];
                            e.blocked = Some(src);
                            e.block_memo = Some(src);
                            e.was_blocked = true;
                            e.addr = addr;
                            e.width = width;
                            e.taint = taint;
                            self.stats.loads_fenced += 1;
                            self.made_progress = true;
                        }
                    }
                }
            }
            Inst::CacheFlush { offset, .. } => {
                let addr = vals[0].wrapping_add(offset as u64);
                if speculative {
                    if let Some(sni) = self.sni.as_mut() {
                        sni.on_spec_flush(
                            &taint.roots[..taint.len as usize],
                            taint.saturated,
                            &mut self.stats.sni,
                        );
                    }
                }
                // Flushes are not policy-gated; they perform at execute.
                self.mem.flush(addr);
                let e = &mut self.rob[i];
                e.addr = addr;
                e.ready_at = self.now + 1;
                e.computed = true;
            }
            Inst::Fence | Inst::Nop => {
                let e = &mut self.rob[i];
                e.ready_at = self.now + 1;
                e.computed = true;
            }
            // MovImm / Jump / Call / Ret are computed at decode.
            // Serializing instructions are computed at the ROB head.
            _ => {}
        }
        if self.rob[i].computed {
            self.made_progress = true;
            self.wake_waiters(i);
            let e = &self.rob[i];
            if e.mispred {
                let (seq, ready_at) = (e.seq, e.ready_at);
                self.sched.note_mispredict(seq, ready_at);
            }
            Retry::OnWake
        } else if bumped {
            Retry::At(self.now + 1)
        } else {
            // A load blocked until its VP: nothing changes until
            // `vp_stage` issues it.
            Retry::OnWake
        }
    }

    /// Wake consumers sleeping on entry `i`'s result (see
    /// `RobEntry::waiters`): schedule their next attempt for this
    /// entry's `ready_at`, the first cycle the operand can be read.
    /// Must be called at every `computed` transition. A sleeper squashed
    /// since (it is always younger than its producer) no longer resolves
    /// when its turn comes, and is skipped then.
    fn wake_waiters(&mut self, i: usize) {
        let e = &mut self.rob[i];
        let n = e.n_waiters as usize;
        e.n_waiters = 0;
        for &w in &e.waiters[..n] {
            self.sched.at(e.ready_at, w);
        }
    }

    fn issue_load(
        &mut self,
        i: usize,
        addr: u64,
        width: Width,
        mut taint: TaintSet,
        speculative: bool,
    ) {
        let (lat, _level) = self.mem.read_classified(addr);
        let value = self.machine.mem.read(addr, width);
        if speculative {
            let seq = self.rob[i].seq;
            if taint.add_root(seq) {
                self.stats.taint_roots_overflow += 1;
            }
        }
        let e = &mut self.rob[i];
        e.value = value;
        e.addr = addr;
        e.width = width;
        e.ready_at = self.now + lat;
        e.taint = taint;
        e.computed = true;
        e.issued_mem = true;
        e.spec_at_issue = speculative;
        e.blocked = None;
        self.made_progress = true;
        self.wake_waiters(i);
    }

    // ----- squash -------------------------------------------------------

    /// Squash behind the oldest computed mispredict whose result is
    /// ready, if any (at most one per cycle).
    fn squash_stage(&mut self) {
        let now = self.now;
        let Some(&(seq, _)) = self
            .sched
            .mispredicts
            .iter()
            .find(|&&(_, ready_at)| ready_at <= now)
        else {
            return;
        };
        self.sched.squash_by(seq);
        let i = self
            .index_of_seq(seq)
            .expect("a pending mispredict is in the ROB");
        self.made_progress = true;

        // Restore front-end state from the mispredicting entry's snapshots.
        let (actual_target, hist_snapshot, actual_taken, is_cond) = {
            let e = &mut self.rob[i];
            e.squash_done = true;
            (
                e.actual_target,
                e.hist_snapshot,
                e.actual_taken,
                matches!(e.inst, Inst::Branch { .. }),
            )
        };
        if let Some(rsb) = self.rob[i].rsb_snapshot.clone() {
            self.pred.rsb = rsb;
        }
        if let Some(stack) = self.rob[i].stack_snapshot.clone() {
            self.spec_stack = stack;
        }
        if is_cond {
            self.pred.hist = (hist_snapshot << 1) | u64::from(actual_taken);
        } else {
            self.pred.hist = hist_snapshot;
        }

        // Drop younger entries.
        while self.rob.len() > i + 1 {
            let dropped = self.rob.pop_back().expect("len checked");
            self.rob_seqs.pop_back();
            self.stats.squashed_insts += 1;
            if let Some(sni) = self.sni.as_mut() {
                sni.on_squash(dropped.seq);
            }
            if dropped.is_load() {
                self.lq_used -= 1;
                if dropped.issued_mem && dropped.spec_at_issue {
                    self.stats.transient_loads_issued += 1;
                }
            }
            if dropped.is_store() {
                self.sq_used -= 1;
            }
        }
        self.stats.squashes += 1;

        // Rebuild the rename table from surviving entries.
        self.rename = [None; NUM_REGS];
        for e in &self.rob {
            if let Some(dst) = e.inst.dst() {
                self.rename[dst as usize] = Some(e.seq);
            }
        }

        self.fetch_pc = actual_target;
        self.fetch_stall_until = self.now + self.cfg.mispredict_penalty;
        self.squash_redirect_until = self.fetch_stall_until;
        self.fetch_halted = false;
        self.fetch_wait_indirect = None;
        self.last_fetch_line = u64::MAX;
    }

    // ----- visibility points ---------------------------------------------

    /// Issue policy-blocked loads and notify the policy of loads that
    /// reached their visibility point: every entry up to and including
    /// the oldest unresolved control entry.
    fn vp_stage(&mut self) {
        for i in 0..self.rob.len() {
            let e = &self.rob[i];
            if e.is_load() && e.blocked.is_some() {
                let (addr, width, taint) = (e.addr, e.width, e.taint);
                self.issue_load(i, addr, width, taint, false);
            }
            let e = &self.rob[i];
            if e.is_load() && e.computed && e.issued_mem && !e.vp_notified {
                let ctx = LoadCtx {
                    pc: e.pc,
                    addr: e.addr,
                    mode: self.machine.mode,
                    asid: self.machine.asid,
                    speculative: false,
                    tainted_addr: false,
                    l1_hit: true,
                    cur_sysno: self.machine.cur_sysno,
                };
                self.policy.on_load_vp(&ctx);
                self.rob[i].vp_notified = true;
                // The VP notification mutates policy-side state
                // (metadata-cache LRU commits, fence counters).
                self.made_progress = true;
            }
            if self.rob[i].unresolved_at(self.now) {
                // No younger entry is at its VP.
                break;
            }
        }
    }

    // ----- stall attribution --------------------------------------------

    /// Classify the mechanism holding the ROB head back at `self.now`.
    /// Pure: shared by the per-cycle `record_stall` and by the idle
    /// fast-forward, which accounts a whole run of identical stall cycles
    /// in one step.
    fn classify_stall(&self) -> StallClass {
        let Some(head) = self.rob.front() else {
            // Empty ROB: the front end is the bottleneck — either a
            // squash-redirect penalty or an ordinary fetch stall.
            return if self.now < self.squash_redirect_until {
                StallClass::Squash
            } else {
                StallClass::Frontend
            };
        };
        // A policy-blocked head load — or one still paying the memory
        // latency of its delayed (post-VP) issue — blames the policy.
        let policy_src = head.blocked.or((head.computed
            && head.ready_at > self.now
            && head.was_blocked)
            .then_some(head.block_memo)
            .flatten());
        if let Some(src) = policy_src {
            return match src {
                BlockSource::Isv => StallClass::IsvFence,
                BlockSource::IsvMiss => StallClass::IsvMiss,
                BlockSource::Dsv | BlockSource::UnknownAlloc => StallClass::DsvFence,
                BlockSource::DsvmtMiss => StallClass::DsvmtMiss,
                BlockSource::Fence | BlockSource::Dom | BlockSource::Stt => StallClass::VpWait,
            };
        }
        if !head.computed && head.fetch_ready > self.now {
            StallClass::Frontend
        } else {
            StallClass::Backend
        }
    }

    /// Account `n` stall cycles to `class`, keeping the invariant that
    /// the breakdown sums to `stats.stall_cycles` exactly.
    fn account_stalls(&mut self, class: StallClass, n: u64) {
        self.stats.stall_cycles += n;
        let b = &mut self.stats.stalls;
        match class {
            StallClass::IsvFence => b.isv_fence += n,
            StallClass::IsvMiss => b.isv_miss += n,
            StallClass::DsvFence => b.dsv_fence += n,
            StallClass::DsvmtMiss => b.dsvmt_miss += n,
            StallClass::VpWait => b.vp_wait += n,
            StallClass::Squash => b.squash += n,
            StallClass::Frontend => b.frontend += n,
            StallClass::Backend => b.backend += n,
        }
    }

    /// Account one stall cycle (nothing committed this cycle) to the
    /// mechanism holding the ROB head back. Exactly one breakdown class
    /// is bumped per call, so the breakdown always sums to
    /// `stats.stall_cycles`.
    fn record_stall(&mut self) {
        self.account_stalls(self.classify_stall(), 1);
    }

    // ----- idle fast-forward --------------------------------------------

    /// Earliest future cycle at which any time-threshold comparison in
    /// `step` can change its outcome: an in-flight instruction leaving
    /// the front end (`fetch_ready`) or finishing execution/memory
    /// (`ready_at`), the front end coming out of a redirect/refill/
    /// retpoline stall (`fetch_stall_until`), or the squash-attribution
    /// window closing (`squash_redirect_until` — a pure classification
    /// boundary, but `record_stall` reads it). `u64::MAX` when no future
    /// event exists (a genuine deadlock; the watchdog deadline caps it).
    fn next_wake(&self) -> u64 {
        // The idle step just ran at `now - 1`; the next step runs at
        // `now`. A threshold at exactly `now` can already flip a
        // comparison for that step, so `t >= now` (not `t > now`) —
        // thresholds strictly in the past are settled by monotonicity.
        let now = self.now;
        let mut wake = u64::MAX;
        let mut consider = |t: u64| {
            if t >= now && t < wake {
                wake = t;
            }
        };
        for e in &self.rob {
            if e.computed {
                consider(e.ready_at);
            } else {
                consider(e.fetch_ready);
            }
        }
        consider(self.fetch_stall_until);
        consider(self.squash_redirect_until);
        wake
    }

    /// Bulk-advance the clock over a run of idle cycles.
    ///
    /// Called right after a `step` that made no progress: such a step is
    /// a pure function of `(state, now)` whose only effects are the
    /// per-cycle clocks and one stall-attribution bump, and every time
    /// comparison it performs is a monotone threshold check — so it stays
    /// a no-op until [`Core::next_wake`]. Each skipped cycle is accounted
    /// exactly as the slow path would have: `stall_cycles` and the (one,
    /// constant over the interval) matching breakdown class, the
    /// kernel/user cycle for the current (unchanging) privilege mode, and
    /// `cycles`/`now`. The jump is capped at the cycle-budget and
    /// deadlock-watchdog deadlines so both errors fire at the identical
    /// cycle with identical counters as the slow path.
    fn fast_forward(&mut self, start_cycle: u64, max_cycles: u64) {
        let budget_deadline = start_cycle.saturating_add(max_cycles).saturating_add(1);
        let deadlock_deadline = self.last_commit_cycle + DEADLOCK_WINDOW + 1;
        let wake = self.next_wake().min(budget_deadline).min(deadlock_deadline);
        let delta = wake.saturating_sub(self.now);
        if delta == 0 {
            return;
        }
        self.account_stalls(self.classify_stall(), delta);
        if self.machine.mode == Mode::Kernel {
            self.stats.kernel_cycles += delta;
        } else {
            self.stats.user_cycles += delta;
        }
        self.stats.cycles += delta;
        self.now += delta;
        self.ff_skipped += delta;
    }

    // ----- commit -------------------------------------------------------

    fn commit_stage(&mut self) -> Result<u32, SimError> {
        let mut committed = 0u32;
        for _ in 0..self.cfg.width {
            let Some(head) = self.rob.front() else { break };

            // Serializing instructions execute at the head.
            if head.inst.is_serializing() && !head.computed {
                let inst = head.inst;
                let e = self.rob.front_mut().expect("nonempty");
                if let Inst::RdTsc { .. } = inst {
                    e.value = self.now
                }
                e.ready_at = self.now;
                e.computed = true;
                // Serializing instructions commit in this same loop pass:
                // release any sleeping consumers before the entry leaves
                // the ROB.
                self.wake_waiters(0);
            }

            let head = self.rob.front().expect("nonempty");
            if !head.computed || head.ready_at > self.now {
                break;
            }
            debug_assert!(
                !head.mispred || head.squash_done,
                "mispredicted control must squash before commit"
            );

            let entry = self.rob.pop_front().expect("nonempty");
            self.rob_seqs.pop_front();
            self.last_commit_cycle = self.now;
            self.stats.committed_insts += 1;
            committed += 1;

            // Differential shadow replay: check the retired instruction
            // against architectural state *before* its commit effects.
            if let Some(sni) = self.sni.as_mut() {
                sni.on_commit(
                    &RetiredInst {
                        seq: entry.seq,
                        pc: entry.pc,
                        inst: entry.inst,
                        value: entry.value,
                        addr: entry.addr,
                        width: entry.width,
                        store_val: entry.store_val,
                        taken: entry.actual_taken,
                        target: entry.actual_target,
                    },
                    &self.machine,
                    &mut self.stats.sni,
                );
            }

            // Free the rename slot if this entry is still the last writer.
            if let Some(dst) = entry.inst.dst() {
                if self.rename[dst as usize] == Some(entry.seq) {
                    self.rename[dst as usize] = None;
                }
                self.machine.set_reg(dst, entry.value);
            }

            match entry.inst {
                Inst::Store { width, .. } => {
                    self.machine.mem.write(entry.addr, entry.store_val, width);
                    self.mem.write(entry.addr);
                    self.sq_used -= 1;
                    self.stats.committed_stores += 1;
                }
                Inst::Load { .. } => {
                    self.lq_used -= 1;
                    self.stats.committed_loads += 1;
                }
                Inst::Fence => {
                    let oldest = self.sched.fences.pop_front();
                    debug_assert_eq!(oldest, Some(entry.seq));
                    // Entries between this fence and the next may now
                    // execute.
                    let next = self.sched.fences.front().copied().unwrap_or(u64::MAX);
                    while let Some(&Reverse(seq)) = self.sched.behind_fence.peek() {
                        if seq > next {
                            break;
                        }
                        self.sched.behind_fence.pop();
                        self.sched.at(self.now + 1, seq);
                    }
                }
                Inst::Branch { .. } => {
                    self.stats.committed_branches += 1;
                    self.pred
                        .dir
                        .update(entry.pc, entry.hist_snapshot, entry.actual_taken);
                }
                Inst::JumpInd { .. } | Inst::CallInd { .. } => {
                    self.pred.btb.install(
                        entry.pc,
                        entry.hist_snapshot,
                        entry.actual_target,
                        entry.in_kernel,
                    );
                    if matches!(entry.inst, Inst::CallInd { .. }) {
                        self.machine.call_stack.push(entry.pc + INST_BYTES);
                    }
                    if let Some(trace) = &mut self.call_trace {
                        trace.insert(entry.actual_target);
                    }
                }
                Inst::Call { target } => {
                    self.machine.call_stack.push(entry.pc + INST_BYTES);
                    if let Some(trace) = &mut self.call_trace {
                        trace.insert(target);
                    }
                }
                Inst::Ret if self.machine.call_stack.pop().is_none() => {
                    return Err(SimError::CallStackUnderflow { pc: entry.pc });
                }
                Inst::Syscall => {
                    self.stats.syscalls += 1;
                    if let Some(trace) = &mut self.call_trace {
                        trace.insert(self.machine.kernel_entry);
                    }
                    self.machine.mode = Mode::Kernel;
                    self.machine.cur_sysno = Some(self.machine.reg(REG_SYSNO) as u16);
                    self.machine.sysret_target = entry.pc + INST_BYTES;
                    self.fetch_pc = self.machine.kernel_entry;
                    self.fetch_halted = false;
                    self.fetch_stall_until = self.now + 1 + self.policy.syscall_entry_cost();
                }
                Inst::Sysret => {
                    self.machine.mode = Mode::User;
                    self.machine.cur_sysno = None;
                    self.fetch_pc = self.machine.sysret_target;
                    self.fetch_halted = false;
                    self.fetch_stall_until = self.now + 1 + self.policy.syscall_exit_cost();
                }
                Inst::KHook { id } => {
                    let result = self.hooks.on_hook(id, &mut self.machine);
                    self.fetch_pc = match result.action {
                        HookAction::Continue => entry.pc + INST_BYTES,
                        HookAction::Redirect(target) => target,
                    };
                    self.fetch_halted = false;
                    self.fetch_stall_until = self.now + 1 + result.extra_cycles;
                    // Hooks may rewrite registers/memory wholesale; the
                    // pipe behind a serializing op is empty, so the spec
                    // view simply restarts from architectural state.
                    debug_assert!(self.rob.is_empty());
                    self.rename = [None; NUM_REGS];
                    self.spec_stack = self.machine.call_stack.clone();
                }
                Inst::RdTsc { .. } => {
                    self.fetch_pc = entry.pc + INST_BYTES;
                    self.fetch_halted = false;
                    self.fetch_stall_until = self.now + 1;
                }
                Inst::Halt => {
                    self.halted = true;
                    return Ok(committed);
                }
                _ => {}
            }
            self.machine.pc = entry.pc;
        }
        Ok(committed)
    }

    // ----- fetch / decode --------------------------------------------------

    fn fetch_stage(&mut self) -> Result<(), SimError> {
        if self.halted
            || self.fetch_halted
            || self.fetch_wait_indirect.is_some()
            || self.now < self.fetch_stall_until
        {
            return Ok(());
        }
        for _ in 0..self.cfg.width {
            if self.rob.len() >= self.cfg.rob_entries {
                break;
            }
            let pc = self.fetch_pc;
            let Some(inst) = self.machine.inst_at(pc) else {
                // Wrong-path fetch into unmapped memory simply stalls the
                // front-end until the squash redirects it. On the committed
                // path (an empty ROB) this is a real fault.
                if !self.rob.is_empty() {
                    return Ok(());
                }
                return Err(SimError::UnmappedFetch { pc });
            };

            // Instruction-cache timing: one lookup per new line.
            let line = pc & !63;
            if line != self.last_fetch_line {
                // The lookup itself mutates i-cache LRU/stats, even when
                // it ends up stalling fetch instead of decoding.
                self.made_progress = true;
                let lat = self.mem.fetch(pc);
                self.last_fetch_line = line;
                if lat > self.mem.config().l1i.rt_latency {
                    self.fetch_stall_until = self.now + lat;
                    return Ok(());
                }
            }

            // Capacity checks.
            if matches!(inst, Inst::Load { .. }) && self.lq_used >= self.cfg.lq_entries {
                break;
            }
            if matches!(inst, Inst::Store { .. }) && self.sq_used >= self.cfg.sq_entries {
                break;
            }

            self.decode_one(pc, inst);

            if inst.is_serializing() {
                self.fetch_halted = true;
                break;
            }
            if self.fetch_wait_indirect.is_some() {
                break;
            }
        }
        Ok(())
    }

    fn decode_one(&mut self, pc: u64, inst: Inst) {
        self.made_progress = true;
        let seq = self.next_seq;
        self.next_seq += 1;

        let srcs = SrcList::new(inst.srcs(), |reg| {
            let producer = self.rename[reg as usize];
            let snapshot = if producer.is_none() {
                self.machine.reg(reg)
            } else {
                0
            };
            SrcDep {
                reg,
                producer,
                snapshot,
            }
        });

        let fetch_ready = self.now + self.cfg.frontend_latency;
        let mut entry = RobEntry {
            seq,
            pc,
            inst,
            srcs,
            fetch_ready,
            computed: false,
            value: 0,
            ready_at: u64::MAX,
            waiters: [0; 4],
            n_waiters: 0,
            can_mispredict: false,
            pred_target: 0,
            actual_target: 0,
            mispred: false,
            squash_done: false,
            hist_snapshot: self.pred.hist,
            rsb_snapshot: None,
            stack_snapshot: None,
            pred_taken: false,
            actual_taken: false,
            addr: 0,
            width: Width::Q,
            store_val: 0,
            issued_mem: false,
            blocked: None,
            block_memo: None,
            was_blocked: false,
            spec_at_issue: false,
            taint: TaintSet::default(),
            vp_notified: false,
            in_kernel: self.machine.mode == Mode::Kernel,
        };

        match inst {
            Inst::MovImm { imm, .. } => {
                entry.value = imm;
                entry.ready_at = fetch_ready + 1;
                entry.computed = true;
                self.fetch_pc = pc + INST_BYTES;
            }
            Inst::Branch { .. } => {
                let taken = self.pred.dir.predict(pc, self.pred.hist);
                let target = match inst {
                    Inst::Branch { target, .. } => target,
                    _ => unreachable!(),
                };
                entry.pred_taken = taken;
                entry.pred_target = if taken { target } else { pc + INST_BYTES };
                entry.can_mispredict = true;
                entry.rsb_snapshot = Some(self.pred.rsb.clone());
                entry.stack_snapshot = Some(self.spec_stack.clone());
                self.pred.hist = (self.pred.hist << 1) | u64::from(taken);
                self.fetch_pc = entry.pred_target;
            }
            Inst::Jump { target } => {
                entry.ready_at = fetch_ready + 1;
                entry.computed = true;
                self.fetch_pc = target;
            }
            Inst::Call { target } => {
                self.spec_stack.push(pc + INST_BYTES);
                self.pred.rsb.push(pc + INST_BYTES);
                entry.ready_at = fetch_ready + 1;
                entry.computed = true;
                self.fetch_pc = target;
            }
            Inst::CallInd { .. } | Inst::JumpInd { .. } => {
                if matches!(inst, Inst::CallInd { .. }) {
                    self.spec_stack.push(pc + INST_BYTES);
                    self.pred.rsb.push(pc + INST_BYTES);
                }
                entry.can_mispredict = true;
                entry.rsb_snapshot = Some(self.pred.rsb.clone());
                entry.stack_snapshot = Some(self.spec_stack.clone());
                let in_kernel = self.machine.mode == Mode::Kernel;
                let prediction = if self.policy.predict_indirect() {
                    self.pred.btb.predict(pc, self.pred.hist, in_kernel)
                } else {
                    None
                };
                match prediction {
                    Some(t) => {
                        entry.pred_target = t;
                        self.fetch_pc = t;
                    }
                    None => {
                        // No prediction: stall fetch until the target
                        // resolves (also the retpoline path).
                        self.fetch_wait_indirect = Some(seq);
                        entry.pred_target = u64::MAX; // placeholder, fixed on resolve
                    }
                }
            }
            Inst::Ret => {
                let actual = self.spec_stack.pop().unwrap_or(u64::MAX);
                let in_kernel = self.machine.mode == Mode::Kernel;
                let predicted = self
                    .pred
                    .rsb
                    .pop()
                    .or_else(|| self.pred.btb.predict(pc, self.pred.hist, in_kernel))
                    .unwrap_or(pc + INST_BYTES);
                entry.can_mispredict = true;
                entry.actual_target = actual;
                entry.pred_target = predicted;
                entry.actual_taken = true;
                entry.mispred = predicted != actual;
                entry.ready_at = fetch_ready + self.cfg.ret_resolve_latency;
                entry.computed = true;
                entry.rsb_snapshot = Some(self.pred.rsb.clone());
                entry.stack_snapshot = Some(self.spec_stack.clone());
                self.fetch_pc = predicted;
            }
            Inst::Load { .. } => {
                self.lq_used += 1;
                self.fetch_pc = pc + INST_BYTES;
            }
            Inst::Store { .. } => {
                self.sq_used += 1;
                self.fetch_pc = pc + INST_BYTES;
            }
            _ => {
                self.fetch_pc = pc + INST_BYTES;
            }
        }

        if let Some(dst) = inst.dst() {
            self.rename[dst as usize] = Some(seq);
        }
        if entry.can_mispredict {
            self.sched.controls.push_back(seq);
        }
        match inst {
            Inst::Fence => self.sched.fences.push_back(seq),
            Inst::Store { .. } => self.sched.stores.push_back(seq),
            _ => {}
        }
        if entry.computed {
            if entry.mispred {
                self.sched.note_mispredict(seq, entry.ready_at);
            }
        } else if !inst.is_serializing() {
            self.sched.at(fetch_ready, seq);
        }
        self.rob.push_back(entry);
        self.rob_seqs.push_back(seq);
    }
}

fn store_offset(inst: &Inst) -> i64 {
    match *inst {
        Inst::Store { offset, .. } => offset,
        _ => 0,
    }
}

fn mask_width(v: u64, w: Width) -> u64 {
    match w {
        Width::B => v & 0xff,
        Width::Q => v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NullHooks;
    use crate::isa::AluOp;
    use crate::isa::{Assembler, Cond};
    use crate::policy::UnsafePolicy;
    use persp_mem::hierarchy::HierarchyConfig;

    fn core_with(text: Vec<(u64, Inst)>) -> Core {
        let mut machine = Machine::new();
        machine.load_text(text);
        Core::new(
            CoreConfig::paper_default(),
            machine,
            MemoryHierarchy::new(HierarchyConfig::paper_default()),
            Box::new(UnsafePolicy::new()),
            Box::new(NullHooks),
        )
    }

    #[test]
    fn straight_line_arithmetic() {
        let mut a = Assembler::new(0x1000);
        a.movi(1, 20);
        a.movi(2, 22);
        a.alu(AluOp::Add, 3, 1, 2);
        a.push(Inst::Halt);
        let mut core = core_with(a.finish());
        core.run(0x1000, 10_000).expect("runs");
        assert_eq!(core.machine.reg(3), 42);
    }

    #[test]
    fn loads_and_stores_round_trip() {
        let mut a = Assembler::new(0x1000);
        a.movi(1, 0x8000);
        a.movi(2, 1234);
        a.store(2, 1, 0);
        a.load(3, 1, 0);
        a.push(Inst::Halt);
        let mut core = core_with(a.finish());
        core.run(0x1000, 10_000).expect("runs");
        assert_eq!(core.machine.reg(3), 1234, "store-to-load forwarding");
        assert_eq!(core.machine.mem.read_u64(0x8000), 1234);
    }

    #[test]
    fn loop_with_branch() {
        // r1 = 0; while (r1 != 10) r1 += 1;
        let mut a = Assembler::new(0x2000);
        a.movi(1, 0);
        a.movi(2, 10);
        let top = a.here();
        a.alui(AluOp::Add, 1, 1, 1);
        a.branch_to(Cond::Ne, 1, 2, top);
        a.push(Inst::Halt);
        let mut core = core_with(a.finish());
        let summary = core.run(0x2000, 100_000).expect("runs");
        assert_eq!(core.machine.reg(1), 10);
        assert!(summary.stats.committed_branches >= 10);
    }

    #[test]
    fn call_and_ret() {
        let mut a = Assembler::new(0x3000);
        let f = 0x4000u64;
        a.push(Inst::Call { target: f });
        a.push(Inst::Halt);
        let mut main_text = a.finish();
        let mut fa = Assembler::new(f);
        fa.movi(5, 99);
        fa.push(Inst::Ret);
        main_text.extend(fa.finish());
        let mut core = core_with(main_text);
        core.run(0x3000, 10_000).expect("runs");
        assert_eq!(core.machine.reg(5), 99);
        assert!(core.machine.call_stack.is_empty());
    }

    #[test]
    fn indirect_jump_resolves_without_prediction() {
        let mut a = Assembler::new(0x5000);
        a.movi(1, 0x5010);
        a.push(Inst::JumpInd { base: 1 });
        a.movi(2, 1); // skipped
        a.push(Inst::Nop); // 0x500c (skipped)
        let landing = a.here();
        assert_eq!(landing, 0x5010);
        a.movi(3, 7);
        a.push(Inst::Halt);
        let mut core = core_with(a.finish());
        core.run(0x5000, 10_000).expect("runs");
        assert_eq!(core.machine.reg(3), 7);
        assert_eq!(
            core.machine.reg(2),
            0,
            "skipped instruction must not commit"
        );
    }

    #[test]
    fn transient_wrong_path_load_fills_cache_but_does_not_commit() {
        // Spectre-style skeleton: train a branch taken, then flip the
        // condition; the wrong-path load touches memory, gets squashed,
        // and its line stays resident.
        let secret_addr = 0x9000u64;
        let bound_ptr = 0xA000u64;

        // Loop: r4 = i; bound = *(*bound_ptr); if (r4 < bound) { r6 = load secret }.
        let mut a = Assembler::new(0x6000);
        a.movi(1, bound_ptr);
        let skip = a.new_label();
        a.load(2, 1, 0); // r2 = *bound_ptr (pointer)
        a.load(3, 2, 0); // r3 = bound (two dependent loads = long window)
        a.branch(Cond::Geu, 10, 3, skip); // if i >= bound skip
        a.movi(5, secret_addr);
        a.load(6, 5, 0); // the "transient" load when mispredicted
        a.bind(skip);
        a.push(Inst::Halt);
        let text = a.finish();
        let branch_pc = text
            .iter()
            .find(|(_, i)| matches!(i, Inst::Branch { .. }))
            .map(|(a, _)| *a)
            .unwrap();

        let mut core = core_with(text);
        core.machine.mem.write_u64(bound_ptr, bound_ptr + 0x100);
        core.machine.mem.write_u64(bound_ptr + 0x100, 100); // bound = 100
        core.machine.mem.write_u64(secret_addr, 0x5ec7e7);

        // Train: i = 0 (< 100) → branch not taken, body executes.
        for _ in 0..6 {
            core.machine.set_reg(10, 0);
            core.run(0x6000, 100_000).expect("training run");
            assert_eq!(core.machine.reg(6), 0x5ec7e7);
        }

        // Attack run: i = 200 (>= 100) → branch *should* skip, but it is
        // predicted not-taken; make the bound loads slow so the window is
        // long enough for the wrong-path load to issue.
        core.mem.flush(bound_ptr);
        core.mem.flush(bound_ptr + 0x100);
        core.mem.flush(secret_addr);
        core.machine.set_reg(10, 200);
        core.machine.set_reg(6, 0);
        let before = core.stats();
        core.run(0x6000, 100_000).expect("attack run");
        let delta = core.stats().delta_since(&before);

        assert_eq!(core.machine.reg(6), 0, "transient load must not commit");
        assert!(delta.squashes >= 1, "the branch mispredicted: {delta:?}");
        assert!(
            delta.transient_loads_issued >= 1,
            "the wrong-path load issued transiently: {delta:?}"
        );
        assert!(
            core.mem.probe_any(secret_addr),
            "microarchitectural state persists"
        );
        let _ = branch_pc;
    }

    #[test]
    fn rdtsc_measures_load_latency() {
        let mut a = Assembler::new(0x7000);
        a.movi(1, 0xC000);
        a.push(Inst::RdTsc { dst: 2 });
        a.load(3, 1, 0);
        a.push(Inst::RdTsc { dst: 4 });
        a.alu(AluOp::Sub, 5, 4, 2);
        a.push(Inst::Halt);
        let text = a.finish();

        let mut core = core_with(text);
        // Cold: ~110 cycles; warm: ~2.
        core.run(0x7000, 10_000).expect("cold run");
        let cold = core.machine.reg(5);
        core.run(0x7000, 10_000).expect("warm run");
        let warm = core.machine.reg(5);
        assert!(cold > warm + 50, "cold {cold} vs warm {warm}");
    }

    #[test]
    fn syscall_traps_to_kernel_and_back() {
        let mut a = Assembler::new(0x100);
        a.movi(17, 3);
        a.push(Inst::Syscall);
        a.movi(9, 77); // runs after sysret
        a.push(Inst::Halt);
        let mut text = a.finish();

        let mut k = Assembler::new(0xFFFF_0000);
        k.movi(8, 1); // kernel work
        k.push(Inst::Sysret);
        text.extend(k.finish());

        let mut core = core_with(text);
        core.machine.kernel_entry = 0xFFFF_0000;
        let summary = core.run(0x100, 10_000).expect("runs");
        assert_eq!(core.machine.reg(8), 1);
        assert_eq!(core.machine.reg(9), 77);
        assert_eq!(core.machine.mode, Mode::User);
        assert_eq!(summary.stats.syscalls, 1);
        assert!(summary.stats.kernel_cycles > 0);
    }

    #[test]
    fn unmapped_fetch_is_an_error() {
        let mut core = core_with(vec![(
            0x0,
            Inst::Jump {
                target: 0xdead_0000,
            },
        )]);
        let err = core.run(0x0, 10_000).unwrap_err();
        assert!(matches!(err, SimError::UnmappedFetch { .. }));
    }

    #[test]
    fn cycle_budget_is_enforced() {
        // Infinite loop.
        let mut a = Assembler::new(0x0);
        let top = a.here();
        a.branch_to(Cond::Eq, 0, 0, top);
        let mut core = core_with(a.finish());
        let err = core.run(0x0, 500).unwrap_err();
        assert!(matches!(err, SimError::CycleBudgetExhausted { .. }));
    }

    #[test]
    fn fence_orders_execution() {
        let mut a = Assembler::new(0x0);
        a.movi(1, 0x8000);
        a.push(Inst::Fence);
        a.load(2, 1, 0);
        a.push(Inst::Halt);
        let mut core = core_with(a.finish());
        core.machine.mem.write_u64(0x8000, 5);
        core.run(0x0, 10_000).expect("runs");
        assert_eq!(core.machine.reg(2), 5);
    }

    #[test]
    fn clflush_evicts() {
        let mut a = Assembler::new(0x0);
        a.movi(1, 0x8000);
        a.load(2, 1, 0); // fill
        a.push(Inst::CacheFlush { base: 1, offset: 0 });
        a.push(Inst::Halt);
        let mut core = core_with(a.finish());
        core.run(0x0, 10_000).expect("runs");
        assert!(!core.mem.probe_any(0x8000));
    }

    #[test]
    fn khook_redirect_is_followed() {
        struct Redirector;
        impl HookHandler for Redirector {
            fn on_hook(&mut self, id: u16, m: &mut Machine) -> crate::hooks::HookResult {
                m.set_reg(20, u64::from(id));
                crate::hooks::HookResult {
                    extra_cycles: 3,
                    action: HookAction::Redirect(0x9000),
                }
            }
        }
        let mut a = Assembler::new(0x0);
        a.push(Inst::KHook { id: 42 });
        a.movi(21, 1); // skipped by redirect
        let mut text = a.finish();
        let mut b = Assembler::new(0x9000);
        b.movi(22, 2);
        b.push(Inst::Halt);
        text.extend(b.finish());

        let mut machine = Machine::new();
        machine.load_text(text);
        let mut core = Core::new(
            CoreConfig::paper_default(),
            machine,
            MemoryHierarchy::new(HierarchyConfig::paper_default()),
            Box::new(UnsafePolicy::new()),
            Box::new(Redirector),
        );
        core.run(0x0, 10_000).expect("runs");
        assert_eq!(core.machine.reg(20), 42);
        assert_eq!(core.machine.reg(21), 0);
        assert_eq!(core.machine.reg(22), 2);
    }

    #[test]
    fn stall_attribution_partitions_stall_cycles() {
        // A loop with dependent loads + branches exercises frontend,
        // backend, and squash stall classes.
        let mut a = Assembler::new(0x2000);
        a.movi(1, 0);
        a.movi(2, 40);
        a.movi(4, 0x8000);
        let top = a.here();
        a.load(5, 4, 0);
        a.load(6, 5, 0);
        a.alui(AluOp::Add, 1, 1, 1);
        a.branch_to(Cond::Ne, 1, 2, top);
        a.push(Inst::Halt);
        let mut core = core_with(a.finish());
        core.machine.mem.write_u64(0x8000, 0x9000);
        core.machine.mem.write_u64(0x9000, 7);
        let summary = core.run(0x2000, 1_000_000).expect("runs");
        let s = summary.stats;
        assert!(s.stall_cycles > 0, "dependent loads must stall: {s:?}");
        assert_eq!(
            s.stalls.total(),
            s.stall_cycles,
            "breakdown must partition the stall cycles exactly: {s:?}"
        );
        assert!(s.stall_cycles < s.cycles, "some cycles committed");
    }

    #[test]
    fn fence_stalls_are_attributed_to_vp_wait() {
        use crate::policy::FencePolicy;
        // Speculative loads under FENCE wait for their VP; those waits
        // must land in the vp_wait class, and the partition must hold.
        // The branch condition depends on the loaded value, so each
        // iteration's load computes under the previous iteration's
        // still-unresolved branch — a real speculation window.
        let mut a = Assembler::new(0x2000);
        a.movi(1, 0);
        a.movi(2, 20);
        a.movi(4, 0x8000);
        let top = a.here();
        a.load(3, 4, 0); // r3 = 1
        a.alu(AluOp::Add, 1, 1, 3); // r1 += r3
        a.branch_to(Cond::Ne, 1, 2, top);
        a.push(Inst::Halt);
        let mut machine = Machine::new();
        machine.load_text(a.finish());
        machine.mem.write_u64(0x8000, 1);
        let mut core = Core::new(
            CoreConfig::paper_default(),
            machine,
            MemoryHierarchy::new(HierarchyConfig::paper_default()),
            Box::new(FencePolicy::new()),
            Box::new(NullHooks),
        );
        let summary = core.run(0x2000, 1_000_000).expect("runs");
        let s = summary.stats;
        assert_eq!(s.stalls.total(), s.stall_cycles, "{s:?}");
        assert!(s.loads_fenced > 0, "FENCE blocked loads: {s:?}");
        assert!(s.stalls.vp_wait > 0, "fence waits attributed: {s:?}");
        assert_eq!(s.stalls.isv_fence, 0, "no ISV mechanism here");
    }

    #[test]
    fn fence_policy_blocks_transient_side_effects() {
        use crate::policy::FencePolicy;
        // Same gadget as the transient test, but under FENCE the secret
        // line must stay cold.
        let secret_addr = 0x9000u64;
        let bound_ptr = 0xA000u64;
        let mut a = Assembler::new(0x6000);
        a.movi(1, bound_ptr);
        let skip = a.new_label();
        a.load(2, 1, 0);
        a.load(3, 2, 0);
        a.branch(Cond::Geu, 10, 3, skip);
        a.movi(5, secret_addr);
        a.load(6, 5, 0);
        a.bind(skip);
        a.push(Inst::Halt);

        let mut machine = Machine::new();
        machine.load_text(a.finish());
        machine.mem.write_u64(bound_ptr, bound_ptr + 0x100);
        machine.mem.write_u64(bound_ptr + 0x100, 100);
        machine.mem.write_u64(secret_addr, 0x5ec7e7);
        let mut core = Core::new(
            CoreConfig::paper_default(),
            machine,
            MemoryHierarchy::new(HierarchyConfig::paper_default()),
            Box::new(FencePolicy::new()),
            Box::new(NullHooks),
        );

        for _ in 0..6 {
            core.machine.set_reg(10, 0);
            core.run(0x6000, 100_000).expect("training run");
        }
        core.mem.flush(bound_ptr);
        core.mem.flush(bound_ptr + 0x100);
        core.mem.flush(secret_addr);
        core.machine.set_reg(10, 200);
        core.run(0x6000, 100_000).expect("attack run");

        assert!(
            !core.mem.probe_any(secret_addr),
            "FENCE must prevent the transient fill"
        );
        assert!(core.policy().counters().blocked_fence > 0);
    }

    // ----- wake rules ---------------------------------------------------
    //
    // The execute stage attempts an instruction only when the attempt can
    // change something. These tests pin, cycle for cycle, the moments the
    // wake rules must hit. The expected cycles are those of a stage that
    // re-attempts every waiting entry every cycle, the reference the
    // wake rules must reproduce.

    /// One step-by-step run from `entry` until `Halt` commits. Returns,
    /// per watched pc, the cycle its entry computed, and the cycles in
    /// which `taint_roots_overflow` was bumped (with the bump count).
    fn stepped_run(core: &mut Core, entry: u64, watch: &[u64]) -> (Vec<u64>, Vec<(u64, u64)>) {
        let mut computed = vec![u64::MAX; watch.len()];
        let mut bumps = Vec::new();
        core.begin_run(entry);
        while !core.halted {
            let (now, before) = (core.now, core.stats.taint_roots_overflow);
            core.step().expect("steps");
            let after = core.stats.taint_roots_overflow;
            if after != before {
                bumps.push((now, after - before));
            }
            for (slot, &pc) in computed.iter_mut().zip(watch) {
                let hit = core.rob.iter().any(|e| e.pc == pc && e.computed);
                if *slot == u64::MAX && hit {
                    *slot = now;
                }
            }
            assert!(core.now < 100_000, "program did not halt");
        }
        (computed, bumps)
    }

    fn core_with_policy(text: Vec<(u64, Inst)>, policy: Box<dyn SpecPolicy>) -> Core {
        let mut machine = Machine::new();
        machine.load_text(text);
        Core::new(
            CoreConfig::paper_default(),
            machine,
            MemoryHierarchy::new(HierarchyConfig::paper_default()),
            policy,
            Box::new(NullHooks),
        )
    }

    #[test]
    fn load_behind_unknown_store_executes_in_the_stores_cycle() {
        // The store's address comes from a cold load; the younger load's
        // address is ready at once, but disambiguation holds it until
        // the store computes — and then it must go in the same pass.
        let mut a = Assembler::new(0x1000);
        a.movi(1, 0x8000);
        a.movi(5, 0xA000);
        a.load(2, 1, 0); // r2 = store address (cold miss)
        let store = a.store(0, 2, 0);
        let load = a.load(4, 5, 0);
        a.push(Inst::Halt);
        let mut core = core_with(a.finish());
        core.machine.mem.write_u64(0x8000, 0xC000);
        let (computed, _) = stepped_run(&mut core, 0x1000, &[store, load]);
        assert_eq!(computed[1], computed[0], "same-cycle wake");
        assert_eq!(computed, [WAKE_A_STORE, WAKE_A_STORE]);
    }

    #[test]
    fn policy_blocked_load_issues_exactly_at_its_vp() {
        use crate::policy::FencePolicy;
        // A branch waiting on a cold load keeps the younger load
        // speculative; FENCE blocks it until the branch resolves. The
        // branch targets its own fall-through, so it never mispredicts.
        let mut a = Assembler::new(0x1000);
        a.movi(1, 0x8000);
        a.movi(5, 0xA000);
        a.load(2, 1, 0);
        let branch = a.here();
        a.branch_to(Cond::Eq, 2, 0, branch + INST_BYTES);
        let load = a.load(4, 5, 0);
        a.push(Inst::Halt);
        let mut core = core_with_policy(a.finish(), Box::new(FencePolicy::new()));
        let (computed, _) = stepped_run(&mut core, 0x1000, &[branch, load]);
        let vp = computed[0] + core.cfg.branch_resolve_latency;
        assert_eq!(computed[1], vp, "issued at the branch's resolution");
        assert_eq!(computed, [WAKE_B_BRANCH, WAKE_B_VP]);
        assert_eq!(core.stats.loads_fenced, 1, "blocked once, not re-checked");
    }

    #[test]
    fn saturated_taint_source_bumps_overflow_once_per_polled_cycle() {
        // Five speculative loads (under a slow, never-mispredicting
        // branch) are summed into r9, whose taint saturates. A younger
        // load reading r9 sits behind a store whose address is two cold
        // loads away; every cycle it re-gathers r9 it bumps the overflow
        // counter, until the store computes and lets it issue.
        let mut a = Assembler::new(0x1000);
        a.movi(1, 0x8000);
        a.load(2, 1, 0); // cold
        a.load(11, 2, 0); // cold, dependent: holds the ROB head
        let branch = a.here();
        a.branch_to(Cond::Eq, 2, 0, branch + INST_BYTES);
        a.movi(3, 0x20000);
        for (k, dst) in [4u8, 5, 6, 7, 8].into_iter().enumerate() {
            a.load(dst, 3, 64 * k as i64);
        }
        a.alu(AluOp::Add, 9, 4, 5);
        a.alu(AluOp::Add, 9, 9, 6);
        a.alu(AluOp::Add, 9, 9, 7);
        a.alu(AluOp::Add, 9, 9, 8); // fifth root: saturates (one bump)
        let store = a.store(0, 11, 0);
        let load = a.load(12, 9, 0);
        a.push(Inst::Halt);
        let mut core = core_with(a.finish());
        core.machine.mem.write_u64(0x8000, 0x9000);
        core.machine.mem.write_u64(0x9000, 0xC000);
        let (computed, bumps) = stepped_run(&mut core, 0x1000, &[store, load]);
        assert_eq!(computed, [WAKE_C_STORE, WAKE_C_STORE]);
        assert!(bumps.iter().all(|&(_, n)| n == 1), "{bumps:?}");
        let polled: Vec<u64> = bumps.iter().skip(1).map(|&(c, _)| c).collect();
        let expected: Vec<u64> = (WAKE_C_FIRST_POLL..=WAKE_C_STORE).collect();
        assert_eq!(
            polled, expected,
            "one bump per cycle, through the store's cycle"
        );
        assert_eq!(core.stats.taint_roots_overflow, 1 + expected.len() as u64);
    }

    #[test]
    fn squash_takes_the_oldest_of_two_ready_mispredicts() {
        // Both branches are predicted taken (cold counters), both are
        // actually not taken, and both read the same cold load — so they
        // resolve in the same cycle. The second sits on the first one's
        // predicted path: squashing the older one removes the younger.
        let mut a = Assembler::new(0x1000);
        a.movi(1, 0x8000);
        a.load(2, 1, 0);
        let first = a.branch_to(Cond::Eq, 2, 0, 0x3000);
        a.movi(6, 1);
        a.push(Inst::Halt);
        let mut text = a.finish();
        let mut b = Assembler::new(0x3000);
        let second = b.branch_to(Cond::Eq, 2, 0, 0x4000);
        b.push(Inst::Halt);
        text.extend(b.finish());
        text.push((0x4000, Inst::Halt));
        let mut core = core_with(text);
        core.machine.mem.write_u64(0x8000, 7);
        let (computed, _) = stepped_run(&mut core, 0x1000, &[first, second]);
        assert_eq!(computed[0], computed[1], "both resolve together");
        assert_eq!(computed, [WAKE_D_BRANCH, WAKE_D_BRANCH]);
        assert_eq!(
            core.stats.squashes, 1,
            "the older squash removed the younger"
        );
        assert_eq!(
            core.machine.reg(6),
            1,
            "execution resumed on the older's path"
        );
    }

    const WAKE_A_STORE: u64 = 226;
    const WAKE_B_BRANCH: u64 = 226;
    const WAKE_B_VP: u64 = 230;
    const WAKE_C_STORE: u64 = 336;
    const WAKE_C_FIRST_POLL: u64 = 230;
    const WAKE_D_BRANCH: u64 = 226;
}
