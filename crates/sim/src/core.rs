//! The out-of-order pipeline: fetch, dispatch, wakeup/select, execute,
//! and retire.

// The simulator runs inside every server job and every grid point: outside
// tests it reports a fault instead of panicking.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use redbin_isa::format::{input_req, InputReq};
use redbin_isa::{Inst, Opcode, Program, Reg, StepError};

use crate::bpred::BranchPredictor;
use crate::bypass::{BypassModel, OperandAvail, ResultTiming};
use crate::cache::{MemoryHierarchy, ServedBy};
use crate::config::{
    DatapathMode, MachineConfig, SteeringPolicy, DCACHE, FETCH_BLOCKS, FETCH_QUEUE, FRONT_LATENCY,
    FRONT_WIDTH, ICACHE, L2, MEMORY, ROB_ENTRIES, SCHED_TO_EXEC,
};
use crate::fidelity::{self, Divergence};
use crate::lsq::{LoadDecision, StoreQueue};
use crate::observer::{NoopObserver, RetireEvent, SimObserver, Stage, TraceObserver};
use crate::oracle::{DynInst, Oracle};
use crate::stats::{BypassCase, SimStats, StallCause};
use crate::trace::PipelineTrace;

/// Errors a simulation can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The architectural oracle faulted (pc out of range — a bad program).
    Oracle(StepError),
    /// The run exceeded the configured cycle limit.
    CycleLimit(u64),
    /// The redundant datapath disagreed with the emulator (Faithful only).
    Fidelity(Divergence),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Oracle(e) => write!(f, "oracle fault: {e}"),
            SimError::CycleLimit(c) => write!(f, "exceeded cycle limit {c}"),
            SimError::Fidelity(d) => d.fmt(f),
        }
    }
}

impl std::error::Error for SimError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// In the window, waiting for operands.
    Waiting,
    /// Selected; executing / executed.
    Issued,
}

/// One source operand as seen by the scheduler.
#[derive(Debug, Clone, Copy)]
struct Src {
    /// The dynamic seq of the producing instruction, if it was in flight at
    /// dispatch (otherwise the value comes from the register file).
    producer: Option<u64>,
    /// When the producer's value can be sourced, built once when the
    /// producer issues ([`OperandAvail::pending`] until then); it also
    /// records whether this operand must be 2's complement. A producer
    /// that has retired serves the operand from the register file,
    /// whatever this says.
    avail: OperandAvail,
}

/// The issue-gating sources of one entry, stored inline: an instruction
/// reads at most three registers, so the hot loop never chases a heap
/// allocation (the scheduler previously allocated a `Vec<Src>` per
/// dispatched instruction and cloned it per issued one).
#[derive(Debug, Clone, Copy)]
struct SrcList {
    srcs: [Src; 3],
    len: u8,
}

impl SrcList {
    fn new() -> Self {
        SrcList {
            srcs: [Src {
                producer: None,
                avail: OperandAvail::pending(false),
            }; 3],
            len: 0,
        }
    }

    fn push(&mut self, s: Src) {
        debug_assert!((self.len as usize) < self.srcs.len(), "over capacity");
        if let Some(slot) = self.srcs.get_mut(self.len as usize) {
            *slot = s;
            self.len += 1;
        }
    }

    fn as_slice(&self) -> &[Src] {
        &self.srcs[..self.len as usize]
    }

    fn as_mut_slice(&mut self) -> &mut [Src] {
        &mut self.srcs[..self.len as usize]
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// What rename and issue need of one static instruction, decoded once
/// per program rather than once per dynamic instance.
#[derive(Debug, Clone, Copy)]
struct Decoded {
    /// The issue-gating source registers (for stores: the base register
    /// only), in `Inst::source_regs` order.
    srcs: [Reg; 3],
    len: u8,
    /// Bit `i`: source `i` must be 2's complement.
    tc: u8,
    /// A store's data register (`None` for r31), read by the store queue
    /// rather than the scheduler.
    data: Option<Reg>,
    dest: Option<Reg>,
    /// Bytes a memory operation accesses (0 for the rest).
    mem_size: u8,
    /// [`MachineConfig::exec_latency`].
    latency: u64,
    /// [`MachineConfig::result_is_rb`].
    rb: bool,
}

impl Decoded {
    fn new(inst: &Inst, cfg: &MachineConfig) -> Self {
        let op = inst.op;
        let mut dec = Decoded {
            srcs: [Reg::R31; 3],
            len: 0,
            tc: 0,
            data: None,
            dest: inst.dest(),
            mem_size: match op {
                Opcode::Ldq | Opcode::Stq => 8,
                Opcode::Ldl | Opcode::Stl => 4,
                Opcode::Ldbu | Opcode::Stb => 1,
                _ => 0,
            },
            latency: cfg.exec_latency(op),
            rb: cfg.result_is_rb(op),
        };
        let regs = if op.is_store() {
            // The base register gates issue; the data operand goes to the
            // store queue.
            dec.data = (!inst.rc.is_zero_reg()).then_some(inst.rc);
            let mut base = redbin_isa::SourceRegs::new();
            if !inst.ra.is_zero_reg() {
                base.push(inst.ra);
            }
            base
        } else {
            inst.source_regs()
        };
        for (idx, (slot, &r)) in dec.srcs.iter_mut().zip(regs.as_slice()).enumerate() {
            *slot = r;
            if input_req(op, idx) == InputReq::TcOnly {
                dec.tc |= 1 << idx;
            }
            dec.len += 1;
        }
        dec
    }

    /// The issue-gating sources, each with whether it must be 2's
    /// complement.
    fn sources(&self) -> impl Iterator<Item = (Reg, bool)> + '_ {
        self.srcs[..self.len as usize]
            .iter()
            .enumerate()
            .map(|(idx, &r)| (r, self.tc >> idx & 1 != 0))
    }
}

#[derive(Debug, Clone)]
struct InFlight {
    d: DynInst,
    scheduler: usize,
    cluster: usize,
    state: State,
    /// Issue-gating source operands (for stores: the base register only).
    srcs: SrcList,
    /// Gating sources still sleeping on an unissued producer. The entry
    /// enters its scheduler's candidate list when this reaches zero.
    wait_count: u8,
    /// Wakeup floor: no evaluation can succeed for an execution starting
    /// before this cycle (the max of the issued producers' earliest
    /// availability; 0 means "evaluate every cycle").
    min_ready: u64,
    /// Consumers sleeping on this entry's result as (consumer seq, source
    /// index) pairs, woken when this entry issues and its timing lands; a
    /// store sleeping on its data sleeps under [`STORE_DATA`]. Drained at
    /// issue and kept, empty, for the ROB slot's next occupant.
    waiters: Vec<(u64, u8)>,
    dispatch_cycle: u64,
    fetch_cycle: u64,
    issue_cycle: u64,
    exec_start: u64,
    exec_end: u64,
    /// Result availability, set at issue for register-writing ops.
    timing: Option<ResultTiming>,
    /// Cycle at which the instruction may retire; for a store, set once
    /// the store queue has both its address and its data.
    complete_at: u64,
    mispredicted: bool,
    /// For issued loads: whether the access missed in the L1 data cache
    /// (used to attribute downstream consumer stalls to `CacheMiss`).
    dcache_miss: bool,
}

impl InFlight {
    /// The contents of a ROB slot no instruction has used yet.
    fn vacant() -> Self {
        InFlight {
            d: DynInst {
                seq: 0,
                pc: 0,
                inst: Inst::halt(),
                next_pc: 0,
                taken: None,
                ea: None,
            },
            scheduler: 0,
            cluster: 0,
            state: State::Issued,
            srcs: SrcList::new(),
            wait_count: 0,
            min_ready: 0,
            waiters: Vec::new(),
            dispatch_cycle: 0,
            fetch_cycle: 0,
            issue_cycle: 0,
            exec_start: 0,
            exec_end: 0,
            timing: None,
            complete_at: 0,
            mispredicted: false,
            dcache_miss: false,
        }
    }
}

/// The waiter index under which a store sleeps on its data producer. It
/// is no source index (an entry has at most three): waking it hands the
/// store queue the data's time instead of waking an operand.
const STORE_DATA: u8 = u8::MAX;

/// The ROB slot of dynamic instruction `seq`.
fn rob_slot(seq: u64) -> usize {
    (seq % ROB_ENTRIES as u64) as usize
}

/// Inserts `seq` into a sorted candidate list (idempotent): selection
/// must stay oldest-first to match the reference scheduler's scan order.
fn insert_sorted(list: &mut Vec<u64>, seq: u64) {
    if let Err(pos) = list.binary_search(&seq) {
        list.insert(pos, seq);
    }
}

/// The wakeup floor an issued producer's operand contributes: its first
/// available cycle, or 0 — evaluate every cycle, as the reference scan
/// does — when it has none (a result statically unreachable for this
/// consumer, which then issues once the producer retires).
fn floor_of(avail: &OperandAvail) -> u64 {
    match avail.earliest(0) {
        u64::MAX => 0,
        at => at,
    }
}

struct FetchedInst {
    d: DynInst,
    ready: u64,
    mispredicted: bool,
}

thread_local! {
    /// The ROB of the last simulator dropped on this thread, taken by the
    /// next one built here. Its `ROB_ENTRIES` slots (106 KB) are a
    /// simulator's largest allocation. Freed and made again per run, they
    /// let the allocator hand heap pages back to the kernel and fault them
    /// in again; on short simulations, such as the differential oracle's,
    /// that cost came and went from one process to the next.
    static SPARE_RING: Cell<Vec<InFlight>> = const { Cell::new(Vec::new()) };
}

/// The cycle-level simulator. Construct with a [`MachineConfig`] and a
/// program, then [`run`](Simulator::run) it to completion.
pub struct Simulator {
    cfg: MachineConfig,
    oracle: Oracle,
    /// A Faithful machine's program, checked on the redundant datapath first.
    faithful: Option<Program>,
    /// The program's instructions decoded for rename and issue, by pc.
    decoded: Vec<Decoded>,
    bypass: BypassModel,
    bpred: BranchPredictor,
    mem: MemoryHierarchy,
    sq: StoreQueue,
    stats: SimStats,

    cycle: u64,
    fetch_resume: u64,
    /// Seq of the unresolved mispredicted branch fetch is waiting on.
    redirect_branch: Option<u64>,
    oracle_done: bool,
    peeked: Option<DynInst>,

    fetch_q: VecDeque<FetchedInst>,
    /// The ROB: `ROB_ENTRIES` slots, instruction `seq` in `rob_slot(seq)`.
    /// The `in_flight` instructions from `base_seq` on occupy it; the
    /// other slots hold stale entries. Taken from `SPARE_RING` and given
    /// back on drop.
    ring: Vec<InFlight>,
    base_seq: u64,
    in_flight: usize,
    /// Reservation-station entries per scheduler.
    rs_entries: usize,
    rs_free: Vec<usize>,
    /// Per-scheduler queues of waiting seqs (oldest first). The
    /// event-driven scheduler leaves issued entries in place as tombstones
    /// (lazy skip + periodic compaction) and uses the queue only to
    /// recover the oldest blocked entry for stall attribution.
    waiting: Vec<VecDeque<u64>>,
    /// Per-scheduler sorted candidate lists: seqs whose gating sources are
    /// all produced (issued or in the register file) and whose wakeup
    /// floor has come. The event-driven scheduler evaluates only these,
    /// instead of every waiting entry.
    candidates: Vec<Vec<u64>>,
    /// Per-scheduler queues of the other candidates, ordered by
    /// `(min_ready, seq)`: each moves into `candidates` at the first
    /// select whose execution cycle reaches its floor.
    floors: Vec<BinaryHeap<Reverse<(u64, u64)>>>,
    /// Store data times woken this cycle, as (store seq, cycle), handed to
    /// the store queue at the next issue stage: a load selected later in
    /// the producer's own issue cycle must not forward from them yet.
    store_data: Vec<(u64, u64)>,
    last_writer: [Option<u64>; 32],
    steer_counter: u64,
    /// Set by `dispatch` each cycle: a decoded instruction was ready to
    /// enter the window but the ROB or its reservation stations were full.
    window_blocked: bool,
    /// Quiet cycles charged in bulk by `fast_forward` instead of stepped.
    fast_forwarded: u64,
    /// Run the retained scan-everything reference scheduler instead of the
    /// event-driven one; the differential suite locksteps the two.
    reference_sched: bool,
}

impl Drop for Simulator {
    /// Hands the ROB, its waiter lists emptied, to the next simulator
    /// built on this thread.
    fn drop(&mut self) {
        let mut ring = std::mem::take(&mut self.ring);
        for slot in &mut ring {
            slot.waiters.clear();
        }
        // Fails only while the thread is exiting; the ring is freed then.
        let _ = SPARE_RING.try_with(|spare| spare.set(ring));
    }
}

impl Simulator {
    /// Builds a simulator for `program` on the configured machine.
    pub fn new(cfg: MachineConfig, program: &Program) -> Self {
        let oracle = Oracle::new(program);
        let faithful = (cfg.datapath == DatapathMode::Faithful).then(|| program.clone());
        let decoded = program
            .code
            .iter()
            .map(|inst| Decoded::new(inst, &cfg))
            .collect();
        let bypass = BypassModel::new(&cfg);
        let mem = MemoryHierarchy::new(ICACHE, DCACHE, L2, MEMORY);
        let rs_entries = cfg.entries_per_scheduler();
        let rs_free = vec![rs_entries; cfg.schedulers()];
        let waiting = vec![VecDeque::new(); cfg.schedulers()];
        let candidates = vec![Vec::new(); cfg.schedulers()];
        let floors = vec![BinaryHeap::new(); cfg.schedulers()];
        // A reused ring keeps its last run's entries: dispatch overwrites a
        // slot before anything reads it, and `drop` emptied the waiters.
        let mut ring = SPARE_RING.try_with(Cell::take).unwrap_or_default();
        ring.resize_with(ROB_ENTRIES, InFlight::vacant);
        Simulator {
            cfg,
            oracle,
            faithful,
            decoded,
            bypass,
            bpred: BranchPredictor::new(),
            mem,
            sq: StoreQueue::new(),
            stats: SimStats::default(),
            cycle: 0,
            fetch_resume: 0,
            redirect_branch: None,
            oracle_done: false,
            peeked: None,
            fetch_q: VecDeque::new(),
            ring,
            base_seq: 0,
            in_flight: 0,
            rs_entries,
            rs_free,
            waiting,
            candidates,
            floors,
            store_data: Vec::new(),
            last_writer: [None; 32],
            steer_counter: 0,
            window_blocked: false,
            fast_forwarded: 0,
            reference_sched: false,
        }
    }

    /// Switches this simulator to the retained reference scheduler — the
    /// original scan-every-waiting-entry implementation the event-driven
    /// wakeup replaced. The two produce bit-identical results (pinned by
    /// the differential suite and the golden snapshots); the reference
    /// exists only as the behavioral spec to test against.
    pub fn with_reference_scheduler(mut self) -> Self {
        self.reference_sched = true;
        self
    }

    /// Runs to completion and returns both statistics and the pipeline
    /// trace (Figures 5/7-style diagrams), via a [`TraceObserver`]. Only
    /// use for short programs — the trace grows with every retired
    /// instruction.
    ///
    /// # Errors
    ///
    /// Same conditions as [`run`](Self::run).
    pub fn run_traced(self) -> Result<(SimStats, PipelineTrace), SimError> {
        let mut tracer = TraceObserver::new();
        let stats = self.run_observed(&mut tracer)?;
        Ok((stats, tracer.into_trace()))
    }

    /// Runs to completion and returns the statistics, observing nothing.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Oracle`] if the program faults,
    /// [`SimError::CycleLimit`] if `cfg.max_cycles` (when nonzero) elapses
    /// first, and [`SimError::Fidelity`] with the first
    /// [`Divergence`] when a Faithful machine's redundant-datapath check
    /// disagrees with the emulator.
    pub fn run(self) -> Result<SimStats, SimError> {
        self.run_observed(&mut NoopObserver)
    }

    /// Runs to completion and returns the statistics together with the
    /// final architectural state of the embedded oracle (registers, pc,
    /// memory digest). The timing simulator executes architecturally at
    /// fetch, so this is the state any correct execution of the program
    /// must reach — the differential suites compare it against a pure
    /// [`redbin_isa::Emulator`] run.
    ///
    /// # Errors
    ///
    /// Same conditions as [`run`](Self::run).
    pub fn run_with_arch(mut self) -> Result<(SimStats, redbin_isa::ArchState), SimError> {
        self.run_loop(&mut NoopObserver)?;
        let stats = self.finish_stats();
        Ok((stats, self.oracle.arch_state()))
    }

    /// The single run path: every simulation — plain stats, tracing,
    /// telemetry — goes through here with a different [`SimObserver`].
    /// The observer is a pure listener; the returned [`SimStats`] are
    /// identical for every observer (pinned by the golden snapshots and
    /// the observer-equivalence tests).
    ///
    /// # Errors
    ///
    /// Same conditions as [`run`](Self::run).
    pub fn run_observed<O: SimObserver>(mut self, obs: &mut O) -> Result<SimStats, SimError> {
        self.run_loop(obs)?;
        Ok(self.finish_stats())
    }

    fn run_loop<O: SimObserver>(&mut self, obs: &mut O) -> Result<(), SimError> {
        if let Some(program) = self.faithful.take() {
            // The timing run fetches at most `FRONT_WIDTH` instructions a
            // cycle, so within its cycle limit it never gets further.
            let steps = match self.cfg.max_cycles {
                0 => u64::MAX,
                limit => limit.saturating_mul(FRONT_WIDTH as u64),
            };
            (self.stats.fidelity_checks, _) =
                fidelity::check(&program, steps).map_err(SimError::Fidelity)?;
        }
        loop {
            self.cycle += 1;
            if self.cfg.max_cycles != 0 && self.cycle > self.cfg.max_cycles {
                return Err(SimError::CycleLimit(self.cfg.max_cycles));
            }
            obs.on_cycle(self.cycle);
            let mut work = self.retire(obs);
            work += self.dispatch(obs);
            work += self.issue(obs);
            obs.on_stage(Stage::Execute, self.in_flight);
            work += self.fetch(obs)?;
            if self.oracle_done
                && self.peeked.is_none()
                && self.fetch_q.is_empty()
                && self.in_flight == 0
            {
                return Ok(());
            }
            if work == 0 && !self.reference_sched {
                self.fast_forward(obs);
            }
        }
    }

    // ---- quiet-cycle fast-forward -------------------------------------------

    /// Called after a quiet cycle — nothing retired, dispatched, issued or
    /// was fetched. Every following cycle before `quiet_horizon` would
    /// repeat that non-work exactly: the same empty stages, the same stall
    /// cause per scheduler, no state change. So those cycles are charged
    /// in bulk, exactly as the per-cycle loop charges them, and the clock
    /// jumps to just before the horizon. The observer still sees every
    /// skipped cycle's hooks (a loop that [`NoopObserver`] compiles away).
    /// The reference scheduler never gets here: it is the cycle-by-cycle
    /// spec the skip is tested against.
    fn fast_forward<O: SimObserver>(&mut self, obs: &mut O) {
        let from = self.cycle + 1;
        let horizon = self.quiet_horizon();
        if horizon <= from || horizon == u64::MAX {
            return;
        }
        let skipped = horizon - from;
        // The horizon holds every scheduler's stall cause constant, so the
        // first skipped cycle's cause stands for all of them.
        let e = from + SCHED_TO_EXEC;
        for s in 0..self.cfg.schedulers() {
            let cause = match self.oldest_blocked(s, u64::MAX, None) {
                Some((seq, lsq)) => self.stall_cause(seq, lsq, e),
                None => self.upstream_cause(),
            };
            self.stats.stall.charge(cause, 2 * skipped);
        }
        let fetch_stalled = from < self.fetch_resume || self.redirect_branch.is_some();
        self.stats.dispatch_hist[0] += skipped;
        self.stats.issue_hist[0] += skipped;
        if !fetch_stalled {
            self.stats.fetch_hist[0] += skipped;
        }
        if self.in_flight != 0 {
            self.stats.idle_issue_cycles += skipped;
        }
        let in_flight = self.in_flight;
        for cycle in from..horizon {
            obs.on_cycle(cycle);
            obs.on_stage(Stage::Retire, 0);
            obs.on_stage(Stage::Rename, 0);
            obs.on_stage(Stage::Issue, 0);
            obs.on_stage(Stage::Execute, in_flight);
            if !fetch_stalled {
                obs.on_stage(Stage::Fetch, 0);
            }
        }
        self.fast_forwarded += skipped;
        self.cycle = horizon - 1;
    }

    /// The event horizon after a quiet cycle: the first later cycle at
    /// which something may retire, dispatch, issue or fetch, or at which
    /// some scheduler's stall cause may change. Returns `self.cycle + 1`
    /// (nothing to skip) when the very next cycle may already differ, and
    /// `u64::MAX` when nothing is pending at all.
    fn quiet_horizon(&mut self) -> u64 {
        let next = self.cycle + 1;
        let e = next + SCHED_TO_EXEC;
        let mut h = match self.cfg.max_cycles {
            0 => u64::MAX,
            limit => limit.saturating_add(1),
        };
        // Retire: the ROB head leaves once it completes. A head still
        // waiting to issue needs an issue first.
        if let Some(head) = self.entry(self.base_seq) {
            if head.state == State::Issued {
                h = h.min(head.complete_at);
            }
        }
        // Dispatch: the fetch-queue front clears the front-end latency. A
        // front already through it dispatched nothing this cycle, so it is
        // window-blocked until a retire or an issue frees room.
        if let Some(front) = self.fetch_q.front() {
            if front.ready > self.cycle {
                h = h.min(front.ready);
            }
        }
        // Fetch: a stall that ends (which also changes the fetch charge),
        // or fetch that could go right away. A pending redirect waits for
        // its branch to issue.
        if self.redirect_branch.is_none() {
            let can_fetch =
                self.fetch_q.len() < FETCH_QUEUE && (self.peeked.is_some() || !self.oracle_done);
            if self.fetch_resume > self.cycle || can_fetch {
                h = h.min(self.fetch_resume.max(next));
            }
        }
        if h <= next {
            return next;
        }
        // Issue: a listed candidate is evaluated every cycle; a queued one
        // once execution could start at its wakeup floor. Entries still
        // sleeping need a producer to issue.
        if self.candidates.iter().any(|list| !list.is_empty()) {
            return next;
        }
        for queue in &self.floors {
            if let Some(Reverse((floor, _))) = queue.peek() {
                h = h.min(floor - SCHED_TO_EXEC);
            }
        }
        // Stall attribution: the oldest waiting entry's issued producers
        // must each stay in flight (cause constant) or be continuously
        // available (ignored by the attribution) over the whole stretch.
        for s in 0..self.cfg.schedulers() {
            let Some((w, _)) = self.oldest_blocked(s, u64::MAX, None) else {
                continue;
            };
            let Some(entry) = self.entry(w) else { continue };
            for src in entry.srcs.as_slice() {
                if self.in_flight_producer(src).is_none() || !src.avail.issued() {
                    continue;
                }
                let in_flight_until = src.avail.in_flight_until();
                if e <= in_flight_until {
                    h = h.min(in_flight_until + 1 - SCHED_TO_EXEC);
                } else if e < src.avail.rf_start() {
                    return next;
                }
            }
        }
        h
    }

    fn finish_stats(&mut self) -> SimStats {
        self.stats.cycles = self.cycle;
        self.stats.width = self.cfg.width as u64;
        self.stats.icache_misses = self.mem.l1i.misses();
        self.stats.dcache_accesses = self.mem.l1d.accesses();
        self.stats.dcache_misses = self.mem.l1d.misses();
        let (h, m) = self.mem.l2_counts();
        self.stats.l2_hits = h;
        self.stats.l2_misses = m;
        let (fwd, blk) = self.sq.counters();
        self.stats.store_forwards = fwd;
        self.stats.load_blocks = blk;
        std::mem::take(&mut self.stats)
    }

    // ---- pipeline front ----------------------------------------------------

    fn peek_oracle(&mut self) -> Result<Option<DynInst>, SimError> {
        if self.peeked.is_none() && !self.oracle_done {
            match self.oracle.next().map_err(SimError::Oracle)? {
                Some(d) => self.peeked = Some(d),
                None => self.oracle_done = true,
            }
        }
        Ok(self.peeked)
    }

    fn fetch<O: SimObserver>(&mut self, obs: &mut O) -> Result<usize, SimError> {
        if self.cycle < self.fetch_resume || self.redirect_branch.is_some() {
            return Ok(0);
        }
        let mut fetched = 0usize;
        let mut blocks = 0usize;
        let mut cur_line: Option<u64> = None;
        while fetched < FRONT_WIDTH && blocks < FETCH_BLOCKS && self.fetch_q.len() < FETCH_QUEUE {
            let Some(d) = self.peek_oracle()? else { break };
            // Instruction cache: one probe per distinct line per group.
            let line_addr = (d.pc as u64 * 4) & !(self.mem.l1i.line_bytes() as u64 - 1);
            if cur_line != Some(line_addr) {
                let (t, served) = self.mem.access_inst(line_addr, self.cycle);
                if served != ServedBy::L1 {
                    // Miss: stall fetch until the fill returns; the line is
                    // now resident so the retry hits.
                    self.fetch_resume = t;
                    break;
                }
                cur_line = Some(line_addr);
            }
            self.peeked = None;
            fetched += 1;

            let mut mispredicted = false;
            if d.inst.op.is_control() {
                let actual_taken = d.taken.unwrap_or(false);
                let static_target = match d.inst.op {
                    Opcode::Jmp | Opcode::Ret => None,
                    _ => Some((d.pc as i64 + 1 + d.inst.disp) as usize),
                };
                let pred = self.bpred.predict_and_update(
                    d.pc,
                    d.inst.op,
                    actual_taken,
                    d.next_pc,
                    static_target,
                );
                if d.inst.op.is_conditional_branch() {
                    self.stats.branches += 1;
                }
                mispredicted =
                    pred.taken != actual_taken || (actual_taken && pred.target != Some(d.next_pc));
                blocks += 1;
            }

            self.fetch_q.push_back(FetchedInst {
                d,
                ready: self.cycle + FRONT_LATENCY,
                mispredicted,
            });

            if mispredicted {
                self.stats.mispredicts += 1;
                self.redirect_branch = Some(d.seq);
                self.fetch_resume = u64::MAX; // set when the branch resolves
                break;
            }
        }
        self.stats.fetch_hist[fetched.min(8)] += 1;
        obs.on_stage(Stage::Fetch, fetched);
        Ok(fetched)
    }

    // ---- dispatch ----------------------------------------------------------

    fn dispatch<O: SimObserver>(&mut self, obs: &mut O) -> usize {
        let mut dispatched = 0usize;
        self.window_blocked = false;
        while dispatched < FRONT_WIDTH {
            let Some(front) = self.fetch_q.front() else {
                break;
            };
            if front.ready > self.cycle {
                break;
            }
            if self.in_flight >= ROB_ENTRIES {
                self.window_blocked = true;
                break;
            }
            let scheduler = match self.cfg.steering {
                SteeringPolicy::RoundRobinPairs => {
                    ((self.steer_counter / 2) % self.cfg.schedulers() as u64) as usize
                }
                SteeringPolicy::DependenceAware => self.steer_by_dependence(&self.decode(&front.d)),
            };
            if self.rs_free[scheduler] == 0 {
                self.window_blocked = true;
                break;
            }
            let Some(f) = self.fetch_q.pop_front() else {
                break;
            };
            self.steer_counter += 1;
            self.rs_free[scheduler] -= 1;
            let cluster = self.cfg.cluster_of(scheduler);
            let d = f.d;

            // Rename: resolve producers for the issue-gating sources. Then
            // the event-driven wakeup bookkeeping: sleep on producers that
            // have not issued yet; describe issued producers' availability
            // and fold its first cycle into the entry's wakeup floor.
            let op = d.inst.op;
            let dec = self.decode(&d);
            let mut srcs = SrcList::new();
            let mut wait_count = 0u8;
            let mut min_ready = 0u64;
            for (idx, (r, need_tc)) in dec.sources().enumerate() {
                let producer = self.last_writer[r.index()];
                let mut avail = OperandAvail::pending(need_tc);
                let issued = producer
                    .and_then(|p| self.entry(p).map(|prod| (prod.timing, prod.dcache_miss)));
                match issued {
                    None => {} // no producer in flight: the register file
                    Some((Some(timing), load_missed)) => {
                        avail = self.bypass.operand(&timing, need_tc, cluster, load_missed);
                        min_ready = min_ready.max(floor_of(&avail));
                    }
                    Some((None, _)) => {
                        if let Some(prod) = producer.and_then(|p| self.entry_mut(p)) {
                            prod.waiters.push((d.seq, idx as u8));
                            wait_count += 1;
                        }
                    }
                }
                srcs.push(Src { producer, avail });
            }
            if let Some(dest) = dec.dest {
                self.last_writer[dest.index()] = Some(d.seq);
            }
            if op.is_store() {
                self.sq.dispatch(d.seq);
                self.dispatch_store_data(d.seq, dec.data, cluster);
            }
            debug_assert_eq!(self.base_seq + self.in_flight as u64, d.seq);
            let cycle = self.cycle;
            let Some(slot) = self.ring.get_mut(rob_slot(d.seq)) else {
                break;
            };
            // The slot is reused in place, its drained waiter list too.
            debug_assert!(slot.waiters.is_empty(), "issue drains every waiter");
            let waiters = std::mem::take(&mut slot.waiters);
            *slot = InFlight {
                d,
                scheduler,
                cluster,
                state: State::Waiting,
                srcs,
                wait_count,
                min_ready,
                waiters,
                dispatch_cycle: cycle,
                fetch_cycle: f.ready - FRONT_LATENCY,
                issue_cycle: 0,
                exec_start: 0,
                exec_end: 0,
                timing: None,
                complete_at: u64::MAX,
                mispredicted: f.mispredicted,
                dcache_miss: false,
            };
            self.in_flight += 1;
            self.waiting[scheduler].push_back(d.seq);
            if wait_count == 0 && !self.reference_sched {
                self.insert_candidate(scheduler, d.seq, min_ready);
            }
            dispatched += 1;
        }
        self.stats.dispatch_hist[dispatched.min(8)] += 1;
        obs.on_stage(Stage::Rename, dispatched);
        dispatched
    }

    /// Gives the store queue a dispatching store's data time: the register
    /// file's (the dispatch cycle) with no producer in flight, r31
    /// included, or the first cycle an issued producer's result exists in
    /// 2's complement at the store's cluster. A producer yet to issue
    /// takes the store as a waiter instead, and `wake` finds the time.
    fn dispatch_store_data(&mut self, seq: u64, data: Option<Reg>, cluster: usize) {
        let bypass = self.bypass;
        let producer = data.and_then(|r| self.last_writer[r.index()]);
        let at = match producer.and_then(|p| self.entry_mut(p)) {
            None => self.cycle,
            Some(prod) => match prod.timing {
                Some(r) => bypass.earliest(&r, true, cluster, 0),
                None => {
                    prod.waiters.push((seq, STORE_DATA));
                    return;
                }
            },
        };
        self.sq.set_data_time(seq, at);
    }

    /// Dependence-aware steering: on a clustered machine, place each
    /// instruction in its youngest in-flight producer's *cluster* (so the
    /// forwarding stays local), picking the scheduler with the most free
    /// entries inside that cluster. On a single-cluster machine every
    /// scheduler forwards identically, so this degenerates to round-robin
    /// (chasing producers there only unbalances the window).
    fn steer_by_dependence(&self, dec: &Decoded) -> usize {
        let rr = ((self.steer_counter / 2) % self.cfg.schedulers() as u64) as usize;
        if self.cfg.clusters() <= 1 {
            return rr;
        }
        let preferred_cluster = dec
            .sources()
            .map(|(r, _)| r)
            .chain(dec.data)
            .filter_map(|r| self.last_writer[r.index()])
            .max()
            .and_then(|p| self.entry(p))
            .map(|e| e.cluster);
        if let Some(c) = preferred_cluster {
            if let Some(s) = (0..self.cfg.schedulers())
                .filter(|s| self.cfg.cluster_of(*s) == c && self.rs_free[*s] > 0)
                .max_by_key(|s| self.rs_free[*s])
            {
                return s;
            }
        }
        (0..self.cfg.schedulers())
            .map(|k| (rr + k) % self.cfg.schedulers())
            .find(|s| self.rs_free[*s] > 0)
            .unwrap_or(rr)
    }

    // ---- wakeup / select / execute ------------------------------------------

    /// `d`'s static instruction, decoded.
    fn decode(&self, d: &DynInst) -> Decoded {
        self.decoded
            .get(d.pc)
            .copied()
            .unwrap_or_else(|| Decoded::new(&d.inst, &self.cfg))
    }

    fn entry(&self, seq: u64) -> Option<&InFlight> {
        if seq.wrapping_sub(self.base_seq) >= self.in_flight as u64 {
            return None;
        }
        self.ring.get(rob_slot(seq))
    }

    fn entry_mut(&mut self, seq: u64) -> Option<&mut InFlight> {
        if seq.wrapping_sub(self.base_seq) >= self.in_flight as u64 {
            return None;
        }
        self.ring.get_mut(rob_slot(seq))
    }

    /// Is the operand available for an execution starting at `e`? The
    /// reference scheduler's question, asked of the bypass model. `None`
    /// producer (register file) is always available.
    fn operand_available(&self, src: &Src, cluster: usize, e: u64) -> bool {
        let Some(p) = src.producer else { return true };
        match self.entry(p) {
            None => true, // producer retired: value in the register file
            Some(prod) => match &prod.timing {
                None => false, // not yet issued
                Some(r) => self.bypass.available(r, src.avail.need_tc(), cluster, e),
            },
        }
    }

    /// The same question, answered from the operand's descriptor.
    fn operand_ready(&self, src: &Src, e: u64) -> bool {
        self.in_flight_producer(src).is_none() || src.avail.at(e)
    }

    /// The operand's producer while it is in the window; `None` once the
    /// register file serves the operand, whatever its descriptor says: no
    /// producer was in flight at dispatch, or it has retired since.
    fn in_flight_producer(&self, src: &Src) -> Option<u64> {
        src.producer.filter(|&p| p >= self.base_seq)
    }

    /// Wakeup/select for one cycle; returns the number of instructions
    /// issued.
    fn issue<O: SimObserver>(&mut self, obs: &mut O) -> usize {
        self.publish_store_data();
        if self.reference_sched {
            return self.issue_reference(obs);
        }
        self.issue_event(obs)
    }

    /// Hands the store queue the data times `wake` found since the last
    /// issue stage. A store whose address is known too now completes.
    fn publish_store_data(&mut self) {
        while let Some((seq, at)) = self.store_data.pop() {
            self.sq.set_data_time(seq, at);
            let complete_at = self.store_complete_at(seq);
            if let Some(store) = self.entry_mut(seq) {
                store.complete_at = complete_at;
            }
        }
    }

    /// The cycle a store may retire: the one after the store queue has
    /// both its address and its data (`u64::MAX` until then).
    fn store_complete_at(&self, seq: u64) -> u64 {
        self.sq
            .completion(seq)
            .map_or(u64::MAX, |t| t.saturating_add(1))
    }

    /// Event-driven wakeup/select. Instead of evaluating every waiting
    /// entry every cycle, each scheduler keeps a sorted candidate list an
    /// entry enters only once its last sleeping producer issues (`wake`)
    /// and the execution cycle reaches its wakeup floor (`min_ready`);
    /// until then it waits in the scheduler's floor queue. Operands are
    /// checked against their descriptors, not the bypass network. Skips
    /// are sound because both conditions prove at least one operand
    /// unavailable, and the side-effecting store-queue probe
    /// (`check_load`) only ever runs once all register operands are
    /// available — so the evaluation sequence, issue picks, and stall
    /// attribution are bit-identical to `issue_reference` (pinned by the
    /// differential suite).
    fn issue_event<O: SimObserver>(&mut self, obs: &mut O) -> usize {
        let e = self.cycle + SCHED_TO_EXEC;
        let mut issued_count = 0usize;
        let mut any_issued = false;
        let upstream = self.upstream_cause();
        for s in 0..self.cfg.schedulers() {
            self.compact_waiting(s);
            self.admit_due(s, e);
            let mut picked = 0usize;
            // Seq of the second pick: the reference scan stops right after
            // it, so no younger entry can be "the blocked one".
            let mut second_pick = u64::MAX;
            // Oldest candidate evaluated and found not ready, and whether
            // the store queue (rather than an operand) held it back.
            let mut first_unready: Option<(u64, bool)> = None;
            let mut i = 0;
            while picked < 2 {
                let Some(&seq) = self.candidates[s].get(i) else {
                    break;
                };
                let Some(entry) = self.entry(seq) else {
                    self.candidates[s].remove(i);
                    continue;
                };
                if entry.state != State::Waiting {
                    self.candidates[s].remove(i);
                    continue;
                }
                debug_assert!(entry.min_ready <= e, "listed before its floor");
                let is_load = entry.d.inst.op.is_load();
                let addr = entry.d.ea;
                let size = self.decode(&entry.d).mem_size;
                let mut ready = entry
                    .srcs
                    .as_slice()
                    .iter()
                    .all(|src| self.operand_ready(src, e));
                let mut load_decision = LoadDecision::Cache;
                let mut lsq_blocked = false;
                if ready && is_load {
                    debug_assert!(addr.is_some(), "load has an address");
                    load_decision = self.sq.check_load(seq, addr.unwrap_or_default(), size, e);
                    if load_decision == LoadDecision::Blocked {
                        ready = false;
                        lsq_blocked = true;
                    }
                }
                if ready {
                    issued_count += 1;
                    picked += 1;
                    // Remove before issuing: `issue_one` may wake a
                    // consumer into this very list, always at a position
                    // after `i` (consumers are younger than the issuer, and
                    // the list is sorted), so it gets scanned this cycle —
                    // exactly as the reference scan would reach it.
                    self.candidates[s].remove(i);
                    // `check_load` counters are already bumped; carry the
                    // decision so issue_one does not probe the queue again.
                    self.issue_one(seq, e, load_decision, obs);
                    any_issued = true;
                    if picked == 2 {
                        second_pick = seq;
                    }
                    continue;
                }
                if first_unready.is_none() {
                    first_unready = Some((seq, lsq_blocked));
                }
                i += 1;
            }
            // Stall accounting: each scheduler owns 2 of the machine's
            // `width` issue slots every cycle; charge the unused ones.
            let unused = 2u64.saturating_sub(picked as u64);
            if unused > 0 {
                let cause = match self.oldest_blocked(s, second_pick, first_unready) {
                    Some((seq, lsq)) => self.stall_cause(seq, lsq, e),
                    None => upstream,
                };
                self.stats.stall.charge(cause, unused);
            }
        }
        self.stats.stall.used += issued_count as u64;
        if !any_issued && self.in_flight != 0 {
            self.stats.idle_issue_cycles += 1;
        }
        self.stats.issue_hist[issued_count.min(8)] += 1;
        obs.on_stage(Stage::Issue, issued_count);
        issued_count
    }

    /// Cause charged to slots a scheduler leaves unused because it has
    /// nothing waiting at all: the window is the bottleneck if dispatch
    /// was blocked this cycle, otherwise the front end is.
    fn upstream_cause(&self) -> StallCause {
        if self.window_blocked {
            StallCause::WindowFull
        } else {
            StallCause::FetchStarved
        }
    }

    /// Recovers the reference scan's `blocked` value from the waiting
    /// queue: the oldest still-waiting entry of scheduler `s`, provided
    /// the scan would have reached it before stopping at the second pick.
    /// Every older entry already issued, so that oldest entry is exactly
    /// the first not-ready entry the reference scan records; it was held
    /// by the store queue only if this cycle's candidate evaluation said
    /// so (`first_unready`) — an entry skipped as a non-candidate has, by
    /// construction, an unavailable register operand, which the reference
    /// discovers before ever probing the store queue.
    fn oldest_blocked(
        &mut self,
        s: usize,
        second_pick: u64,
        first_unready: Option<(u64, bool)>,
    ) -> Option<(u64, bool)> {
        // Lazily drop issued/retired tombstones from the front.
        while let Some(&seq) = self.waiting[s].front() {
            match self.entry(seq) {
                Some(en) if en.state == State::Waiting => break,
                _ => {
                    self.waiting[s].pop_front();
                }
            }
        }
        let w = *self.waiting[s].front()?;
        if w >= second_pick {
            return None;
        }
        let lsq = match first_unready {
            Some((f, l)) if f == w => l,
            _ => false,
        };
        Some((w, lsq))
    }

    /// Sweeps issued tombstones out of scheduler `s`'s waiting queue once
    /// they outnumber the live entries. The reference scheduler instead
    /// called `VecDeque::remove` on every issue, shifting the tail each
    /// time — O(window²) in the worst cycle.
    fn compact_waiting(&mut self, s: usize) {
        let live = self
            .rs_entries
            .saturating_sub(self.rs_free.get(s).copied().unwrap_or(0));
        let Some(q) = self.waiting.get(s) else { return };
        if q.len() <= 2 * live + 8 {
            return;
        }
        let mut q = std::mem::take(&mut self.waiting[s]);
        q.retain(|&seq| matches!(self.entry(seq), Some(en) if en.state == State::Waiting));
        self.waiting[s] = q;
    }

    /// Makes `seq`, whose wakeup floor is `floor`, a candidate of
    /// scheduler `s`: into the sorted list if this cycle's select can
    /// already reach the floor, else into the floor queue.
    fn insert_candidate(&mut self, s: usize, seq: u64, floor: u64) {
        if floor > self.cycle + SCHED_TO_EXEC {
            if let Some(q) = self.floors.get_mut(s) {
                q.push(Reverse((floor, seq)));
            }
        } else if let Some(list) = self.candidates.get_mut(s) {
            insert_sorted(list, seq);
        }
    }

    /// Moves scheduler `s`'s queued candidates whose floor an execution
    /// at `e` reaches into its candidate list.
    fn admit_due(&mut self, s: usize, e: u64) {
        let (Some(queue), Some(list)) = (self.floors.get_mut(s), self.candidates.get_mut(s)) else {
            return;
        };
        while let Some(&Reverse((floor, seq))) = queue.peek() {
            if floor > e {
                break;
            }
            queue.pop();
            insert_sorted(list, seq);
        }
    }

    /// Wakes one sleeping source of `cseq`: describes the freshly issued
    /// producer's availability (`timing`, and whether it is a load that
    /// missed), folds its first cycle into the consumer's wakeup floor
    /// and, when this was the last outstanding producer, makes the
    /// consumer a candidate of its scheduler. A store's data
    /// ([`STORE_DATA`]) instead gets the first cycle the result exists in
    /// 2's complement at the store's cluster, published at the next issue
    /// stage; the store may already have issued its address.
    fn wake(&mut self, cseq: u64, src_idx: u8, timing: Option<ResultTiming>, load_missed: bool) {
        let (bypass, reference) = (self.bypass, self.reference_sched);
        let Some(c) = self.entry_mut(cseq) else {
            return;
        };
        let cluster = c.cluster;
        if src_idx == STORE_DATA {
            let at = timing.map_or(self.cycle, |r| bypass.earliest(&r, true, cluster, 0));
            self.store_data.push((cseq, at));
            return;
        }
        debug_assert_eq!(c.state, State::Waiting, "sleeping consumers cannot issue");
        let Some(src) = c.srcs.as_mut_slice().get_mut(src_idx as usize) else {
            return;
        };
        if let Some(r) = timing {
            src.avail = bypass.operand(&r, src.avail.need_tc(), cluster, load_missed);
        }
        let floor = floor_of(&src.avail);
        c.min_ready = c.min_ready.max(floor);
        c.wait_count = c.wait_count.saturating_sub(1);
        if c.wait_count == 0 && !reference {
            let (scheduler, min_ready) = (c.scheduler, c.min_ready);
            self.insert_candidate(scheduler, cseq, min_ready);
        }
    }

    /// The retained reference scheduler: scan every waiting entry, oldest
    /// first, with eager `VecDeque::remove`. This is the behavioral spec
    /// the event-driven scheduler is differentially tested against (see
    /// [`with_reference_scheduler`](Self::with_reference_scheduler)).
    fn issue_reference<O: SimObserver>(&mut self, obs: &mut O) -> usize {
        let e = self.cycle + SCHED_TO_EXEC;
        let mut issued_count = 0usize;
        let mut any_issued = false;
        let upstream = self.upstream_cause();
        for s in 0..self.cfg.schedulers() {
            let mut picked = 0usize;
            // Oldest entry that could not issue this cycle, and whether the
            // store queue (rather than an operand) held it back.
            let mut blocked: Option<(u64, bool)> = None;
            // Scan waiting entries oldest-first; drop stale (issued) seqs.
            let mut i = 0;
            while i < self.waiting[s].len() && picked < 2 {
                let seq = self.waiting[s][i];
                let Some(entry) = self.entry(seq) else {
                    self.waiting[s].remove(i);
                    continue;
                };
                if entry.state != State::Waiting {
                    self.waiting[s].remove(i);
                    continue;
                }
                let cluster = entry.cluster;
                let mut ready = entry
                    .srcs
                    .as_slice()
                    .iter()
                    .all(|src| self.operand_available(src, cluster, e));
                let mut load_decision = LoadDecision::Cache;
                let mut lsq_blocked = false;
                if ready && entry.d.inst.op.is_load() {
                    debug_assert!(entry.d.ea.is_some(), "load has an address");
                    let addr = entry.d.ea.unwrap_or_default();
                    let size = self.decode(&entry.d).mem_size;
                    load_decision = self.sq.check_load(seq, addr, size, e);
                    if load_decision == LoadDecision::Blocked {
                        ready = false;
                        lsq_blocked = true;
                    }
                }
                if ready {
                    issued_count += 1;
                    picked += 1;
                    // `check_load` counters are already bumped; carry the
                    // decision so issue_one does not probe the queue again.
                    self.issue_one(seq, e, load_decision, obs);
                    any_issued = true;
                    self.waiting[s].remove(i);
                    continue;
                }
                if blocked.is_none() {
                    blocked = Some((seq, lsq_blocked));
                }
                i += 1;
            }
            // Stall accounting: each scheduler owns 2 of the machine's
            // `width` issue slots every cycle; charge the unused ones.
            let unused = 2u64.saturating_sub(picked as u64);
            if unused > 0 {
                let cause = match blocked {
                    Some((seq, lsq)) => self.stall_cause_of(seq, lsq, e),
                    None => upstream,
                };
                self.stats.stall.charge(cause, unused);
            }
        }
        self.stats.stall.used += issued_count as u64;
        if !any_issued && self.in_flight != 0 {
            self.stats.idle_issue_cycles += 1;
        }
        self.stats.issue_hist[issued_count.min(8)] += 1;
        obs.on_stage(Stage::Issue, issued_count);
        issued_count
    }

    /// Attributes an unused issue slot: why could the oldest still-waiting
    /// instruction (`seq`) not begin execution at cycle `e`? The reference
    /// scheduler's attribution, asked of the bypass model.
    ///
    /// The binding operand is the one that becomes available *latest* — a
    /// slot lost to both a cache miss and a conversion is charged to
    /// whichever constraint releases last.
    fn stall_cause_of(&self, seq: u64, lsq_blocked: bool, e: u64) -> StallCause {
        self.binding_cause(seq, lsq_blocked, |src, cluster| {
            let prod = self.entry(src.producer?)?;
            let need_tc = src.avail.need_tc();
            Some(match &prod.timing {
                // Producer has not itself issued: a pure dependence wait
                // (availability unknown, so it binds over everything).
                None => (u64::MAX, StallCause::OperandWait),
                Some(r) => {
                    let reason = self.bypass.unavailable_reason(r, need_tc, cluster, e)?;
                    let at = self.bypass.earliest(r, need_tc, cluster, e);
                    let load_missed = prod.d.inst.op.is_load() && prod.dcache_miss;
                    (at, reason.stall_cause(load_missed))
                }
            })
        })
    }

    /// The event-driven scheduler's [`stall_cause_of`](Self::stall_cause_of),
    /// answered from the operands' descriptors. A producer that has not
    /// issued has a pending descriptor: in flight, available never, so it
    /// binds over everything as a pure dependence wait.
    fn stall_cause(&self, seq: u64, lsq_blocked: bool, e: u64) -> StallCause {
        self.binding_cause(seq, lsq_blocked, |src, _| {
            self.in_flight_producer(src)?;
            let reason = src.avail.reason(e)?;
            Some((
                src.avail.earliest(e),
                reason.stall_cause(src.avail.load_missed()),
            ))
        })
    }

    /// The attribution both schedulers share: `wait` gives each in-flight
    /// source of `seq` still unavailable its first available cycle and
    /// cause (`None` for the others), and the latest binds.
    fn binding_cause(
        &self,
        seq: u64,
        lsq_blocked: bool,
        wait: impl Fn(&Src, usize) -> Option<(u64, StallCause)>,
    ) -> StallCause {
        if lsq_blocked {
            return StallCause::Disambiguation;
        }
        let Some(entry) = self.entry(seq) else {
            return StallCause::OperandWait;
        };
        let mut worst: Option<(u64, StallCause)> = None;
        for src in entry.srcs.as_slice() {
            let Some((at, cause)) = wait(src, entry.cluster) else {
                continue;
            };
            if worst.is_none_or(|(t, _)| at >= t) {
                worst = Some((at, cause));
            }
        }
        // The fallback covers a same-cycle race: a producer that issued
        // earlier in this very cycle can make the operand look available
        // even though the scan saw it missing.
        worst.map_or(StallCause::OperandWait, |(_, c)| c)
    }

    fn issue_one<O: SimObserver>(
        &mut self,
        seq: u64,
        e: u64,
        load_decision: LoadDecision,
        obs: &mut O,
    ) {
        // Figure 13 accounting first (immutable pass).
        self.record_bypass_stats(seq, e, obs);

        let Some(entry) = self.entry(seq) else {
            debug_assert!(false, "issuing entry exists");
            return;
        };
        let (op, ea, cluster, mispredicted) = (
            entry.d.inst.op,
            entry.d.ea,
            entry.cluster,
            entry.mispredicted,
        );
        let dec = self.decode(&entry.d);
        let exec_end = e + dec.latency - 1;

        let mut timing = None;
        let mut complete_at;
        let mut dcache_miss = false;
        if op.is_load() {
            debug_assert!(ea.is_some(), "load has an address");
            let addr = ea.unwrap_or_default();
            let t0 = match load_decision {
                LoadDecision::Forward(t) => t,
                _ => {
                    let (t, served) = self.mem.access_data(addr, e);
                    dcache_miss = served != ServedBy::L1;
                    t
                }
            };
            timing = Some(ResultTiming {
                ready: t0,
                rb: false,
                tc_ready: t0,
                cluster,
            });
            complete_at = t0 + 1;
        } else if op.is_store() {
            debug_assert!(ea.is_some(), "store has an address");
            let addr = ea.unwrap_or_default();
            self.sq.set_address(seq, addr, dec.mem_size, e + 1);
            complete_at = self.store_complete_at(seq);
        } else {
            let rb = dec.rb;
            let tc_ready = exec_end + if rb { self.cfg.conversion_latency } else { 0 };
            if dec.dest.is_some() {
                timing = Some(ResultTiming {
                    ready: exec_end,
                    rb,
                    tc_ready,
                    cluster,
                });
            }
            complete_at = tc_ready + 1;
        }

        if op.is_control() {
            let resolve = exec_end;
            complete_at = resolve + 1;
            if mispredicted && self.redirect_branch == Some(seq) {
                self.redirect_branch = None;
                self.fetch_resume = resolve + 1;
            }
        }

        let issue_cycle = self.cycle;
        let Some(entry) = self.entry_mut(seq) else {
            return;
        };
        entry.state = State::Issued;
        entry.dcache_miss = dcache_miss;
        entry.timing = timing;
        entry.complete_at = complete_at;
        entry.issue_cycle = issue_cycle;
        entry.exec_start = e;
        entry.exec_end = exec_end;
        let scheduler = entry.scheduler;
        let mut waiters = std::mem::take(&mut entry.waiters);
        self.rs_free[scheduler] += 1;
        // The result timing is now known: wake the sleeping consumers.
        for &(cseq, idx) in &waiters {
            self.wake(cseq, idx, timing, dcache_miss);
        }
        // Give the drained vector back for the slot's next occupant.
        waiters.clear();
        if let Some(entry) = self.entry_mut(seq) {
            entry.waiters = waiters;
        }
    }

    /// Figure 13/14 accounting for `seq` issuing at `e`, read from its
    /// operands' descriptors (both schedulers; debug builds check every
    /// answer against the bypass model).
    fn record_bypass_stats<O: SimObserver>(&mut self, seq: u64, e: u64, obs: &mut O) {
        let Some(entry) = self.entry(seq) else { return };
        if entry.srcs.is_empty() {
            return;
        }
        let cluster = entry.cluster;
        let mut any_bypassed = false;
        let mut bypassed_ops = 0u64;
        let mut regfile_ops = 0u64;
        let mut level_counts = [0u64; 3];
        let mut last: Option<(u64, bool, BypassCase)> = None; // (earliest, bypassed, case)
        for src in entry.srcs.as_slice() {
            let Some(p) = self.in_flight_producer(src) else {
                regfile_ops += 1;
                continue;
            };
            let a = src.avail;
            if !a.issued() {
                continue;
            }
            let earliest = a.earliest(0);
            let bypassed = a.from_bypass(e);
            let level = a.level(e);
            debug_assert_eq!(
                self.entry(p).and_then(|prod| prod.timing).map(|r| {
                    let need_tc = a.need_tc();
                    (
                        self.bypass.earliest(&r, need_tc, cluster, 0),
                        self.bypass.from_bypass(&r, need_tc, cluster, e),
                        self.bypass.level_used(&r, need_tc, cluster, e),
                    )
                }),
                Some((earliest, bypassed, level)),
                "descriptor disagrees with the bypass model"
            );
            if bypassed {
                any_bypassed = true;
                bypassed_ops += 1;
                // Figure 14 attribution: which forwarding level served it.
                if let Some(l) = level {
                    level_counts[(l - 1) as usize] += 1;
                    obs.on_bypass(l, BypassCase::classify(a.rb(), a.need_tc()));
                }
            } else {
                regfile_ops += 1;
            }
            if last.is_none_or(|(t, _, _)| earliest >= t) {
                last = Some((
                    earliest,
                    bypassed,
                    BypassCase::classify(a.rb(), a.need_tc()),
                ));
            }
        }
        self.stats.bypassed_operands += bypassed_ops;
        self.stats.regfile_operands += regfile_ops;
        for (slot, n) in level_counts.iter().enumerate() {
            self.stats.bypass_levels[slot] += n;
        }
        self.stats.bypass_cases.insts_with_sources += 1;
        if any_bypassed {
            self.stats.bypass_cases.insts_with_bypass += 1;
        }
        if let Some((_, true, case)) = last {
            self.stats.bypass_cases.record(case);
        }
    }

    // ---- retire --------------------------------------------------------------

    fn retire<O: SimObserver>(&mut self, obs: &mut O) -> usize {
        let mut n = 0usize;
        while n < FRONT_WIDTH {
            let Some(head) = self.entry(self.base_seq) else {
                break;
            };
            if head.state != State::Issued || head.complete_at > self.cycle {
                break;
            }
            let (seq, op, ea) = (head.d.seq, head.d.inst.op, head.d.ea);
            if op.is_store() {
                debug_assert!(ea.is_some(), "store has an address");
                self.mem.commit_store(ea.unwrap_or_default(), self.cycle);
                self.sq.retire(seq);
            }
            let Some(head) = self.ring.get(rob_slot(seq)) else {
                break;
            };
            self.base_seq += 1;
            self.in_flight -= 1;
            self.stats.retired += 1;
            let (rb, tc_ready) = match &head.timing {
                Some(t) => (t.rb, t.tc_ready),
                None => (false, head.exec_end),
            };
            obs.on_retire(&RetireEvent {
                cycle: self.cycle,
                seq: head.d.seq,
                pc: head.d.pc,
                inst: &head.d.inst,
                fetch: head.fetch_cycle,
                dispatch: head.dispatch_cycle,
                issue: head.issue_cycle,
                exec_start: head.exec_start,
                exec_end: head.exec_end,
                tc_ready,
                rb,
            });
            n += 1;
        }
        obs.on_stage(Stage::Retire, n);
        n
    }
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Simulator {{ cycle: {}, retired: {}, in-flight: {} }}",
            self.cycle, self.stats.retired, self.in_flight
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoreModel;
    use redbin_isa::{Inst, Operand, Reg};

    /// A loop whose body is `body` instructions produced by `f(i)`,
    /// iterated `iters` times (so the icache stays warm, as in real code).
    fn looped(body: usize, iters: i64, f: impl Fn(usize) -> Inst) -> Program {
        let mut code = vec![Inst::op(
            Opcode::Addq,
            Reg::R31,
            Operand::Imm(iters),
            Reg(20),
        )];
        for i in 0..body {
            code.push(f(i));
        }
        code.push(Inst::op(Opcode::Subq, Reg(20), Operand::Imm(1), Reg(20)));
        code.push(Inst::branch(Opcode::Bne, Reg(20), -(body as i64 + 2)));
        code.push(Inst::halt());
        Program::new(code)
    }

    fn chain_program(n: usize) -> Program {
        // A serial dependence chain of adds: IPC is dominated by the add
        // latency.
        looped(32, n as i64 / 32, |_| {
            Inst::op(Opcode::Addq, Reg(1), Operand::Imm(1), Reg(1))
        })
    }

    fn parallel_program(n: usize) -> Program {
        // Truly independent adds (source r31, rotating destinations):
        // IPC is purely width-bound.
        looped(32, n as i64 / 32, |i| {
            Inst::op(
                Opcode::Addq,
                Reg::R31,
                Operand::Imm(i as i64),
                Reg(1 + (i % 16) as u8),
            )
        })
    }

    fn run(cfg: MachineConfig, p: &Program) -> SimStats {
        Simulator::new(cfg, p).run().expect("sim completes")
    }

    #[test]
    fn serial_chain_exposes_add_latency() {
        // 4-wide (single cluster) so the chain is not perturbed by the
        // inter-cluster penalty.
        let p = chain_program(32_000);
        let ideal = run(MachineConfig::ideal(4), &p);
        let base = run(MachineConfig::baseline(4), &p);
        let rb = run(MachineConfig::rb_full(4), &p);
        // 1-cycle adds sustain ~1 IPC on a serial chain; 2-cycle adds ~0.5.
        assert!(ideal.ipc() > 0.85, "ideal ipc {}", ideal.ipc());
        assert!(base.ipc() < 0.6, "baseline ipc {}", base.ipc());
        assert!(
            rb.ipc() > 0.85,
            "redundant forwarding should match ideal on adds, got {}",
            rb.ipc()
        );
    }

    #[test]
    fn clustered_chain_pays_the_forwarding_delay() {
        // On the 8-wide machine the chain crosses the cluster boundary
        // every four instructions, so IPC lands below the 4-wide machine's.
        let p = chain_program(32_000);
        let w4 = run(MachineConfig::ideal(4), &p);
        let w8 = run(MachineConfig::ideal(8), &p);
        assert!(w8.ipc() < w4.ipc(), "w8 {} vs w4 {}", w8.ipc(), w4.ipc());
        assert!(w8.ipc() > 0.6, "w8 ipc {}", w8.ipc());
    }

    #[test]
    fn parallel_code_is_width_bound() {
        let p = parallel_program(64_000);
        let w8 = run(MachineConfig::ideal(8), &p);
        let w4 = run(MachineConfig::ideal(4), &p);
        assert!(w8.ipc() > 5.5, "8-wide ipc {}", w8.ipc());
        assert!(w4.ipc() > 3.3 && w4.ipc() <= 4.2, "4-wide ipc {}", w4.ipc());
        assert!(w8.ipc() > w4.ipc());
    }

    #[test]
    fn baseline_and_ideal_tie_on_parallel_code() {
        // With ample ILP, pipelined 2-cycle adders sustain the same
        // throughput (the paper's "throughput-intensive" observation).
        let p = parallel_program(64_000);
        let base = run(MachineConfig::baseline(8), &p);
        let ideal = run(MachineConfig::ideal(8), &p);
        let ratio = base.ipc() / ideal.ipc();
        assert!(ratio > 0.95, "ratio {ratio}");
    }

    #[test]
    fn rb_machine_charges_conversions_to_tc_consumers() {
        // add → xor chain: the logical op needs the converted value.
        let p = looped(32, 1000, |i| {
            if i % 2 == 0 {
                Inst::op(Opcode::Addq, Reg(1), Operand::Imm(1), Reg(1))
            } else {
                Inst::op(Opcode::Xor, Reg(1), Operand::Imm(3), Reg(1))
            }
        });
        let ideal = run(MachineConfig::ideal(4), &p);
        let rb = run(MachineConfig::rb_full(4), &p);
        // Ideal: 2 cycles per pair. RB: add sees xor's TC result fast, but
        // xor waits 3 cycles for the add's conversion → ~4 cycles per pair.
        assert!(
            rb.ipc() < 0.75 * ideal.ipc(),
            "rb {} vs ideal {}",
            rb.ipc(),
            ideal.ipc()
        );
    }

    #[test]
    fn limited_bypass_never_beats_full() {
        use redbin_workload::{Benchmark, Scale};
        for b in [Benchmark::Gap, Benchmark::Compress95, Benchmark::Parser] {
            let p = b.program(Scale::Test);
            let full = run(MachineConfig::rb_full(4), &p);
            let limited = run(MachineConfig::rb_limited(4), &p);
            assert!(
                limited.ipc() <= full.ipc() * 1.001,
                "{b:?}: limited {} should not beat full {}",
                limited.ipc(),
                full.ipc()
            );
        }
    }

    #[test]
    fn faithful_datapath_agrees_on_a_real_kernel() {
        use redbin_workload::{Benchmark, Scale};
        let p = Benchmark::Gap.program(Scale::Test);
        let cfg = MachineConfig::rb_full(8).with_datapath(DatapathMode::Faithful);
        let stats = run(cfg, &p);
        assert!(
            stats.fidelity_checks > 1000,
            "checks: {}",
            stats.fidelity_checks
        );
    }

    #[test]
    fn mispredicts_are_counted() {
        use redbin_workload::{Benchmark, Scale};
        let p = Benchmark::Twolf.program(Scale::Test);
        let stats = run(MachineConfig::ideal(8), &p);
        assert!(stats.mispredicts > 10, "twolf must mispredict");
        assert!(stats.branches > 100);
    }

    #[test]
    fn cycle_limit_is_enforced() {
        let p = chain_program(102_400);
        let mut cfg = MachineConfig::ideal(8);
        cfg.max_cycles = 100;
        let err = Simulator::new(cfg, &p).run().unwrap_err();
        assert_eq!(err, SimError::CycleLimit(100));
        // An add and a branch back to it never halt. A Faithful machine's
        // redundant-datapath check stops where the timing run would.
        let spin = Program::new(vec![
            Inst::op(Opcode::Addq, Reg(1), Operand::Imm(1), Reg(1)),
            Inst::br(-2),
        ]);
        for mode in [DatapathMode::Fast, DatapathMode::Faithful] {
            let mut cfg = MachineConfig::ideal(8).with_datapath(mode);
            cfg.max_cycles = 10_000;
            let err = Simulator::new(cfg, &spin).run().unwrap_err();
            assert_eq!(err, SimError::CycleLimit(10_000), "{mode:?}");
        }
    }

    #[test]
    fn memory_bound_kernel_fast_forwards_most_cycles_exactly() {
        use redbin_workload::{Benchmark, Scale};
        let p = Benchmark::Mcf.program(Scale::Test);
        for cfg in [MachineConfig::rb_full(8), MachineConfig::ideal(4)] {
            let label = format!("{} w{}", cfg.model, cfg.width);
            let mut sim = Simulator::new(cfg.clone(), &p);
            sim.run_loop(&mut NoopObserver).expect("sim completes");
            let cycles = sim.cycle;
            assert!(
                2 * sim.fast_forwarded > cycles,
                "{label}: fast-forwarded {} of {cycles} cycles",
                sim.fast_forwarded
            );
            let stats = sim.finish_stats();
            assert!(stats.stall_accounting_is_complete(), "{label}");
            let reference = Simulator::new(cfg.clone(), &p)
                .with_reference_scheduler()
                .run()
                .expect("reference completes");
            assert_eq!(stats, reference, "{label}: diverged from the reference");

            // The cycle limit is honoured exactly across skipped stretches.
            let mut at_limit = cfg.clone();
            at_limit.max_cycles = cycles;
            assert_eq!(run(at_limit, &p), stats, "{label}: limit = cycles");
            let mut below = cfg;
            below.max_cycles = cycles - 1;
            let err = Simulator::new(below, &p).run().unwrap_err();
            assert_eq!(err, SimError::CycleLimit(cycles - 1), "{label}");
        }
    }

    #[test]
    fn a_load_at_the_top_of_the_address_space_simulates() {
        // `ldq r1, -8(r31)` reads the last quadword below 2^64; the store
        // queue must not overflow computing where its bytes end. The
        // second program adds stores that it must forward from or wait on.
        let top = Program::new(vec![
            Inst::mem(Opcode::Ldq, Reg(1), Reg::R31, -8),
            Inst::halt(),
        ]);
        let with_stores = Program::new(vec![
            Inst::op(Opcode::Addq, Reg::R31, Operand::Imm(0x1234), Reg(2)),
            Inst::mem(Opcode::Stq, Reg(2), Reg::R31, -8),
            Inst::mem(Opcode::Ldq, Reg(1), Reg::R31, -8),
            Inst::mem(Opcode::Stl, Reg(2), Reg::R31, -4),
            Inst::mem(Opcode::Ldq, Reg(3), Reg::R31, -8),
            Inst::halt(),
        ]);
        for (p, has_stores) in [(top, false), (with_stores, true)] {
            let mut emu = redbin_isa::Emulator::new(&p);
            emu.run(100).expect("emulator halts");
            for cfg in [MachineConfig::rb_full(8), MachineConfig::baseline(4)] {
                let (stats, arch) = Simulator::new(cfg.clone(), &p)
                    .run_with_arch()
                    .expect("sim completes");
                assert_eq!(arch.diff(&emu.arch_state()), None);
                if has_stores {
                    // A wrapped end would make both stores look disjoint.
                    assert!(
                        stats.store_forwards > 0,
                        "the stq forwards to the first ldq"
                    );
                    assert!(
                        stats.load_blocks > 0,
                        "the stl partially overlaps the second"
                    );
                }
                let reference = Simulator::new(cfg, &p)
                    .with_reference_scheduler()
                    .run()
                    .expect("reference completes");
                assert_eq!(stats, reference);
            }
        }
    }

    #[test]
    fn store_data_reaches_the_queue_after_its_producer_issues() {
        // The add's result is the store's data, and the last load forwards
        // from the store. The store queue learns the data's time at the
        // issue stage after the add's, so the load cannot forward in the
        // add's own cycle, even from a scheduler scanned after the add's
        // (hence 8 wide).
        let p = Program::new(vec![
            Inst::lda(Opcode::Lda, Reg::R31, 0x1000, Reg(1)),
            Inst::mem(Opcode::Ldq, Reg(2), Reg::R31, 0x2000),
            Inst::op(Opcode::Addq, Reg(2), Operand::Imm(1), Reg(3)),
            Inst::mem(Opcode::Stq, Reg(3), Reg(1), 0),
            Inst::mem(Opcode::Ldq, Reg(4), Reg(1), 0),
            Inst::halt(),
        ]);
        for sim in [
            Simulator::new(MachineConfig::rb_full(8), &p),
            Simulator::new(MachineConfig::rb_full(8), &p).with_reference_scheduler(),
        ] {
            let (stats, trace) = sim.run_traced().expect("sim completes");
            assert_eq!(stats.store_forwards, 1);
            let issue = |pc: usize| trace.entries().iter().find(|e| e.pc == pc).map(|e| e.issue);
            let (add, load) = (issue(2), issue(4));
            assert!(load > add, "add {add:?}, load {load:?}");
        }
    }

    #[test]
    fn retired_count_matches_oracle() {
        let p = parallel_program(768);
        let stats = run(MachineConfig::ideal(4), &p);
        // 1 init + 24 iterations × 34 body/loop instructions.
        assert_eq!(stats.retired, 1 + 24 * 34);
    }

    #[test]
    fn all_four_models_run_every_test_kernel() {
        use redbin_workload::{Benchmark, Scale};
        for b in [Benchmark::Compress95, Benchmark::Mcf, Benchmark::Eon] {
            let p = b.program(Scale::Test);
            let mut ipcs = Vec::new();
            for model in CoreModel::all() {
                let stats = run(MachineConfig::new(*model, 8), &p);
                assert!(stats.ipc() > 0.05, "{b:?} {model}: ipc {}", stats.ipc());
                ipcs.push(stats.ipc());
            }
            // Ideal ≥ Baseline on every kernel.
            assert!(
                ipcs[3] >= ipcs[0] * 0.98,
                "{b:?}: ideal {} vs baseline {}",
                ipcs[3],
                ipcs[0]
            );
        }
    }
}
