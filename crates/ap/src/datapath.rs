//! Execution of a configured datapath.
//!
//! After acquirement the objects "are free from control" (§2.2): data
//! simply flows through the chained operators. This module is the dataflow
//! engine that makes a configured stream *run* — the only one; a single
//! AP's `execute` and a 1024-AP region sweep advance the same
//! [`Datapath::step`]:
//!
//! * every object is a node with up to two value ports and one predicate
//!   port, single-token input latches, and a single-token output latch
//!   (backpressure propagates naturally, as it would on gated channels);
//! * operations fire when their inputs are present, take their
//!   [`Operation::latency`](vlsi_object::Operation::latency) cycles, and
//!   broadcast their result to every successor (fan-out over one granted
//!   channel);
//! * **memory objects** produce load streams and absorb store streams. A
//!   `Load` with no address producer streams sequentially from its block
//!   (base pointer in `regs[0]`, block index in `regs[1]`, element count in
//!   `regs[2]`); a `Store` with no address producer writes sequentially the
//!   same way. This is the "load and store streams" traffic the paper's
//!   GOPS figure excludes (§4.1) and the Figure 7(d) mailbox pattern;
//! * **steer** objects guard data-intensive datapaths from control flow:
//!   they forward their value only when the predicate matches, which is
//!   how `if (x>y) z=x+1 else z=y+2` becomes two speculative arms;
//! * when the run drains, **release tokens** propagate from the stream
//!   sources through the datapath (§2.2: "An object is released by
//!   receiving and firing release token(s) from the preceding object(s)"),
//!   yielding the release order the processor uses to free resources.
//!   The order is a function of the wiring alone, so it is worked out
//!   once, when the graph is built.
//!
//! The graph is stored as parallel slabs over the node index (ops,
//! immediates, registers, latch values, in-flight slots, counters) plus a
//! CSR successor list, not as a `Vec` of node structs. Whether a latch,
//! an output or an in-flight slot *holds* a token is one bit in a `u64`
//! occupancy mask per slab, so a cycle visits the occupied outputs, the
//! busy operators and the nodes whose inputs are all present — a few
//! word operations find them — instead of asking every node three times.

use crate::error::ApError;
use crate::metrics::ApMetrics;
use std::collections::HashMap;
use vlsi_object::memory::MEMORY_WORDS;
use vlsi_object::{
    GlobalConfigStream, LocalConfig, MemoryBlock, ObjectError, ObjectId, ObjectKind, Operation,
    Word, PHYS_REGISTERS,
};

/// Static description of one datapath node, assembled from a bound object.
#[derive(Clone, Debug)]
pub struct NodeSpec {
    /// Object identity.
    pub id: ObjectId,
    /// Local configuration (operation + immediate).
    pub cfg: LocalConfig,
    /// Object species.
    pub kind: ObjectKind,
    /// Register contents at execution start. For memory objects:
    /// `regs[0]` = stream pointer, `regs[1]` = memory-block index,
    /// `regs[2]` = stream length (0 = unbounded).
    pub regs: [Word; PHYS_REGISTERS],
}

/// Per-port input latch indices.
const LHS: usize = 0;
const RHS: usize = 1;
const PRED: usize = 2;

/// One bit per node, packed into `u64` words in node order; graphs over
/// 64 nodes simply have more words.
type Mask = Vec<u64>;

fn is_set(mask: &[u64], i: usize) -> bool {
    mask[i / 64] >> (i % 64) & 1 != 0
}

fn set(mask: &mut [u64], i: usize) {
    mask[i / 64] |= 1 << (i % 64);
}

fn clear(mask: &mut [u64], i: usize) {
    mask[i / 64] &= !(1 << (i % 64));
}

/// The node indices of the set bits of mask word `w`, ascending. Takes
/// the word by value: the loop body is free to change the mask.
fn set_bits(w: usize, mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let i = w * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            i
        })
    })
}

/// Where a datapath is in its run.
#[derive(Clone, Debug)]
enum RunStatus {
    /// `start` not called since the last `finish`.
    Pending,
    /// Mid-run: more cycles to simulate.
    Running,
    /// Reached quiescence; the report is ready.
    Drained,
    /// Hit a typed error (memory fault or cycle-budget timeout).
    Failed(ApError),
}

/// `base + offset` as a word address. A sum past `u64::MAX` lies outside
/// every block; letting it wrap would alias a small, valid address.
pub(crate) fn offset_addr(base: u64, offset: u64) -> Result<u64, ObjectError> {
    base.checked_add(offset)
        .ok_or(ObjectError::AddressOutOfRange {
            addr: u64::MAX,
            capacity: MEMORY_WORDS,
        })
}

/// Outcome of one datapath run.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ExecutionReport {
    /// Cycles simulated.
    pub cycles: u64,
    /// Operation firings.
    pub firings: u64,
    /// Words read from memory blocks.
    pub loads: u64,
    /// Words written to memory blocks.
    pub stores: u64,
    /// Values collected at taps (successor-less compute nodes), per object.
    pub taps: HashMap<ObjectId, Vec<Word>>,
    /// Firings per object that fired, in node order — the utilisation
    /// profile of the datapath (the busiest object bounds the stream
    /// rate).
    pub node_firings: Vec<(ObjectId, u64)>,
    /// Whether the datapath reached quiescence (nothing in flight, nothing
    /// deliverable) rather than the cycle budget.
    pub drained: bool,
    /// Release tokens fired while freeing the datapath.
    pub release_tokens: u64,
    /// Object release order (sources first), as driven by release tokens.
    pub release_order: Vec<ObjectId>,
}

/// A configured, executable datapath.
///
/// Run it in one call with [`run`](Self::run), or cycle by cycle with
/// [`start`](Self::start) / [`step`](Self::step) /
/// [`finish`](Self::finish) — `run` is exactly that loop. Register state
/// (stream pointers) lives here and advances across runs; everything
/// else is cleared by `start`.
#[derive(Clone, Debug)]
pub struct Datapath {
    // Static structure, parallel over node index.
    ids: Vec<ObjectId>,
    ops: Vec<Operation>,
    imms: Vec<Word>,
    regs: Vec<[Word; PHYS_REGISTERS]>,
    /// Per input port, the nodes that cannot fire while that latch is
    /// empty: a plain operation's arity, a steer's value and predicate,
    /// a store's data, an addressed load's or store's address. `Const`,
    /// stream `Load` and `Merge` need nothing here — they decide for
    /// themselves when fired. The padding bits past the last node need
    /// a value that never arrives, which keeps them out of the ready set.
    need: [Mask; 3],
    /// CSR successor offsets, `nodes + 1` entries.
    succ_start: Vec<u32>,
    /// CSR successor payload: `(node index, port)`.
    succ_list: Vec<(u32, u8)>,
    /// Successor-less compute nodes whose outputs the report collects.
    is_tap: Vec<bool>,
    /// Release order and token count: what firing release tokens through
    /// this wiring yields, every run.
    release_order: Vec<ObjectId>,
    release_tokens: u64,
    // Transient dataflow state: a value slab per kind of slot, valid
    // where the occupancy mask beside it has the node's bit set.
    in_val: Vec<[Word; 3]>,
    in_full: [Mask; 3],
    inflight_rem: Vec<u32>,
    inflight_val: Vec<Word>,
    inflight: Mask,
    out_val: Vec<Word>,
    out_full: Mask,
    produced: Vec<u64>,
    exhausted: Mask,
    /// Nodes whose registers a run advanced and the processor has not
    /// yet persisted — survives `start`, cleared by
    /// [`take_written_regs`](Self::take_written_regs).
    regs_written: Mask,
    // Report accumulation.
    tap_vals: Vec<Vec<Word>>,
    node_firings: Vec<u64>,
    firings: u64,
    loads: u64,
    stores: u64,
    cycles: u64,
    // Run control.
    tap_limit: u64,
    max_cycles: u64,
    status: RunStatus,
}

impl Datapath {
    /// Builds the dataflow graph for `stream`, resolving each referenced
    /// object through `resolve` (typically a closure over the object stack
    /// and the memory objects).
    ///
    /// Port wiring: the first element naming a sink wires its ports;
    /// later elements only fill ports still unconnected.
    pub fn build(
        stream: &GlobalConfigStream,
        mut resolve: impl FnMut(ObjectId) -> Option<NodeSpec>,
    ) -> Result<Datapath, ApError> {
        if stream.is_empty() {
            return Err(ApError::EmptyDatapath);
        }
        // First pass: materialise nodes for every referenced object.
        let mut index: HashMap<ObjectId, usize> = HashMap::new();
        let (mut ids, mut ops, mut imms, mut regs) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for id in stream.working_set() {
            let spec = resolve(id).ok_or(ApError::UndefinedSource(id))?;
            index.insert(id, ids.len());
            ids.push(spec.id);
            ops.push(spec.cfg.op);
            imms.push(spec.cfg.imm);
            regs.push(spec.regs);
        }
        // Second pass: wire ports.
        let n = ids.len();
        let mut has_src = vec![[false; 3]; n];
        let mut succs: Vec<Vec<(u32, u8)>> = vec![Vec::new(); n];
        for e in stream.elements() {
            let sink = index[&e.sink];
            let ports = [(LHS, e.src_lhs), (RHS, e.src_rhs), (PRED, e.src_pred)];
            for (port, src) in ports {
                let Some(src_id) = src else { continue };
                if !has_src[sink][port] {
                    has_src[sink][port] = true;
                    succs[index[&src_id]].push((sink as u32, port as u8));
                }
            }
        }
        let mut succ_start = Vec::with_capacity(n + 1);
        let mut succ_list = Vec::new();
        for s in &succs {
            succ_start.push(succ_list.len() as u32);
            succ_list.extend_from_slice(s);
        }
        succ_start.push(succ_list.len() as u32);
        let is_tap = (0..n)
            .map(|i| succs[i].is_empty() && !ops[i].is_memory_op())
            .collect();
        let mask = vec![0u64; n.div_ceil(64)];
        let mut need = [mask.clone(), mask.clone(), mask.clone()];
        for i in 0..n {
            // A memory op with no address producer is a stream.
            let addressed = has_src[i][LHS];
            let ports = match ops[i] {
                Operation::Const | Operation::Merge => [false; 3],
                Operation::Load => [addressed, false, false],
                Operation::Store => [addressed, true, false],
                Operation::SteerTrue | Operation::SteerFalse => [true, false, true],
                op => [op.arity() >= 1, op.arity() >= 2, false],
            };
            for (port, needed) in ports.into_iter().enumerate() {
                if needed {
                    set(&mut need[port], i);
                }
            }
        }
        for pad in n..mask.len() * 64 {
            set(&mut need[LHS], pad);
        }
        let (release_order, release_tokens) =
            release_schedule(&ids, &has_src, &succ_start, &succ_list);
        Ok(Datapath {
            ids,
            ops,
            imms,
            regs,
            need,
            succ_start,
            succ_list,
            is_tap,
            release_order,
            release_tokens,
            in_val: vec![[Word::ZERO; 3]; n],
            in_full: [mask.clone(), mask.clone(), mask.clone()],
            inflight_rem: vec![0; n],
            inflight_val: vec![Word::ZERO; n],
            inflight: mask.clone(),
            out_val: vec![Word::ZERO; n],
            out_full: mask.clone(),
            produced: vec![0; n],
            exhausted: mask.clone(),
            regs_written: mask,
            tap_vals: vec![Vec::new(); n],
            node_firings: vec![0; n],
            firings: 0,
            loads: 0,
            stores: 0,
            cycles: 0,
            tap_limit: 0,
            max_cycles: 0,
            status: RunStatus::Pending,
        })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the datapath has no nodes.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Live register state per node, in node order (memory stream
    /// pointers advance across runs). Exposed so the processor can
    /// persist state to the bound objects.
    pub fn regs(&self) -> impl Iterator<Item = (ObjectId, &[Word; PHYS_REGISTERS])> {
        self.ids.iter().copied().zip(&self.regs)
    }

    /// Hands `persist` the registers of every node a run has advanced
    /// since the last call (stream pointers — nothing else writes a
    /// register), and forgets them. The processor calls this after a
    /// successful run only, so what a failed run wrote waits here for
    /// the next success.
    pub(crate) fn take_written_regs(
        &mut self,
        mut persist: impl FnMut(ObjectId, &[Word; PHYS_REGISTERS]),
    ) {
        for w in 0..self.regs_written.len() {
            for i in set_bits(w, std::mem::take(&mut self.regs_written[w])) {
                persist(self.ids[i], &self.regs[i]);
            }
        }
    }

    /// Runs the datapath until it drains or `max_cycles` elapse.
    ///
    /// `memory` is the AP's array of memory blocks, indexed by each memory
    /// node's `regs[1]`. Tap outputs are capped at `tap_limit` values per
    /// tap; a datapath whose only sinks are taps drains when every tap has
    /// `tap_limit` values (pure streams would otherwise never finish).
    pub fn run(
        &mut self,
        memory: &mut [MemoryBlock],
        tap_limit: u64,
        max_cycles: u64,
    ) -> Result<ExecutionReport, ApError> {
        self.start(tap_limit, max_cycles);
        while self.step(memory) {}
        self.finish()
    }

    /// Arms a run with the knobs of [`run`](Self::run). A resident
    /// datapath runs repeatedly: the transient dataflow state (latch,
    /// output and in-flight occupancy, production counters) is cleared,
    /// the register state is kept — stream pointers advance across runs.
    /// A zero cycle budget fails immediately.
    pub fn start(&mut self, tap_limit: u64, max_cycles: u64) {
        // Values under a cleared occupancy bit are never read.
        for mask in self.in_full.iter_mut() {
            mask.fill(0);
        }
        self.inflight.fill(0);
        self.out_full.fill(0);
        self.exhausted.fill(0);
        self.produced.fill(0);
        self.tap_vals.iter_mut().for_each(Vec::clear);
        self.node_firings.fill(0);
        (self.firings, self.loads, self.stores, self.cycles) = (0, 0, 0, 0);
        self.tap_limit = tap_limit;
        self.max_cycles = max_cycles;
        self.status = if max_cycles == 0 {
            RunStatus::Failed(ApError::ExecutionTimeout { cycles: 0 })
        } else {
            RunStatus::Running
        };
    }

    /// Simulates one cycle over `memory`: deliver outputs, retire
    /// in-flight operations, fire ready nodes. Returns whether the run
    /// has more cycles to simulate; once it returns `false` the outcome
    /// (drain, memory fault, or cycle-budget timeout) waits in
    /// [`finish`](Self::finish).
    pub fn step(&mut self, memory: &mut [MemoryBlock]) -> bool {
        if !matches!(self.status, RunStatus::Running) {
            return false;
        }
        let mut activity = false;
        let words = self.out_full.len();

        // Phase 1: deliver outputs to successor latches (broadcast with
        // backpressure: the output clears only when all successors have
        // accepted).
        for w in 0..words {
            for i in set_bits(w, self.out_full[w]) {
                let v = self.out_val[i];
                let lo = self.succ_start[i] as usize;
                let hi = self.succ_start[i + 1] as usize;
                if lo == hi {
                    // A tap: collect. (Successor-less memory nodes drop
                    // the value — only taps have collection vectors.)
                    if self.is_tap[i] && (self.tap_vals[i].len() as u64) < self.tap_limit {
                        self.tap_vals[i].push(v);
                        activity = true;
                    }
                } else {
                    let succs = &self.succ_list[lo..hi];
                    let in_full = &mut self.in_full;
                    if succs
                        .iter()
                        .any(|&(s, p)| is_set(&in_full[p as usize], s as usize))
                    {
                        continue;
                    }
                    for &(s, p) in succs {
                        set(&mut in_full[p as usize], s as usize);
                        self.in_val[s as usize][p as usize] = v;
                    }
                    activity = true;
                }
                clear(&mut self.out_full, i);
                self.produced[i] += 1;
            }
        }

        // Phase 2: retire in-flight operations whose latency elapsed.
        for w in 0..words {
            let busy = self.inflight[w];
            activity |= busy != 0;
            for i in set_bits(w, busy) {
                if self.inflight_rem[i] <= 1 {
                    debug_assert!(!is_set(&self.out_full, i));
                    clear(&mut self.inflight, i);
                    set(&mut self.out_full, i);
                    self.out_val[i] = self.inflight_val[i];
                } else {
                    self.inflight_rem[i] -= 1;
                }
            }
        }

        // Phase 3: fire ready nodes, in node-index order. Firing a node
        // touches only its own slots (and memory), so the ready set of a
        // word does not change while the word is walked.
        for w in 0..words {
            let blocked = self.inflight[w] | self.out_full[w] | self.exhausted[w];
            let supplied = |port: usize| self.in_full[port][w] | !self.need[port][w];
            let ready = !blocked & supplied(LHS) & supplied(RHS) & supplied(PRED);
            for i in set_bits(w, ready) {
                match self.fire(i, memory) {
                    Ok(true) => {
                        self.node_firings[i] += 1;
                        activity = true;
                    }
                    Ok(false) => {}
                    Err(e) => {
                        self.status = RunStatus::Failed(e);
                        return false;
                    }
                }
            }
        }

        self.cycles += 1;
        if !activity {
            self.status = RunStatus::Drained;
            return false;
        }
        if self.cycles >= self.max_cycles {
            // The cycle budget elapsed with work still in flight.
            self.status = RunStatus::Failed(ApError::ExecutionTimeout {
                cycles: self.cycles,
            });
            return false;
        }
        true
    }

    fn set_inflight(&mut self, i: usize, latency: u32, v: Word) {
        set(&mut self.inflight, i);
        self.inflight_rem[i] = latency;
        self.inflight_val[i] = v;
    }

    /// Empties input latch `port` of node `i` and returns what it held.
    fn take_input(&mut self, i: usize, port: usize) -> Word {
        clear(&mut self.in_full[port], i);
        self.in_val[i][port]
    }

    /// Advances stream node `i`'s pointer past the word at `addr`.
    fn advance_stream(&mut self, i: usize, addr: u64) -> Result<(), ApError> {
        self.regs[i][0] = Word(offset_addr(addr, 1)?);
        set(&mut self.regs_written, i);
        Ok(())
    }

    /// Fires node `i`, which the ready set admitted: nothing in flight,
    /// output free, not exhausted, every latch its `need` names full.
    /// Returns whether it fired.
    fn fire(&mut self, i: usize, memory: &mut [MemoryBlock]) -> Result<bool, ApError> {
        let op = self.ops[i];
        let imm = self.imms[i];
        match op {
            Operation::Const => {
                // A constant regenerates whenever downstream consumed
                // it, up to its stream limit (regs[2]; 0 = one-shot).
                let limit = self.regs[i][2].as_u64().max(1);
                if self.produced[i] >= limit {
                    set(&mut self.exhausted, i);
                    return Ok(false);
                }
                self.set_inflight(i, op.latency(), imm);
                self.firings += 1;
                Ok(true)
            }
            Operation::Load => {
                // An addressed load reads at its base plus the address
                // token; a stream load reads at its pointer and moves on.
                let addressed = is_set(&self.need[LHS], i);
                let limit = self.regs[i][2].as_u64();
                if !addressed && limit != 0 && self.produced[i] >= limit {
                    set(&mut self.exhausted, i);
                    return Ok(false);
                }
                let offset = if addressed {
                    self.take_input(i, LHS).as_u64()
                } else {
                    0
                };
                let block = self.regs[i][1].as_u64() as usize;
                let base = self.regs[i][0].as_u64();
                let mem = memory
                    .get_mut(block)
                    .ok_or(ApError::UndefinedSource(self.ids[i]))?;
                let v = mem.load(offset_addr(base, offset)?)?;
                if !addressed {
                    self.advance_stream(i, base)?;
                }
                self.set_inflight(i, op.latency(), v);
                self.loads += 1;
                self.firings += 1;
                Ok(true)
            }
            Operation::Store => {
                let data = self.in_val[i][RHS];
                let addr = if is_set(&self.need[LHS], i) {
                    self.take_input(i, LHS).as_u64()
                } else {
                    let a = self.regs[i][0].as_u64();
                    self.advance_stream(i, a)?;
                    a
                };
                clear(&mut self.in_full[RHS], i);
                let block = self.regs[i][1].as_u64() as usize;
                let mem = memory
                    .get_mut(block)
                    .ok_or(ApError::UndefinedSource(self.ids[i]))?;
                mem.store(addr, data)?;
                // Stores produce no token; model latency as instant
                // retire.
                self.produced[i] += 1;
                self.stores += 1;
                self.firings += 1;
                Ok(true)
            }
            Operation::SteerTrue | Operation::SteerFalse => {
                let v = self.take_input(i, LHS);
                let p = self.take_input(i, PRED);
                self.firings += 1;
                // A token that fails the predicate is consumed silently;
                // the arm stays dark.
                if p.as_bool() == (op == Operation::SteerTrue) {
                    self.set_inflight(i, op.latency(), v);
                }
                Ok(true)
            }
            Operation::Merge => {
                let port = if is_set(&self.in_full[LHS], i) {
                    LHS
                } else if is_set(&self.in_full[RHS], i) {
                    RHS
                } else {
                    return Ok(false);
                };
                let v = self.take_input(i, port);
                self.set_inflight(i, op.latency(), v);
                self.firings += 1;
                Ok(true)
            }
            _ => {
                // Plain value operation: all declared ports hold tokens.
                let arity = op.arity();
                let mut operand = |port: usize| {
                    if port < arity {
                        self.take_input(i, port)
                    } else {
                        Word::ZERO
                    }
                };
                let (lhs, rhs) = (operand(LHS), operand(RHS));
                let result = op
                    .eval(lhs, rhs, imm)
                    .expect("context-free operation must evaluate");
                self.set_inflight(i, op.latency(), result);
                self.firings += 1;
                Ok(true)
            }
        }
    }

    /// Closes the run [`start`](Self::start) armed and returns its
    /// outcome: the report of a drained run (release tokens fired), or
    /// the typed error that stopped it. A run abandoned mid-flight, or
    /// never started, reads as a timeout at the cycles it reached.
    pub fn finish(&mut self) -> Result<ExecutionReport, ApError> {
        match std::mem::replace(&mut self.status, RunStatus::Pending) {
            RunStatus::Pending | RunStatus::Running => Err(ApError::ExecutionTimeout {
                cycles: self.cycles,
            }),
            RunStatus::Failed(e) => Err(e),
            RunStatus::Drained => {
                let nodes = || self.ids.iter().copied();
                // Copied out, not moved: the collection vectors keep
                // their capacity for the next run.
                let taps = nodes()
                    .zip(&self.tap_vals)
                    .zip(&self.is_tap)
                    .filter(|&(_, &tap)| tap)
                    .map(|((id, vals), _)| (id, vals.clone()))
                    .collect();
                let node_firings = nodes()
                    .zip(self.node_firings.iter().copied())
                    .filter(|&(_, fired)| fired > 0)
                    .collect();
                Ok(ExecutionReport {
                    cycles: self.cycles,
                    firings: self.firings,
                    loads: self.loads,
                    stores: self.stores,
                    taps,
                    node_firings,
                    drained: true,
                    release_tokens: self.release_tokens,
                    release_order: self.release_order.clone(),
                })
            }
        }
    }

    /// Folds a report into the processor metrics.
    pub fn report_metrics(report: &ExecutionReport, m: &mut ApMetrics) {
        m.exec_cycles += report.cycles;
        m.firings += report.firings;
        m.loads += report.loads;
        m.stores += report.stores;
        m.release_tokens += report.release_tokens;
    }
}

/// Propagates release tokens from the sources through the wiring and
/// returns the release order with the tokens fired. Sources (no wired
/// inputs) fire first; every node releases after receiving a token from
/// each predecessor.
fn release_schedule(
    ids: &[ObjectId],
    has_src: &[[bool; 3]],
    succ_start: &[u32],
    succ_list: &[(u32, u8)],
) -> (Vec<ObjectId>, u64) {
    let mut pending: Vec<usize> = has_src
        .iter()
        .map(|srcs| srcs.iter().filter(|&&s| s).count())
        .collect();
    let mut queue: Vec<usize> = (0..ids.len()).filter(|&i| pending[i] == 0).collect();
    let mut tokens = 0;
    let mut head = 0;
    while head < queue.len() {
        let i = queue[head];
        head += 1;
        tokens += 1;
        let lo = succ_start[i] as usize;
        let hi = succ_start[i + 1] as usize;
        for &(s, _) in &succ_list[lo..hi] {
            // One token per edge.
            tokens += 1;
            pending[s as usize] -= 1;
            if pending[s as usize] == 0 {
                queue.push(s as usize);
            }
        }
    }
    // Nodes on cycles never receive all tokens; they are released by
    // force at the end (the paper's datapaths are acyclic).
    queue.extend((0..ids.len()).filter(|&i| pending[i] > 0));
    (queue.into_iter().map(|i| ids[i]).collect(), tokens)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsi_object::GlobalConfigElement;

    /// Sentinel for "nothing in flight" in the reference's countdown slab.
    const IDLE: u32 = u32::MAX;

    /// The engine as it stood before the occupancy masks — `Option`
    /// latches, every node visited in every phase, release tokens walked
    /// per run. `start`, `step`, `try_fire` and `fire_release_tokens` are
    /// that engine's, verbatim; it is the oracle the mask engine is held
    /// to, cycle by cycle.
    struct Reference {
        ids: Vec<ObjectId>,
        ops: Vec<Operation>,
        imms: Vec<Word>,
        regs: Vec<[Word; PHYS_REGISTERS]>,
        has_src: Vec<[bool; 3]>,
        succ_start: Vec<u32>,
        succ_list: Vec<(u32, u8)>,
        is_tap: Vec<bool>,
        inputs: Vec<[Option<Word>; 3]>,
        inflight_rem: Vec<u32>,
        inflight_val: Vec<Option<Word>>,
        out: Vec<Option<Word>>,
        produced: Vec<u64>,
        exhausted: Vec<bool>,
        tap_vals: Vec<Vec<Word>>,
        node_firings: Vec<u64>,
        firings: u64,
        loads: u64,
        stores: u64,
        cycles: u64,
        tap_limit: u64,
        max_cycles: u64,
        status: RunStatus,
    }

    impl Reference {
        /// The same graph and register state as `dp`; which ports are
        /// wired is read back off the successor list.
        fn of(dp: &Datapath) -> Reference {
            let n = dp.len();
            let mut has_src = vec![[false; 3]; n];
            for &(s, p) in &dp.succ_list {
                has_src[s as usize][p as usize] = true;
            }
            Reference {
                ids: dp.ids.clone(),
                ops: dp.ops.clone(),
                imms: dp.imms.clone(),
                regs: dp.regs.clone(),
                has_src,
                succ_start: dp.succ_start.clone(),
                succ_list: dp.succ_list.clone(),
                is_tap: dp.is_tap.clone(),
                inputs: vec![[None; 3]; n],
                inflight_rem: vec![IDLE; n],
                inflight_val: vec![None; n],
                out: vec![None; n],
                produced: vec![0; n],
                exhausted: vec![false; n],
                tap_vals: vec![Vec::new(); n],
                node_firings: vec![0; n],
                firings: 0,
                loads: 0,
                stores: 0,
                cycles: 0,
                tap_limit: 0,
                max_cycles: 0,
                status: RunStatus::Pending,
            }
        }

        /// Arms a run with the knobs of [`run`](Self::run). A resident
        /// datapath runs repeatedly: the transient dataflow state (latches,
        /// in-flight ops, production counters) is cleared, the register state
        /// is kept — stream pointers advance across runs. A zero cycle budget
        /// fails immediately.
        fn start(&mut self, tap_limit: u64, max_cycles: u64) {
            self.inputs.fill([None; 3]);
            self.inflight_rem.fill(IDLE);
            self.inflight_val.fill(None);
            self.out.fill(None);
            self.produced.fill(0);
            self.exhausted.fill(false);
            self.tap_vals.iter_mut().for_each(Vec::clear);
            self.node_firings.fill(0);
            (self.firings, self.loads, self.stores, self.cycles) = (0, 0, 0, 0);
            self.tap_limit = tap_limit;
            self.max_cycles = max_cycles;
            self.status = if max_cycles == 0 {
                RunStatus::Failed(ApError::ExecutionTimeout { cycles: 0 })
            } else {
                RunStatus::Running
            };
        }

        /// Simulates one cycle over `memory`: deliver outputs, retire
        /// in-flight operations, fire ready nodes. Returns whether the run
        /// has more cycles to simulate; once it returns `false` the outcome
        /// (drain, memory fault, or cycle-budget timeout) waits in
        /// [`finish`](Self::finish).
        fn step(&mut self, memory: &mut [MemoryBlock]) -> bool {
            if !matches!(self.status, RunStatus::Running) {
                return false;
            }
            let mut activity = false;

            // Phase 1: deliver outputs to successor latches (broadcast with
            // backpressure: the output clears only when all successors have
            // accepted).
            for i in 0..self.out.len() {
                let Some(v) = self.out[i] else { continue };
                let lo = self.succ_start[i] as usize;
                let hi = self.succ_start[i + 1] as usize;
                if lo == hi {
                    // A tap: collect. (Successor-less memory nodes drop the
                    // value — only taps have collection vectors.)
                    if self.is_tap[i] && (self.tap_vals[i].len() as u64) < self.tap_limit {
                        self.tap_vals[i].push(v);
                        activity = true;
                    }
                    self.out[i] = None;
                    self.produced[i] += 1;
                    continue;
                }
                let (succ_list, inputs) = (&self.succ_list, &mut self.inputs);
                let all_free = succ_list[lo..hi]
                    .iter()
                    .all(|&(s, p)| inputs[s as usize][p as usize].is_none());
                if all_free {
                    for &(s, p) in &succ_list[lo..hi] {
                        inputs[s as usize][p as usize] = Some(v);
                    }
                    self.out[i] = None;
                    self.produced[i] += 1;
                    activity = true;
                }
            }

            // Phase 2: retire in-flight operations whose latency elapsed.
            for i in 0..self.inflight_rem.len() {
                let rem = self.inflight_rem[i];
                if rem == IDLE {
                    continue;
                }
                if rem <= 1 {
                    self.inflight_rem[i] = IDLE;
                    if let Some(v) = self.inflight_val[i].take() {
                        debug_assert!(self.out[i].is_none());
                        self.out[i] = Some(v);
                    }
                    activity = true;
                } else {
                    self.inflight_rem[i] = rem - 1;
                    activity = true;
                }
            }

            // Phase 3: fire ready nodes, in node-index order.
            for i in 0..self.ids.len() {
                match self.try_fire(i, memory) {
                    Ok(true) => {
                        self.node_firings[i] += 1;
                        activity = true;
                    }
                    Ok(false) => {}
                    Err(e) => {
                        self.status = RunStatus::Failed(e);
                        return false;
                    }
                }
            }

            self.cycles += 1;
            if !activity {
                self.status = RunStatus::Drained;
                return false;
            }
            if self.cycles >= self.max_cycles {
                // The cycle budget elapsed with work still in flight.
                self.status = RunStatus::Failed(ApError::ExecutionTimeout {
                    cycles: self.cycles,
                });
                return false;
            }
            true
        }

        fn is_stream(&self, i: usize) -> bool {
            !self.has_src[i][LHS]
        }

        fn set_inflight(&mut self, i: usize, latency: u32, v: Word) {
            self.inflight_rem[i] = latency;
            self.inflight_val[i] = Some(v);
        }

        /// Attempts to fire node `i`. Returns whether it fired.
        fn try_fire(&mut self, i: usize, memory: &mut [MemoryBlock]) -> Result<bool, ApError> {
            if self.inflight_rem[i] != IDLE || self.out[i].is_some() || self.exhausted[i] {
                return Ok(false);
            }
            let op = self.ops[i];
            let imm = self.imms[i];
            match op {
                Operation::Const => {
                    // A constant regenerates whenever downstream consumed
                    // it, up to its stream limit (regs[2]; 0 = one-shot).
                    let limit = self.regs[i][2].as_u64().max(1);
                    if self.produced[i] >= limit {
                        self.exhausted[i] = true;
                        return Ok(false);
                    }
                    self.set_inflight(i, op.latency(), imm);
                    self.firings += 1;
                    Ok(true)
                }
                Operation::Load => {
                    if self.is_stream(i) {
                        let limit = self.regs[i][2].as_u64();
                        if limit != 0 && self.produced[i] >= limit {
                            self.exhausted[i] = true;
                            return Ok(false);
                        }
                        let block = self.regs[i][1].as_u64() as usize;
                        let addr = self.regs[i][0].as_u64();
                        let mem = memory
                            .get_mut(block)
                            .ok_or(ApError::UndefinedSource(self.ids[i]))?;
                        let v = mem.load(addr)?;
                        self.regs[i][0] = Word(offset_addr(addr, 1)?);
                        self.set_inflight(i, op.latency(), v);
                        self.loads += 1;
                        self.firings += 1;
                        Ok(true)
                    } else {
                        // Addressed load: wait for the address token.
                        let Some(addr_tok) = self.inputs[i][LHS] else {
                            return Ok(false);
                        };
                        self.inputs[i][LHS] = None;
                        let block = self.regs[i][1].as_u64() as usize;
                        let base = self.regs[i][0].as_u64();
                        let mem = memory
                            .get_mut(block)
                            .ok_or(ApError::UndefinedSource(self.ids[i]))?;
                        let v = mem.load(offset_addr(base, addr_tok.as_u64())?)?;
                        self.set_inflight(i, op.latency(), v);
                        self.loads += 1;
                        self.firings += 1;
                        Ok(true)
                    }
                }
                Operation::Store => {
                    let Some(data) = self.inputs[i][RHS] else {
                        return Ok(false);
                    };
                    let addr = if self.is_stream(i) {
                        let a = self.regs[i][0].as_u64();
                        self.regs[i][0] = Word(offset_addr(a, 1)?);
                        a
                    } else {
                        let Some(addr_tok) = self.inputs[i][LHS] else {
                            return Ok(false);
                        };
                        self.inputs[i][LHS] = None;
                        addr_tok.as_u64()
                    };
                    self.inputs[i][RHS] = None;
                    let block = self.regs[i][1].as_u64() as usize;
                    let mem = memory
                        .get_mut(block)
                        .ok_or(ApError::UndefinedSource(self.ids[i]))?;
                    mem.store(addr, data)?;
                    // Stores produce no token; model latency as instant
                    // retire.
                    self.produced[i] += 1;
                    self.stores += 1;
                    self.firings += 1;
                    Ok(true)
                }
                Operation::SteerTrue | Operation::SteerFalse => {
                    let (Some(v), Some(p)) = (self.inputs[i][LHS], self.inputs[i][PRED]) else {
                        return Ok(false);
                    };
                    self.inputs[i][LHS] = None;
                    self.inputs[i][PRED] = None;
                    let pass = p.as_bool() == (op == Operation::SteerTrue);
                    self.firings += 1;
                    if pass {
                        self.set_inflight(i, op.latency(), v);
                    } else {
                        // Token consumed silently; the arm stays dark.
                    }
                    Ok(true)
                }
                Operation::Merge => {
                    let port = if self.inputs[i][LHS].is_some() {
                        LHS
                    } else if self.inputs[i][RHS].is_some() {
                        RHS
                    } else {
                        return Ok(false);
                    };
                    let v = self.inputs[i][port].take().unwrap();
                    self.set_inflight(i, op.latency(), v);
                    self.firings += 1;
                    Ok(true)
                }
                _ => {
                    // Plain value operation: all declared ports must hold
                    // tokens.
                    let arity = op.arity();
                    let need_lhs = arity >= 1;
                    let need_rhs = arity >= 2;
                    if (need_lhs && self.inputs[i][LHS].is_none())
                        || (need_rhs && self.inputs[i][RHS].is_none())
                    {
                        return Ok(false);
                    }
                    let lhs = if need_lhs {
                        self.inputs[i][LHS].take().unwrap()
                    } else {
                        Word::ZERO
                    };
                    let rhs = if need_rhs {
                        self.inputs[i][RHS].take().unwrap()
                    } else {
                        Word::ZERO
                    };
                    let result = op
                        .eval(lhs, rhs, imm)
                        .expect("context-free operation must evaluate");
                    self.set_inflight(i, op.latency(), result);
                    self.firings += 1;
                    Ok(true)
                }
            }
        }

        /// Propagates release tokens from the sources through the graph,
        /// recording the release order. Sources (no wired inputs) fire first;
        /// every node releases after receiving a token from each predecessor.
        fn fire_release_tokens(&self, report: &mut ExecutionReport) {
            let n = self.ids.len();
            let mut pending: Vec<usize> = self
                .has_src
                .iter()
                .map(|srcs| srcs.iter().filter(|&&s| s).count())
                .collect();
            let mut queue: Vec<usize> = (0..n).filter(|&i| pending[i] == 0).collect();
            let mut head = 0;
            while head < queue.len() {
                let i = queue[head];
                head += 1;
                report.release_order.push(self.ids[i]);
                report.release_tokens += 1;
                let lo = self.succ_start[i] as usize;
                let hi = self.succ_start[i + 1] as usize;
                for &(s, _) in &self.succ_list[lo..hi] {
                    // One token per edge.
                    report.release_tokens += 1;
                    pending[s as usize] -= 1;
                    if pending[s as usize] == 0 {
                        queue.push(s as usize);
                    }
                }
            }
            // Nodes on cycles never receive all tokens; they are released by
            // force at the end (the paper's datapaths are acyclic).
            for (i, &p) in pending.iter().enumerate() {
                if p > 0 {
                    report.release_order.push(self.ids[i]);
                }
            }
        }

        fn finish(&mut self) -> Result<ExecutionReport, ApError> {
            match std::mem::replace(&mut self.status, RunStatus::Pending) {
                RunStatus::Pending | RunStatus::Running => Err(ApError::ExecutionTimeout {
                    cycles: self.cycles,
                }),
                RunStatus::Failed(e) => Err(e),
                RunStatus::Drained => {
                    let mut report = ExecutionReport {
                        cycles: self.cycles,
                        firings: self.firings,
                        loads: self.loads,
                        stores: self.stores,
                        drained: true,
                        ..ExecutionReport::default()
                    };
                    for i in 0..self.ids.len() {
                        if self.is_tap[i] {
                            report
                                .taps
                                .insert(self.ids[i], std::mem::take(&mut self.tap_vals[i]));
                        }
                        if self.node_firings[i] > 0 {
                            report
                                .node_firings
                                .push((self.ids[i], self.node_firings[i]));
                        }
                    }
                    self.fire_release_tokens(&mut report);
                    Ok(report)
                }
            }
        }
    }

    fn compute_spec(id: u32, op: Operation, imm: u64) -> NodeSpec {
        NodeSpec {
            id: ObjectId(id),
            cfg: LocalConfig::with_imm(op, Word(imm)),
            kind: ObjectKind::Compute,
            regs: [Word::ZERO; PHYS_REGISTERS],
        }
    }

    fn mem_spec(id: u32, op: Operation, base: u64, block: u64, len: u64) -> NodeSpec {
        let mut regs = [Word::ZERO; PHYS_REGISTERS];
        regs[0] = Word(base);
        regs[1] = Word(block);
        regs[2] = Word(len);
        NodeSpec {
            id: ObjectId(id),
            cfg: LocalConfig::op(op),
            kind: ObjectKind::Memory,
            regs,
        }
    }

    /// const(5) -> addimm(+3) -> tap
    #[test]
    fn constant_through_addimm() {
        let stream: GlobalConfigStream = [GlobalConfigElement::unary(ObjectId(1), ObjectId(0))]
            .into_iter()
            .collect();
        let mut dp = Datapath::build(&stream, |id| match id.0 {
            0 => Some(compute_spec(0, Operation::Const, 5)),
            1 => Some(compute_spec(1, Operation::AddImm, 3)),
            _ => None,
        })
        .unwrap();
        let mut mem: Vec<MemoryBlock> = Vec::new();
        let report = dp.run(&mut mem, 1, 10_000).unwrap();
        assert!(report.drained);
        assert_eq!(report.taps[&ObjectId(1)], vec![Word(8)]);
    }

    /// Streaming: load 8 words, double them, store them back.
    #[test]
    fn load_double_store_stream() {
        let stream: GlobalConfigStream = [
            GlobalConfigElement::unary(ObjectId(1), ObjectId(0)), // mul <- load
            GlobalConfigElement {
                sink: ObjectId(2),
                src_lhs: None,
                src_rhs: Some(ObjectId(1)),
                src_pred: None,
            }, // store data <- mul
        ]
        .into_iter()
        .collect();
        let mut dp = Datapath::build(&stream, |id| match id.0 {
            0 => Some(mem_spec(0, Operation::Load, 0, 0, 8)),
            1 => Some(compute_spec(1, Operation::MulImm, 2)),
            2 => Some(mem_spec(2, Operation::Store, 100, 0, 0)),
            _ => None,
        })
        .unwrap();
        let mut mem = vec![MemoryBlock::new()];
        for i in 0..8 {
            mem[0].store(i, Word(i + 1)).unwrap();
        }
        let report = dp.run(&mut mem, 0, 10_000).unwrap();
        assert!(report.drained);
        assert_eq!(report.loads, 8);
        assert_eq!(report.stores, 8);
        for i in 0..8u64 {
            assert_eq!(mem[0].peek(100 + i).unwrap(), Word((i + 1) * 2));
        }
    }

    /// Figure 7 in miniature: if (x > y) z = x+1 else z = y+2.
    #[test]
    fn conditional_steering() {
        // Objects: 0=const x, 1=const y, 2=cmp(x>y), 3=steerT(x), 4=steerF(y),
        //          5=add1, 6=add2, 7=merge -> tap
        let stream: GlobalConfigStream = [
            GlobalConfigElement::binary(ObjectId(2), ObjectId(0), ObjectId(1)),
            GlobalConfigElement::unary(ObjectId(3), ObjectId(0)).with_pred(ObjectId(2)),
            GlobalConfigElement::unary(ObjectId(4), ObjectId(1)).with_pred(ObjectId(2)),
            GlobalConfigElement::unary(ObjectId(5), ObjectId(3)),
            GlobalConfigElement::unary(ObjectId(6), ObjectId(4)),
            GlobalConfigElement::binary(ObjectId(7), ObjectId(5), ObjectId(6)),
        ]
        .into_iter()
        .collect();
        let build = |x: u64, y: u64| {
            Datapath::build(&stream, move |id| match id.0 {
                0 => Some(compute_spec(0, Operation::Const, x)),
                1 => Some(compute_spec(1, Operation::Const, y)),
                2 => Some(compute_spec(2, Operation::ICmpGt, 0)),
                3 => Some(compute_spec(3, Operation::SteerTrue, 0)),
                4 => Some(compute_spec(4, Operation::SteerFalse, 0)),
                5 => Some(compute_spec(5, Operation::AddImm, 1)),
                6 => Some(compute_spec(6, Operation::AddImm, 2)),
                7 => Some(compute_spec(7, Operation::Merge, 0)),
                _ => None,
            })
            .unwrap()
        };
        let mut mem: Vec<MemoryBlock> = Vec::new();
        // x=9 > y=4: z = x+1 = 10.
        let mut dp = build(9, 4);
        let r = dp.run(&mut mem, 1, 10_000).unwrap();
        assert_eq!(r.taps[&ObjectId(7)], vec![Word(10)]);
        // x=2 < y=5: z = y+2 = 7.
        let mut dp = build(2, 5);
        let r = dp.run(&mut mem, 1, 10_000).unwrap();
        assert_eq!(r.taps[&ObjectId(7)], vec![Word(7)]);
    }

    #[test]
    fn fanout_broadcasts_to_all_successors() {
        // const -> (addimm1, addimm2), both taps.
        let stream: GlobalConfigStream = [
            GlobalConfigElement::unary(ObjectId(1), ObjectId(0)),
            GlobalConfigElement::unary(ObjectId(2), ObjectId(0)),
        ]
        .into_iter()
        .collect();
        let mut dp = Datapath::build(&stream, |id| match id.0 {
            0 => Some(compute_spec(0, Operation::Const, 10)),
            1 => Some(compute_spec(1, Operation::AddImm, 1)),
            2 => Some(compute_spec(2, Operation::AddImm, 2)),
            _ => None,
        })
        .unwrap();
        let mut mem: Vec<MemoryBlock> = Vec::new();
        let r = dp.run(&mut mem, 1, 10_000).unwrap();
        assert_eq!(r.taps[&ObjectId(1)], vec![Word(11)]);
        assert_eq!(r.taps[&ObjectId(2)], vec![Word(12)]);
    }

    #[test]
    fn release_tokens_follow_dependencies() {
        let stream: GlobalConfigStream = [
            GlobalConfigElement::unary(ObjectId(1), ObjectId(0)),
            GlobalConfigElement::unary(ObjectId(2), ObjectId(1)),
        ]
        .into_iter()
        .collect();
        let mut dp = Datapath::build(&stream, |id| {
            Some(compute_spec(
                id.0,
                if id.0 == 0 {
                    Operation::Const
                } else {
                    Operation::Pass
                },
                1,
            ))
        })
        .unwrap();
        let mut mem: Vec<MemoryBlock> = Vec::new();
        let r = dp.run(&mut mem, 1, 10_000).unwrap();
        assert_eq!(r.release_order, vec![ObjectId(0), ObjectId(1), ObjectId(2)]);
        // tokens: 3 node firings + 2 edge deliveries
        assert_eq!(r.release_tokens, 5);
    }

    #[test]
    fn empty_stream_rejected() {
        let stream = GlobalConfigStream::new();
        assert!(matches!(
            Datapath::build(&stream, |_| None),
            Err(ApError::EmptyDatapath)
        ));
    }

    #[test]
    fn unresolved_object_rejected() {
        let stream: GlobalConfigStream = [GlobalConfigElement::unary(ObjectId(1), ObjectId(0))]
            .into_iter()
            .collect();
        assert!(matches!(
            Datapath::build(&stream, |_| None),
            Err(ApError::UndefinedSource(_))
        ));
    }

    #[test]
    fn timeout_on_starved_datapath() {
        // A binary op with only one producer never fires, but the const
        // keeps regenerating; cap taps so the run quiesces... here the
        // add never fires so the tap stays empty and const fills the
        // add's lhs latch once; then everything stalls -> drained, not
        // timeout. Verify the drained-with-no-output case.
        let stream: GlobalConfigStream = [GlobalConfigElement::unary(ObjectId(1), ObjectId(0))]
            .into_iter()
            .collect();
        let mut dp = Datapath::build(&stream, |id| match id.0 {
            0 => Some(compute_spec(0, Operation::Const, 1)),
            1 => Some(compute_spec(1, Operation::IAdd, 0)), // rhs never arrives
            _ => None,
        })
        .unwrap();
        let mut mem: Vec<MemoryBlock> = Vec::new();
        let r = dp.run(&mut mem, 1, 1_000).unwrap();
        assert!(r.drained);
        assert!(r.taps[&ObjectId(1)].is_empty());
    }

    #[test]
    fn node_firings_profile_the_datapath() {
        // load(8) -> mul -> store: every stage fires 8 times.
        let stream: GlobalConfigStream = [
            GlobalConfigElement::unary(ObjectId(1), ObjectId(0)),
            GlobalConfigElement {
                sink: ObjectId(2),
                src_lhs: None,
                src_rhs: Some(ObjectId(1)),
                src_pred: None,
            },
        ]
        .into_iter()
        .collect();
        let mut dp = Datapath::build(&stream, |id| match id.0 {
            0 => Some(mem_spec(0, Operation::Load, 0, 0, 8)),
            1 => Some(compute_spec(1, Operation::MulImm, 2)),
            2 => Some(mem_spec(2, Operation::Store, 100, 0, 0)),
            _ => None,
        })
        .unwrap();
        let mut mem = vec![MemoryBlock::new()];
        let report = dp.run(&mut mem, 0, 10_000).unwrap();
        // Node order is the stream's working-set order: the first
        // element names its sink (1) before its source (0).
        let per_node = [1u32, 0, 2].map(|id| (ObjectId(id), 8));
        assert_eq!(report.node_firings, per_node);
        assert_eq!(report.firings, 24);
    }

    #[test]
    fn stream_load_respects_limit_and_pointer() {
        let stream: GlobalConfigStream = [GlobalConfigElement::unary(ObjectId(1), ObjectId(0))]
            .into_iter()
            .collect();
        let mut dp = Datapath::build(&stream, |id| match id.0 {
            0 => Some(mem_spec(0, Operation::Load, 5, 0, 3)),
            1 => Some(compute_spec(1, Operation::Pass, 0)),
            _ => None,
        })
        .unwrap();
        let mut mem = vec![MemoryBlock::new()];
        for i in 0..10 {
            mem[0].store(i, Word(100 + i)).unwrap();
        }
        let r = dp.run(&mut mem, 10, 10_000).unwrap();
        assert_eq!(r.taps[&ObjectId(1)], vec![Word(105), Word(106), Word(107)]);
        // The stream pointer advanced past the consumed words.
        let (_, regs) = dp.regs().find(|(id, _)| *id == ObjectId(0)).unwrap();
        assert_eq!(regs[0], Word(8));
    }

    #[test]
    fn addressed_load_uses_address_tokens() {
        // const(7) -> load(base 0) -> tap : reads mem[7].
        let stream: GlobalConfigStream = [
            GlobalConfigElement::unary(ObjectId(1), ObjectId(0)),
            GlobalConfigElement::unary(ObjectId(2), ObjectId(1)),
        ]
        .into_iter()
        .collect();
        let mut dp = Datapath::build(&stream, |id| match id.0 {
            0 => Some(compute_spec(0, Operation::Const, 7)),
            1 => Some(mem_spec(1, Operation::Load, 0, 0, 0)),
            2 => Some(compute_spec(2, Operation::Pass, 0)),
            _ => None,
        })
        .unwrap();
        let mut mem = vec![MemoryBlock::new()];
        mem[0].store(7, Word(0x77)).unwrap();
        let r = dp.run(&mut mem, 1, 10_000).unwrap();
        assert_eq!(r.taps[&ObjectId(2)], vec![Word(0x77)]);
    }

    /// Cycle budgets the engine comparison draws from: some expire with
    /// work in flight, the last lets every bounded graph drain.
    const BUDGETS: [u64; 5] = [3, 17, 60, 400, 5_000];

    /// A graph under construction for the engine comparison: object `k`
    /// is `specs[k]`; `producers` are the objects that yield tokens.
    #[derive(Default)]
    struct Graph {
        specs: Vec<NodeSpec>,
        elements: Vec<GlobalConfigElement>,
        producers: Vec<ObjectId>,
    }

    impl Graph {
        fn add(&mut self, spec: impl FnOnce(u32) -> NodeSpec) -> ObjectId {
            let id = self.specs.len() as u32;
            self.specs.push(spec(id));
            ObjectId(id)
        }

        fn compute(&mut self, op: Operation, imm: u64) -> ObjectId {
            self.add(|id| compute_spec(id, op, imm))
        }

        /// A constant that regenerates `limit` times (0 = one-shot).
        fn constant(&mut self, imm: u64, limit: u64) -> ObjectId {
            self.add(|id| {
                let mut spec = compute_spec(id, Operation::Const, imm);
                spec.regs[2] = Word(limit);
                spec
            })
        }

        fn memory(&mut self, op: Operation, base: u64, block: u64, len: u64) -> ObjectId {
            self.add(|id| mem_spec(id, op, base, block, len))
        }

        fn wire(&mut self, element: GlobalConfigElement) {
            self.elements.push(element);
        }

        fn pick(&self, k: usize) -> ObjectId {
            self.producers[k % self.producers.len()]
        }

        fn build(&self) -> Datapath {
            let stream: GlobalConfigStream = self.elements.iter().cloned().collect();
            Datapath::build(&stream, |id| self.specs.get(id.0 as usize).cloned()).unwrap()
        }
    }

    /// Two memory images: block 0 holds the load streams' words, block 1
    /// takes the stores.
    fn stream_memory() -> Vec<MemoryBlock> {
        let mut mem = vec![MemoryBlock::new(), MemoryBlock::new()];
        let words: Vec<Word> = (0..64).map(|i| Word(i * 7 + 1)).collect();
        mem[0].store_slice(0, &words).unwrap();
        mem
    }

    /// Drives the mask engine and the reference side by side through
    /// `runs` (tap limit, cycle budget) on one resident datapath: the
    /// same `step` return on every cycle, then the same outcome,
    /// registers and memory image — and again on the next run, which
    /// starts from whatever the last one left in every slab.
    fn assert_engines_agree(graph: &Graph, runs: &[(u64, u64)]) {
        let mut dp = graph.build();
        let mut reference = Reference::of(&dp);
        let (mut mem, mut ref_mem) = (stream_memory(), stream_memory());
        for (run, &(tap_limit, max_cycles)) in runs.iter().enumerate() {
            let at = |cycle: u64| format!("run {run} ({tap_limit}, {max_cycles}) cycle {cycle}");
            dp.start(tap_limit, max_cycles);
            reference.start(tap_limit, max_cycles);
            loop {
                let more = reference.step(&mut ref_mem);
                assert_eq!(dp.step(&mut mem), more, "{}", at(reference.cycles));
                if !more {
                    break;
                }
            }
            assert_eq!(dp.finish(), reference.finish(), "{}", at(reference.cycles));
            assert_eq!(dp.regs, reference.regs, "{}", at(reference.cycles));
            assert_eq!(mem, ref_mem, "{}", at(reference.cycles));
        }
    }

    proptest::proptest! {
        /// The mask engine against the reference on generated graphs:
        /// one-shot and regenerating constants, bounded and unbounded
        /// load streams, every latency class (1/2/3/4/12/16) consuming
        /// shared producers (fan-out under backpressure), steer/merge
        /// diamonds, lone steers (dark arms) and two-sided merges,
        /// stream and addressed memory traffic, a store stream that runs
        /// off its block, tap limits 0/1/k and budgets that expire
        /// mid-flight. Half of the graphs pass 64 nodes.
        #[test]
        fn mask_engine_matches_the_option_latch_reference(
            sources in proptest::prop::collection::vec((0u8..4, 0u64..6), 1..5),
            ops in proptest::prop::collection::vec((0usize..16, 0usize..1000, 0usize..1000, 0u64..8), 1..100),
            runs in proptest::prop::collection::vec((0u64..4, 0usize..BUDGETS.len()), 2..4),
        ) {
            let mut g = Graph::default();
            for &(kind, k) in &sources {
                let id = match kind {
                    0 => g.constant(k + 1, 0),
                    1 => g.constant(k + 1, k),
                    2 => g.memory(Operation::Load, k, 0, k + 1),
                    _ => g.memory(Operation::Load, k, 0, 0),
                };
                g.producers.push(id);
            }
            let unary = [Operation::AddImm, Operation::MulImm, Operation::FNeg];
            let binary = [
                Operation::IAdd, Operation::IMul, Operation::FMul,
                Operation::IDiv, Operation::FDiv, Operation::ICmpGt,
            ];
            for &(kind, a, b, k) in &ops {
                let (a, b) = (g.pick(a), g.pick(b));
                let produced = match kind {
                    0..=2 => {
                        let sink = g.compute(unary[kind], k);
                        g.wire(GlobalConfigElement::unary(sink, a));
                        Some(sink)
                    }
                    3..=8 => {
                        let sink = g.compute(binary[kind - 3], 0);
                        g.wire(GlobalConfigElement::binary(sink, a, b));
                        Some(sink)
                    }
                    9 => {
                        // if (a > b) merged = a else merged = b.
                        let cmp = g.compute(Operation::ICmpGt, 0);
                        let then_arm = g.compute(Operation::SteerTrue, 0);
                        let else_arm = g.compute(Operation::SteerFalse, 0);
                        let merged = g.compute(Operation::Merge, 0);
                        g.wire(GlobalConfigElement::binary(cmp, a, b));
                        g.wire(GlobalConfigElement::unary(then_arm, a).with_pred(cmp));
                        g.wire(GlobalConfigElement::unary(else_arm, b).with_pred(cmp));
                        g.wire(GlobalConfigElement::binary(merged, then_arm, else_arm));
                        Some(merged)
                    }
                    10 => {
                        // A lone steer: its arm goes dark on a false `b`.
                        let steer = g.compute(Operation::SteerTrue, 0);
                        g.wire(GlobalConfigElement::unary(steer, a).with_pred(b));
                        Some(steer)
                    }
                    11 | 12 => {
                        // A stream store; one in eight starts two words
                        // short of the block's end and faults on its third.
                        let base = match (kind, k) {
                            (12, 0) => MEMORY_WORDS as u64 - 2,
                            _ => 16 * k,
                        };
                        let store = g.memory(Operation::Store, base, 1, 0);
                        g.wire(GlobalConfigElement {
                            sink: store,
                            src_lhs: None,
                            src_rhs: Some(a),
                            src_pred: None,
                        });
                        None
                    }
                    13 => {
                        let addr = g.constant(200 + k, k);
                        let store = g.memory(Operation::Store, 0, 1, 0);
                        g.wire(GlobalConfigElement::binary(store, addr, a));
                        None
                    }
                    14 => {
                        // A merge both of whose sides can be full at once.
                        let merge = g.compute(Operation::Merge, 0);
                        g.wire(GlobalConfigElement::binary(merge, a, b));
                        Some(merge)
                    }
                    _ => {
                        let addr = g.constant(k, k);
                        let load = g.memory(Operation::Load, 8, 0, 0);
                        g.wire(GlobalConfigElement::unary(load, addr));
                        Some(load)
                    }
                };
                g.producers.extend(produced);
            }
            let runs: Vec<(u64, u64)> = runs.iter().map(|&(t, b)| (t, BUDGETS[b])).collect();
            assert_engines_agree(&g, &runs);
        }
    }

    /// The masks of a graph over 64 nodes span two words: a load stream
    /// through a 70-stage chain whose head also feeds the tail (so one
    /// broadcast sets latches in both words) into a store, with the
    /// tail tapped — run to drain, stranded mid-flight, and drained again.
    #[test]
    fn engines_agree_across_a_mask_word_boundary() {
        let mut g = Graph::default();
        let head = g.memory(Operation::Load, 0, 0, 12);
        let mut prev = head;
        for k in 0..70 {
            let next = g.compute([Operation::AddImm, Operation::MulImm][k % 2], 3);
            g.wire(GlobalConfigElement::unary(next, prev));
            prev = next;
        }
        let tail = g.compute(Operation::IAdd, 0);
        g.wire(GlobalConfigElement::binary(tail, prev, head));
        let store = g.memory(Operation::Store, 0, 1, 0);
        g.wire(GlobalConfigElement {
            sink: store,
            src_lhs: None,
            src_rhs: Some(prev),
            src_pred: None,
        });
        assert!(g.build().len() > 64);
        assert_engines_agree(&g, &[(2, 5_000), (1, 90), (0, 5_000)]);
    }
}
