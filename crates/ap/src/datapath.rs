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
//!
//! The graph is stored as parallel slabs over the node index (ops,
//! immediates, registers, latches, in-flight slots, counters) plus a CSR
//! successor list, not as a `Vec` of node structs: one cycle of one AP
//! walks a handful of dense arrays front to back, which is what keeps a
//! region of a thousand APs out of the cache-miss regime.

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

/// Sentinel for "nothing in flight" in the latency countdown slab
/// (`Operation::latency` is tiny; real countdowns never reach this).
const IDLE: u32 = u32::MAX;

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
    /// Firings per object — the utilisation profile of the datapath
    /// (the busiest object bounds the stream rate).
    pub node_firings: HashMap<ObjectId, u64>,
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
    /// Which input ports are wired (for stream detection and release
    /// pending counts).
    has_src: Vec<[bool; 3]>,
    /// CSR successor offsets, `nodes + 1` entries.
    succ_start: Vec<u32>,
    /// CSR successor payload: `(node index, port)`.
    succ_list: Vec<(u32, u8)>,
    /// Successor-less compute nodes whose outputs the report collects.
    is_tap: Vec<bool>,
    // Transient dataflow state, parallel over node index.
    inputs: Vec<[Option<Word>; 3]>,
    inflight_rem: Vec<u32>,
    inflight_val: Vec<Option<Word>>,
    out: Vec<Option<Word>>,
    produced: Vec<u64>,
    exhausted: Vec<bool>,
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
        Ok(Datapath {
            ids,
            ops,
            imms,
            regs,
            has_src,
            succ_start,
            succ_list,
            is_tap,
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
    /// datapath runs repeatedly: the transient dataflow state (latches,
    /// in-flight ops, production counters) is cleared, the register state
    /// is kept — stream pointers advance across runs. A zero cycle budget
    /// fails immediately.
    pub fn start(&mut self, tap_limit: u64, max_cycles: u64) {
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
    pub fn step(&mut self, memory: &mut [MemoryBlock]) -> bool {
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
                            .insert(self.ids[i], self.node_firings[i]);
                    }
                }
                self.fire_release_tokens(&mut report);
                Ok(report)
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

#[cfg(test)]
mod tests {
    use super::*;
    use vlsi_object::GlobalConfigElement;

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
        for id in [0u32, 1, 2] {
            assert_eq!(report.node_firings[&ObjectId(id)], 8, "obj{id}");
        }
        assert_eq!(report.node_firings.values().sum::<u64>(), report.firings);
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
}
