//! Executing pre-placed stage programs on a chip — the one program
//! executor.
//!
//! A [`StagedProgram`] is a list of stages, one processor each, that
//! pass live values forward through mailbox memory writes: the §2.6.2
//! choreography (the predecessor writes a successor's memory blocks
//! while the successor is inactive, then activates it). Two front ends
//! produce one:
//!
//! * the compiler (`vlsi-compile`) emits *dataflow* partitions — a DAG
//!   cut into stages that all run, with the region shapes chosen by the
//!   placement pass;
//! * [`StagedProgram::from_blocks`] lowers *control-flow* partitions —
//!   the Figure 7(b) basic blocks — to stages carrying a **guard**: a
//!   branching block publishes its condition as an ordinary value, each
//!   arm runs only for datasets whose condition selects it, and the
//!   other arm's processor stays dark;
//! * [`StagedProgram::from_stream`] lowers a §2.7 streaming kernel to a
//!   one-stage program whose dataset is one window of input words.
//!
//! Per stage the artifact holds the logical objects, the configuration
//! stream, the live-in mailbox bindings, and the live-out probe taps.
//! [`StagedExecutor`] deploys it — either wherever the allocator finds
//! room ([`StagedExecutor::deploy`]) or onto the exact rectangles the
//! compiler placed ([`StagedExecutor::deploy_placed`]) — and pushes
//! input environments through the stages as one wavefront.

use crate::chip::VlsiChip;
use crate::error::CoreError;
use crate::scaled::ProcessorId;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::Arc;
use vlsi_object::{
    GlobalConfigElement, GlobalConfigStream, LocalConfig, LogicalObject, ObjectId, Operation, Word,
};
use vlsi_topology::{Region, TopologyError};
use vlsi_workloads::program::{BasicBlock, BlockDatapath, Terminator};
use vlsi_workloads::StreamKernel;

/// One stage: a partition of the program, lowered to objects + stream,
/// with its mailbox and probe contracts.
#[derive(Clone, Debug, PartialEq)]
pub struct StagedStage {
    /// Stage label (for traces and artifact dumps).
    pub name: String,
    /// Clusters the stage's region must span.
    pub clusters: usize,
    /// Logical objects to install.
    pub objects: Vec<LogicalObject>,
    /// Optimised global configuration stream, shared by reference: every
    /// configure of this stage (sequential runs, pipelined re-deploys)
    /// hands the same `Arc` to the AP instead of deep-copying the
    /// elements.
    pub stream: Arc<GlobalConfigStream>,
    /// Live-in value name → mailbox memory-block index (the CSD channel
    /// the predecessor writes into while this stage is inactive).
    /// Live-ins bound to the same block fill consecutive addresses from
    /// 0, in binding order — a window, as a stream's load reads it.
    pub inputs: Vec<(String, usize)>,
    /// Live-out value name → probe (tap) object. Outputs bound to the
    /// same probe read its consecutive tap values, in binding order.
    pub outputs: Vec<(String, ObjectId)>,
    /// `(value, flag)`: the stage runs for a dataset iff `value` is
    /// *present* in that dataset's environment and its truth (non-zero)
    /// equals `flag`. A skipped stage gets no mailbox write, no
    /// activation and no lane in the tick's sweep. `None` always runs.
    pub guard: Option<(String, bool)>,
}

/// A program: stages executed in index order, every inter-stage value
/// carried by a mailbox write.
#[derive(Clone, Debug, PartialEq)]
pub struct StagedProgram {
    /// Program name (from the source netlist).
    pub name: String,
    /// Stages in execution (topological) order.
    pub stages: Vec<StagedStage>,
    /// Program outputs: `(output name, value name)` — the value is read
    /// from the environment after the last stage retires.
    pub outputs: Vec<(String, String)>,
}

impl StagedProgram {
    /// Total clusters across all stages (the admission request).
    pub fn clusters(&self) -> usize {
        self.stages.iter().map(|s| s.clusters).sum()
    }

    /// Lowers a basic-block partition (Figure 7(b), as
    /// [`Program::partition`](vlsi_workloads::Program::partition) cuts
    /// it: acyclic, entry at index 0) to guarded stages, one 4-cluster
    /// stage per non-empty block in topological order. A branching
    /// block publishes its condition as the value `%cond<block>`; a
    /// block entered only by one branch edge is guarded on that value;
    /// any other block — a join — runs whenever its immediate dominator
    /// (the block that branched) does, so it carries that block's guard.
    /// A skipped brancher leaves its condition absent, which keeps every
    /// arm nested under it dark too. `outputs` names the variables to
    /// read back.
    pub fn from_blocks(name: &str, blocks: &[BasicBlock], outputs: &[&str]) -> StagedProgram {
        fn post_order(blocks: &[BasicBlock], b: usize, seen: &mut [bool], out: &mut Vec<usize>) {
            if std::mem::replace(&mut seen[b], true) {
                return;
            }
            for (next, _) in successors(&blocks[b]).into_iter().rev().flatten() {
                post_order(blocks, next, seen, out);
            }
            out.push(b);
        }
        let mut order = Vec::with_capacity(blocks.len());
        if !blocks.is_empty() {
            post_order(blocks, 0, &mut vec![false; blocks.len()], &mut order);
        }
        // `partition` numbers a join before its arms; reverse post-order
        // puts it after both.
        order.reverse();
        let mut pos = vec![0; blocks.len()];
        for (i, &b) in order.iter().enumerate() {
            pos[b] = i;
        }

        // In topological order every edge into a block is seen before
        // the block itself: fold the edges into the block's immediate
        // dominator and, for a block with exactly one way in, that
        // edge's branch flag.
        let mut idom = vec![0usize; blocks.len()];
        let mut way_in: Vec<Option<Option<bool>>> = vec![None; blocks.len()];
        let mut guards: Vec<Option<(String, bool)>> = vec![None; blocks.len()];
        let mut stages = Vec::new();
        for &b in &order {
            guards[b] = match way_in[b] {
                Some(Some(flag)) => Some((cond_var(idom[b]), flag)),
                Some(None) => guards[idom[b]].clone(),
                None => None,
            };
            for (next, flag) in successors(&blocks[b]).into_iter().flatten() {
                match way_in[next] {
                    None => (idom[next], way_in[next]) = (b, Some(flag)),
                    Some(_) => {
                        let (mut x, mut y) = (idom[next], b);
                        while x != y {
                            if pos[x] > pos[y] {
                                x = idom[x];
                            } else {
                                y = idom[y];
                            }
                        }
                        (idom[next], way_in[next]) = (x, Some(None));
                    }
                }
            }
            if !blocks[b].assigns.is_empty() || blocks[b].cond.is_some() {
                stages.push(lower_block(b, &blocks[b], guards[b].clone()));
            }
        }
        StagedProgram {
            name: name.to_string(),
            stages,
            outputs: outputs
                .iter()
                .map(|v| (v.to_string(), v.to_string()))
                .collect(),
        }
    }

    /// Lowers a streaming kernel to a one-stage program on `clusters`
    /// clusters whose one dataset is one window of `kernel.input_len`
    /// words. The stage keeps the kernel's `Load`/`Store` stream objects
    /// (§2.7), so the results still land in memory block 1, and adds one
    /// `Pass` probe on the store's source. Input word *i* is the live-in
    /// `x{i}` on mailbox block 0, the load stream's; output *i* is `y{i}`,
    /// the probe's *i*-th tap value.
    pub fn from_stream(kernel: &StreamKernel, clusters: usize) -> StagedProgram {
        let probe = ObjectId(kernel.objects.iter().map(|o| o.id.0).max().unwrap_or(0) + 1);
        let pass = LogicalObject::compute(probe, LocalConfig::op(Operation::Pass));
        let mut elements = kernel.stream.elements().to_vec();
        let stored = elements.iter().find(|e| e.sink == StreamKernel::STORE_ID);
        let tapped = stored.and_then(|e| e.src_rhs);
        elements.extend(tapped.map(|src| GlobalConfigElement::unary(probe, src)));
        let names = |prefix: &'static str, n: u64| (0..n).map(move |i| format!("{prefix}{i}"));
        StagedProgram {
            name: kernel.name.to_string(),
            outputs: names("y", kernel.output_len)
                .map(|y| (y.clone(), y))
                .collect(),
            stages: vec![StagedStage {
                name: kernel.name.to_string(),
                clusters,
                objects: kernel.objects.iter().cloned().chain([pass]).collect(),
                stream: Arc::new(elements.into_iter().collect()),
                inputs: names("x", kernel.input_len).map(|x| (x, 0)).collect(),
                outputs: names("y", kernel.output_len).map(|y| (y, probe)).collect(),
                guard: None,
            }],
        }
    }

    /// Groups stages into dependency **levels**. Stage `j` sits one
    /// level past the latest earlier producer of each value it reads
    /// (its inputs and its guard value), and no earlier than any
    /// earlier stage that reads or writes a name `j` writes. The second
    /// rule keeps the writers of one name in order, so "the latest
    /// producer" is also the deepest: the arms of a branch are
    /// alternative producers, and a join that reads what they wrote
    /// lands past every one of them, not just the last in index order.
    /// Stages in one level therefore execute as a single SoA region
    /// sweep without changing any value the sequential stage walk
    /// would produce. The level count is the pipeline depth the
    /// Fig. 7(d) overlap fills.
    pub fn levels(&self) -> Vec<Vec<usize>> {
        /// What the stages so far did to one value name.
        #[derive(Clone, Copy, Default)]
        struct Seen {
            /// Level a later reader must reach: one past the last writer.
            after: usize,
            /// Level a later writer must reach: the deepest reader or
            /// writer so far.
            floor: usize,
        }
        // A name is hashed once per mention, to its slot in `seen`; a
        // name not met before starts at level 0 on both counts.
        let mentions = |s: &StagedStage| s.inputs.len() + s.outputs.len() + 1;
        let mut slots: HashMap<&str, usize> =
            HashMap::with_capacity(self.stages.iter().map(mentions).sum());
        let mut seen: Vec<Seen> = Vec::new();
        // The current stage's reads, then its writes, as slots.
        let mut mentioned: Vec<usize> = Vec::new();
        let mut level = Vec::with_capacity(self.stages.len());
        for stage in &self.stages {
            let guard = stage.guard.iter().map(|(v, _)| v.as_str());
            let reads = stage.inputs.iter().map(|(v, _)| v.as_str()).chain(guard);
            let writes = stage.outputs.iter().map(|(v, _)| v.as_str());
            mentioned.clear();
            mentioned.extend(reads.chain(writes).map(|v| {
                *slots.entry(v).or_insert_with(|| {
                    seen.push(Seen::default());
                    seen.len() - 1
                })
            }));
            let (reads, writes) = mentioned.split_at(mentioned.len() - stage.outputs.len());
            let lv = reads
                .iter()
                .map(|&s| seen[s].after)
                .chain(writes.iter().map(|&s| seen[s].floor))
                .max()
                .unwrap_or(0);
            for &s in reads {
                seen[s].floor = seen[s].floor.max(lv);
            }
            for &s in writes {
                seen[s] = Seen {
                    after: lv + 1,
                    floor: lv,
                };
            }
            level.push(lv);
        }
        let depth = level.iter().max().map_or(0, |m| m + 1);
        let mut groups = vec![Vec::new(); depth];
        for (j, &lv) in level.iter().enumerate() {
            groups[lv].push(j);
        }
        groups
    }
}

/// The name a branching block's condition travels under.
fn cond_var(block: usize) -> String {
    format!("%cond{block}")
}

/// A block's control-flow successors with the branch flag of each edge
/// (`None` for a jump), then-arm first.
fn successors(block: &BasicBlock) -> [Option<(usize, Option<bool>)>; 2] {
    match block.terminator {
        Terminator::End => [None, None],
        Terminator::Jump(n) => [Some((n, None)), None],
        Terminator::Branch {
            then_block,
            else_block,
        } => [
            Some((then_block, Some(true))),
            Some((else_block, Some(false))),
        ],
    }
}

/// Lowers one basic block to its stage:
///
/// * every live-in `Const` of the compiled datapath becomes an
///   *addressed memory load* from its own mailbox memory block
///   (address 0), driven by a zero-address constant;
/// * every live-out — and the branch condition, published as
///   [`cond_var`] — gains a `Pass` probe so its value is always
///   observable as a tap.
fn lower_block(index: usize, block: &BasicBlock, guard: Option<(String, bool)>) -> StagedStage {
    let dp = BlockDatapath::compile(block);
    let mut objects = dp.objects;
    let mut elements: Vec<GlobalConfigElement> = dp.stream.elements().to_vec();
    let mut next_id = objects.iter().map(|o| o.id.0).max().unwrap_or(0) + 1;
    let mut fresh = |objects: &mut Vec<LogicalObject>, cfg: LocalConfig| {
        let id = ObjectId(next_id);
        next_id += 1;
        objects.push(LogicalObject::compute(id, cfg));
        id
    };

    let mut inputs = Vec::with_capacity(dp.inputs.len());
    for (i, (var, const_id)) in dp.inputs.into_iter().enumerate() {
        let addr_obj = fresh(
            &mut objects,
            LocalConfig::with_imm(Operation::Const, Word(0)),
        );
        // Invariant: `BlockDatapath::compile` emits an object for every
        // live-in it lists.
        #[allow(clippy::expect_used)]
        let obj = objects
            .iter_mut()
            .find(|o| o.id == const_id)
            .expect("compile lists every live-in's object");
        *obj = LogicalObject::memory(const_id, LocalConfig::op(Operation::Load)).with_init(vec![
            Word(0),
            Word(i as u64),
            Word(0),
        ]);
        // Rewrite its stream element from nullary to addressed.
        for e in elements.iter_mut() {
            if e.sink == const_id && e.src_lhs.is_none() {
                e.src_lhs = Some(addr_obj);
            }
        }
        inputs.push((var, i));
    }

    let cond = dp.cond.map(|c| (cond_var(index), c));
    let mut outputs = Vec::with_capacity(dp.outputs.len() + 1);
    for (var, obj) in dp.outputs.into_iter().chain(cond) {
        let probe = fresh(&mut objects, LocalConfig::op(Operation::Pass));
        elements.push(GlobalConfigElement::unary(probe, obj));
        outputs.push((var, probe));
    }

    StagedStage {
        name: format!("b{index}"),
        clusters: 4,
        objects,
        stream: Arc::new(elements.into_iter().collect()),
        inputs,
        outputs,
        guard,
    }
}

/// Statistics of one staged run: a batch of datasets through
/// [`StagedExecutor::run_pipelined`], or the single dataset of
/// [`StagedExecutor::run`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineRunStats {
    /// Datasets pushed through the pipeline.
    pub datasets: u64,
    /// Wavefront ticks the drain took (`depth + datasets − 1`).
    pub ticks: u64,
    /// Stage executions — activations — across all ticks
    /// (`datasets × stages`, less the slots a guard kept dark).
    pub stages_executed: u64,
    /// Mailbox words written between stages.
    pub mailbox_writes: u64,
    /// Total datapath execution cycles across all stage slots.
    pub exec_cycles: u64,
    /// Total configuration cycles. Each stage configures **once** (its
    /// datapath stays resident across datasets), so this is the
    /// per-stage cost, not `datasets ×` it — the pipelining win.
    pub config_cycles: u64,
    /// Busy stage-slots over available stage-slots, ×1000: how full the
    /// wavefront kept the placed regions (Fig. 7(d) steady state →
    /// 1000 as `datasets → ∞`).
    pub utilization_milli: u64,
}

/// A deployed staged program: one processor per stage.
///
/// `P` is how the executor holds the program: owned by default, or any
/// other [`Borrow<StagedProgram>`] — a scheduler that retries one queued
/// program many times deploys it by `&StagedProgram` (or `Arc`) and
/// copies nothing per attempt.
#[derive(Debug)]
pub struct StagedExecutor<P = StagedProgram> {
    program: P,
    procs: Vec<ProcessorId>,
    /// The program's dependency levels (see [`StagedProgram::levels`]),
    /// worked out once at deploy: every run walks the same wavefront.
    levels: Vec<Vec<usize>>,
    /// Per stage, the mailbox address of each live-in and the tap value
    /// each output reads (the window rule of [`StagedStage::inputs`] and
    /// [`StagedStage::outputs`]), also worked out once at deploy.
    windows: Vec<(Vec<u64>, Vec<u64>)>,
    /// Tap values a sweep collects per probe: the most outputs any one
    /// probe must yield (at least 1).
    tap_limit: u64,
}

/// How [`StagedExecutor::deploy`] and [`StagedExecutor::deploy_placed`]
/// acquire a stage's processor: a gather of its region.
fn gather(chip: &mut VlsiChip, region: Region) -> Result<ProcessorId, CoreError> {
    chip.gather(region).map(|g| g.id)
}

/// Each binding's position among the earlier bindings of its stage to
/// the same block or probe.
fn window_offsets<K: PartialEq>(bindings: &[(String, K)]) -> Vec<u64> {
    let earlier = |i: usize, k: &K| bindings[..i].iter().filter(|(_, e)| e == k).count();
    let offsets = bindings.iter().enumerate().map(|(i, (_, k))| earlier(i, k));
    offsets.map(|n| n as u64).collect()
}

impl<P: Borrow<StagedProgram>> StagedExecutor<P> {
    /// Deploys `program` wherever the allocator finds free clusters:
    /// plans the regions one `gather_any` per stage would take
    /// ([`VlsiChip::plan_gathers`], read-only) and commits them only when
    /// every stage fits. A program that does not fit is refused with the
    /// error `gather_any` gives, before any worm is injected — the chip
    /// is untouched.
    pub fn deploy(chip: &mut VlsiChip, program: P) -> Result<StagedExecutor<P>, CoreError> {
        let sizes: Vec<usize> = program.borrow().stages.iter().map(|s| s.clusters).collect();
        let regions = chip
            .plan_gathers(&sizes)
            .ok_or(CoreError::Topology(TopologyError::NoLinearPath))?;
        Self::commit(chip, program, regions.into_iter(), gather)
    }

    /// Deploys `program` onto the exact `regions` the placement pass
    /// chose (one region per stage, same order — any other count is
    /// refused before anything is gathered). On failure, every
    /// processor gathered so far is released.
    pub fn deploy_placed(
        chip: &mut VlsiChip,
        program: P,
        regions: &[Region],
    ) -> Result<StagedExecutor<P>, CoreError> {
        Self::commit(chip, program, regions.iter().cloned(), gather)
    }

    /// Deploys `program` on processors the caller already holds — one
    /// per stage, in stage order, each inactive with an empty library,
    /// such as a warm region a pool hands back instead of a gather. Any
    /// other count is refused before anything is installed. If an
    /// install fails, every processor taken so far is released.
    pub fn deploy_on(
        chip: &mut VlsiChip,
        program: P,
        procs: &[ProcessorId],
    ) -> Result<StagedExecutor<P>, CoreError> {
        Self::commit(chip, program, procs.iter().copied(), |_, id| Ok(id))
    }

    /// Takes one processor per stage from `acquire`, fed that stage's
    /// entry of `sources` (one per stage — any other count is refused
    /// before anything is acquired), installs the stage's objects on it,
    /// and resolves the levels and windows every run walks. If a step
    /// fails, every processor acquired so far is released.
    fn commit<T>(
        chip: &mut VlsiChip,
        program: P,
        sources: impl ExactSizeIterator<Item = T>,
        mut acquire: impl FnMut(&mut VlsiChip, T) -> Result<ProcessorId, CoreError>,
    ) -> Result<StagedExecutor<P>, CoreError> {
        let stages = &program.borrow().stages;
        if sources.len() != stages.len() {
            return Err(CoreError::PlacementMismatch {
                stages: stages.len(),
                regions: sources.len(),
            });
        }
        let mut procs = Vec::with_capacity(stages.len());
        for (stage, source) in stages.iter().zip(sources) {
            // Recorded before `install`, so a refused install releases
            // its own region with the rest.
            let step = acquire(chip, source).and_then(|id| {
                procs.push(id);
                chip.install(id, stage.objects.clone())
            });
            if let Err(e) = step {
                for id in procs {
                    let _ = chip.release_processor(id);
                }
                return Err(e);
            }
        }
        let levels = program.borrow().levels();
        let windows: Vec<_> = (stages.iter())
            .map(|s| (window_offsets(&s.inputs), window_offsets(&s.outputs)))
            .collect();
        let taps = windows.iter().flat_map(|(_, taps)| taps);
        let tap_limit = taps.max().map_or(1, |i| i + 1);
        Ok(StagedExecutor {
            program,
            procs,
            levels,
            windows,
            tap_limit,
        })
    }

    /// Runs the program for one input environment: a one-dataset
    /// [`run_pipelined`](Self::run_pipelined). With nothing to overlap,
    /// the wavefront is the level-by-level walk — each tick stages one
    /// level's mailboxes, activates and configures its processors,
    /// sweeps them as one [`VlsiChip::execute_batch`], and reads the
    /// taps back. Returns the program outputs (in
    /// [`StagedProgram::outputs`] order; absent values read as 0,
    /// matching the mailbox default) and run statistics.
    pub fn run(
        &self,
        chip: &mut VlsiChip,
        inputs: &HashMap<String, i64>,
    ) -> Result<(Vec<i64>, PipelineRunStats), CoreError> {
        let (mut outputs, stats) = self.run_pipelined(chip, std::slice::from_ref(inputs))?;
        Ok((outputs.pop().unwrap_or_default(), stats))
    }

    /// Runs the program for a *batch* of input environments with the
    /// stages overlapped across datasets — the paper's Fig. 7(d)
    /// operating mode, where successive datasets stream through the
    /// placed regions concurrently and steady-state throughput is set
    /// by the slowest stage rather than the sum of all stages.
    ///
    /// The schedule is a wavefront over the dependency levels: at tick
    /// `t`, the stages of level `l` process dataset `t − l`, so a new
    /// dataset enters level 0 every tick while deeper levels work on
    /// earlier datasets, and the batch drains in `depth + N − 1` ticks.
    /// Each tick has three supervisor phases in deterministic
    /// (level, stage) order — guard check + mailbox staging +
    /// activation, one [`VlsiChip::execute_batch`] region sweep over
    /// every in-flight stage (all distinct processors, so the whole
    /// wavefront advances as one SoA sweep), then tap readback +
    /// deactivation. A stage whose
    /// [guard](StagedStage::guard) fails for its dataset sits the tick
    /// out untouched — only the taken arm of a branch is activated.
    /// Deactivating a stage at the end of its tick is
    /// what makes the *next* tick's mailbox write legal (§2.6.2 lets
    /// others write a region's memory only while it is inactive): the
    /// supervisor's per-dataset environments are the second half of the
    /// double-buffer, holding each value between the producer's
    /// readback and the consumer's staging.
    ///
    /// Each stage is configured **once**, on the tick its first dataset
    /// arrives, and its datapath then stays resident: staged streams
    /// read their mailboxes through *addressed* loads (no stream
    /// pointers advance) and `Datapath::start` clears all per-run
    /// transient state, so re-executing the resident datapath on a
    /// freshly staged mailbox produces exactly the reports a
    /// reconfigure would. Skipping the per-dataset release + management
    /// pipeline replay is where the throughput gain over N sequential
    /// [`run`](Self::run) calls comes from; outputs and taps are
    /// bit-identical, only `config_cycles` shrinks.
    ///
    /// Per processor, the operation sequence for dataset `d` is the
    /// same as the sequential walk's, and level `l` of dataset `d`
    /// always retires before level `l + 1` of dataset `d` begins, so
    /// the returned outputs are **bit-identical** to N sequential
    /// `run` calls — and, since region sweeps are bit-deterministic at
    /// any pool width, invariant across thread counts.
    ///
    /// Returns one output vector per dataset (in dataset order) plus
    /// batch statistics, and records pipeline occupancy telemetry
    /// (`staged.*`) on the chip's handle. On an error every stage
    /// processor is left inactive, so [`release`](Self::release) — or
    /// another run — stays legal.
    pub fn run_pipelined(
        &self,
        chip: &mut VlsiChip,
        datasets: &[HashMap<String, i64>],
    ) -> Result<(Vec<Vec<i64>>, PipelineRunStats), CoreError> {
        let mut active = Vec::new();
        let result = self.wavefront(chip, datasets, &mut active);
        if result.is_err() {
            // Whatever the failing tick activated and had not yet read
            // back is still active; the rest refuse the transition.
            for &(j, _) in &active {
                let _ = chip.deactivate(self.procs[j]);
            }
        }
        result
    }

    /// The body of [`run_pipelined`](Self::run_pipelined). `active` is
    /// the current tick's in-flight (stage, dataset) slots, rebuilt each
    /// tick in ascending (level, stage) order — the deterministic drain
    /// order — and left as the failing tick's on an error.
    ///
    /// Value names are resolved to dense slots once, up front; a
    /// dataset's environment is then a row of `Option<i64>` (presence is
    /// what a guard tests), filled from the caller's map by lookup, and
    /// the tick loop indexes rows — no name is hashed or cloned per tick.
    fn wavefront(
        &self,
        chip: &mut VlsiChip,
        datasets: &[HashMap<String, i64>],
        active: &mut Vec<(usize, usize)>,
    ) -> Result<(Vec<Vec<i64>>, PipelineRunStats), CoreError> {
        /// One stage's contracts with its names resolved to slots.
        struct StageSlots {
            guard: Option<(usize, bool)>,
            /// `(slot, mailbox memory block, address)`.
            inputs: Vec<(usize, usize, u64)>,
            /// `(slot, probe object, tap value index)`.
            outputs: Vec<(usize, ObjectId, u64)>,
        }
        /// The slot of `name`, handed out in order of first mention.
        fn slot_of<'a>(
            name: &'a str,
            names: &mut Vec<&'a str>,
            index: &mut HashMap<&'a str, usize>,
        ) -> usize {
            *index.entry(name).or_insert_with(|| {
                names.push(name);
                names.len() - 1
            })
        }
        let program = self.program();
        let stages = &program.stages;
        let (mut names, mut index) = (Vec::new(), HashMap::new());
        let mut slot = |name| slot_of(name, &mut names, &mut index);
        let plan: Vec<StageSlots> = stages
            .iter()
            .zip(&self.windows)
            .map(|(stage, (addrs, taps))| StageSlots {
                guard: stage.guard.as_ref().map(|(v, flag)| (slot(v), *flag)),
                inputs: (stage.inputs.iter().zip(addrs))
                    .map(|((v, b), &a)| (slot(v), *b, a))
                    .collect(),
                outputs: (stage.outputs.iter().zip(taps))
                    .map(|((v, t), &i)| (slot(v), *t, i))
                    .collect(),
            })
            .collect();
        let out_slots: Vec<usize> = program.outputs.iter().map(|(_, v)| slot(v)).collect();
        // Row `d` of `envs` is dataset `d`'s environment; keys of the
        // caller's map that the program never names are never looked at.
        let width = names.len();
        let mut envs: Vec<Option<i64>> = datasets
            .iter()
            .flat_map(|ds| names.iter().map(|&name| ds.get(name).copied()))
            .collect();
        // Program outputs in [`StagedProgram::outputs`] order (absent
        // values read as 0, matching the mailbox default).
        let outputs = |envs: &[Option<i64>]| -> Vec<Vec<i64>> {
            (0..datasets.len())
                .map(|d| {
                    let row = &envs[d * width..][..width];
                    out_slots.iter().map(|&s| row[s].unwrap_or(0)).collect()
                })
                .collect()
        };

        let levels = &self.levels;
        let depth = levels.len();
        let n = datasets.len();
        let mut stats = PipelineRunStats {
            datasets: n as u64,
            ..PipelineRunStats::default()
        };
        if depth == 0 || n == 0 {
            return Ok((outputs(&envs), stats));
        }
        let ticks = depth + n - 1;
        stats.ticks = ticks as u64;
        let mut configured = vec![false; stages.len()];
        let mut busy_ticks = vec![0u64; stages.len()];
        let mut ids: Vec<ProcessorId> = Vec::new();
        for t in 0..ticks {
            active.clear();
            for (l, level) in levels.iter().enumerate() {
                if t < l || t - l >= n {
                    continue;
                }
                let d = t - l;
                let row = &envs[d * width..][..width];
                for &j in level {
                    if let Some((s, flag)) = plan[j].guard {
                        if row[s].map(|c| c != 0) != Some(flag) {
                            continue;
                        }
                    }
                    let proc = self.procs[j];
                    for &(s, mem_block, addr) in &plan[j].inputs {
                        let v = row[s].unwrap_or(0);
                        chip.write_mailbox(proc, mem_block, addr, &[Word::from_i64(v)])?;
                        stats.mailbox_writes += 1;
                    }
                    chip.activate(proc)?;
                    active.push((j, d));
                    if !configured[j] {
                        let cfg = chip.configure(proc, Arc::clone(&stages[j].stream))?;
                        stats.config_cycles += cfg.cycles;
                        configured[j] = true;
                    }
                }
            }
            ids.clear();
            ids.extend(active.iter().map(|&(j, _)| self.procs[j]));
            let reports = chip.execute_batch(&ids, self.tap_limit, 1_000_000)?;
            for (&(j, d), report) in active.iter().zip(&reports) {
                stats.exec_cycles += report.cycles;
                stats.stages_executed += 1;
                busy_ticks[j] += 1;
                for &(s, tap, i) in &plan[j].outputs {
                    let word = report
                        .taps
                        .get(&tap)
                        .and_then(|v| v.get(i as usize))
                        .ok_or_else(|| CoreError::MissingOutput {
                            stage: stages[j].name.clone(),
                            value: names[s].to_string(),
                        })?;
                    envs[d * width + s] = Some(word.as_i64());
                }
                chip.deactivate(self.procs[j])?;
            }
        }
        let slots = stats.ticks * stages.len() as u64;
        let busy: u64 = busy_ticks.iter().sum();
        stats.utilization_milli = (busy * 1000).checked_div(slots).unwrap_or(0);
        let tel = chip.telemetry();
        tel.count("staged.pipeline_runs", 1);
        tel.count("staged.pipeline_ticks", stats.ticks);
        tel.count("staged.utilization_milli", stats.utilization_milli);
        for (j, &b) in busy_ticks.iter().enumerate() {
            tel.gauge_set_at(
                "staged.occupancy_milli",
                j as u64,
                (b * 1000 / stats.ticks) as i64,
            );
        }
        Ok((outputs(&envs), stats))
    }

    /// The deployed program.
    pub fn program(&self) -> &StagedProgram {
        self.program.borrow()
    }

    /// The processors holding the stages, in stage order.
    pub fn processors(&self) -> &[ProcessorId] {
        &self.procs
    }

    /// Releases every stage processor (all must be inactive — a run
    /// leaves them that way, failed or not). Every processor is
    /// attempted; the first error, if any, is reported after the rest
    /// are released.
    pub fn release(self, chip: &mut VlsiChip) -> Result<(), CoreError> {
        let mut first = Ok(());
        for id in self.procs {
            first = first.and(chip.release_processor(id));
        }
        first
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsi_object::{GlobalConfigElement, LocalConfig, Operation};
    use vlsi_topology::{Cluster, Coord};
    use vlsi_workloads::figure7;
    use vlsi_workloads::program::{BinOp, Expr, Program, Stmt};

    /// Hand-build a two-stage program computing `(a + b) * c`:
    /// stage 0 computes `t = a + b`, stage 1 computes `out = t * c`.
    fn two_stage_program() -> StagedProgram {
        // Stage 0: mailbox loads a (block 0), b (block 1); t = a + b.
        let s0 = {
            let a = ObjectId(0);
            let b = ObjectId(1);
            let addr_a = ObjectId(2);
            let addr_b = ObjectId(3);
            let sum = ObjectId(4);
            let probe = ObjectId(5);
            let objects = vec![
                LogicalObject::memory(a, LocalConfig::op(Operation::Load)).with_init(vec![
                    Word(0),
                    Word(0),
                    Word(0),
                ]),
                LogicalObject::memory(b, LocalConfig::op(Operation::Load)).with_init(vec![
                    Word(0),
                    Word(1),
                    Word(0),
                ]),
                LogicalObject::compute(addr_a, LocalConfig::with_imm(Operation::Const, Word(0))),
                LogicalObject::compute(addr_b, LocalConfig::with_imm(Operation::Const, Word(0))),
                LogicalObject::compute(sum, LocalConfig::op(Operation::IAdd)),
                LogicalObject::compute(probe, LocalConfig::op(Operation::Pass)),
            ];
            let stream: Arc<GlobalConfigStream> = Arc::new(
                [
                    GlobalConfigElement::unary(a, addr_a),
                    GlobalConfigElement::unary(b, addr_b),
                    GlobalConfigElement::binary(sum, a, b),
                    GlobalConfigElement::unary(probe, sum),
                ]
                .into_iter()
                .collect(),
            );
            StagedStage {
                name: "s0".into(),
                clusters: 4,
                objects,
                stream,
                inputs: vec![("a".into(), 0), ("b".into(), 1)],
                outputs: vec![("t".into(), probe)],
                guard: None,
            }
        };
        // Stage 1: mailbox loads t (block 0), c (block 1); out = t * c.
        let s1 = {
            let t = ObjectId(0);
            let c = ObjectId(1);
            let addr_t = ObjectId(2);
            let addr_c = ObjectId(3);
            let mul = ObjectId(4);
            let probe = ObjectId(5);
            let objects = vec![
                LogicalObject::memory(t, LocalConfig::op(Operation::Load)).with_init(vec![
                    Word(0),
                    Word(0),
                    Word(0),
                ]),
                LogicalObject::memory(c, LocalConfig::op(Operation::Load)).with_init(vec![
                    Word(0),
                    Word(1),
                    Word(0),
                ]),
                LogicalObject::compute(addr_t, LocalConfig::with_imm(Operation::Const, Word(0))),
                LogicalObject::compute(addr_c, LocalConfig::with_imm(Operation::Const, Word(0))),
                LogicalObject::compute(mul, LocalConfig::op(Operation::IMul)),
                LogicalObject::compute(probe, LocalConfig::op(Operation::Pass)),
            ];
            let stream: Arc<GlobalConfigStream> = Arc::new(
                [
                    GlobalConfigElement::unary(t, addr_t),
                    GlobalConfigElement::unary(c, addr_c),
                    GlobalConfigElement::binary(mul, t, c),
                    GlobalConfigElement::unary(probe, mul),
                ]
                .into_iter()
                .collect(),
            );
            StagedStage {
                name: "s1".into(),
                clusters: 4,
                objects,
                stream,
                inputs: vec![("t".into(), 0), ("c".into(), 1)],
                outputs: vec![("out".into(), probe)],
                guard: None,
            }
        };
        StagedProgram {
            name: "madd".into(),
            stages: vec![s0, s1],
            outputs: vec![("result".into(), "out".into())],
        }
    }

    #[test]
    fn staged_chain_passes_values_by_mailbox() {
        let mut chip = VlsiChip::new(8, 8, Cluster::default());
        let exec = StagedExecutor::deploy(&mut chip, two_stage_program()).unwrap();
        assert_eq!(exec.processors().len(), 2);
        for (a, b, c) in [(2i64, 3i64, 4i64), (-5, 5, 7), (0, 0, 9)] {
            let inputs = HashMap::from([
                ("a".to_string(), a),
                ("b".to_string(), b),
                ("c".to_string(), c),
            ]);
            let (out, stats) = exec.run(&mut chip, &inputs).unwrap();
            assert_eq!(out, vec![(a.wrapping_add(b)).wrapping_mul(c)]);
            assert_eq!(stats.stages_executed, 2);
            assert_eq!(stats.mailbox_writes, 4);
        }
        exec.release(&mut chip).unwrap();
    }

    #[test]
    fn deploy_placed_binds_exact_regions() {
        let mut chip = VlsiChip::new(8, 8, Cluster::default());
        let regions = vec![
            Region::rect(Coord::new(0, 0), 2, 2),
            Region::rect(Coord::new(4, 0), 2, 2),
        ];
        let exec = StagedExecutor::deploy_placed(&mut chip, two_stage_program(), &regions).unwrap();
        let inputs = HashMap::from([
            ("a".to_string(), 10i64),
            ("b".to_string(), 20i64),
            ("c".to_string(), 3i64),
        ]);
        let (out, _) = exec.run(&mut chip, &inputs).unwrap();
        assert_eq!(out, vec![90]);
        exec.release(&mut chip).unwrap();
        assert_eq!(chip.free_clusters(), 64);
    }

    #[test]
    fn deploy_placed_refuses_a_region_count_that_is_not_the_stage_count() {
        let mut chip = VlsiChip::new(8, 8, Cluster::default());
        let regions = [
            Region::rect(Coord::new(0, 0), 2, 2),
            Region::rect(Coord::new(4, 0), 2, 2),
            Region::rect(Coord::new(0, 4), 2, 2),
        ];
        for given in [&regions[..1], &regions[..3], &regions[..0]] {
            let err = StagedExecutor::deploy_placed(&mut chip, two_stage_program(), given)
                .expect_err("two stages need exactly two regions");
            assert_eq!(
                err,
                CoreError::PlacementMismatch {
                    stages: 2,
                    regions: given.len()
                }
            );
            assert_eq!(chip.free_clusters(), 64, "nothing gathered");
        }
    }

    /// Three stages: s0 and s1 are independent (level 0), s2 consumes
    /// both (level 1) — `t0 + t1` where `t0 = a + b`, `t1 = a * b`.
    fn diamond_program() -> StagedProgram {
        let arith_stage = |name: &str, op: Operation, out_var: &str| {
            let x = ObjectId(0);
            let y = ObjectId(1);
            let addr_x = ObjectId(2);
            let addr_y = ObjectId(3);
            let f = ObjectId(4);
            let probe = ObjectId(5);
            let objects = vec![
                LogicalObject::memory(x, LocalConfig::op(Operation::Load)).with_init(vec![
                    Word(0),
                    Word(0),
                    Word(0),
                ]),
                LogicalObject::memory(y, LocalConfig::op(Operation::Load)).with_init(vec![
                    Word(0),
                    Word(1),
                    Word(0),
                ]),
                LogicalObject::compute(addr_x, LocalConfig::with_imm(Operation::Const, Word(0))),
                LogicalObject::compute(addr_y, LocalConfig::with_imm(Operation::Const, Word(0))),
                LogicalObject::compute(f, LocalConfig::op(op)),
                LogicalObject::compute(probe, LocalConfig::op(Operation::Pass)),
            ];
            let stream: Arc<GlobalConfigStream> = Arc::new(
                [
                    GlobalConfigElement::unary(x, addr_x),
                    GlobalConfigElement::unary(y, addr_y),
                    GlobalConfigElement::binary(f, x, y),
                    GlobalConfigElement::unary(probe, f),
                ]
                .into_iter()
                .collect(),
            );
            StagedStage {
                name: name.into(),
                clusters: 4,
                objects,
                stream,
                inputs: vec![("a".into(), 0), ("b".into(), 1)],
                outputs: vec![(out_var.into(), probe)],
                guard: None,
            }
        };
        let mut join = arith_stage("join", Operation::IAdd, "out");
        join.inputs = vec![("t0".into(), 0), ("t1".into(), 1)];
        StagedProgram {
            name: "diamond".into(),
            stages: vec![
                arith_stage("s0", Operation::IAdd, "t0"),
                arith_stage("s1", Operation::IMul, "t1"),
                join,
            ],
            outputs: vec![("result".into(), "out".into())],
        }
    }

    #[test]
    fn independent_stages_share_a_level_and_batch() {
        let mut chip = VlsiChip::new(8, 8, Cluster::default());
        let exec = StagedExecutor::deploy(&mut chip, diamond_program()).unwrap();
        assert_eq!(
            exec.levels,
            vec![vec![0, 1], vec![2]],
            "s0/s1 independent, join depends on both"
        );
        for (a, b) in [(2i64, 3i64), (-4, 6), (0, 9)] {
            let inputs = HashMap::from([("a".to_string(), a), ("b".to_string(), b)]);
            let (out, stats) = exec.run(&mut chip, &inputs).unwrap();
            let expect = a.wrapping_add(b).wrapping_add(a.wrapping_mul(b));
            assert_eq!(out, vec![expect]);
            assert_eq!(stats.stages_executed, 3);
            assert_eq!(stats.mailbox_writes, 6);
        }
        exec.release(&mut chip).unwrap();
        assert_eq!(chip.free_clusters(), 64);
    }

    #[test]
    fn chained_stages_stay_sequentially_levelled() {
        let mut chip = VlsiChip::new(8, 8, Cluster::default());
        let exec = StagedExecutor::deploy(&mut chip, two_stage_program()).unwrap();
        assert_eq!(
            exec.levels,
            vec![vec![0], vec![1]],
            "s1 reads s0's t: strictly sequential"
        );
        exec.release(&mut chip).unwrap();
    }

    /// A run that fails mid-tick (stage 0's probe is cut out of its
    /// stream, so `t` never reaches its tap) must leave every processor
    /// inactive: `release` succeeds and the die is whole again.
    #[test]
    fn failed_run_leaves_the_deployment_releasable() {
        let mut program = two_stage_program();
        let s0 = &mut program.stages[0];
        s0.stream = Arc::new(s0.stream.elements()[..3].iter().cloned().collect());
        let mut chip = VlsiChip::new(8, 8, Cluster::default());
        let exec = StagedExecutor::deploy(&mut chip, program).unwrap();
        let err = exec.run(&mut chip, &HashMap::new()).unwrap_err();
        assert_eq!(
            err,
            CoreError::MissingOutput {
                stage: "s0".into(),
                value: "t".into()
            }
        );
        exec.release(&mut chip).unwrap();
        assert_eq!(chip.free_clusters(), 64);
    }

    #[test]
    fn a_failed_commit_releases_every_gathered_region() {
        // The plan fits, but stage 1 asks its one-cluster AP (four memory
        // objects) to bind five: `install` refuses after both regions
        // were gathered, and both must be free again.
        let mut program = two_stage_program();
        let stage = &mut program.stages[1];
        stage.clusters = 1;
        stage.objects = (0..5)
            .map(|i| LogicalObject::memory(ObjectId(i), LocalConfig::op(Operation::Load)))
            .collect();
        let mut chip = VlsiChip::new(8, 8, Cluster::default());
        let err = StagedExecutor::deploy(&mut chip, program).unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::Ap(vlsi_ap::ApError::WorkingSetExceedsCapacity { capacity: 4, .. })
            ),
            "{err}"
        );
        assert_eq!(chip.metrics().noc_worms_delivered, 5, "both were gathered");
        assert_eq!(chip.processors().count(), 0);
        assert_eq!(chip.free_clusters(), 64);
    }

    /// Deterministic dataset batch for the equivalence tests.
    fn batch(vars: &[&str], n: usize) -> Vec<HashMap<String, i64>> {
        (0..n)
            .map(|d| {
                vars.iter()
                    .enumerate()
                    .map(|(k, v)| {
                        (
                            v.to_string(),
                            (d as i64 + 1) * 13 - 7 * k as i64 - (d as i64 % 3) * 101,
                        )
                    })
                    .collect()
            })
            .collect()
    }

    /// The pipelined wavefront must reproduce N sequential runs bit for
    /// bit, on both a chained and a diamond program.
    #[test]
    fn pipelined_batch_matches_sequential_runs() {
        for (program, vars) in [
            (two_stage_program(), vec!["a", "b", "c"]),
            (diamond_program(), vec!["a", "b"]),
        ] {
            let mut chip = VlsiChip::new(8, 8, Cluster::default());
            let depth = program.levels().len();
            let stages = program.stages.len() as u64;
            let exec = StagedExecutor::deploy(&mut chip, program).unwrap();
            let datasets = batch(&vars, 7);
            let mut seq = Vec::new();
            let mut seq_stats = PipelineRunStats::default();
            for ds in &datasets {
                let (out, s) = exec.run(&mut chip, ds).unwrap();
                seq.push(out);
                seq_stats.exec_cycles += s.exec_cycles;
                seq_stats.mailbox_writes += s.mailbox_writes;
            }
            let (pipe, stats) = exec.run_pipelined(&mut chip, &datasets).unwrap();
            assert_eq!(pipe, seq, "pipelined outputs must equal sequential");
            assert_eq!(stats.datasets, 7);
            assert_eq!(stats.ticks, (depth + 7 - 1) as u64);
            assert_eq!(stats.stages_executed, 7 * stages);
            assert_eq!(stats.mailbox_writes, seq_stats.mailbox_writes);
            assert_eq!(
                stats.exec_cycles, seq_stats.exec_cycles,
                "resident re-execution must cost the same cycles"
            );
            assert_eq!(
                stats.utilization_milli,
                7000 * stages / (stats.ticks * stages)
            );
            exec.release(&mut chip).unwrap();
            assert_eq!(chip.free_clusters(), 64);
        }
    }

    /// Same equivalence on a die with defective clusters: the allocator
    /// routes the stages around the defects, and the overlapped batch
    /// still matches the sequential walk.
    #[test]
    fn pipelined_batch_matches_sequential_with_defects() {
        let mut chip = VlsiChip::new(8, 8, Cluster::default());
        for c in [Coord::new(0, 0), Coord::new(3, 2), Coord::new(5, 5)] {
            chip.mark_defective(c);
        }
        let exec = StagedExecutor::deploy(&mut chip, diamond_program()).unwrap();
        let datasets = batch(&["a", "b"], 5);
        let seq: Vec<Vec<i64>> = datasets
            .iter()
            .map(|ds| exec.run(&mut chip, ds).unwrap().0)
            .collect();
        let (pipe, _) = exec.run_pipelined(&mut chip, &datasets).unwrap();
        assert_eq!(pipe, seq, "defect-routed pipeline must match sequential");
        exec.release(&mut chip).unwrap();
    }

    /// Degenerate batches: empty (no ticks) and singleton (the wavefront
    /// collapses to the sequential walk).
    #[test]
    fn pipelined_batch_degenerate_sizes() {
        let mut chip = VlsiChip::new(8, 8, Cluster::default());
        let exec = StagedExecutor::deploy(&mut chip, two_stage_program()).unwrap();
        let (outs, stats) = exec.run_pipelined(&mut chip, &[]).unwrap();
        assert!(outs.is_empty());
        assert_eq!(stats, PipelineRunStats::default());
        let one = batch(&["a", "b", "c"], 1);
        let (outs, stats) = exec.run_pipelined(&mut chip, &one).unwrap();
        assert_eq!(outs, vec![exec.run(&mut chip, &one[0]).unwrap().0]);
        assert_eq!(stats.ticks, 2);
        assert_eq!(stats.utilization_milli, 500, "1 dataset fills half");
        exec.release(&mut chip).unwrap();
    }

    /// Pipeline occupancy telemetry lands on the chip's handle,
    /// deterministically.
    #[test]
    fn pipelined_batch_records_occupancy_telemetry() {
        let handle = vlsi_telemetry::TelemetryHandle::active();
        let mut chip = VlsiChip::with_telemetry(8, 8, Cluster::default(), handle.clone());
        let exec = StagedExecutor::deploy(&mut chip, diamond_program()).unwrap();
        let datasets = batch(&["a", "b"], 4);
        let (_, stats) = exec.run_pipelined(&mut chip, &datasets).unwrap();
        let snap = handle.snapshot();
        assert_eq!(snap.counter("staged.pipeline_runs"), 1);
        assert_eq!(snap.counter("staged.pipeline_ticks"), stats.ticks);
        assert_eq!(
            snap.counter("staged.utilization_milli"),
            stats.utilization_milli
        );
        let json = snap.to_json();
        assert!(
            json.contains("staged.occupancy_milli[0]")
                && json.contains("staged.occupancy_milli[2]"),
            "per-stage occupancy gauges must export: {json}"
        );
        exec.release(&mut chip).unwrap();
    }

    fn xy(x: i64, y: i64) -> HashMap<String, i64> {
        HashMap::from([("x".to_string(), x), ("y".to_string(), y)])
    }

    /// Figure 7 as guarded stages: four processors, three activations
    /// per dataset (entry + the taken arm + buffer), the condition
    /// selecting the arm, and a deployment that is reusable as is.
    #[test]
    fn figure7_blocks_run_as_guarded_stages() {
        let program = StagedProgram::from_blocks(
            "figure7",
            &figure7::program().partition(),
            &[figure7::RESULT_VAR],
        );
        let guards: Vec<_> = program.stages.iter().map(|s| s.guard.clone()).collect();
        assert_eq!(
            guards,
            vec![
                None,
                Some(("%cond0".to_string(), true)),
                Some(("%cond0".to_string(), false)),
                None
            ],
            "entry, then-arm, else-arm, join"
        );
        assert_eq!(
            program.levels(),
            vec![vec![0], vec![1, 2], vec![3]],
            "the join waits for both alternative producers of z"
        );
        // A then-arm that branches again is deeper than the else-arm;
        // the join lands past the deepest producer of `r`, not the last.
        let r = |v| vec![Stmt::Assign("r".into(), Expr::Const(v))];
        let gt0 = |v| Expr::bin(BinOp::Gt, Expr::var(v), Expr::Const(0));
        let nested = Program {
            stmts: vec![
                Stmt::If {
                    cond: gt0("a"),
                    then_branch: vec![Stmt::If {
                        cond: gt0("b"),
                        then_branch: r(1),
                        else_branch: r(2),
                    }],
                    else_branch: r(3),
                },
                Stmt::Assign("out".into(), Expr::var("r")),
            ],
        };
        assert_eq!(
            StagedProgram::from_blocks("nested", &nested.partition(), &["out"]).levels(),
            vec![vec![0], vec![1], vec![2, 3, 4], vec![5]]
        );

        let mut chip = VlsiChip::new(8, 8, Cluster::default());
        let exec = StagedExecutor::deploy(&mut chip, program).unwrap();
        assert_eq!(exec.processors().len(), 4);
        for (x, y) in [(9i64, 4i64), (2, 5), (5, 5), (-3, 7)] {
            let (out, stats) = exec.run(&mut chip, &xy(x, y)).unwrap();
            assert_eq!(out, vec![figure7::reference(x, y)], "x={x} y={y}");
            assert_eq!(stats.stages_executed, 3);
            assert!(stats.mailbox_writes >= 3);
            assert_eq!(exec.run(&mut chip, &xy(x, y)).unwrap().0, out, "repeatable");
        }
        // Large x: then-arm (x+1). Large y: else-arm (y+2).
        assert_eq!(exec.run(&mut chip, &xy(100, 0)).unwrap().0, vec![101]);
        assert_eq!(exec.run(&mut chip, &xy(0, 100)).unwrap().0, vec![102]);
        exec.release(&mut chip).unwrap();

        // A guard may name a value no stage produces: the dataset
        // decides, and a dataset without it leaves the stage dark.
        let mut gated = two_stage_program();
        gated.stages[1].guard = Some(("go".to_string(), true));
        let exec = StagedExecutor::deploy(&mut chip, gated).unwrap();
        let mut env: HashMap<String, i64> = [("a", 2), ("b", 3), ("c", 4)]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        for (go, out, stages) in [(None, 0, 1), (Some(1), 20, 2), (Some(0), 0, 1)] {
            env.extend(go.map(|v| ("go".to_string(), v)));
            let (outputs, stats) = exec.run(&mut chip, &env).unwrap();
            assert_eq!(
                (outputs, stats.stages_executed),
                (vec![out], stages),
                "{go:?}"
            );
        }
        exec.release(&mut chip).unwrap();
    }

    /// Figure 7(d): the block processors overlap across datasets — the
    /// batch drains in `depth + N − 1` ticks, not `N × depth`, and every
    /// block configures once for the whole batch.
    #[test]
    fn block_pipeline_overlaps_datasets() {
        let run = |datasets: &[HashMap<String, i64>]| {
            let mut chip = VlsiChip::new(8, 8, Cluster::default());
            let program = StagedProgram::from_blocks(
                "figure7",
                &figure7::program().partition(),
                &[figure7::RESULT_VAR],
            );
            let exec = StagedExecutor::deploy(&mut chip, program).unwrap();
            exec.run_pipelined(&mut chip, datasets).unwrap()
        };
        let datasets: Vec<_> = (0..8i64).map(|i| xy(i, 7 - i)).collect();
        let (results, stats) = run(&datasets);
        for (i, out) in results.iter().enumerate() {
            let i = i as i64;
            assert_eq!(out, &vec![figure7::reference(i, 7 - i)]);
        }
        assert_eq!(stats.datasets, 8);
        assert_eq!(stats.ticks, 3 + 8 - 1);
        assert!(stats.ticks < 8 * 3);
        assert_eq!(stats.stages_executed, 8 * 3);
        // One dataset per arm configures all four blocks; six more
        // datasets configure nothing further.
        let (_, two) = run(&[xy(0, 7), xy(7, 0)]);
        assert_eq!(stats.config_cycles, two.config_cycles);
    }

    /// `if (x > y) { z = x + 1 }; out = z * 2; z = 7` — an empty else
    /// arm, so for `x <= y` tick 1's only scheduled stage is guarded off
    /// and the sweep is empty; and a join that rewrites `z`, which must
    /// not overtake the arm that wrote it first.
    #[test]
    fn a_dark_tick_and_a_reused_name_keep_sequential_semantics() {
        let source = Program {
            stmts: vec![
                Stmt::If {
                    cond: Expr::bin(BinOp::Gt, Expr::var("x"), Expr::var("y")),
                    then_branch: vec![Stmt::Assign(
                        "z".into(),
                        Expr::bin(BinOp::Add, Expr::var("x"), Expr::Const(1)),
                    )],
                    else_branch: vec![],
                },
                Stmt::Assign(
                    "out".into(),
                    Expr::bin(BinOp::Mul, Expr::var("z"), Expr::Const(2)),
                ),
                Stmt::Assign("z".into(), Expr::Const(7)),
            ],
        };
        // `x` as a program output names a dataset input no stage writes.
        let program = StagedProgram::from_blocks("dark", &source.partition(), &["out", "z", "x"]);
        assert_eq!(program.levels(), vec![vec![0], vec![1], vec![2]]);
        let mut chip = VlsiChip::new(8, 8, Cluster::default());
        let exec = StagedExecutor::deploy(&mut chip, program).unwrap();
        assert_eq!(exec.processors().len(), 3, "the empty arm has no stage");
        for (x, y, stages) in [(5i64, 1i64, 3u64), (1, 5, 2)] {
            let mut env = xy(x, y);
            env.insert("z".into(), 20);
            // A key the program never names is never looked at.
            env.insert("bystander".into(), -1);
            let (out, stats) = exec.run(&mut chip, &env).unwrap();
            source.interpret(&mut env);
            assert_eq!(out, vec![env["out"], env["z"], x]);
            assert_eq!(stats.ticks, 3);
            assert_eq!(stats.stages_executed, stages);
        }
        exec.release(&mut chip).unwrap();
    }
}
