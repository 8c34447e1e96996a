//! Job descriptors: what a tenant submits to the runtime.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use vlsi_core::{ProcessorId, StagedProgram};
use vlsi_workloads::{Program, StreamKernel};

/// Identifier of a submitted job, in submission order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// The work a job performs once its clusters are gathered.
#[derive(Clone, Debug)]
pub enum Workload {
    /// A staged program — compiler-emitted dataflow stages (vlsi-compile),
    /// a basic-block program lowered to guarded stages
    /// ([`JobSpec::for_blocks`]) or a streaming kernel lowered to one
    /// stage ([`JobSpec::for_stream`]): stages deployed one processor each,
    /// datasets pushed through them as one wavefront, live values passed
    /// by mailbox writes. The front end provides the reference outputs
    /// (one vector per dataset, in program-output order); a mismatch
    /// fails the job.
    Staged {
        /// The compiled program.
        program: StagedProgram,
        /// Input environments, one per dataset.
        datasets: Vec<HashMap<String, i64>>,
        /// Reference outputs (netlist evaluator, IR interpreter or kernel
        /// reference), if checking.
        expected: Option<Vec<Vec<i64>>>,
    },
    /// Pure occupancy: hold the gathered clusters for `ticks` simulated
    /// ticks without executing (a reserved-capacity tenant).
    Idle {
        /// Hold duration in ticks.
        ticks: u64,
    },
}

impl Workload {
    /// A short label for traces.
    pub fn label(&self) -> &'static str {
        match self {
            Workload::Staged { .. } => "staged",
            Workload::Idle { .. } => "idle",
        }
    }
}

/// A job submission.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Human-readable name (for traces and reports).
    pub name: String,
    /// Clusters requested. For [`Workload::Staged`] this must be at least
    /// the sum of the stage regions the deploy gathers;
    /// [`JobSpec::for_staged`] computes it.
    pub clusters: usize,
    /// The work itself.
    pub workload: Workload,
    /// Scheduling priority: higher runs first under the priority policy.
    pub priority: u8,
    /// Absolute deadline in runtime ticks; a job finishing after it fails
    /// gracefully with [`RuntimeError::DeadlineMissed`].
    ///
    /// [`RuntimeError::DeadlineMissed`]: crate::RuntimeError::DeadlineMissed
    pub deadline: Option<u64>,
    /// Admission attempts before the job fails with
    /// [`RuntimeError::RetriesExhausted`].
    ///
    /// [`RuntimeError::RetriesExhausted`]: crate::RuntimeError::RetriesExhausted
    pub max_retries: u32,
}

impl JobSpec {
    /// A named job with defaults: priority 0, no deadline, 8 retries.
    pub fn new(name: impl Into<String>, clusters: usize, workload: Workload) -> JobSpec {
        JobSpec {
            name: name.into(),
            clusters,
            workload,
            priority: 0,
            deadline: None,
            max_retries: 8,
        }
    }

    /// A streaming job on `clusters` clusters: the kernel lowered to a
    /// one-stage program ([`StagedProgram::from_stream`]) whose one
    /// dataset is `input`, verified against `expected`, the kernel's
    /// reference result. Its output is that one dataset's words; words
    /// travel as `i64` bit patterns, so the `as` casts lose nothing.
    pub fn for_stream(
        name: impl Into<String>,
        clusters: usize,
        kernel: StreamKernel,
        input: Vec<u64>,
        expected: Vec<u64>,
    ) -> JobSpec {
        let dataset = (input.iter().enumerate())
            .map(|(i, &x)| (format!("x{i}"), x as i64))
            .collect();
        let expected = expected.into_iter().map(|y| y as i64).collect();
        JobSpec::new(
            name,
            clusters,
            Workload::Staged {
                program: StagedProgram::from_stream(&kernel, clusters),
                datasets: vec![dataset],
                expected: Some(vec![expected]),
            },
        )
    }

    /// A basic-block program job (Figure 7): the program is partitioned
    /// and lowered to a guarded staged program, one 4-cluster stage per
    /// non-empty block, and every dataset's `result_var` is verified
    /// against the IR interpreter.
    pub fn for_blocks(
        name: impl Into<String>,
        program: Program,
        datasets: Vec<HashMap<String, i64>>,
        result_var: impl Into<String>,
    ) -> JobSpec {
        let (name, result_var) = (name.into(), result_var.into());
        let staged = StagedProgram::from_blocks(&name, &program.partition(), &[&result_var]);
        let expected = datasets
            .iter()
            .map(|ds| {
                let mut env = ds.clone();
                program.interpret(&mut env);
                vec![env.get(&result_var).copied().unwrap_or(0)]
            })
            .collect();
        JobSpec::for_staged(name, staged, datasets, Some(expected))
    }

    /// A staged-program job; the cluster request is the sum of the stage
    /// regions.
    pub fn for_staged(
        name: impl Into<String>,
        program: StagedProgram,
        datasets: Vec<HashMap<String, i64>>,
        expected: Option<Vec<Vec<i64>>>,
    ) -> JobSpec {
        let clusters = program.clusters().max(1);
        JobSpec::new(
            name,
            clusters,
            Workload::Staged {
                program,
                datasets,
                expected,
            },
        )
    }

    /// Sets the priority (builder style).
    pub fn with_priority(mut self, priority: u8) -> JobSpec {
        self.priority = priority;
        self
    }

    /// Sets the deadline in absolute ticks (builder style).
    pub fn with_deadline(mut self, deadline: u64) -> JobSpec {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the retry budget (builder style).
    pub fn with_max_retries(mut self, retries: u32) -> JobSpec {
        self.max_retries = retries;
        self
    }
}

/// What a completed job produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobOutput {
    /// Per-dataset program-output vectors of a staged job.
    Staged(Vec<Vec<i64>>),
    /// Idle jobs produce nothing.
    None,
}

/// Lifecycle of a job inside the runtime.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JobState {
    /// Waiting for admission.
    Queued,
    /// Holding gathered clusters until its finish tick.
    Running,
    /// Finished successfully.
    Completed,
    /// Failed gracefully (deadline, retries, workload error).
    Failed,
    /// Withdrawn by a cluster scheduler and moved to another chip. The
    /// record stays behind for the trace; the job finishes (and is
    /// counted) wherever it lands.
    Migrated,
}

/// Per-job accounting, filled in as the job moves through the runtime.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JobStats {
    /// Tick the job was submitted.
    pub submitted_at: u64,
    /// Tick the job was admitted (clusters gathered), if it ever was.
    pub admitted_at: Option<u64>,
    /// Tick the job completed or failed.
    pub finished_at: Option<u64>,
    /// Gather attempts (1 = admitted first try).
    pub attempts: u32,
    /// Defect-triggered relocations/re-gathers survived.
    pub relocations: u32,
    /// Whether admission reused a warm pooled processor.
    pub pool_hit: bool,
    /// Simulated cycles of configuration (worms + datapath config).
    pub config_cycles: u64,
    /// Simulated cycles of execution.
    pub exec_cycles: u64,
    /// Queue wait: `admitted_at - submitted_at`.
    pub wait: u64,
    /// Turnaround: `finished_at - submitted_at`.
    pub turnaround: u64,
}

/// The runtime's record of one job.
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// The job's ID.
    pub id: JobId,
    /// The submission, as given — shared, not copied: admission retries,
    /// completion and migration to another chip all hold this one
    /// allocation (program, datasets and references included).
    pub spec: Arc<JobSpec>,
    /// Current lifecycle state.
    pub state: JobState,
    /// Processors currently held (one per stage of a staged job, one for
    /// an idle job). Empty unless running.
    pub procs: Vec<ProcessorId>,
    /// Output, once completed.
    pub output: Option<JobOutput>,
    /// Why the job failed, if it did.
    pub failure: Option<crate::error::RuntimeError>,
    /// Accounting.
    pub stats: JobStats,
    /// Earliest tick the next admission attempt may run (backoff).
    pub(crate) next_attempt_at: u64,
    /// Tick the current hold ends (while running).
    pub(crate) finish_at: u64,
}
