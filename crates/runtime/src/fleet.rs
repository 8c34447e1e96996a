//! Multi-chip fleets: independent runtimes driven by one worker pool.
//!
//! A [`Fleet`] owns `M` [`Runtime`]s — each a full chip with its own
//! scheduler, clock, and event log — and drives them on a
//! [`Pool`](vlsi_par::Pool) with a *static* chip→task assignment: chip
//! `i` is always task `i`, so a fleet run is deterministic at every
//! thread count. Chips never share state; cross-chip aggregation
//! (event logs, telemetry) happens only after the parallel section, in
//! chip-index order.
//!
//! A chip's own NoC may additionally be sharded over the *same* pool
//! ([`VlsiChip::set_noc_parallel`](vlsi_core::VlsiChip::set_noc_parallel)):
//! a nested region degrades to inline serial execution on the worker it
//! is already on, so the combination is deadlock-free and still
//! bit-identical to serial.

use crate::error::RuntimeError;
use crate::events::RuntimeEvent;
use crate::runtime::{Runtime, RuntimeSummary};
use std::sync::{Arc, Mutex};
use vlsi_par::Pool;
use vlsi_telemetry::TelemetryHandle;

/// A [`RuntimeError`] tagged with the chip it happened on. When several
/// chips fail in one parallel step, the lowest chip index is reported —
/// a deterministic choice at every thread count.
#[derive(Clone, PartialEq, Debug)]
pub struct FleetError {
    /// Index of the failing chip within the fleet.
    pub chip: usize,
    /// The underlying runtime error.
    pub error: RuntimeError,
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "chip {}: {}", self.chip, self.error)
    }
}

impl std::error::Error for FleetError {}

/// `M` independent chips ticked on one deterministic pool, chip `i`
/// always task `i`.
pub struct Fleet {
    chips: Vec<Runtime>,
    pool: Arc<Pool>,
}

impl Fleet {
    /// An empty fleet executing on `pool`.
    pub fn new(pool: Arc<Pool>) -> Fleet {
        Fleet {
            chips: Vec::new(),
            pool,
        }
    }

    /// An empty fleet that runs inline on the caller.
    pub fn serial() -> Fleet {
        Fleet::new(Pool::serial())
    }

    /// Adds a chip; returns its fleet index (stable for the fleet's
    /// lifetime — it is also the chip's task index on the pool).
    pub fn push(&mut self, chip: Runtime) -> usize {
        self.chips.push(chip);
        self.chips.len() - 1
    }

    /// Number of chips.
    pub fn len(&self) -> usize {
        self.chips.len()
    }

    /// Whether the fleet has no chips.
    pub fn is_empty(&self) -> bool {
        self.chips.is_empty()
    }

    /// Executors fleet steps can use (1 = serial).
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The chip at `index`.
    pub fn chip(&self, index: usize) -> &Runtime {
        &self.chips[index]
    }

    /// The chip at `index`, mutably (submit jobs, attach fault plans).
    pub fn chip_mut(&mut self, index: usize) -> &mut Runtime {
        &mut self.chips[index]
    }

    /// The chips, in fleet-index order.
    pub fn chips(&self) -> impl Iterator<Item = &Runtime> {
        self.chips.iter()
    }

    /// Runs `f` once per chip on the pool (chip `i` = task `i`) and
    /// collects the results in chip-index order. The scaffolding every
    /// fleet step shares: the per-chip `Mutex` is uncontended by
    /// construction and only exists to hand each worker a `&mut` through
    /// the shared closure.
    fn each_chip<R: Send>(&mut self, f: impl Fn(usize, &mut Runtime) -> R + Sync) -> Vec<R> {
        let views: Vec<Mutex<&mut Runtime>> = self.chips.iter_mut().map(Mutex::new).collect();
        self.pool.map(views.len(), |i| {
            f(i, &mut views[i].lock().unwrap_or_else(|e| e.into_inner()))
        })
    }

    /// Advances only the chips whose `alive` flag is set (indices past
    /// the end of `alive` count as alive). A cluster scheduler uses this
    /// once a chip has failed: the dead chip's clock freezes while the
    /// survivors keep the same chip-`i`-is-task-`i` assignment, so the
    /// run stays bit-identical at every thread count.
    pub fn tick_masked(&mut self, alive: &[bool]) -> Result<(), FleetError> {
        let results = self.each_chip(|i, chip| {
            if *alive.get(i).unwrap_or(&true) {
                chip.tick()
            } else {
                Ok(())
            }
        });
        first_error(results.into_iter())
    }

    /// Runs every chip until its queue drains (or `max_ticks`), in
    /// parallel, and returns the per-chip summaries in chip-index order.
    /// Chips are independent, so per-chip results are bit-identical to
    /// running each chip alone, at every thread count.
    pub fn run_until_idle(&mut self, max_ticks: u64) -> Result<Vec<RuntimeSummary>, FleetError> {
        let results = self.each_chip(|_, chip| chip.run_until_idle(max_ticks));
        let mut summaries = Vec::with_capacity(results.len());
        for (chip, r) in results.into_iter().enumerate() {
            match r {
                Ok(s) => summaries.push(s),
                Err(error) => return Err(FleetError { chip, error }),
            }
        }
        Ok(summaries)
    }

    /// Every chip's event log, merged in chip-index order (each chip's
    /// events keep their own order). The deterministic fleet-wide trace:
    /// identical submissions produce an identical merged log at every
    /// thread count.
    pub fn merged_events(&self) -> Vec<(usize, RuntimeEvent)> {
        let mut out = Vec::new();
        for (i, chip) in self.chips.iter().enumerate() {
            out.extend(chip.events().iter().map(|e| (i, e.clone())));
        }
        out
    }

    /// A fresh telemetry registry holding every chip's instruments,
    /// merged in chip-index order (counters add, histograms merge,
    /// traces append). Chips built without telemetry contribute nothing.
    pub fn merged_telemetry(&self) -> TelemetryHandle {
        let merged = TelemetryHandle::active();
        for chip in &self.chips {
            merged.merge_from(chip.telemetry());
        }
        merged
    }
}

/// The lowest-index error, if any — deterministic regardless of which
/// worker hit its error first.
fn first_error(results: impl Iterator<Item = Result<(), RuntimeError>>) -> Result<(), FleetError> {
    for (chip, r) in results.enumerate() {
        if let Err(error) = r {
            return Err(FleetError { chip, error });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobSpec, Workload};
    use crate::policy::Fifo;
    use crate::runtime::RuntimeConfig;
    use vlsi_core::VlsiChip;
    use vlsi_telemetry::TelemetryHandle;
    use vlsi_topology::Cluster;
    use vlsi_workloads::StreamKernel;

    fn loaded_runtime(chips_wide: u16, jobs: u64) -> Runtime {
        let chip = VlsiChip::with_telemetry(
            chips_wide,
            chips_wide,
            Cluster::default(),
            TelemetryHandle::active(),
        );
        let mut rt = Runtime::new(chip, Box::new(Fifo), RuntimeConfig::default());
        for j in 0..jobs {
            let xs: Vec<u64> = (1..=8).collect();
            rt.submit(JobSpec::for_stream(
                "axpy",
                2 + (j as usize % 3),
                StreamKernel::axpy(3, j + 1, 8),
                xs.clone(),
                StreamKernel::axpy_reference(3, j + 1, &xs),
            ));
            rt.submit(JobSpec::new(
                "idle",
                1 + (j as usize % 2),
                Workload::Idle { ticks: 4 + j },
            ));
        }
        rt
    }

    fn fleet_digest(threads: usize) -> (Vec<u64>, String, String) {
        let mut fleet = Fleet::new(Pool::new(threads));
        for c in 0..4 {
            fleet.push(loaded_runtime(8, 3 + c));
        }
        let summaries = fleet.run_until_idle(100_000).expect("fleet drains");
        let completed = summaries.iter().map(|s| s.completed).collect();
        let events = format!("{:?}", fleet.merged_events());
        let telemetry = fleet.merged_telemetry().snapshot().to_json();
        (completed, events, telemetry)
    }

    #[test]
    fn fleet_matches_standalone_chips() {
        // Chip 2 of the fleet must behave exactly like the same runtime
        // run alone.
        let mut alone = loaded_runtime(8, 5);
        let alone_summary = alone.run_until_idle(100_000).expect("drains");
        let mut fleet = Fleet::serial();
        for c in 0..4 {
            fleet.push(loaded_runtime(8, 3 + c));
        }
        let summaries = fleet.run_until_idle(100_000).expect("fleet drains");
        assert_eq!(summaries.len(), 4);
        assert_eq!(summaries[2].completed, alone_summary.completed);
        assert_eq!(
            format!("{:?}", fleet.chip(2).events()),
            format!("{:?}", alone.events()),
        );
    }

    #[test]
    fn fleet_runs_are_bit_identical_across_thread_counts() {
        let serial = fleet_digest(1);
        for threads in [2, 3, 8] {
            assert_eq!(fleet_digest(threads), serial, "{threads} threads");
        }
    }

    /// A fleet where the chips at `hung` can never drain: each gets an
    /// idle job far longer than the `max_ticks` the tests run with.
    fn fleet_with_hung_chips(threads: usize, hung: &[usize]) -> Fleet {
        let mut fleet = Fleet::new(Pool::new(threads));
        for c in 0..4 {
            let mut rt = loaded_runtime(8, 2);
            if hung.contains(&c) {
                rt.submit(JobSpec::new("stuck", 1, Workload::Idle { ticks: 1 << 40 }));
            }
            fleet.push(rt);
        }
        fleet
    }

    #[test]
    fn multiple_failing_chips_report_the_lowest_index() {
        // Chips 1 and 3 both hang; every thread count must blame chip 1
        // with the same typed error.
        let serial_err = fleet_with_hung_chips(1, &[1, 3])
            .run_until_idle(200)
            .expect_err("hung chips surface");
        assert_eq!(serial_err.chip, 1, "lowest failing index wins");
        assert!(
            matches!(serial_err.error, RuntimeError::Hung { .. }),
            "typed: {:?}",
            serial_err.error
        );
        for threads in [2, 8] {
            let err = fleet_with_hung_chips(threads, &[1, 3])
                .run_until_idle(200)
                .expect_err("hung chips surface");
            assert_eq!(err, serial_err, "{threads} threads");
        }
    }

    #[test]
    fn survivors_merge_deterministically_after_a_chip_fails() {
        // After the fleet-level error, the surviving chips' events and
        // telemetry must still merge bit-identically at every thread
        // count — a failure on one chip cannot perturb the others.
        let digest = |threads: usize| {
            let mut fleet = fleet_with_hung_chips(threads, &[2]);
            fleet.run_until_idle(200).expect_err("chip 2 hangs");
            (
                format!("{:?}", fleet.merged_events()),
                fleet.merged_telemetry().snapshot().to_json(),
            )
        };
        let serial = digest(1);
        assert!(serial.0.len() > 2, "survivors produced events");
        for threads in [2, 8] {
            assert_eq!(digest(threads), serial, "{threads} threads");
        }
    }

    #[test]
    fn first_error_picks_the_lowest_chip_regardless_of_order() {
        // The merge rule itself: with chips 1 and 3 both failing, the
        // fleet error is always chip 1's, whatever order workers finish.
        let hung = |ticks| RuntimeError::Hung {
            ticks,
            outstanding: 1,
        };
        let results = vec![Ok(()), Err(hung(10)), Ok(()), Err(hung(99))];
        let err = first_error(results.into_iter()).expect_err("two chips failed");
        assert_eq!(err.chip, 1);
        assert_eq!(err.error, hung(10), "chip 1's own error, not chip 3's");
        assert!(first_error(vec![Ok(()), Ok(())].into_iter()).is_ok());
    }

    #[test]
    fn merged_events_interleave_in_chip_order() {
        let mut fleet = Fleet::serial();
        fleet.push(loaded_runtime(8, 1));
        fleet.push(loaded_runtime(8, 1));
        fleet.run_until_idle(100_000).expect("fleet drains");
        let merged = fleet.merged_events();
        assert!(!merged.is_empty());
        let switch = merged
            .iter()
            .position(|(c, _)| *c == 1)
            .expect("chip 1 events");
        assert!(merged[..switch].iter().all(|(c, _)| *c == 0));
        assert!(merged[switch..].iter().all(|(c, _)| *c == 1));
        assert_eq!(
            merged.len(),
            fleet.chip(0).events().len() + fleet.chip(1).events().len()
        );
    }
}
