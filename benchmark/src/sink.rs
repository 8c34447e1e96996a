//! A span-recording wrapper around any [`IngestSink`], so the time the
//! ingest service spends *inside* the sink (fabric, runtime, core and AP
//! work for served jobs) can be told apart from the service's own
//! admission work without touching the crates.

use vlsi_ingest::{IngestError, IngestSink};
use vlsi_runtime::JobSpec;

use crate::trace::{Tracer, NONE};

pub struct TimedSink<S: IngestSink> {
    pub inner: S,
    tracer: Tracer,
}

impl<S: IngestSink> TimedSink<S> {
    pub fn new(inner: S, tracer: Tracer) -> TimedSink<S> {
        TimedSink { inner, tracer }
    }
}

// Every method is forwarded explicitly. `lost` has a default body in the
// trait, so leaving it out would compile — and silently report 0 for a
// cluster that lost jobs, unbalancing the conservation ledger.
impl<S: IngestSink> IngestSink for TimedSink<S> {
    fn submit_job(&mut self, spec: JobSpec) -> bool {
        let open = self.tracer.begin("fabric.submit", NONE);
        let taken = self.inner.submit_job(spec);
        self.tracer.end(open);
        taken
    }

    fn tick_sink(&mut self) -> Result<(), IngestError> {
        let open = self.tracer.begin("fabric.tick", NONE);
        let r = self.inner.tick_sink();
        self.tracer.end(open);
        r
    }

    fn outstanding(&self) -> usize {
        self.inner.outstanding()
    }

    fn completed(&self) -> u64 {
        self.inner.completed()
    }

    fn failed(&self) -> u64 {
        self.inner.failed()
    }

    fn lost(&self) -> u64 {
        self.inner.lost()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsi_runtime::Workload;

    /// A sink whose every answer is distinct, so a forwarded method that
    /// fell back to a default (or to a sibling) is caught.
    #[derive(Default)]
    struct Probe {
        submitted: Vec<String>,
        ticks: u64,
    }

    impl IngestSink for Probe {
        fn submit_job(&mut self, spec: JobSpec) -> bool {
            self.submitted.push(spec.name);
            self.submitted.len() % 2 == 1
        }
        fn tick_sink(&mut self) -> Result<(), IngestError> {
            self.ticks += 1;
            if self.ticks == 2 {
                return Err(IngestError::Hung {
                    ticks: 2,
                    outstanding: 9,
                });
            }
            Ok(())
        }
        fn outstanding(&self) -> usize {
            11
        }
        fn completed(&self) -> u64 {
            22
        }
        fn failed(&self) -> u64 {
            33
        }
        fn lost(&self) -> u64 {
            44
        }
    }

    #[test]
    fn timed_sink_forwards_every_method_including_lost() {
        let tracer = Tracer::enabled(8);
        let mut sink = TimedSink::new(Probe::default(), tracer.clone());
        let job = |n: &str| JobSpec::new(n, 1, Workload::Idle { ticks: 1 });
        assert!(sink.submit_job(job("a")));
        assert!(
            !sink.submit_job(job("b")),
            "the sink's refusal comes through"
        );
        assert!(sink.tick_sink().is_ok());
        assert!(sink.tick_sink().is_err(), "the sink's error comes through");
        assert_eq!(sink.outstanding(), 11);
        assert_eq!(sink.completed(), 22);
        assert_eq!(sink.failed(), 33);
        assert_eq!(
            sink.lost(),
            44,
            "lost() must not fall back to the default 0"
        );
        assert_eq!(sink.inner.submitted, ["a", "b"]);
        assert_eq!(sink.inner.ticks, 2);
        let names: Vec<&str> = tracer.spans().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "fabric.submit",
                "fabric.submit",
                "fabric.tick",
                "fabric.tick"
            ]
        );
    }
}
