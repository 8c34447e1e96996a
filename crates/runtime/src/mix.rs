//! Deterministic multi-tenant job mixes.
//!
//! [`mixed_jobs`] turns [`vlsi_workloads::jobmix`] cases into a batch of
//! [`JobSpec`]s with varied sizes, priorities, deadlines, and tenants —
//! the contended workload the integration tests replay under every
//! policy and Ablation I (`tests/ablations.rs`) sweeps.

use vlsi_prng::Prng;
use vlsi_workloads::jobmix;

use crate::job::{JobSpec, Workload};

/// Region sizes a streaming job draws from, uniformly.
const STREAM_SIZES: [usize; 3] = [4, 6, 8];

/// Builds `n` jobs from `seed`: ~60% verified streaming kernels (as
/// one-stage staged jobs), ~20% basic-block programs (as guarded staged
/// jobs), ~20% idle capacity reservations. Priorities are
/// uniform in `0..8`; roughly one job in six carries a deadline. The same
/// `(seed, n)` always produces the same batch.
pub fn mixed_jobs(seed: u64, n: usize) -> Vec<JobSpec> {
    let mut rng = Prng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let spec = match rng.gen_range(0..10u8) {
                0..=5 => {
                    let case = jobmix::stream_case(&mut rng);
                    let clusters = STREAM_SIZES[rng.gen_range(0..STREAM_SIZES.len())];
                    JobSpec::for_stream(
                        format!("stream-{i}"),
                        clusters,
                        case.kernel,
                        case.input,
                        case.expected,
                    )
                }
                6..=7 => {
                    let case = jobmix::block_case(&mut rng);
                    JobSpec::for_blocks(
                        format!("blocks-{i}"),
                        case.program,
                        case.datasets,
                        case.result_var,
                    )
                }
                _ => {
                    let clusters = rng.gen_range(2..=12usize);
                    let ticks = rng.gen_range(2..=20u64);
                    JobSpec::new(format!("idle-{i}"), clusters, Workload::Idle { ticks })
                }
            };
            let spec = spec.with_priority(rng.gen_range(0..8u8));
            if rng.gen_bool(1.0 / 6.0) {
                spec.with_deadline(rng.gen_range(150..600u64))
            } else {
                spec
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_batch() {
        let a = mixed_jobs(42, 60);
        let b = mixed_jobs(42, 60);
        assert_eq!(a.len(), 60);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.clusters, y.clusters);
            assert_eq!(x.priority, y.priority);
            assert_eq!(x.deadline, y.deadline);
            assert_eq!(x.workload.label(), y.workload.label());
        }
    }

    #[test]
    fn the_mix_contains_every_tenant_shape() {
        let batch = mixed_jobs(42, 60);
        for prefix in ["stream-", "blocks-", "idle-"] {
            assert!(
                batch.iter().any(|s| s.name.starts_with(prefix)),
                "missing {prefix}"
            );
        }
        assert!(batch.iter().any(|s| s.deadline.is_some()));
        assert!(
            batch
                .iter()
                .map(|s| s.priority)
                .collect::<std::collections::BTreeSet<_>>()
                .len()
                > 3
        );
    }
}
