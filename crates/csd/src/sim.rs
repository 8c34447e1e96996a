//! The functional CSD simulator behind Figure 3.
//!
//! §2.6.2: "We developed a functional CSD simulator for the evaluation.
//! Figure 3 shows the evaluation results of a one-source model …, and how
//! many channels are used in a random datapath configuration. … A random
//! request of a sink object and a locality based request of a source object
//! were used. Regarding the source object ID, the preceding sink object ID
//! and an offset are used, and therefore by controlling the offset we can
//! generate a random configuration with the locality."
//!
//! [`LocalityWorkload`] reproduces exactly that generator: sink IDs are
//! uniform-random; each source ID is the *previous element's sink ID plus a
//! random offset* whose magnitude is controlled by a locality parameter
//! (locality 1.0 ⇒ offset ≈ 0, locality 0.0 ⇒ offset spans the whole
//! array). [`CsdSimulator`] configures the resulting datapath on a
//! [`DynamicCsd`] and reports the Figure 3 metric — the number of channels
//! used — plus routability statistics.

use crate::channel::Position;
use crate::network::DynamicCsd;
use vlsi_prng::Prng;

/// One chaining request of the one-source model: connect the object at
/// `source` to the object at `sink`.
pub type Request = (Position, Position);

/// Generator for the paper's locality-controlled random datapath.
#[derive(Clone, Debug)]
pub struct LocalityWorkload {
    /// Number of objects (and positions) in the array.
    pub n_objects: usize,
    /// Locality in `[0, 1]`: 1.0 keeps every source adjacent to the
    /// preceding sink (offset ≈ 0); 0.0 draws offsets across the whole
    /// array (fully random configuration).
    pub locality: f64,
    /// RNG seed, for reproducibility.
    pub seed: u64,
}

impl LocalityWorkload {
    /// Generates the chaining requests for one datapath configuration.
    ///
    /// Produces `n_objects` elements (every element requests one sink,
    /// matching "a random datapath configuration" over the array). Sink IDs
    /// are uniform-random; the source ID of each element is its preceding
    /// sink ID plus a locality-bounded random offset ("the preceding sink
    /// object ID and an offset are used", §2.6.2) — the sink immediately
    /// preceding the source in the dependency chain, i.e. the producer it
    /// reads from. At locality 1.0 the offset is zero, so source == sink
    /// ("a higher locality takes a very small number or is equal to zero")
    /// and the request needs no channel at all; the simulator skips it.
    pub fn generate(&self) -> Vec<Request> {
        let n = self.n_objects;
        assert!(n >= 2, "need at least two objects to chain");
        let mut rng = Prng::seed_from_u64(self.seed);
        // Maximum |offset| the locality allows. locality 1 -> 0 hops;
        // locality 0 -> anywhere in the array.
        let max_off = ((1.0 - self.locality.clamp(0.0, 1.0)) * (n - 1) as f64).round() as i64;
        let mut requests = Vec::with_capacity(n);
        for _ in 0..n {
            let sink = rng.gen_range(0..n as i64);
            let off = if max_off == 0 {
                0
            } else {
                rng.gen_range(-max_off..=max_off)
            };
            // Source = the sink's preceding object ID + offset, clamped
            // onto the array.
            let source = (sink + off).clamp(0, n as i64 - 1);
            requests.push((source as Position, sink as Position));
        }
        requests
    }

    /// Generates chaining requests for the **two-source model**: every
    /// element draws *two* independent locality-bounded sources for its
    /// sink (the model the paper mentions alongside Figure 3's one-source
    /// results). Produces `2 · n_objects` point-to-point requests.
    pub fn generate_two_source(&self) -> Vec<Request> {
        let n = self.n_objects;
        assert!(n >= 2, "need at least two objects to chain");
        let mut rng = Prng::seed_from_u64(self.seed.wrapping_add(0x2507));
        let max_off = ((1.0 - self.locality.clamp(0.0, 1.0)) * (n - 1) as f64).round() as i64;
        let mut requests = Vec::with_capacity(2 * n);
        for _ in 0..n {
            let sink = rng.gen_range(0..n as i64);
            for _ in 0..2 {
                let off = if max_off == 0 {
                    0
                } else {
                    rng.gen_range(-max_off..=max_off)
                };
                let source = (sink + off).clamp(0, n as i64 - 1);
                requests.push((source as Position, sink as Position));
            }
        }
        requests
    }

    /// Generates **fan-out** requests: each of `n_objects` sources
    /// broadcasts to `fanout` locality-bounded sinks, consuming one
    /// channel spanning them all ("the necessity of a fan-out (broadcast)
    /// requires more channels, i.e., up to `N_object` channels", §2.6.2).
    pub fn generate_fanout(&self, fanout: usize) -> Vec<(Position, Vec<Position>)> {
        let n = self.n_objects;
        assert!(n >= 2 && fanout >= 1);
        let mut rng = Prng::seed_from_u64(self.seed.wrapping_add(0xFA0));
        let max_off = ((1.0 - self.locality.clamp(0.0, 1.0)) * (n - 1) as f64).round() as i64;
        (0..n)
            .map(|_| {
                let source = rng.gen_range(0..n as i64);
                let sinks = (0..fanout)
                    .map(|_| {
                        let off = if max_off == 0 {
                            0
                        } else {
                            rng.gen_range(-max_off..=max_off)
                        };
                        (source + off).clamp(0, n as i64 - 1) as Position
                    })
                    .filter(|&s| s != source as Position)
                    .collect();
                (source as Position, sinks)
            })
            .collect()
    }

    /// The mean request span in hops — the measured locality of a generated
    /// workload (lower = more local). Useful as an x-axis that does not
    /// depend on the generator's internal parameterisation.
    pub fn mean_span(requests: &[Request]) -> f64 {
        if requests.is_empty() {
            return 0.0;
        }
        let total: usize = requests.iter().map(|&(s, k)| s.max(k) - s.min(k)).sum();
        total as f64 / requests.len() as f64
    }
}

/// Channel-usage statistics of one configured datapath.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct ChannelUsage {
    /// Channels in use once the whole datapath is configured (Figure 3's
    /// y-axis).
    pub used_channels: usize,
    /// Requests that found no channel (routability failures).
    pub rejected: usize,
    /// Requests successfully granted.
    pub granted: usize,
    /// Requests skipped because source == sink.
    pub zero_span: usize,
    /// Mean hop span of granted routes.
    pub mean_span: f64,
    /// Fraction of all channel segments occupied.
    pub segment_utilization: f64,
}

/// Functional simulator: configures a datapath on a fresh dynamic CSD
/// network and measures channel consumption.
#[derive(Clone, Debug)]
pub struct CsdSimulator {
    /// Objects along the array.
    pub n_objects: usize,
    /// Channels provisioned in the network.
    pub n_channels: usize,
}

impl CsdSimulator {
    /// A simulator for `n_objects` positions and `n_channels` channels.
    pub fn new(n_objects: usize, n_channels: usize) -> CsdSimulator {
        CsdSimulator {
            n_objects,
            n_channels,
        }
    }

    /// Configures the given requests on a fresh network; all routes stay
    /// live (a fully configured streaming datapath), so the result reports
    /// the peak channel requirement.
    pub fn run(&self, requests: &[Request]) -> ChannelUsage {
        let mut net = DynamicCsd::new(self.n_objects, self.n_channels);
        let mut usage = ChannelUsage::default();
        let mut span_total = 0usize;
        for &(source, sink) in requests {
            if source == sink {
                usage.zero_span += 1;
                continue;
            }
            match net.connect(source, sink) {
                Ok(_) => {
                    usage.granted += 1;
                    span_total += source.max(sink) - source.min(sink);
                }
                Err(_) => usage.rejected += 1,
            }
        }
        usage.used_channels = net.used_channels();
        usage.mean_span = if usage.granted > 0 {
            span_total as f64 / usage.granted as f64
        } else {
            0.0
        };
        usage.segment_utilization = net.segment_utilization();
        usage
    }

    /// Configures fan-out requests (one channel per broadcast set) on a
    /// fresh network.
    pub fn run_fanout(&self, requests: &[(Position, Vec<Position>)]) -> ChannelUsage {
        let mut net = DynamicCsd::new(self.n_objects, self.n_channels);
        let mut usage = ChannelUsage::default();
        let mut span_total = 0usize;
        for (source, sinks) in requests {
            if sinks.is_empty() {
                usage.zero_span += 1;
                continue;
            }
            match net.connect_fanout(*source, sinks) {
                Ok(r) => {
                    usage.granted += 1;
                    span_total += net.route(r).map(|r| r.hops()).unwrap_or(0);
                }
                Err(crate::CsdError::ZeroSpan(_)) => usage.zero_span += 1,
                Err(_) => usage.rejected += 1,
            }
        }
        usage.used_channels = net.used_channels();
        usage.mean_span = if usage.granted > 0 {
            span_total as f64 / usage.granted as f64
        } else {
            0.0
        };
        usage.segment_utilization = net.segment_utilization();
        usage
    }

    /// One sweep point with its seed-to-seed spread: `(mean usage, min
    /// used channels, max used channels)` over `runs` seeds. The spread
    /// is the error bar the paper's Figure 3 omits.
    pub fn sweep_point_spread(
        &self,
        locality: f64,
        runs: usize,
        seed: u64,
    ) -> (ChannelUsage, usize, usize) {
        let mut min_used = usize::MAX;
        let mut max_used = 0usize;
        for i in 0..runs {
            let wl = LocalityWorkload {
                n_objects: self.n_objects,
                locality,
                seed: seed
                    .wrapping_add(i as u64)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15),
            };
            let u = self.run(&wl.generate());
            min_used = min_used.min(u.used_channels);
            max_used = max_used.max(u.used_channels);
        }
        (
            self.sweep_point(locality, runs, seed),
            if runs == 0 { 0 } else { min_used },
            max_used,
        )
    }

    /// Runs `runs` random datapaths at the given locality and averages the
    /// channel usage — one point of a Figure 3 curve.
    pub fn sweep_point(&self, locality: f64, runs: usize, seed: u64) -> ChannelUsage {
        let mut acc = ChannelUsage::default();
        for i in 0..runs {
            let wl = LocalityWorkload {
                n_objects: self.n_objects,
                locality,
                seed: seed
                    .wrapping_add(i as u64)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15),
            };
            let u = self.run(&wl.generate());
            acc.used_channels += u.used_channels;
            acc.rejected += u.rejected;
            acc.granted += u.granted;
            acc.zero_span += u.zero_span;
            acc.mean_span += u.mean_span;
            acc.segment_utilization += u.segment_utilization;
        }
        let n = runs.max(1) as f64;
        ChannelUsage {
            used_channels: (acc.used_channels as f64 / n).round() as usize,
            rejected: acc.rejected,
            granted: acc.granted,
            zero_span: acc.zero_span,
            mean_span: acc.mean_span / n,
            segment_utilization: acc.segment_utilization / n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_per_seed() {
        let wl = LocalityWorkload {
            n_objects: 32,
            locality: 0.5,
            seed: 7,
        };
        assert_eq!(wl.generate(), wl.generate());
        let other = LocalityWorkload { seed: 8, ..wl };
        assert_ne!(wl.generate(), other.generate());
    }

    #[test]
    fn full_locality_makes_offsets_zero() {
        let wl = LocalityWorkload {
            n_objects: 64,
            locality: 1.0,
            seed: 3,
        };
        // With locality 1.0 the offset is always 0 ("a higher locality
        // takes a very small number or is equal to zero"): source == sink.
        for (s, k) in wl.generate() {
            assert_eq!(s, k);
        }
    }

    #[test]
    fn high_locality_uses_fewer_channels_than_random() {
        let sim = CsdSimulator::new(64, 64);
        let local = sim.sweep_point(0.9, 20, 11);
        let random = sim.sweep_point(0.0, 20, 11);
        assert!(
            local.used_channels < random.used_channels,
            "local {} !< random {}",
            local.used_channels,
            random.used_channels
        );
    }

    #[test]
    fn random_datapath_needs_at_most_half_the_channels() {
        // The paper's headline: "Nobject channels were not used, and
        // Nobject/2 channels are sufficient for the random datapath."
        for &n in &[16usize, 32, 64, 128, 256] {
            let sim = CsdSimulator::new(n, n);
            let u = sim.sweep_point(0.0, 30, 42);
            assert!(
                u.used_channels <= n / 2 + n / 8,
                "N={n}: used {} channels, expected ≈ N/2",
                u.used_channels
            );
            assert_eq!(u.rejected, 0, "N channels must always be routable");
        }
    }

    #[test]
    fn under_provisioned_network_rejects() {
        let sim = CsdSimulator::new(64, 2);
        let u = sim.sweep_point(0.0, 10, 5);
        assert!(u.rejected > 0);
    }

    #[test]
    fn mean_span_tracks_locality() {
        let sim = CsdSimulator::new(128, 128);
        let tight = sim.sweep_point(1.0, 10, 1);
        let loose = sim.sweep_point(0.0, 10, 1);
        assert!(tight.mean_span < loose.mean_span);
    }

    #[test]
    fn zero_span_requests_are_skipped() {
        let sim = CsdSimulator::new(8, 8);
        let u = sim.run(&[(3, 3), (1, 2)]);
        assert_eq!(u.zero_span, 1);
        assert_eq!(u.granted, 1);
    }

    #[test]
    fn spread_brackets_the_mean() {
        let sim = CsdSimulator::new(32, 32);
        let (mean, lo, hi) = sim.sweep_point_spread(0.3, 15, 4);
        assert!(lo <= mean.used_channels);
        assert!(mean.used_channels <= hi);
        assert!(hi <= 32);
    }

    #[test]
    fn two_source_model_uses_more_channels() {
        let n = 64usize;
        let sim = CsdSimulator::new(n, n);
        let wl = LocalityWorkload {
            n_objects: n,
            locality: 0.3,
            seed: 5,
        };
        let one = sim.run(&wl.generate());
        let two = sim.run(&wl.generate_two_source());
        assert!(
            two.used_channels > one.used_channels,
            "two-source {} !> one-source {}",
            two.used_channels,
            one.used_channels
        );
    }

    #[test]
    fn two_source_generates_two_requests_per_sink() {
        let wl = LocalityWorkload {
            n_objects: 16,
            locality: 0.5,
            seed: 1,
        };
        assert_eq!(wl.generate_two_source().len(), 32);
    }

    #[test]
    fn fanout_consumes_toward_n_channels() {
        // §2.6.2: broadcast needs more channels, up to N_object.
        let n = 64usize;
        let sim = CsdSimulator::new(n, n);
        let wl = LocalityWorkload {
            n_objects: n,
            locality: 0.0,
            seed: 9,
        };
        let narrow = sim.run_fanout(&wl.generate_fanout(1));
        let wide = sim.run_fanout(&wl.generate_fanout(6));
        assert!(wide.used_channels > narrow.used_channels);
        assert!(wide.used_channels <= n);
        // Wide broadcasts span more hops on average.
        assert!(wide.mean_span > narrow.mean_span);
    }

    #[test]
    fn fanout_generator_excludes_self_sinks() {
        let wl = LocalityWorkload {
            n_objects: 16,
            locality: 0.0,
            seed: 2,
        };
        for (source, sinks) in wl.generate_fanout(4) {
            assert!(!sinks.contains(&source));
        }
    }
}
