//! Simulated network links.
//!
//! In the paper's setup the load generator and the inference server run on
//! separate Kubernetes nodes connected through a ClusterIP service;
//! request and response each cross the pod network. A [`Link`] models that
//! hop as a base latency plus light log-normal-ish jitter.

use crate::SimTime;
use etude_faults::FaultInjector;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// A one-way network link with jittered delivery latency.
///
/// The link keeps a cumulative tally of every sampled delay so the
/// driver can report how much of a run's latency the wire accounts for
/// (the `network` column of the SLO attribution) without re-sampling.
#[derive(Debug)]
pub struct Link {
    base: Duration,
    jitter: Duration,
    rng: SmallRng,
    samples: u64,
    total_delay: Duration,
}

impl Link {
    /// Creates a link with `base` latency and up to `jitter` extra delay.
    pub fn new(base: Duration, jitter: Duration, seed: u64) -> Link {
        Link {
            base,
            jitter,
            rng: SmallRng::seed_from_u64(seed),
            samples: 0,
            total_delay: Duration::ZERO,
        }
    }

    /// An intra-cluster pod-to-pod link (~150 µs ± 100 µs), the same
    /// order as GKE's east-west latency.
    pub fn cluster(seed: u64) -> Link {
        Link::new(Duration::from_micros(150), Duration::from_micros(100), seed)
    }

    /// Samples a delivery latency.
    pub fn sample(&mut self) -> Duration {
        let delay = if self.jitter.is_zero() {
            self.base
        } else {
            // Squaring a uniform sample skews the jitter towards small
            // values while keeping an occasional slow packet, loosely
            // log-normal.
            let u: f64 = self.rng.gen::<f64>();
            self.base + Duration::from_secs_f64(self.jitter.as_secs_f64() * u * u)
        };
        self.samples += 1;
        self.total_delay += delay;
        delay
    }

    /// Number of deliveries sampled so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Sum of every sampled delay (fault-injected extra excluded: the
    /// injector counts its own spikes).
    pub fn total_delay(&self) -> Duration {
        self.total_delay
    }

    /// Delivery time for an event sent now.
    pub fn delivery_time(&mut self, now: SimTime) -> SimTime {
        now.after(self.sample())
    }
}

/// A [`Link`] under a [`FaultPlan`](etude_faults::FaultPlan): latency
/// spikes stretch deliveries, drop/partition windows lose messages.
///
/// Fault windows are evaluated against *virtual* time (the simulation
/// clock), and drop decisions are keyed by the message's correlation id,
/// so a seeded schedule replays bit-identically across runs.
#[derive(Debug)]
pub struct FaultyLink {
    link: Link,
    injector: FaultInjector,
}

impl FaultyLink {
    /// Wraps a link with a fault injector.
    pub fn new(link: Link, injector: FaultInjector) -> FaultyLink {
        FaultyLink { link, injector }
    }

    /// A faultless wrapper: behaves exactly like the inner link.
    pub fn calm(link: Link) -> FaultyLink {
        FaultyLink::new(link, FaultInjector::calm())
    }

    /// The injector (for counters and plan inspection).
    pub fn injector(&self) -> &FaultInjector {
        &self.injector
    }

    /// The inner link (for the delivery tally).
    pub fn link(&self) -> &Link {
        &self.link
    }

    /// Samples the delivery latency of message `id` sent at virtual time
    /// `now`, or `None` when a drop/partition window loses it.
    pub fn sample(&mut self, now: SimTime, id: u64) -> Option<Duration> {
        let elapsed = now.as_duration();
        if self.injector.drops_message(elapsed, id) {
            return None;
        }
        Some(self.link.sample() + self.injector.latency_extra(elapsed))
    }

    /// Delivery time for message `id` sent at `now`; `None` = dropped.
    pub fn delivery_time(&mut self, now: SimTime, id: u64) -> Option<SimTime> {
        self.sample(now, id).map(|d| now.after(d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_bounded_by_base_and_jitter() {
        let mut link = Link::new(Duration::from_micros(100), Duration::from_micros(50), 1);
        for _ in 0..1000 {
            let d = link.sample();
            assert!(d >= Duration::from_micros(100));
            assert!(d <= Duration::from_micros(150));
        }
    }

    #[test]
    fn zero_jitter_is_deterministic() {
        let mut link = Link::new(Duration::from_micros(200), Duration::ZERO, 2);
        assert_eq!(link.sample(), Duration::from_micros(200));
    }

    #[test]
    fn links_tally_their_cumulative_delay() {
        let mut link = Link::new(Duration::from_micros(200), Duration::ZERO, 7);
        assert_eq!(link.samples(), 0);
        for _ in 0..5 {
            link.sample();
        }
        assert_eq!(link.samples(), 5);
        assert_eq!(link.total_delay(), Duration::from_micros(1_000));

        // With jitter the tally equals the sum of what sample() returned.
        let mut jittered = Link::cluster(11);
        let sum: Duration = (0..40).map(|_| jittered.sample()).sum();
        assert_eq!(jittered.total_delay(), sum);
        assert_eq!(jittered.samples(), 40);

        // Dropped messages never sampled a delay, so they don't tally;
        // the faulty wrapper exposes the inner link's counters.
        let mut faulty = FaultyLink::calm(Link::new(Duration::from_micros(100), Duration::ZERO, 5));
        faulty.sample(SimTime::ZERO, 1);
        assert_eq!(faulty.link().samples(), 1);
        assert_eq!(faulty.link().total_delay(), Duration::from_micros(100));
    }

    #[test]
    fn jitter_varies_between_samples() {
        let mut link = Link::cluster(4);
        let samples: Vec<Duration> = (0..50).map(|_| link.sample()).collect();
        let distinct: std::collections::HashSet<Duration> = samples.iter().copied().collect();
        assert!(distinct.len() > 10);
    }

    #[test]
    fn calm_faulty_link_matches_the_bare_link() {
        let mut bare = Link::new(Duration::from_micros(100), Duration::ZERO, 5);
        let mut faulty = FaultyLink::calm(Link::new(Duration::from_micros(100), Duration::ZERO, 5));
        for id in 0..20 {
            assert_eq!(
                faulty.sample(SimTime::ZERO.after(Duration::from_millis(id)), id),
                Some(bare.sample())
            );
        }
    }

    #[test]
    fn spikes_and_partitions_follow_the_virtual_clock() {
        use etude_faults::{FaultKind, FaultPlan};

        let plan = FaultPlan::seeded(8)
            .with_window(
                Duration::from_secs(1),
                Duration::from_secs(2),
                FaultKind::LatencySpike { extra_us: 900 },
            )
            .with_window(
                Duration::from_secs(3),
                Duration::from_secs(4),
                FaultKind::Partition,
            );
        let mut link = FaultyLink::new(
            Link::new(Duration::from_micros(100), Duration::ZERO, 1),
            FaultInjector::new(plan),
        );
        let at = |s| SimTime::ZERO.after(Duration::from_secs(s));
        assert_eq!(link.sample(at(0), 1), Some(Duration::from_micros(100)));
        assert_eq!(
            link.sample(at(1), 2),
            Some(Duration::from_micros(1_000)),
            "spike window adds 900us"
        );
        assert_eq!(link.sample(at(3), 3), None, "partition loses the message");
        assert_eq!(link.delivery_time(at(3), 4), None);
        assert_eq!(
            link.sample(at(5), 5),
            Some(Duration::from_micros(100)),
            "back to normal after the windows"
        );
        assert_eq!(link.injector().counters().drops(), 2);
        assert_eq!(link.injector().counters().spikes(), 1);
    }

    #[test]
    fn seeded_drop_schedules_replay_bit_identically() {
        use etude_faults::{FaultKind, FaultPlan};

        let build = || {
            FaultyLink::new(
                Link::cluster(9),
                FaultInjector::new(FaultPlan::seeded(33).with_window(
                    Duration::ZERO,
                    Duration::from_secs(10),
                    FaultKind::Drop { prob: 0.4 },
                )),
            )
        };
        let mut a = build();
        let mut b = build();
        for id in 0..500u64 {
            let at = SimTime::ZERO.after(Duration::from_millis(id * 7));
            assert_eq!(a.sample(at, id).is_none(), b.sample(at, id).is_none());
        }
        assert_eq!(
            a.injector().counters().drops(),
            b.injector().counters().drops()
        );
        assert!(a.injector().counters().drops() > 100, "p=0.4 over 500");
    }
}
