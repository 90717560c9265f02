//! SLO-driven autoscaler: an HPA-style reconciler with cooldown and
//! hysteresis.
//!
//! Each tick the runner hands the autoscaler one [`FleetObs`] — the
//! windowed fleet snapshot boiled down to the three pressure signals
//! ETUDE cares about: queue depth per replica, p99 latency against the
//! SLO target, and the SLO burn rate. [`Autoscaler::decide`] maps that
//! observation to an optional replica change. The mapping is a pure
//! function of (config, tick sequence, observations): no clocks, no
//! randomness, so a replayed chaos run emits a byte-identical decision
//! journal.
//!
//! Three guards keep the trajectory sane:
//!
//! * **bounds** — replicas never leave `[1, max_replicas]`,
//! * **cooldown** — after a scale-up, further scale-ups wait out
//!   `UP_COOLDOWN_TICKS` (scaling up is allowed sooner than scaling
//!   down, the usual HPA asymmetry),
//! * **hysteresis** — scale-down requires the pressure score to sit
//!   below `DOWN_HYSTERESIS` for `down_cooldown_ticks` *consecutive*
//!   ticks, so a single quiet tick in a noisy window releases nothing.

use std::time::Duration;

/// Lower replica bound: the fleet never scales to zero.
const MIN_REPLICAS: usize = 1;
/// Queue depth per replica considered "at capacity".
const TARGET_QUEUE_PER_REPLICA: f64 = 8.0;
/// p99 considered "at capacity".
const TARGET_P99: Duration = Duration::from_millis(50);
/// Ticks to wait after a scale-up before scaling up again.
const UP_COOLDOWN_TICKS: u64 = 3;
/// Score (fraction of capacity) below which a tick counts as calm.
const DOWN_HYSTERESIS: f64 = 0.5;

/// Autoscaler tuning.
#[derive(Debug, Clone, Copy)]
pub struct AutoscalerConfig {
    /// Upper replica bound.
    pub max_replicas: usize,
    /// Consecutive calm ticks required before releasing a replica.
    pub down_cooldown_ticks: u64,
}

impl Default for AutoscalerConfig {
    fn default() -> AutoscalerConfig {
        AutoscalerConfig {
            max_replicas: 8,
            down_cooldown_ticks: 10,
        }
    }
}

/// One tick's observation of the fleet.
#[derive(Debug, Clone, Copy)]
pub struct FleetObs {
    /// Reconciler tick number.
    pub tick: u64,
    /// Replicas currently passing readiness.
    pub ready_replicas: usize,
    /// Replicas that exist (ready or starting).
    pub total_replicas: usize,
    /// Summed queue depth across ready replicas.
    pub queue_depth: u64,
    /// Fleet p99 over the last window, in microseconds.
    pub p99_us: u64,
    /// SLO burn rate over the short window (1.0 = burning exactly the
    /// error budget).
    pub burn: f64,
}

/// A scale decision: change `from` replicas into `to`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaleDecision {
    /// Tick the decision fired on.
    pub tick: u64,
    /// Replica count before.
    pub from: usize,
    /// Replica count after.
    pub to: usize,
    /// Pressure score in milli-units (integer, for byte-stable logs).
    pub score_milli: u64,
    /// Which signal dominated: `"queue"`, `"latency"`, `"burn"` or
    /// `"calm"` (scale-down).
    pub reason: &'static str,
}

/// The reconciler. Feed it one [`FleetObs`] per tick.
#[derive(Debug, Clone)]
pub struct Autoscaler {
    config: AutoscalerConfig,
    last_scale_up_tick: Option<u64>,
    calm_streak: u64,
    decisions: u64,
}

impl Autoscaler {
    /// A fresh reconciler.
    pub fn new(config: AutoscalerConfig) -> Autoscaler {
        Autoscaler {
            config,
            last_scale_up_tick: None,
            calm_streak: 0,
            decisions: 0,
        }
    }

    /// The autoscaler's view of fleet pressure: the max of the three
    /// normalised signals, in milli-units. 1000 = exactly at capacity.
    /// Integer arithmetic end-to-end so replays are byte-identical.
    fn score_milli(&self, obs: &FleetObs) -> (u64, &'static str) {
        let replicas = obs.ready_replicas.max(1) as f64;
        let queue = (obs.queue_depth as f64 / replicas) / TARGET_QUEUE_PER_REPLICA;
        let latency = obs.p99_us as f64 / TARGET_P99.as_micros() as f64;
        // Burn 6.0 (the PR 4 slow-burn page threshold) maps to "at
        // capacity": a paging fleet is by definition under-provisioned.
        let burn = obs.burn / 6.0;
        let mut best = ((queue * 1000.0) as u64, "queue");
        for (milli, name) in [
            ((latency * 1000.0) as u64, "latency"),
            ((burn * 1000.0) as u64, "burn"),
        ] {
            if milli > best.0 {
                best = (milli, name);
            }
        }
        best
    }

    /// Reconciles one tick: returns the scale decision, if any.
    pub fn decide(&mut self, obs: &FleetObs) -> Option<ScaleDecision> {
        let c = self.config;
        let (score, signal) = self.score_milli(obs);
        let current = obs.total_replicas;

        // Pressure over 110% of capacity: scale up, proportionally to
        // the overshoot (ceil(current * score)), inside the cooldown.
        if score > 1100 {
            self.calm_streak = 0;
            let in_cooldown = self
                .last_scale_up_tick
                .is_some_and(|t| obs.tick < t + UP_COOLDOWN_TICKS);
            if in_cooldown || current >= c.max_replicas {
                return None;
            }
            let want = ((current as u64 * score).div_ceil(1000) as usize)
                .clamp(current + 1, c.max_replicas);
            self.last_scale_up_tick = Some(obs.tick);
            self.decisions += 1;
            return Some(ScaleDecision {
                tick: obs.tick,
                from: current,
                to: want,
                score_milli: score,
                reason: signal,
            });
        }

        // Calm tick: count the streak, release one replica at a time
        // once the streak covers the down cooldown.
        if (score as f64) < DOWN_HYSTERESIS * 1000.0 {
            self.calm_streak += 1;
            if self.calm_streak >= c.down_cooldown_ticks && current > MIN_REPLICAS {
                self.calm_streak = 0;
                self.decisions += 1;
                return Some(ScaleDecision {
                    tick: obs.tick,
                    from: current,
                    to: current - 1,
                    score_milli: score,
                    reason: "calm",
                });
            }
            return None;
        }

        // In-between pressure: hold steady, break any calm streak.
        self.calm_streak = 0;
        None
    }

    /// Total decisions emitted.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// The config this reconciler runs under.
    pub fn config(&self) -> &AutoscalerConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(tick: u64, replicas: usize, queue: u64, p99_ms: u64, burn: f64) -> FleetObs {
        FleetObs {
            tick,
            ready_replicas: replicas,
            total_replicas: replicas,
            queue_depth: queue,
            p99_us: p99_ms * 1000,
            burn,
        }
    }

    fn scaler() -> Autoscaler {
        Autoscaler::new(AutoscalerConfig {
            max_replicas: 8,
            down_cooldown_ticks: 5,
        })
    }

    #[test]
    fn queue_pressure_scales_up_proportionally() {
        let mut a = scaler();
        // 2 replicas, 40 queued = 20/replica vs target 8 → score 2.5 →
        // ceil(2 * 2.5) = 5 replicas.
        let d = a.decide(&obs(0, 2, 40, 10, 0.0)).expect("scale up");
        assert_eq!((d.from, d.to), (2, 5));
        assert_eq!(d.reason, "queue");
        assert_eq!(d.score_milli, 2500);
    }

    #[test]
    fn up_cooldown_blocks_consecutive_bumps() {
        let mut a = scaler();
        assert!(a.decide(&obs(0, 2, 40, 10, 0.0)).is_some());
        assert!(a.decide(&obs(1, 5, 100, 10, 0.0)).is_none(), "cooldown");
        assert!(a.decide(&obs(2, 5, 100, 10, 0.0)).is_none(), "cooldown");
        assert!(a.decide(&obs(3, 5, 100, 10, 0.0)).is_some(), "released");
    }

    #[test]
    fn latency_and_burn_also_trigger() {
        let mut a = scaler();
        let d = a.decide(&obs(0, 2, 0, 100, 0.0)).expect("latency");
        assert_eq!(d.reason, "latency");
        let mut a = scaler();
        let d = a.decide(&obs(0, 2, 0, 10, 14.4)).expect("burn");
        assert_eq!(d.reason, "burn");
    }

    #[test]
    fn bounds_are_respected() {
        let mut a = scaler();
        // Already at max: pressure is ignored.
        let at_max = FleetObs {
            total_replicas: 8,
            ..obs(0, 8, 1000, 10, 0.0)
        };
        assert!(a.decide(&at_max).is_none());
        // At min: calm ticks release nothing.
        let mut a = scaler();
        for tick in 0..20 {
            assert!(a.decide(&obs(tick, 1, 0, 1, 0.0)).is_none());
        }
    }

    #[test]
    fn scale_down_needs_a_consecutive_calm_streak() {
        let mut a = scaler();
        for tick in 0..4 {
            assert!(a.decide(&obs(tick, 4, 0, 1, 0.0)).is_none());
        }
        // A busy (but not scale-up-worthy) tick resets the streak.
        assert!(a.decide(&obs(4, 4, 26, 1, 0.0)).is_none());
        for tick in 5..9 {
            assert!(a.decide(&obs(tick, 4, 0, 1, 0.0)).is_none());
        }
        let d = a.decide(&obs(9, 4, 0, 1, 0.0)).expect("calm streak");
        assert_eq!((d.from, d.to), (4, 3));
        assert_eq!(d.reason, "calm");
        // The streak restarts after the release: one replica per streak.
        for tick in 10..14 {
            assert!(a.decide(&obs(tick, 3, 0, 1, 0.0)).is_none());
        }
        assert!(a.decide(&obs(14, 3, 0, 1, 0.0)).is_some());
    }

    #[test]
    fn decisions_replay_bit_identically() {
        let run = || {
            let mut a = scaler();
            let mut out = Vec::new();
            for tick in 0..100u64 {
                let queue = (tick * 7) % 60;
                let p99 = 5 + (tick % 11) * 9;
                if let Some(d) = a.decide(&obs(tick, 2 + (tick as usize % 3), queue, p99, 0.0)) {
                    out.push(format!(
                        "{}:{}->{}:{}:{}",
                        d.tick, d.from, d.to, d.score_milli, d.reason
                    ));
                }
            }
            out
        };
        assert_eq!(run(), run());
    }
}
