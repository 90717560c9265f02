//! Criticality-aware adaptive admission control.
//!
//! Overload begins at the front door: every backend owns an
//! [`AdmissionController`], an AIMD concurrency limiter in the spirit
//! of TCP congestion control and Netflix's concurrency-limits. The
//! controller learns the backend's sustainable in-flight window from
//! *measured latency versus a target* — no static capacity number is
//! configured anywhere — and refuses work beyond it before that work
//! can queue and burn everyone else's deadline budget.
//!
//! Two properties distinguish it from a plain semaphore:
//!
//! * **Adaptation.** Completed requests feed their measured latency
//!   back; every `window` samples the controller compares the epoch
//!   mean against [`AdmissionConfig::target`] and either raises the
//!   limit additively or cuts it multiplicatively. Queue-full sheds
//!   reported via [`AdmissionController::on_shed`] cut immediately
//!   (rate-limited to one cut per quarter-window so a burst of sheds
//!   does not collapse the limit to the floor).
//! * **Criticality ordering.** Requests carry an [`Criticality`] class
//!   (the `x-criticality` header). Each class may only occupy a fixed
//!   fraction of the current limit, so as occupancy climbs
//!   the `shed-first` class is refused first, then `normal`, and
//!   `critical` traffic keeps the full window. Shedding is priority-
//!   ordered, never FIFO.
//!
//! Every limit change is appended to the byte-stable
//! [`DecisionJournal`] (actions
//! [`ControlAction::LimitRaise`] / [`ControlAction::LimitCut`], operands
//! = old/new limit in milli-units), and the additive step is jittered
//! by a *seeded* xorshift so fleets do not raise in lockstep while
//! replays stay bit-identical: the controller's entire behaviour is a
//! pure function of the configuration, the seed, and the observation
//! sequence.

use crate::journal::{ControlAction, DecisionJournal};
use std::sync::Mutex;
use std::time::Duration;

/// Request priority class carried end-to-end in the `x-criticality`
/// header. Ordering matters: `ShedFirst < Normal < Critical` is the
/// order in which overload sacrifices traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Criticality {
    /// Speculative / prefetch / retryable traffic: first refused.
    ShedFirst,
    /// Default class for unannotated requests.
    Normal,
    /// Revenue-critical traffic: keeps the full admission window and is
    /// browned out rather than refused for as long as the process lives.
    Critical,
}

impl Criticality {
    /// Header name used on the wire.
    pub const HEADER: &'static str = "x-criticality";

    /// All classes, in shed order.
    pub const ALL: [Criticality; 3] = [
        Criticality::ShedFirst,
        Criticality::Normal,
        Criticality::Critical,
    ];

    /// Stable wire label.
    pub fn name(&self) -> &'static str {
        match self {
            Criticality::ShedFirst => "shed-first",
            Criticality::Normal => "normal",
            Criticality::Critical => "critical",
        }
    }

    /// Parses a wire label; unknown or absent values map to `Normal`
    /// via [`Criticality::from_header`].
    pub fn parse(s: &str) -> Option<Criticality> {
        match s.trim() {
            "shed-first" | "shed_first" | "shedfirst" => Some(Criticality::ShedFirst),
            "normal" => Some(Criticality::Normal),
            "critical" => Some(Criticality::Critical),
            _ => None,
        }
    }

    /// Lenient form for header values: anything unrecognised is
    /// `Normal`, so a missing or garbled header never *raises* priority.
    pub fn from_header(value: Option<&str>) -> Criticality {
        value
            .and_then(Criticality::parse)
            .unwrap_or(Criticality::Normal)
    }

    /// Dense index for per-class counter arrays (shed order).
    pub fn index(&self) -> usize {
        match self {
            Criticality::ShedFirst => 0,
            Criticality::Normal => 1,
            Criticality::Critical => 2,
        }
    }
}

/// Additive raise applied after a good epoch (scaled by seeded jitter
/// in `[0.75, 1.25)`).
const INCREASE: f64 = 1.0;
/// Multiplicative factor applied after a bad epoch or a shed: cuts the
/// window by 30%.
const DECREASE: f64 = 0.7;
/// Per-class admission fraction of the current limit, indexed by
/// [`Criticality::index`]: `shed-first` is refused once occupancy
/// reaches `0.6 * limit`, `normal` at `0.95 * limit`, `critical` at the
/// full limit.
const HEADROOM: [f64; 3] = [0.6, 0.95, 1.0];

/// Tuning for an [`AdmissionController`].
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Floor for the learned limit; the controller never refuses its
    /// way below this many in-flight requests.
    pub min_limit: f64,
    /// Ceiling for the learned limit.
    pub max_limit: f64,
    /// Starting limit before any feedback has arrived.
    pub initial: f64,
    /// Latency target the epoch mean is compared against.
    pub target: Duration,
    /// Samples per adjustment epoch.
    pub window: u32,
    /// Seed for the additive-raise jitter.
    pub seed: u64,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            min_limit: 1.0,
            max_limit: 1024.0,
            initial: 8.0,
            target: Duration::from_millis(50),
            window: 32,
            seed: 0,
        }
    }
}

#[derive(Debug)]
struct AdmissionInner {
    limit: f64,
    in_flight: u32,
    /// Epoch accumulator: latency sum (µs) and sample count.
    epoch_sum_us: u64,
    epoch_n: u32,
    /// Samples observed since the last cut; rate-limits shed cuts.
    since_cut: u32,
    admitted: [u64; 3],
    refused: [u64; 3],
    rng: u64,
    journal: DecisionJournal,
}

/// AIMD adaptive concurrency limiter with criticality-ordered refusal.
/// See the module docs for the control law.
#[derive(Debug)]
pub struct AdmissionController {
    config: AdmissionConfig,
    inner: Mutex<AdmissionInner>,
}

impl AdmissionController {
    /// Builds a controller at `config.initial` with empty counters.
    pub fn new(config: AdmissionConfig) -> AdmissionController {
        let initial = config.initial.clamp(config.min_limit, config.max_limit);
        AdmissionController {
            inner: Mutex::new(AdmissionInner {
                limit: initial,
                in_flight: 0,
                epoch_sum_us: 0,
                epoch_n: 0,
                // A fresh controller may cut on its very first shed.
                since_cut: config.window,
                admitted: [0; 3],
                refused: [0; 3],
                // splitmix64 finalizer: distinct seeds (even adjacent
                // ones) must land in distinct xorshift states.
                rng: splitmix(config.seed) | 1,
                journal: DecisionJournal::new(),
            }),
            config,
        }
    }

    /// Attempts to admit one request of class `crit`. On success the
    /// caller owns one in-flight token and must pair this with exactly
    /// one [`AdmissionController::release`] (served) or
    /// [`AdmissionController::abandon`] (never started).
    pub fn try_acquire(&self, crit: Criticality) -> bool {
        let mut g = self.inner.lock().unwrap();
        let class_limit = g.limit * HEADROOM[crit.index()];
        if (g.in_flight as f64) < class_limit {
            g.in_flight += 1;
            g.admitted[crit.index()] += 1;
            true
        } else {
            g.refused[crit.index()] += 1;
            false
        }
    }

    /// Returns a token without feeding the control loop (the request
    /// was admitted but shed before any work happened).
    pub fn abandon(&self) {
        let mut g = self.inner.lock().unwrap();
        g.in_flight = g.in_flight.saturating_sub(1);
    }

    /// Returns a token and feeds the measured service latency back.
    /// `now` is elapsed (virtual or wall) time since the controller's
    /// epoch, used only to timestamp journal entries.
    pub fn release(&self, now: Duration, latency: Duration) {
        let mut g = self.inner.lock().unwrap();
        g.in_flight = g.in_flight.saturating_sub(1);
        g.epoch_sum_us = g
            .epoch_sum_us
            .saturating_add(latency.as_micros().min(u64::MAX as u128) as u64);
        g.epoch_n += 1;
        g.since_cut = g.since_cut.saturating_add(1);
        if g.epoch_n >= self.config.window {
            self.adjust(&mut g, now);
        }
    }

    /// Reports a queue-full shed downstream of admission: cut the limit
    /// multiplicatively, at most once per quarter-window of samples so
    /// a shed burst does not collapse the window to the floor.
    pub fn on_shed(&self, now: Duration) {
        let mut g = self.inner.lock().unwrap();
        if g.since_cut < (self.config.window / 4).max(1) {
            return;
        }
        self.cut(&mut g, now);
    }

    fn adjust(&self, g: &mut AdmissionInner, now: Duration) {
        let mean_us = g.epoch_sum_us / g.epoch_n.max(1) as u64;
        g.epoch_sum_us = 0;
        g.epoch_n = 0;
        if mean_us as u128 <= self.config.target.as_micros() {
            let old = g.limit;
            // Seeded xorshift64* jitter in [0.75, 1.25): decorrelates a
            // fleet's raises while keeping every replay bit-identical.
            g.rng ^= g.rng << 13;
            g.rng ^= g.rng >> 7;
            g.rng ^= g.rng << 17;
            let unit = (g.rng >> 11) as f64 / (1u64 << 53) as f64;
            let step = INCREASE * (0.75 + 0.5 * unit);
            g.limit = (g.limit + step).min(self.config.max_limit);
            if (g.limit - old).abs() > f64::EPSILON {
                g.journal
                    .push(now, ControlAction::LimitRaise, milli(old), milli(g.limit));
            }
        } else {
            self.cut(g, now);
        }
    }

    fn cut(&self, g: &mut AdmissionInner, now: Duration) {
        let old = g.limit;
        g.limit = (g.limit * DECREASE).max(self.config.min_limit);
        g.since_cut = 0;
        g.epoch_sum_us = 0;
        g.epoch_n = 0;
        if (g.limit - old).abs() > f64::EPSILON {
            g.journal
                .push(now, ControlAction::LimitCut, milli(old), milli(g.limit));
        }
    }

    /// Current learned limit.
    pub fn limit(&self) -> f64 {
        self.inner.lock().unwrap().limit
    }

    /// Current limit in integer milli-units (for gauges and journals).
    pub fn limit_milli(&self) -> u64 {
        milli(self.inner.lock().unwrap().limit).max(0) as u64
    }

    /// Requests currently holding a token.
    pub fn in_flight(&self) -> u32 {
        self.inner.lock().unwrap().in_flight
    }

    /// Admitted count for one class.
    pub fn admitted(&self, crit: Criticality) -> u64 {
        self.inner.lock().unwrap().admitted[crit.index()]
    }

    /// Refused count for one class.
    pub fn refused(&self, crit: Criticality) -> u64 {
        self.inner.lock().unwrap().refused[crit.index()]
    }

    /// Byte-stable rendering of every limit change so far; two runs of
    /// the same seeded observation sequence compare equal.
    pub fn render_journal(&self) -> String {
        self.inner.lock().unwrap().journal.render_json()
    }
}

/// Rounds a limit to integer milli-units for the journal's
/// integers-only format.
fn milli(x: f64) -> i64 {
    (x * 1000.0).round() as i64
}

/// splitmix64's finalizer, used to spread admission seeds.
fn splitmix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(seed: u64) -> AdmissionController {
        AdmissionController::new(AdmissionConfig {
            initial: 4.0,
            window: 8,
            seed,
            ..AdmissionConfig::default()
        })
    }

    #[test]
    fn fast_epochs_raise_the_limit_and_slow_epochs_cut_it() {
        let c = controller(7);
        let start = c.limit();
        for i in 0..32 {
            assert!(c.try_acquire(Criticality::Normal));
            c.release(Duration::from_millis(i), Duration::from_millis(1));
        }
        assert!(c.limit() > start, "fast traffic must widen the window");
        let high = c.limit();
        for i in 0..32 {
            assert!(c.try_acquire(Criticality::Critical));
            c.release(Duration::from_millis(100 + i), Duration::from_millis(500));
        }
        assert!(c.limit() < high, "slow traffic must narrow the window");
        assert!(c.limit() >= 1.0);
    }

    #[test]
    fn criticality_orders_refusal_under_occupancy() {
        let c = AdmissionController::new(AdmissionConfig {
            initial: 20.0,
            ..AdmissionConfig::default()
        });
        // Fill to 60% of the limit: shed-first is now refused while
        // normal and critical still get in.
        for _ in 0..12 {
            assert!(c.try_acquire(Criticality::Critical));
        }
        assert!(!c.try_acquire(Criticality::ShedFirst));
        assert!(c.try_acquire(Criticality::Normal)); // 13 in flight
        while c.in_flight() < 19 {
            assert!(c.try_acquire(Criticality::Critical));
        }
        // At 95% occupancy normal is refused, critical still admitted.
        assert!(!c.try_acquire(Criticality::Normal));
        assert!(c.try_acquire(Criticality::Critical)); // 20 = limit
                                                       // At the full limit even critical is refused.
        assert!(!c.try_acquire(Criticality::Critical));
        assert_eq!(c.refused(Criticality::ShedFirst), 1);
        assert_eq!(c.refused(Criticality::Normal), 1);
        assert_eq!(c.refused(Criticality::Critical), 1);
    }

    #[test]
    fn shed_cuts_are_rate_limited() {
        let c = controller(3);
        let before = c.limit();
        // The very first shed is allowed to cut…
        for _ in 0..10 {
            c.on_shed(Duration::from_millis(1));
        }
        // …but repeated sheds with no intervening samples cut only once.
        assert!((c.limit() - before * 0.7).abs() < 1e-9);
        assert_eq!(c.render_journal().matches("\"at_ms\"").count(), 1);
    }

    #[test]
    fn same_seed_replays_the_same_journal() {
        let run = |seed: u64| {
            let c = controller(seed);
            for i in 0..200u64 {
                let crit = Criticality::ALL[(i % 3) as usize];
                if c.try_acquire(crit) {
                    let lat = if (i / 40) % 2 == 0 { 1 } else { 400 };
                    c.release(Duration::from_millis(i), Duration::from_millis(lat));
                }
                if i % 37 == 0 {
                    c.on_shed(Duration::from_millis(i));
                }
            }
            c.render_journal()
        };
        assert_eq!(run(42), run(42), "fixed seed must replay bit-identically");
        assert_ne!(run(42), run(43), "seed must actually steer the jitter");
        assert!(run(42).contains("limit-cut"));
    }

    #[test]
    fn header_parsing_defaults_to_normal() {
        assert_eq!(
            Criticality::from_header(Some("shed-first")),
            Criticality::ShedFirst
        );
        assert_eq!(
            Criticality::from_header(Some("critical")),
            Criticality::Critical
        );
        assert_eq!(Criticality::from_header(Some("bogus")), Criticality::Normal);
        assert_eq!(Criticality::from_header(None), Criticality::Normal);
        for c in Criticality::ALL {
            assert_eq!(Criticality::parse(c.name()), Some(c));
        }
        assert!(Criticality::ShedFirst < Criticality::Normal);
        assert!(Criticality::Normal < Criticality::Critical);
    }
}
