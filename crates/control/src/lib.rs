//! # etude-control
//!
//! The self-healing control plane of the ETUDE reproduction. PR 3 gave
//! the system deterministic chaos (seeded fault windows) and PR 4 gave
//! it fleet-wide observability (windowed snapshots, SLO burn rates);
//! this crate closes the loop: the same signals now *drive reactions*
//! instead of merely being reported.
//!
//! Four mechanisms, all deterministic (every time-dependent decision is
//! a pure function of explicit `now` values and a seed, so chaos runs
//! replay bit-identically):
//!
//! * [`admission`] — an AIMD adaptive concurrency limiter with
//!   criticality-ordered refusal (`x-criticality`): the front door of
//!   the overload-control subsystem, learning each backend's
//!   sustainable window from measured latency versus a target,
//! * [`breaker`] — a per-backend closed/open/half-open circuit breaker
//!   keyed off consecutive failures and server-suggested `Retry-After`
//!   pauses; the resilient client consults it before dialling a backend,
//! * [`health`] — passive outlier detection plus active-probe feedback
//!   for the load-balancing service: persistent failers are ejected from
//!   rotation under a minimum-healthy floor and re-admitted after seeded
//!   exponential probation,
//! * [`autoscaler`] — an HPA-style reconciler mapping windowed fleet
//!   observations (queue depth, p99, burn rate) to replica counts within
//!   min/max bounds, with cooldown and hysteresis so trajectories do not
//!   flap,
//! * [`journal`] — the byte-stable decision journal every mechanism
//!   writes into; replaying a seeded run must reproduce the journal
//!   byte-for-byte, which the autoscaler and overload replay tests
//!   assert.

pub mod admission;
pub mod autoscaler;
pub mod breaker;
pub mod health;
pub mod journal;

pub use admission::{AdmissionConfig, AdmissionController, Criticality};
pub use autoscaler::{Autoscaler, AutoscalerConfig, FleetObs, ScaleDecision};
pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use health::{EjectionConfig, HealthEvent, OutlierDetector};
pub use journal::{ControlAction, DecisionJournal, JournalEntry};
