//! # etude-faults
//!
//! Seedable, deterministic fault injection for the ETUDE serving stack.
//!
//! The paper's latency/throughput envelopes only mean something under
//! realistic operating conditions — overload, failures, retries — yet a
//! happy-path benchmark never exercises them. This crate is the shared
//! substrate the rest of the workspace injects chaos through:
//!
//! * [`plan`] — [`plan::FaultPlan`], a declarative, scenario-level fault
//!   schedule (latency spikes, drops, partitions, server slow-downs,
//!   injected error responses, mid-response connection resets, pod
//!   crashes) with a JSON wire format so benches can replay identical
//!   chaos runs,
//! * [`injector`] — [`injector::FaultInjector`], the runtime evaluator:
//!   every probabilistic draw is a pure function of the plan seed and
//!   the request correlation id, so two runs of the same seeded schedule
//!   make bit-identical decisions regardless of thread interleaving,
//! * [`backoff`] — [`backoff::RetryPolicy`] and [`backoff::Backoff`],
//!   bounded exponential backoff with jitter drawn from a seeded RNG,
//! * [`deadline`] — [`deadline::Deadline`], the single budget helper
//!   behind every retry loop and `recv_timeout` wait in the workspace
//!   (expiry exactly *at* the boundary, saturating remainders).
//!
//! Everything here is deterministic given a seed; the chaos/regression
//! test suites lean on that to assert bit-for-bit reproducibility.

pub mod backoff;
pub mod deadline;
pub mod injector;
pub mod plan;

pub use backoff::{Backoff, RetryPolicy};
pub use deadline::Deadline;
pub use injector::{FaultCounters, FaultInjector};
pub use plan::{FaultKind, FaultPlan, FaultWindow};
