//! # etude-core
//!
//! The ETUDE benchmarking framework itself: "an end-to-end benchmarking
//! framework, which enables data scientists to automatically evaluate the
//! inference performance of SBR models under different deployment
//! options" (ICDE 2024).
//!
//! A user declares *what* to evaluate — models, catalog statistics,
//! hardware, latency/throughput constraints — through an
//! [`spec::ExperimentSpec`]; the [`runner`] then:
//!
//! 1. builds the model and its [`etude_serve::ServiceProfile`] for the
//!    chosen device and execution mode (eager / JIT),
//! 2. deploys it as replicated pods behind a ClusterIP service in the
//!    simulated cluster ([`etude_cluster`]), waiting for readiness
//!    probes,
//! 3. generates a synthetic click workload from the declared marginal
//!    statistics (Algorithm 1, [`etude_workload`]),
//! 4. drives the deployment with the backpressure-aware load generator
//!    (Algorithm 2, [`etude_loadgen`]) ramping to the target throughput,
//! 5. reports latency quantiles, errors and achieved throughput
//!    ([`results::ExperimentResult`]).
//!
//! [`analysis`] layers the paper's decision procedure on top: feasibility
//! at the 50 ms p90 SLO and the cheapest deployment per scenario
//! (Table I). [`scenario`] ships the five e-Commerce use cases of the
//! paper's evaluation.

pub mod analysis;
pub mod planner;
pub mod results;
pub mod runner;
pub mod scenario;
pub mod spec;

pub use analysis::{cheapest_deployment, estimate_capacity, FeasibilityVerdict};
pub use planner::{plan_deployment, DeploymentPlan};
pub use results::ExperimentResult;
pub use runner::{run_experiment, run_serial_microbenchmark, SerialBreakdown, SerialResult};
pub use scenario::Scenario;
pub use spec::{ExecutionMode, ExperimentSpec};
