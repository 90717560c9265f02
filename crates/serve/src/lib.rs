//! # etude-serve
//!
//! Inference serving for ETUDE. The paper's central systems finding is
//! that the *serving layer* dominates feasibility: the open-source
//! TorchServe server fails at 1,000 req/s even for empty responses, while
//! a light-weight Rust server (Actix + tch-rs + request batching) serves
//! the same load at ~1 ms p90 (Figure 2).
//!
//! This crate contains both sides of that comparison:
//!
//! * [`http`] — a from-scratch HTTP/1.1 parser/writer,
//! * [`reactor`] — the real HTTP inference server on `std::net` (the
//!   reproduction of the paper's Actix server), usable over real
//!   sockets in integration tests and examples: a portable poller
//!   trait, single-digit event-loop threads, per-connection state
//!   machines, and a dispatch pool — tens of thousands of open
//!   keep-alive connections without a thread per connection,
//! * [`rustserver`] — the route tables it serves, and the one
//!   `POST /predictions` pipeline (parse → deadline → execute →
//!   serialize → record, or refuse) every tier below plugs its
//!   executor into,
//! * [`client`] — a blocking keep-alive HTTP client for the load
//!   generator's real-time mode,
//! * [`contbatch`] — continuous batching: a request admits the moment
//!   an inference slot frees, together with its share of what is already
//!   queued (one catalog scan for the lot), with deadline-aware
//!   admission (blown budgets shed before compute, per member),
//! * [`overload`] — criticality-aware overload control: an AIMD
//!   admission limiter in front of a two-rung brownout ladder (exact →
//!   popularity fallback), so flash crowds degrade quality before
//!   dropping traffic,
//! * [`router`] — the scatter/gather tier for partitioned catalogs:
//!   shard-backend routes over a catalog slice, and the router that
//!   fans out, merges partial top-k bit-identically, and degrades
//!   gracefully on shard-group loss,
//! * [`service`] — [`service::ServiceProfile`], the bridge between model
//!   costs and service times,
//! * [`simserver`] — both sides of the comparison as queueing models
//!   under the [`etude_simnet`] virtual clock: [`simserver::SimRustServer`]
//!   (including the paper's 1,024 / 2 ms `batched-fn` window for GPU
//!   deployments) and [`simserver::SimTorchServe`] (frontend dispatch,
//!   Python worker overhead, GIL-style serialisation, 100 ms internal
//!   timeout).

pub mod client;
pub mod contbatch;
pub mod http;
pub mod overload;
pub mod reactor;
pub mod router;
pub mod rustserver;
pub mod service;
pub mod simserver;

pub use client::{ClientError, HttpClient, ResilientClient, ResilientResponse};
pub use contbatch::{
    model_routes_continuous, ContinuousBatcher, ContinuousConfig, DEADLINE_HEADER,
};
pub use overload::{
    overload_routes_with_state, BrownoutLevel, LadderConfig, OverloadConfig, OverloadState,
    BROWNOUT_HEADER,
};
pub use reactor::{new_poller, raise_nofile_limit, Interest, Poller, ReactorConfig};
pub use router::{
    router_routes, shard_backend_routes, RouterConfig, ShardGroupSpec, ShardTopology,
};
pub use rustserver::{inject_faults, DegradationPolicy, DEGRADED_HEADER, RESET_MARKER};
pub use service::{ServiceProfile, TorchServeProfile};
pub use simserver::{RespondFn, ServeError, SimService};
