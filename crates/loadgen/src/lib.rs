//! # etude-loadgen
//!
//! The backpressure-aware load generator of the ETUDE paper (Section II,
//! Algorithm 2). It ramps the request rate up to a target throughput `r`
//! over a duration `d`, operating in one-second ticks:
//!
//! * the per-tick rate `r_c` grows proportionally with elapsed time
//!   ([`rampup::timeprop_rampup`]),
//! * requests within a tick are spread evenly (`wait d_t / (r_c - i)`),
//! * an atomic counter of *pending* requests implements backpressure:
//!   when `p >= r_c` the generator pauses instead of piling more load
//!   onto a collapsing server, so experiments degrade gracefully and the
//!   failure threshold of a model is measurable,
//! * session order is preserved: the next click of a session is only sent
//!   once the response to the previous one has arrived.
//!
//! Two drivers share this logic: [`simdriver::SimLoadGen`] runs against
//! the queueing servers of [`etude_serve::simserver`] under virtual time
//! (used for every figure reproduction), and [`driver::RealLoadGen`]
//! fires real HTTP requests at a live [`etude_serve::reactor`] server (used
//! in integration tests and examples).

pub mod driver;
pub mod rampup;
pub mod sessions;
pub mod simdriver;

pub use driver::RealLoadGen;
pub use rampup::timeprop_rampup;
pub use sessions::SessionReplayer;
pub use simdriver::{LoadConfig, LoadTestResult, SimLoadGen};
