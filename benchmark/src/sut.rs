//! The system under test, fixed in this one file: the production-shaped
//! path only — the epoll reactor in front of the continuous batcher, on
//! loopback, in the benchmark's own process. The blocking server, the fixed
//! batcher, the overload ladder, the router tier and the simulated tiers
//! are out of scope (see README.md).

use crate::spec::{Workload, MODEL_SEED, TOP_K};
use etude_models::{ModelConfig, SbrModel};
use etude_obs::Recorder;
use etude_serve::reactor::{self, ReactorConfig};
use etude_serve::rustserver::{Handler, ServerHandle};
use etude_serve::{model_routes_continuous, ContinuousConfig};
use etude_tensor::Device;
use std::sync::Arc;
use std::time::Duration;

pub const REACTOR: ReactorConfig = ReactorConfig {
    event_loops: 1,
    dispatch_threads: 8,
    max_inflight_per_conn: 256,
};

pub fn batcher_config() -> ContinuousConfig {
    ContinuousConfig {
        slots: 2,
        max_queue: 4096,
        default_deadline: Duration::from_secs(2),
    }
}

pub fn model_config(w: &Workload) -> ModelConfig {
    ModelConfig::new(w.catalog)
        .with_max_session_len(w.session_len)
        .with_top_k(TOP_K)
        .with_seed(MODEL_SEED)
}

pub fn build_model(w: &Workload) -> Arc<dyn SbrModel> {
    Arc::from(w.model.build(&model_config(w)))
}

/// A running server and the recorder its `/stats` route renders.
pub struct Server {
    pub handle: ServerHandle,
    pub recorder: Arc<Recorder>,
}

/// JIT-compiles `model`, puts the continuous batcher's routes behind
/// `wrap` (identity for every timed phase) and starts the reactor.
pub fn serve(
    model: Arc<dyn SbrModel>,
    wrap: impl FnOnce(Handler) -> Handler,
) -> std::io::Result<Server> {
    let recorder = Arc::new(Recorder::new());
    let routes = model_routes_continuous(
        model,
        Device::cpu(),
        true,
        batcher_config(),
        Arc::clone(&recorder),
        None,
    );
    let handle = reactor::start_observed(REACTOR, wrap(routes), Arc::clone(&recorder))?;
    Ok(Server { handle, recorder })
}
