//! Run the inference server as a long-lived process for manual poking.
//!
//! ```text
//! cargo run --release --example serve_forever [catalog_size]
//! ```
//!
//! Starts the real HTTP inference server with a JIT-compiled CORE model
//! and prints the bound address; it then serves until the process is
//! killed. Useful for driving the API by hand:
//!
//! ```text
//! curl http://127.0.0.1:<port>/ping
//! curl -d '1,2,3' http://127.0.0.1:<port>/predictions
//! curl http://127.0.0.1:<port>/stats      # per-stage latency breakdown (JSON)
//! curl http://127.0.0.1:<port>/metrics    # Prometheus text format
//! ```

use etude::models::{ModelConfig, ModelKind, SbrModel};
use etude::serve::reactor::{start, ReactorConfig};
use etude::serve::rustserver::model_routes;
use etude::tensor::Device;
use std::sync::Arc;

fn main() {
    let catalog: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000);
    let cfg = ModelConfig::new(catalog)
        .with_max_session_len(30)
        .with_seed(1);
    let model: Arc<dyn SbrModel> = Arc::from(ModelKind::Core.build(&cfg));
    let handler = model_routes(model, Device::cpu(), true);
    let server = start(ReactorConfig::default(), handler).expect("server starts");
    println!(
        "serving {} items on http://{} (GET /ping, /static, /stats, /metrics; POST /predictions)",
        catalog,
        server.addr()
    );
    println!("press Ctrl-C to stop");
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
