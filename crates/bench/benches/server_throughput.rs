//! Real HTTP server throughput: requests/second through the actual
//! `std::net` reactor (and, for predictions, the continuous batcher)
//! with keep-alive clients — the live counterpart of the Figure 2
//! Rust-server result.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use etude_serve::client::HttpClient;
use etude_serve::http::{Method, Request, Response};
use etude_serve::reactor::{start, ReactorConfig};
use etude_serve::rustserver::Handler;
use std::sync::Arc;

fn static_handler() -> Handler {
    Arc::new(|req: &Request| {
        if req.method == Method::Get && req.path == "/static" {
            Response::ok("ok")
        } else {
            Response::error(404, "nope")
        }
    })
}

fn bench_static_requests(c: &mut Criterion) {
    let server = start(ReactorConfig::default(), static_handler()).expect("server");
    let mut client = HttpClient::connect(server.addr()).expect("client");
    let req = Request::get("/static");

    let mut group = c.benchmark_group("real_http");
    group.throughput(Throughput::Elements(1));
    group.bench_function("static_roundtrip", |b| {
        b.iter(|| {
            let resp = client.request(&req).expect("response");
            criterion::black_box(resp.status)
        });
    });
    group.finish();
    drop(client);
    server.shutdown();
}

fn bench_model_requests(c: &mut Criterion) {
    use etude_models::{ModelConfig, ModelKind, SbrModel};
    use etude_serve::{model_routes_continuous, ContinuousConfig};
    use etude_tensor::Device;

    let cfg = ModelConfig::new(10_000)
        .with_max_session_len(20)
        .with_seed(1);
    let model: Arc<dyn SbrModel> = Arc::from(ModelKind::Core.build(&cfg));
    let handler = model_routes_continuous(
        model,
        Device::cpu(),
        true,
        ContinuousConfig::default(),
        Arc::new(etude_obs::Recorder::new()),
        None,
    );
    let server = start(ReactorConfig::default(), handler).expect("server");
    let mut client = HttpClient::connect(server.addr()).expect("client");
    let req = Request::post("/predictions", "1,2,3,4");

    let mut group = c.benchmark_group("real_http");
    group.sample_size(20);
    group.throughput(Throughput::Elements(1));
    group.bench_function("model_inference_roundtrip_c10k", |b| {
        b.iter(|| {
            let resp = client.request(&req).expect("response");
            criterion::black_box(resp.status)
        });
    });
    group.finish();
    drop(client);
    server.shutdown();
}

criterion_group!(benches, bench_static_requests, bench_model_requests);
criterion_main!(benches);
