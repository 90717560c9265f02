//! Pod lifecycle with readiness probes.
//!
//! The paper's runner "deploys the model onto a dedicated machine in
//! Kubernetes. Once the model deployment is finished (determined via
//! Kubernetes's readiness probes), a ClusterIP service interface is
//! deployed". A [`Pod`] models that: it spends a startup period
//! downloading the serialised model from the storage bucket and loading
//! it onto the device, then flips to `Ready`; its readiness probe
//! reports the phase, and traffic before readiness is refused.

use etude_faults::{FaultInjector, FaultKind};
use etude_metrics::hdr::Histogram;
use etude_serve::simserver::{RespondFn, ServeError, SimService};
use etude_simnet::{shared, Shared, Sim, SimTime};
use std::rc::Rc;
use std::time::Duration;

/// Kubernetes-style pod phases (the subset the runner observes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PodPhase {
    /// Container starting: model downloading/loading.
    Starting,
    /// Readiness probe passing; traffic may be routed here.
    Ready,
    /// Crashed (fault injection): down until the crash window ends,
    /// then restarts through `Starting` again.
    Crashed,
    /// Being replaced: readiness fails (no new connections) but
    /// requests already accepted run to completion.
    Draining,
    /// Torn down; the pod never serves again.
    Terminated,
}

struct PodState {
    phase: PodPhase,
    refused: u64,
    served: u64,
    in_flight: u64,
    latency: Histogram,
}

/// A pod wrapping an inference server with startup/readiness semantics.
pub struct Pod {
    id: u32,
    state: Shared<PodState>,
    server: Rc<dyn SimService>,
    startup: Duration,
    model_bytes: u64,
}

/// One pod's load counters, as the fleet view reports them: how much
/// traffic the replica absorbed and how its pod-local service time
/// (queueing + compute, network excluded) distributed. Mirrors what a
/// live pod's `/stats` endpoint exposes, so per-replica skew is
/// observable in simulated deployments too.
#[derive(Debug, Clone)]
pub struct PodLoadStats {
    /// Replica index within the deployment.
    pub id: u32,
    /// Requests served successfully.
    pub served: u64,
    /// Requests refused while not ready.
    pub refused: u64,
    /// Pod-local service time distribution in microseconds.
    pub latency: Histogram,
}

/// Bandwidth of pulling a serialised model from the storage bucket
/// (intra-region GCS-to-GCE, ~250 MB/s sustained).
const DOWNLOAD_BANDWIDTH: f64 = 2.5e8;

/// Fixed container + runtime initialisation time.
const BASE_STARTUP: Duration = Duration::from_secs(8);

impl Pod {
    /// Creates a pod around a server, carrying its replica index so
    /// fleet views can attribute load to the right backend;
    /// `model_bytes` drives the download/load portion of startup time.
    pub fn new(server: Rc<dyn SimService>, model_bytes: u64, id: u32) -> Rc<Pod> {
        let download = Duration::from_secs_f64(model_bytes as f64 / DOWNLOAD_BANDWIDTH);
        Rc::new(Pod {
            id,
            state: shared(PodState {
                phase: PodPhase::Starting,
                refused: 0,
                served: 0,
                in_flight: 0,
                latency: Histogram::new(),
            }),
            server,
            startup: BASE_STARTUP + download,
            model_bytes,
        })
    }

    /// The pod's replica index.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Bytes of model weights resident on this pod. Replicated pods
    /// report the full table; shard-group pods report only their slice.
    pub fn model_bytes(&self) -> u64 {
        self.model_bytes
    }

    /// Schedules the startup sequence; the pod becomes ready after its
    /// startup time (unless a crash intervened — a crashed pod only
    /// comes back through its own restart sequence).
    pub fn start(self: &Rc<Self>, sim: &mut Sim) -> SimTime {
        let ready_at = sim.now().after(self.startup);
        let state = Rc::clone(&self.state_rc());
        sim.schedule_at(ready_at, move |_| {
            let mut s = state.borrow_mut();
            if s.phase == PodPhase::Starting {
                s.phase = PodPhase::Ready;
            }
        });
        ready_at
    }

    /// Schedules every [`FaultKind::Crash`] window of the injector's
    /// plan onto this pod: the pod drops to `Crashed` at the window
    /// start (refusing traffic) and begins a *full* restart — container
    /// startup plus model download, gated by the readiness probe — when
    /// the window ends. Plan times are relative to virtual time zero.
    pub fn schedule_crashes(self: &Rc<Self>, sim: &mut Sim, injector: &FaultInjector) {
        let crashes: Vec<(Duration, Duration)> = injector
            .plan()
            .windows
            .iter()
            .filter(|w| matches!(w.kind, FaultKind::Crash))
            .map(|w| (w.from, w.until))
            .collect();
        for (from, until) in crashes {
            let state = self.state_rc();
            let inj = injector.clone();
            sim.schedule_at(SimTime::ZERO.after(from), move |_| {
                let mut s = state.borrow_mut();
                if s.phase != PodPhase::Crashed {
                    inj.note_crash();
                }
                s.phase = PodPhase::Crashed;
            });
            let state = self.state_rc();
            let startup = self.startup;
            sim.schedule_at(SimTime::ZERO.after(until), move |sim| {
                state.borrow_mut().phase = PodPhase::Starting;
                let state = Rc::clone(&state);
                sim.schedule_in(startup, move |_| {
                    let mut s = state.borrow_mut();
                    if s.phase == PodPhase::Starting {
                        s.phase = PodPhase::Ready;
                    }
                });
            });
        }
    }

    fn state_rc(&self) -> Shared<PodState> {
        Rc::clone(&self.state)
    }

    /// The readiness probe.
    pub fn phase(&self) -> PodPhase {
        self.state.borrow().phase
    }

    /// Whether the probe passes.
    pub fn is_ready(&self) -> bool {
        self.phase() == PodPhase::Ready
    }

    /// Total startup duration (base + model download).
    pub fn startup_duration(&self) -> Duration {
        self.startup
    }

    /// Flips the pod to `Draining`: the readiness probe starts failing
    /// (the service routes nothing new here) while accepted requests
    /// run to completion. Only a live pod drains; a crashed or already
    /// terminated one has nothing to finish.
    pub fn begin_drain(&self) {
        let mut s = self.state.borrow_mut();
        if matches!(s.phase, PodPhase::Ready | PodPhase::Starting) {
            s.phase = PodPhase::Draining;
        }
    }

    /// Tears the pod down for good.
    pub fn terminate(&self) {
        self.state.borrow_mut().phase = PodPhase::Terminated;
    }

    /// Requests accepted but not yet answered.
    pub fn in_flight(&self) -> u64 {
        self.state.borrow().in_flight
    }

    /// Whether the pod has finished draining: no request it accepted is
    /// still running. (Trivially true for pods that never drained.)
    pub fn is_drained(&self) -> bool {
        let s = self.state.borrow();
        s.phase == PodPhase::Draining && s.in_flight == 0
    }

    /// Requests refused because the pod was not ready.
    pub fn refused(&self) -> u64 {
        self.state.borrow().refused
    }

    /// Requests served successfully.
    pub fn served(&self) -> u64 {
        self.state.borrow().served
    }

    /// A snapshot of the pod's load counters.
    pub fn load_stats(&self) -> PodLoadStats {
        let s = self.state.borrow();
        PodLoadStats {
            id: self.id,
            served: s.served,
            refused: s.refused,
            latency: s.latency.clone(),
        }
    }
}

impl SimService for Pod {
    fn submit(self: Rc<Self>, sim: &mut Sim, respond: RespondFn) {
        if !self.is_ready() {
            self.state.borrow_mut().refused += 1;
            respond(sim, Err(ServeError::Overloaded));
            return;
        }
        // Wrap the continuation so the pod observes its own service
        // time: submit to respond is queueing plus compute on this
        // replica (the wire is the caller's problem).
        let state = self.state_rc();
        let submitted = sim.now();
        state.borrow_mut().in_flight += 1;
        let wrapped: RespondFn = Box::new(move |s, result| {
            {
                let mut st = state.borrow_mut();
                st.in_flight -= 1;
                if result.is_ok() {
                    st.served += 1;
                    st.latency
                        .record(s.now().since(submitted).as_micros() as u64);
                }
            }
            respond(s, result);
        });
        Rc::clone(&self.server).submit(sim, wrapped);
    }

    fn queue_depth(&self) -> usize {
        self.server.queue_depth()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etude_serve::simserver::{RustServerConfig, SimRustServer};
    use etude_serve::ServiceProfile;
    use etude_tensor::Device;

    fn pod_with_bytes(bytes: u64) -> Rc<Pod> {
        let server = SimRustServer::new(
            ServiceProfile::static_response(&Device::cpu()),
            RustServerConfig::cpu(1),
        );
        Pod::new(server, bytes, 0)
    }

    #[test]
    fn pod_becomes_ready_after_startup() {
        let mut sim = Sim::new();
        let pod = pod_with_bytes(0);
        pod.start(&mut sim);
        assert!(!pod.is_ready());
        sim.run_until(SimTime::ZERO.after(Duration::from_secs(7)));
        assert!(!pod.is_ready());
        sim.run_until(SimTime::ZERO.after(Duration::from_secs(9)));
        assert!(pod.is_ready());
    }

    #[test]
    fn larger_models_start_slower() {
        // 2.28 GB (the 10M-item table) takes ~9 s to pull at 250 MB/s.
        let small = pod_with_bytes(0);
        let large = pod_with_bytes(2_280_000_000);
        assert!(large.startup_duration() > small.startup_duration() + Duration::from_secs(8));
    }

    #[test]
    fn traffic_before_readiness_is_refused() {
        let mut sim = Sim::new();
        let pod = pod_with_bytes(0);
        pod.start(&mut sim);
        let outcome = etude_simnet::shared(None);
        let o = Rc::clone(&outcome);
        Rc::clone(&pod).submit(
            &mut sim,
            Box::new(move |_, result| {
                *o.borrow_mut() = Some(result.is_err());
            }),
        );
        sim.run_to_completion();
        assert_eq!(*outcome.borrow(), Some(true));
        assert_eq!(pod.refused(), 1);
    }

    #[test]
    fn crash_windows_take_the_pod_down_and_restart_it() {
        use etude_faults::FaultPlan;

        let mut sim = Sim::new();
        let pod = pod_with_bytes(0); // 8 s startup
        pod.start(&mut sim);
        // Crash from t=20s to t=25s; the pod restarts at 25s and needs
        // its full 8 s startup again, so readiness returns at 33s.
        let injector = FaultInjector::new(FaultPlan::seeded(1).with_window(
            Duration::from_secs(20),
            Duration::from_secs(25),
            FaultKind::Crash,
        ));
        pod.schedule_crashes(&mut sim, &injector);
        let at = |s: u64| SimTime::ZERO.after(Duration::from_secs(s));
        sim.run_until(at(10));
        assert_eq!(pod.phase(), PodPhase::Ready, "up before the crash");
        sim.run_until(at(21));
        assert_eq!(pod.phase(), PodPhase::Crashed, "down inside the window");
        sim.run_until(at(26));
        assert_eq!(pod.phase(), PodPhase::Starting, "restarting after it");
        sim.run_until(at(34));
        assert_eq!(pod.phase(), PodPhase::Ready, "restart completed");
        assert_eq!(injector.counters().crashes(), 1);
    }

    #[test]
    fn crashed_pods_refuse_traffic() {
        use etude_faults::FaultPlan;

        let mut sim = Sim::new();
        let pod = pod_with_bytes(0);
        pod.start(&mut sim);
        let injector = FaultInjector::new(FaultPlan::seeded(2).with_window(
            Duration::from_secs(15),
            Duration::from_secs(60),
            FaultKind::Crash,
        ));
        pod.schedule_crashes(&mut sim, &injector);
        let outcome = etude_simnet::shared(None);
        let o = Rc::clone(&outcome);
        let pod2 = Rc::clone(&pod);
        sim.schedule_in(Duration::from_secs(20), move |s| {
            pod2.submit(
                s,
                Box::new(move |_, result| {
                    *o.borrow_mut() = Some(result.is_err());
                }),
            );
        });
        sim.run_until(SimTime::ZERO.after(Duration::from_secs(30)));
        assert_eq!(*outcome.borrow(), Some(true), "crashed pod refused");
        assert_eq!(pod.refused(), 1);
    }

    #[test]
    fn draining_pods_refuse_new_traffic_but_finish_accepted_work() {
        let mut sim = Sim::new();
        let pod = pod_with_bytes(0);
        pod.start(&mut sim);
        sim.run_until(SimTime::ZERO.after(Duration::from_secs(10)));
        assert!(pod.is_ready());

        // Accept one request, then drain before it completes.
        let outcome = etude_simnet::shared(None);
        let o = Rc::clone(&outcome);
        Rc::clone(&pod).submit(
            &mut sim,
            Box::new(move |_, result| {
                *o.borrow_mut() = Some(result.is_ok());
            }),
        );
        assert_eq!(pod.in_flight(), 1);
        pod.begin_drain();
        assert_eq!(pod.phase(), PodPhase::Draining);
        assert!(!pod.is_ready(), "readiness fails while draining");
        assert!(!pod.is_drained(), "one request still running");

        // New traffic is refused while the accepted request completes.
        let refused = etude_simnet::shared(None);
        let r = Rc::clone(&refused);
        Rc::clone(&pod).submit(
            &mut sim,
            Box::new(move |_, result| {
                *r.borrow_mut() = Some(result.is_err());
            }),
        );
        sim.run_to_completion();
        assert_eq!(*outcome.borrow(), Some(true), "in-flight work finished");
        assert_eq!(*refused.borrow(), Some(true), "new work refused");
        assert!(pod.is_drained());

        pod.terminate();
        assert_eq!(pod.phase(), PodPhase::Terminated);
    }

    #[test]
    fn terminated_pods_never_come_back() {
        let mut sim = Sim::new();
        let pod = pod_with_bytes(0);
        pod.start(&mut sim);
        pod.terminate();
        sim.run_to_completion();
        assert_eq!(
            pod.phase(),
            PodPhase::Terminated,
            "startup completion must not resurrect a terminated pod"
        );
    }

    #[test]
    fn traffic_after_readiness_is_served() {
        let mut sim = Sim::new();
        let pod = pod_with_bytes(0);
        pod.start(&mut sim);
        let outcome = etude_simnet::shared(None);
        let o = Rc::clone(&outcome);
        let pod2 = Rc::clone(&pod);
        sim.schedule_in(Duration::from_secs(10), move |s| {
            pod2.submit(
                s,
                Box::new(move |_, result| {
                    *o.borrow_mut() = Some(result.is_ok());
                }),
            );
        });
        sim.run_to_completion();
        assert_eq!(*outcome.borrow(), Some(true));
        assert_eq!(pod.refused(), 0);
    }
}
