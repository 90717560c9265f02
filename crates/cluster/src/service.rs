//! The ClusterIP service: round-robin routing over ready backends, with
//! optional outlier ejection.
//!
//! Kubernetes's ClusterIP + kube-proxy distributes connections across the
//! pods backing a service. For the paper's workload (many short requests
//! from one load generator) round-robin per request is the effective
//! behaviour, and it is what makes the "scale out with N cheaper
//! machines" rows of Table I work.
//!
//! With [`ClusterIpService::with_ejection`] the service also runs the
//! control plane's health loop: every routed request's outcome (and
//! every periodic readiness probe, see
//! [`ClusterIpService::schedule_probes`]) feeds an [`OutlierDetector`];
//! a persistently failing backend is ejected from rotation — never below
//! the minimum-healthy floor — and re-admitted after seeded exponential
//! probation. Ejections and re-admissions land in the shared
//! [`DecisionJournal`] so chaos replays can be compared byte-for-byte.

use crate::pod::{Pod, PodLoadStats};
use etude_control::{ControlAction, DecisionJournal, EjectionConfig, HealthEvent, OutlierDetector};
use etude_serve::simserver::{RespondFn, ServeError, SimService};
use etude_simnet::{shared, Shared, Sim, SimTime};
use std::rc::Rc;
use std::time::Duration;

/// A round-robin service over a (mutable) set of pods.
pub struct ClusterIpService {
    pods: Shared<Vec<Rc<Pod>>>,
    next: Shared<usize>,
    outlier: Option<Shared<OutlierDetector>>,
    journal: Shared<DecisionJournal>,
}

impl ClusterIpService {
    /// Creates a service over the given backends (no ejection).
    pub fn new(pods: Vec<Rc<Pod>>) -> Rc<ClusterIpService> {
        Rc::new(ClusterIpService {
            pods: shared(pods),
            next: shared(0),
            outlier: None,
            journal: shared(DecisionJournal::new()),
        })
    }

    /// Creates a service with passive outlier detection: request
    /// outcomes feed the detector, ejected backends leave rotation
    /// until probation ends. Decisions are appended to `journal`.
    pub fn with_ejection(
        pods: Vec<Rc<Pod>>,
        config: EjectionConfig,
        journal: Shared<DecisionJournal>,
    ) -> Rc<ClusterIpService> {
        let detector = OutlierDetector::new(pods.len(), config);
        Rc::new(ClusterIpService {
            pods: shared(pods),
            next: shared(0),
            outlier: Some(shared(detector)),
            journal,
        })
    }

    /// Number of backends (ready or not).
    pub fn backends(&self) -> usize {
        self.pods.borrow().len()
    }

    /// Number of currently ready backends.
    pub fn ready_backends(&self) -> usize {
        self.pods.borrow().iter().filter(|p| p.is_ready()).count()
    }

    /// Whether every backend's readiness probe passes — the condition the
    /// experiment runner waits for before starting the load generator.
    pub fn all_ready(&self) -> bool {
        self.pods.borrow().iter().all(|p| p.is_ready())
    }

    /// Summed queue depth across the backends — what the autoscaler
    /// reads as its capacity signal.
    pub fn queue_depth(&self) -> usize {
        self.pods.borrow().iter().map(|p| p.queue_depth()).sum()
    }

    /// Per-pod load counters, in replica order — the simulated
    /// counterpart of scraping every backend's `/stats`.
    pub fn pod_summaries(&self) -> Vec<PodLoadStats> {
        self.pods.borrow().iter().map(|p| p.load_stats()).collect()
    }

    /// The backends currently behind the service.
    pub fn pods(&self) -> Vec<Rc<Pod>> {
        self.pods.borrow().clone()
    }

    /// Adds a backend (a scale-up replica). The detector's pool grows
    /// with it.
    pub fn add_pod(&self, pod: Rc<Pod>) {
        self.pods.borrow_mut().push(pod);
        if let Some(outlier) = &self.outlier {
            let mut d = outlier.borrow_mut();
            let n = self
                .pods
                .borrow()
                .iter()
                .map(|p| p.id() + 1)
                .max()
                .unwrap_or(0);
            if (n as usize) > d.len() {
                d.resize(n as usize);
            }
        }
    }

    /// Removes a backend by pod id (after it drained and terminated).
    pub fn remove_pod(&self, id: u32) {
        self.pods.borrow_mut().retain(|p| p.id() != id);
    }

    /// Whether backend `id` currently sits ejected.
    pub fn is_ejected(&self, id: u32, now: Duration) -> bool {
        self.outlier
            .as_ref()
            .is_some_and(|o| o.borrow().is_ejected(id as usize, now))
    }

    /// Total ejections the detector has ordered for backend `id`.
    pub fn ejections(&self, id: u32) -> u32 {
        self.outlier
            .as_ref()
            .map_or(0, |o| o.borrow().ejections(id as usize))
    }

    /// Schedules periodic `/ping` probes: every `interval` each
    /// backend's readiness is fed into the outlier detector as an
    /// active health sample, until `horizon`. A no-op without ejection.
    pub fn schedule_probes(self: &Rc<Self>, sim: &mut Sim, interval: Duration, horizon: SimTime) {
        if self.outlier.is_none() {
            return;
        }
        let service = Rc::clone(self);
        sim.schedule_in(interval, move |s| {
            let now = s.now().as_duration();
            let pods = service.pods.borrow().clone();
            for pod in &pods {
                service.observe(pod.id(), pod.is_ready(), now);
            }
            if s.now() < horizon {
                service.schedule_probes(s, interval, horizon);
            }
        });
    }

    /// Feeds one outcome for backend `id` into the detector, journaling
    /// any ejection it causes.
    fn observe(&self, id: u32, ok: bool, now: Duration) {
        let Some(outlier) = &self.outlier else {
            return;
        };
        let event = {
            let mut d = outlier.borrow_mut();
            if (id as usize) >= d.len() {
                d.resize(id as usize + 1);
            }
            d.record(id as usize, ok, now)
        };
        match event {
            HealthEvent::Ejected(until) => {
                self.journal.borrow_mut().push(
                    now,
                    ControlAction::Eject,
                    id as i64,
                    until.as_millis() as i64,
                );
            }
            HealthEvent::Readmitted => {
                self.journal
                    .borrow_mut()
                    .push(now, ControlAction::Readmit, id as i64, 0);
            }
            HealthEvent::None | HealthEvent::FloorHeld => {}
        }
    }

    /// Picks the next routable backend round-robin: ready, and (with
    /// ejection) not currently serving probation. An ejected backend
    /// whose probation elapsed is re-admitted on the spot and journaled.
    fn pick(&self, now: Duration) -> Option<Rc<Pod>> {
        let pods = self.pods.borrow().clone();
        if pods.is_empty() {
            return None;
        }
        let mut next = self.next.borrow_mut();
        let mut fallback = None;
        for _ in 0..pods.len() {
            let idx = *next % pods.len();
            *next = (*next + 1) % pods.len();
            let pod = &pods[idx];
            if !pod.is_ready() {
                continue;
            }
            if let Some(outlier) = &self.outlier {
                let id = pod.id() as usize;
                let (admitted, readmitted) = {
                    let mut d = outlier.borrow_mut();
                    if id >= d.len() {
                        d.resize(id + 1);
                    }
                    d.admit_noting_readmission(id, now)
                };
                if !admitted {
                    // Fail-open: remember one ejected-but-ready backend
                    // in case *every* routable pod sits on probation.
                    fallback.get_or_insert_with(|| Rc::clone(pod));
                    continue;
                }
                if readmitted {
                    self.journal
                        .borrow_mut()
                        .push(now, ControlAction::Readmit, pod.id() as i64, 0);
                }
            }
            return Some(Rc::clone(pod));
        }
        // Every ready backend is ejected: routing to a sick backend
        // beats routing to nobody (mirrors the detector's floor).
        fallback
    }
}

impl SimService for ClusterIpService {
    fn submit(self: Rc<Self>, sim: &mut Sim, respond: RespondFn) {
        let now = sim.now().as_duration();
        match self.pick(now) {
            Some(pod) => {
                if self.outlier.is_some() {
                    // Score the outcome against the backend that served
                    // it, at response time.
                    let service = Rc::clone(&self);
                    let id = pod.id();
                    let wrapped: RespondFn = Box::new(move |s, result| {
                        service.observe(id, result.is_ok(), s.now().as_duration());
                        respond(s, result);
                    });
                    pod.submit(sim, wrapped);
                } else {
                    pod.submit(sim, respond);
                }
            }
            None => respond(sim, Err(ServeError::Overloaded)),
        }
    }

    fn queue_depth(&self) -> usize {
        ClusterIpService::queue_depth(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etude_serve::simserver::{RustServerConfig, SimRustServer};
    use etude_serve::ServiceProfile;
    use etude_simnet::SimTime;
    use etude_tensor::Device;
    use std::time::Duration;

    fn make_pods(n: usize) -> (Vec<Rc<Pod>>, Vec<Rc<SimRustServer>>) {
        let mut pods = Vec::new();
        let mut servers = Vec::new();
        for id in 0..n {
            let server = SimRustServer::new(
                ServiceProfile::static_response(&Device::cpu()),
                RustServerConfig::cpu(1),
            );
            servers.push(Rc::clone(&server));
            pods.push(Pod::new(server, 0, id as u32));
        }
        (pods, servers)
    }

    #[test]
    fn requests_round_robin_across_ready_pods() {
        let mut sim = Sim::new();
        let (pods, servers) = make_pods(3);
        for p in &pods {
            p.start(&mut sim);
        }
        sim.run_until(SimTime::ZERO.after(Duration::from_secs(10)));
        let service = ClusterIpService::new(pods);
        assert!(service.all_ready());
        for _ in 0..9 {
            Rc::clone(&service).submit(&mut sim, Box::new(|_, _| {}));
        }
        sim.run_to_completion();
        for s in &servers {
            assert_eq!(s.served(), 3, "uneven round robin");
        }
        // The pods tally the same traffic the servers saw, each under
        // its own id, with a latency sample per served request.
        let summaries = service.pod_summaries();
        assert_eq!(summaries.len(), 3);
        for (idx, s) in summaries.iter().enumerate() {
            assert_eq!(s.id as usize, idx);
            assert_eq!(s.served, 3);
            assert_eq!(s.refused, 0);
            assert_eq!(s.latency.count(), 3);
        }
    }

    #[test]
    fn not_ready_pods_are_skipped() {
        let mut sim = Sim::new();
        let (pods, servers) = make_pods(2);
        pods[0].start(&mut sim); // pod 1 never started: stays unready
        sim.run_until(SimTime::ZERO.after(Duration::from_secs(10)));
        let service = ClusterIpService::new(pods);
        assert_eq!(service.ready_backends(), 1);
        assert!(!service.all_ready());
        for _ in 0..4 {
            Rc::clone(&service).submit(&mut sim, Box::new(|_, _| {}));
        }
        sim.run_to_completion();
        assert_eq!(servers[0].served(), 4);
        assert_eq!(servers[1].served(), 0);
    }

    #[test]
    fn empty_service_fails_requests() {
        let mut sim = Sim::new();
        let service = ClusterIpService::new(vec![]);
        let failed = etude_simnet::shared(false);
        let f = Rc::clone(&failed);
        service.submit(
            &mut sim,
            Box::new(move |_, result| {
                *f.borrow_mut() = result.is_err();
            }),
        );
        sim.run_to_completion();
        assert!(*failed.borrow());
    }

    #[test]
    fn pods_can_be_added_and_removed() {
        let mut sim = Sim::new();
        let (pods, servers) = make_pods(2);
        for p in &pods {
            p.start(&mut sim);
        }
        sim.run_until(SimTime::ZERO.after(Duration::from_secs(10)));
        let service = ClusterIpService::new(pods);
        assert_eq!(service.backends(), 2);

        // A third pod joins and absorbs traffic.
        let (extra, extra_servers) = make_pods(3);
        let newcomer = Rc::clone(&extra[2]);
        newcomer.start(&mut sim);
        sim.run_until(SimTime::ZERO.after(Duration::from_secs(20)));
        service.add_pod(Rc::clone(&newcomer));
        assert_eq!(service.backends(), 3);
        for _ in 0..9 {
            Rc::clone(&service).submit(&mut sim, Box::new(|_, _| {}));
        }
        sim.run_to_completion();
        assert_eq!(extra_servers[2].served(), 3, "newcomer takes its share");

        // Removing it shifts its share back to the others.
        service.remove_pod(newcomer.id());
        assert_eq!(service.backends(), 2);
        for _ in 0..4 {
            Rc::clone(&service).submit(&mut sim, Box::new(|_, _| {}));
        }
        sim.run_to_completion();
        assert_eq!(extra_servers[2].served(), 3, "no traffic after removal");
        assert_eq!(servers[0].served() + servers[1].served(), 10);
    }

    #[test]
    fn probes_eject_a_dead_backend_and_probation_readmits_it() {
        let mut sim = Sim::new();
        let (pods, servers) = make_pods(4);
        for p in &pods {
            p.start(&mut sim);
        }
        sim.run_until(SimTime::ZERO.after(Duration::from_secs(10)));
        let journal = etude_simnet::shared(DecisionJournal::new());
        let config = EjectionConfig {
            consecutive_failures: 3,
            base_probation: Duration::from_secs(5),
            seed: 9,
            ..EjectionConfig::default()
        };
        let service = ClusterIpService::with_ejection(pods.clone(), config, Rc::clone(&journal));
        // Pod 0 goes down hard (terminated, stays down); probes every
        // second feed the detector.
        pods[0].terminate();
        service.schedule_probes(
            &mut sim,
            Duration::from_secs(1),
            SimTime::ZERO.after(Duration::from_secs(60)),
        );
        sim.run_until(SimTime::ZERO.after(Duration::from_secs(14)));
        assert!(
            service.is_ejected(0, sim.now().as_duration()),
            "three failed probes eject"
        );
        let ejects = journal.borrow().of(ControlAction::Eject).len();
        assert!(ejects >= 1, "ejection journaled");

        // Routed traffic only reaches the survivors (pod 0 is both
        // unready and ejected).
        for _ in 0..9 {
            Rc::clone(&service).submit(&mut sim, Box::new(|_, _| {}));
        }
        sim.run_to_completion();
        assert_eq!(servers[0].served(), 0);
        assert_eq!(
            servers[1].served() + servers[2].served() + servers[3].served(),
            9
        );
    }

    #[test]
    fn ejected_but_ready_backends_are_skipped_then_readmitted() {
        let mut sim = Sim::new();
        let (pods, servers) = make_pods(2);
        for p in &pods {
            p.start(&mut sim);
        }
        sim.run_until(SimTime::ZERO.after(Duration::from_secs(10)));
        let journal = etude_simnet::shared(DecisionJournal::new());
        let config = EjectionConfig {
            consecutive_failures: 2,
            floor_fraction: 0.5,
            base_probation: Duration::from_secs(5),
            seed: 3,
            ..EjectionConfig::default()
        };
        let service = ClusterIpService::with_ejection(pods.clone(), config, Rc::clone(&journal));
        // Fail pod 0 by hand (as if its requests had been erroring).
        let now = sim.now().as_duration();
        service.observe(0, false, now);
        service.observe(0, false, now);
        assert!(service.is_ejected(0, now));

        // While ejected, everything routes to pod 1.
        for _ in 0..4 {
            Rc::clone(&service).submit(&mut sim, Box::new(|_, _| {}));
        }
        sim.run_to_completion();
        assert_eq!(servers[0].served(), 0);
        assert_eq!(servers[1].served(), 4);

        // After probation (≤ 5s * 1.25 jitter) pod 0 rejoins rotation
        // and the re-admission is journaled.
        sim.run_until(SimTime::ZERO.after(Duration::from_secs(30)));
        for _ in 0..4 {
            Rc::clone(&service).submit(&mut sim, Box::new(|_, _| {}));
        }
        sim.run_to_completion();
        assert_eq!(servers[0].served(), 2, "readmitted into round robin");
        assert_eq!(journal.borrow().of(ControlAction::Readmit).len(), 1);
    }
}
