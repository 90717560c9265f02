//! The ClusterIP service: round-robin routing over ready backends.
//!
//! Kubernetes's ClusterIP + kube-proxy distributes connections across the
//! pods backing a service. For the paper's workload (many short requests
//! from one load generator) round-robin per request is the effective
//! behaviour, and it is what makes the "scale out with N cheaper
//! machines" rows of Table I work. A backend leaves rotation when its
//! readiness probe fails (a crashed, draining or terminated pod) and
//! rejoins when it passes again; there is no outlier ejection.

use crate::pod::{Pod, PodLoadStats};
use etude_serve::simserver::{RespondFn, ServeError, SimService};
use etude_simnet::{shared, Shared, Sim};
use std::rc::Rc;

/// A round-robin service over a (mutable) set of pods.
pub struct ClusterIpService {
    pods: Shared<Vec<Rc<Pod>>>,
    next: Shared<usize>,
}

impl ClusterIpService {
    /// Creates a service over the given backends.
    pub fn new(pods: Vec<Rc<Pod>>) -> Rc<ClusterIpService> {
        Rc::new(ClusterIpService {
            pods: shared(pods),
            next: shared(0),
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

    /// Adds a backend (a scale-up replica).
    pub fn add_pod(&self, pod: Rc<Pod>) {
        self.pods.borrow_mut().push(pod);
    }

    /// Removes a backend by pod id (after it drained and terminated).
    pub fn remove_pod(&self, id: u32) {
        self.pods.borrow_mut().retain(|p| p.id() != id);
    }

    /// Picks the next ready backend round-robin.
    fn pick(&self) -> Option<Rc<Pod>> {
        let pods = self.pods.borrow();
        let mut next = self.next.borrow_mut();
        for _ in 0..pods.len() {
            let pod = &pods[*next % pods.len()];
            *next = (*next + 1) % pods.len();
            if pod.is_ready() {
                return Some(Rc::clone(pod));
            }
        }
        None
    }
}

impl SimService for ClusterIpService {
    fn submit(self: Rc<Self>, sim: &mut Sim, respond: RespondFn) {
        match self.pick() {
            Some(pod) => pod.submit(sim, respond),
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
    fn a_terminated_backend_gets_no_traffic_and_the_survivors_get_all_of_it() {
        let mut sim = Sim::new();
        let (pods, servers) = make_pods(4);
        for p in &pods {
            p.start(&mut sim);
        }
        sim.run_until(SimTime::ZERO.after(Duration::from_secs(10)));
        let service = ClusterIpService::new(pods.clone());
        // Pod 0 goes down hard and stays down: its readiness probe fails,
        // which alone takes it out of rotation.
        pods[0].terminate();
        assert_eq!(service.ready_backends(), 3);
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
}
