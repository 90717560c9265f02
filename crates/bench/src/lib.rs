//! # etude-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! ETUDE paper's evaluation (Section III). Each artifact has a dedicated
//! binary:
//!
//! | Paper artifact | Binary | What it reproduces |
//! |---|---|---|
//! | Figure 2 | `fig2_infra` | TorchServe vs the Rust server on empty responses at a 0→1,000 req/s ramp |
//! | Figure 3 | `fig3_micro` | Serial p90 prediction latency vs catalog size × device × eager/JIT |
//! | Figure 4 | `fig4_e2e`  | End-to-end latency/throughput per scenario × instance × model |
//! | Table I  | `table1_cost` | Cost-efficient deployment options per scenario |
//! | §III-A (validation) | `validation_synthetic` | Real-log replay vs fitted synthetic workload |
//! | §III-C (bug reports) | `ablation_quirks` | RecBole quirk on/off cost ablation |
//! | design ablation | `ablation_batching` | GPU request batching on/off |
//! | design ablation | `ablation_backpressure` | Backpressure-aware vs open-loop load generation |
//!
//! Criterion benches (`cargo bench -p etude-bench`) cover the >1M
//! clicks/second workload-generation claim, real kernel/model execution
//! and the JIT pass pipeline.
//!
//! Every binary accepts `--quick` (scaled-down ramps, fewer cells) and
//! `--full` (the paper's original 600-second ramps). Results print as
//! aligned tables and are also written as CSV under `results/`.

use etude_metrics::report::Table;
use std::path::{Path, PathBuf};

/// Harness-wide execution options parsed from the command line.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Ramp duration in seconds for end-to-end runs.
    pub ramp_secs: u64,
    /// Directory CSV artifacts are written to.
    pub results_dir: PathBuf,
    /// Repetitions per configuration (paper: 3, keeping the median).
    pub repetitions: usize,
    /// Intra-op kernel threads requested with `--threads N` (`None`
    /// keeps `ETUDE_THREADS` / detected parallelism).
    pub threads: Option<usize>,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            ramp_secs: 60,
            results_dir: PathBuf::from("results"),
            repetitions: 3,
            threads: None,
        }
    }
}

impl HarnessOptions {
    /// Parses `--quick` / `--full` / `--ramp <secs>` / `--out <dir>` from
    /// the process arguments.
    pub fn from_args() -> HarnessOptions {
        let mut opts = HarnessOptions::default();
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--quick" => {
                    opts.ramp_secs = 20;
                    opts.repetitions = 1;
                }
                "--full" => {
                    opts.ramp_secs = 600;
                    opts.repetitions = 3;
                }
                "--ramp" => {
                    i += 1;
                    opts.ramp_secs = args
                        .get(i)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or(opts.ramp_secs);
                }
                "--out" => {
                    i += 1;
                    if let Some(dir) = args.get(i) {
                        opts.results_dir = PathBuf::from(dir);
                    }
                }
                "--threads" => {
                    i += 1;
                    opts.threads = args.get(i).and_then(|v| v.parse().ok());
                }
                "--smoke" => opts.results_dir = results_dir(true),
                other => {
                    eprintln!("ignoring unknown argument: {other}");
                }
            }
            i += 1;
        }
        opts
    }

    /// The ramp duration as a [`std::time::Duration`].
    pub fn ramp(&self) -> std::time::Duration {
        std::time::Duration::from_secs(self.ramp_secs)
    }

    /// Applies `--threads` to the process-wide intra-op pool and returns
    /// the width real kernels will run at.
    pub fn apply_threads(&self) -> usize {
        match self.threads {
            Some(n) => etude_tensor::pool::configure_threads(n),
            None => etude_tensor::pool::current_threads(),
        }
    }

    /// Prints a table and writes its CSV artifact.
    pub fn emit(&self, name: &str, table: &Table) {
        println!("{}", table.render());
        let path = self.results_dir.join(format!("{name}.csv"));
        match table.write_csv(&path) {
            Ok(()) => println!("wrote {}\n", path.display()),
            Err(e) => eprintln!("could not write {}: {e}\n", path.display()),
        }
    }
}

/// Where a run's artifacts go: the tracked `results/` directory for a
/// full run, `target/tmp/` for a `--smoke` run — a smoke pass is a gate,
/// not a measurement, and must not overwrite committed full-mode
/// numbers. Anchored on the workspace root, so any cwd works.
pub fn results_dir(smoke: bool) -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    root.join(if smoke { "target/tmp" } else { "results" })
}

/// Writes a bench's machine-readable summary as `BENCH_<name>.json`
/// under [`results_dir`] and says where it went.
pub fn write_result(name: &str, smoke: bool, json: &str) {
    let dir = results_dir(smoke);
    let path = dir.join(format!("BENCH_{name}.json"));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Runs `f` `repetitions` times and returns the median result by `key`.
///
/// The paper executes "each configuration three times and ignore\[s\] the
/// runs with the lowest and highest latencies" — i.e. keeps the median.
pub fn median_of<T, F, K>(repetitions: usize, mut f: F, key: K) -> T
where
    F: FnMut(usize) -> T,
    K: Fn(&T) -> f64,
{
    let mut runs: Vec<T> = (0..repetitions.max(1)).map(&mut f).collect();
    runs.sort_by(|a, b| {
        key(a)
            .partial_cmp(&key(b))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mid = runs.len() / 2;
    runs.swap_remove(mid)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_three_keeps_the_middle_run() {
        let values = [30.0, 10.0, 20.0];
        let m = median_of(3, |i| values[i], |v| *v);
        assert_eq!(m, 20.0);
    }

    #[test]
    fn median_of_one_is_identity() {
        let m = median_of(1, |_| 7.0, |v| *v);
        assert_eq!(m, 7.0);
    }

    #[test]
    fn default_options_are_scaled_down() {
        let opts = HarnessOptions::default();
        assert_eq!(opts.ramp_secs, 60);
        assert_eq!(opts.repetitions, 3);
    }
}
