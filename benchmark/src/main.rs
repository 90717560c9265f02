//! `etude-benchmark`: see README.md.
//!
//! ```text
//! etude-benchmark [run] [--workload <name>] [--seed <u64>] [--seconds <n>] [--smoke]
//!     the ledger: every workload (or the one named), each in child
//!     processes of its own, written to benchmark/out/ledger.json
//! etude-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//!     one run in this process; the last line of output is its result
//! ```

use etude_benchmark::alloc::Counting;
use etude_benchmark::json::{self, obj, Value};
use etude_benchmark::run::{self, Report};
use etude_benchmark::spec::{self, Plan, Workload, RUN_SECONDS, SMOKE_SECONDS, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 0.0,
        trace: None,
        smoke: false,
    };
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().is_some_and(|a| a == "run") {
        argv.next();
    }
    while let Some(flag) = argv.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(spec::workload(&value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value}; one of {names:?}")
                })?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.seconds == 0.0 {
        args.seconds = if args.smoke {
            SMOKE_SECONDS
        } else {
            RUN_SECONDS
        };
    }
    Ok(args)
}

/// `benchmark/`, wherever the checkout is: `cargo run` says where, a bare
/// binary falls back on where it was built.
fn manifest_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

fn out_dir() -> PathBuf {
    manifest_dir().join("out")
}

fn metrics_json(report: &Report) -> Value {
    obj(report.metrics.iter().map(|m| {
        let fields = [
            ("value", Value::Num(m.value)),
            ("unit", Value::Str(m.unit.into())),
        ];
        (m.name.clone(), obj(fields))
    }))
}

/// One run in this process. The last line printed is the result object.
fn single(w: &Workload, args: &Args, traced: bool) -> ExitCode {
    let plan = Plan::new(args.seconds, args.smoke);
    println!(
        "workload {} seed {} seconds {} trace {}",
        w.name, args.seed, args.seconds, traced as u8
    );
    let report = if traced {
        run::per_layer(w, args.seed, &plan, &out_dir())
    } else {
        run::end_to_end(w, args.seed, &plan)
    };
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{}: run failed: {e}", w.name);
            return ExitCode::FAILURE;
        }
    };
    for m in &report.metrics {
        println!("{:<44} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        obj([
            ("correct", Value::Bool(report.correct)),
            ("attempted", Value::Num(report.attempted as f64)),
            ("failed", Value::Num(report.failed as f64)),
            ("metrics", metrics_json(&report)),
        ])
    );
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("{}: answers differ from the in-process reference", w.name);
        ExitCode::FAILURE
    }
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(manifest_dir())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// What a number must be read against: the machine, the build, the inputs.
fn fingerprint(args: &Args) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    obj([
        (
            "commit",
            Value::Str(tool_line("git", &["rev-parse", "HEAD"])),
        ),
        ("nproc", Value::Num(nproc as f64)),
        (
            "simd_isa",
            Value::Str(etude_tensor::simd::isa_name().into()),
        ),
        (
            "poller",
            Value::Str(etude_serve::reactor::poller_backend_name().into()),
        ),
        ("rustc", Value::Str(tool_line("rustc", &["--version"]))),
        ("seed", Value::Num(args.seed as f64)),
        (
            "mode",
            Value::Str(if args.smoke { "smoke" } else { "full" }.into()),
        ),
        ("seconds", Value::Num(args.seconds)),
    ])
}

/// Runs one child and returns its result object, echoing what it printed.
fn child(w: &Workload, args: &Args, traced: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let last = stdout.lines().last().unwrap_or("");
    let result = json::parse(last).map_err(|e| format!("{}: no result line: {e}", w.name))?;
    if !out.status.success() {
        return Err(format!("{}: child exited with {}", w.name, out.status));
    }
    Ok(result)
}

/// Every workload in turn, one child process per run so that peak memory
/// is per workload; writes `out/ledger.json`.
fn ledger(args: &Args) -> ExitCode {
    let chosen: Vec<&Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for w in chosen {
        let mut row = vec![("name".to_string(), Value::Str(w.name.into()))];
        for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
            match child(w, args, traced) {
                Ok(result) => row.push((key.to_string(), result)),
                Err(e) => failures.push(e),
            }
        }
        rows.push(Value::Obj(row));
    }
    let doc = obj([
        ("fingerprint", fingerprint(args)),
        ("workloads", Value::Arr(rows)),
    ]);
    let path = out_dir().join("ledger.json");
    let written =
        std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, format!("{doc}\n")));
    match written {
        Ok(()) => println!("ledger written: {}", path.display()),
        Err(e) => failures.push(format!("{}: {e}", path.display())),
    }
    for failure in &failures {
        eprintln!("FAILED {failure}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match (args.workload, args.trace) {
        (Some(w), Some(traced)) => single(w, &args, traced),
        (None, Some(_)) => {
            eprintln!("--trace needs --workload");
            ExitCode::from(2)
        }
        _ => ledger(&args),
    }
}
