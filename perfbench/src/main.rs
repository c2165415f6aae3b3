//! End-to-end and per-layer benchmark of the ltds workspace.
//!
//! ```text
//! perfbench --workload study|fleet|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Three workloads, one per way a user gets an answer out of the system:
//!
//! * `study` — reliability studies through `CampaignDriver` over
//!   persistent caches (the `campaign --cache-dir` path);
//! * `fleet` — fleet what-ifs through `FleetSim`;
//! * `serve` — campaigns submitted to the multi-tenant TCP server.
//!
//! Every input is generated from `--seed`; every job's output is checked
//! against a reference. `--trace 0` times the workload with tracing off, in
//! three passes over the same jobs, and prints its seven end-to-end
//! metrics. `--trace 1` is the layer profile: for each of the three
//! workloads it runs an untraced pass and a traced pass over the same jobs
//! (a quarter of a timed pass's), with spans around the benchmark's calls
//! into each layer, and prints every per-layer metric, so one traced run
//! covers every layer whichever workload it is started for. The last line
//! of standard output is the JSON result.
//!
//! Runs are closed-loop with one client, every thread count is fixed at
//! two, and all timings are host time. Scratch files live under
//! `.perfbench/` in the working directory.

mod fleet;
mod history;
mod inputs;
mod measure;
mod pins;
mod report;
mod serve;
mod study;
mod trace;

use report::Metrics;
use std::path::{Path, PathBuf};

/// Worker threads of every pool, server and fleet run.
pub const THREADS: usize = 2;

/// Timed passes over a run's jobs; see [`report::Passes`].
pub const PASSES: usize = 3;

/// Set-up rounds before each pass of a study or serve run; `setup_s` is
/// the median over all of a run's rounds.
pub const SETUP_ROUNDS: usize = 2;

/// A traced run profiles a timed pass's job count divided by this.
const TRACE_SHARE: usize = 4;

/// Maps `f` over `items` on [`THREADS`] threads, keeping the order: how
/// references are recomputed, one single-threaded run per core.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let parts: Vec<Vec<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let f = &f;
                scope.spawn(move || items.iter().skip(t).step_by(THREADS).map(f).collect())
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("reference thread")).collect()
    });
    let mut parts: Vec<_> = parts.into_iter().map(Vec::into_iter).collect();
    (0..items.len()).map(|i| parts[i % THREADS].next().expect("a result per item")).collect()
}

const USAGE: &str = "usage: perfbench --workload study|fleet|serve [--seed N] [--seconds S] \
                     [--trace 0|1]\n       perfbench --print-pins";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    print_pins: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: inputs::DEFAULT_SEED,
        seconds: 20,
        trace: false,
        print_pins: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds == 0 {
                    return Err("--seconds must be at least 1".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--print-pins" => args.print_pins = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !args.print_pins && !["study", "fleet", "serve"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// First line of a command's standard output, or `none`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "none".to_string())
}

fn print_pins() {
    let jobs: Vec<_> =
        (0..study::jobs_for(20)).map(|j| inputs::study_job(inputs::DEFAULT_SEED, j)).collect();
    let print = |name: &str, digests: &[u64]| {
        println!("pub const {name}: &[u64] = &[");
        for d in digests {
            println!("    0x{d:016x},");
        }
        println!("];");
    };
    print("STUDY", &study::recompute(&jobs));
    print("FLEET", &fleet::recompute(inputs::DEFAULT_SEED));
}

/// The layer profile: every workload's traced pass. Returns
/// `(attempted, failed, metrics)`.
fn profile(args: &Args, workdir: &Path) -> (usize, usize, Metrics) {
    let mut tracer = trace::Tracer::new();
    let mut metrics = Metrics::default();
    let seconds = args.seconds;
    let (a1, f1) = fleet::profile(
        args.seed,
        fleet::jobs_for(seconds) / TRACE_SHARE,
        &mut tracer,
        &mut metrics,
    );
    let (a2, f2) = study::profile(
        args.seed,
        study::jobs_for(seconds) / TRACE_SHARE,
        workdir,
        &mut tracer,
        &mut metrics,
    );
    let (a3, f3) = serve::profile(
        args.seed,
        serve::tenants_for(seconds) / TRACE_SHARE,
        workdir,
        &mut tracer,
        &mut metrics,
    );
    for root in ["fleet.job", "study.job", "serve.tenant"] {
        let shares = tracer.unaccounted_shares(root);
        let worst = shares.iter().copied().fold(0.0, f64::max);
        println!("# {root}: layer self times cover each job to within {:.3}%", worst * 100.0);
    }
    let spans =
        Path::new(".perfbench").join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    tracer.write_jsonl(&spans).expect("write spans");
    println!("# {} spans written to {}", tracer.spans().len(), spans.display());
    (a1 + a2 + a3, f1 + f2 + f3, metrics)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if args.print_pins {
        print_pins();
        return;
    }
    let workdir: PathBuf = Path::new(".perfbench").join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&workdir).expect("create scratch directory");

    println!(
        "# workload={} seed={} seconds={} trace={} nproc={} rustc=\"{}\" git={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        command_line("rustc", &["-V"]),
        command_line("git", &["rev-parse", "--short=12", "HEAD"]),
    );
    let (attempted, failed, metrics) = if args.trace {
        profile(&args, &workdir)
    } else {
        let run = match args.workload.as_str() {
            "study" => study::run(args.seed, args.seconds, &workdir),
            "fleet" => fleet::run(args.seed, args.seconds),
            _ => serve::run(args.seed, args.seconds, &workdir),
        };
        let quarter = (run.latencies.len() / 4).max(1);
        let medians: Vec<String> =
            run.latencies.chunks(quarter).map(|q| format!("{:.6}", measure::median(q))).collect();
        let walls: Vec<String> = run.pass_walls.iter().map(|w| format!("{w:.3}")).collect();
        println!(
            "# {} jobs x {PASSES} passes; pass wall times (s): {}; median best latency by \
             quarter (s): {}",
            run.latencies.len(),
            walls.join(" "),
            medians.join(" ")
        );
        (run.attempted, run.failed, run.metrics())
    };
    std::fs::remove_dir_all(&workdir).expect("remove scratch directory");

    for (name, unit, value) in metrics.iter() {
        println!("# {name:<40} {value:>16.6} {unit}");
    }
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        failed == 0,
        metrics.to_json()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Largest share of a traced job's wall time that its layer spans may
    /// leave unaccounted (the benchmark's own bookkeeping between calls).
    const UNACCOUNTED_TOLERANCE: f64 = 0.02;

    /// Each traced job's layer self times sum to its traced wall time.
    #[test]
    fn layer_self_times_cover_each_traced_job() {
        let workdir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.perfbench")
            .join(format!("test-{}", std::process::id()));
        std::fs::create_dir_all(&workdir).unwrap();
        let mut tracer = trace::Tracer::new();
        let mut metrics = Metrics::default();
        let seed = inputs::DEFAULT_SEED;
        assert_eq!(fleet::profile(seed, 2, &mut tracer, &mut metrics).1, 0);
        assert_eq!(study::profile(seed, 2, &workdir, &mut tracer, &mut metrics).1, 0);
        assert_eq!(serve::profile(seed, 8, &workdir, &mut tracer, &mut metrics).1, 0);
        std::fs::remove_dir_all(&workdir).unwrap();
        for root in ["fleet.job", "study.job", "serve.tenant"] {
            let shares = tracer.unaccounted_shares(root);
            assert!(!shares.is_empty(), "no {root} spans");
            for share in shares {
                assert!(
                    share <= UNACCOUNTED_TOLERANCE,
                    "{root}: {:.2}% unaccounted",
                    share * 100.0
                );
            }
        }
    }
}
