//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path fdbench/Cargo.toml -- \
//!     --workload sparse-chain|dense-chain|live-serve --seed N --seconds S --trace 0|1
//! ```
//!
//! One run generates the workload's database from `--seed`, serves it
//! as a durable ranked session, spends `--seconds` on the workload's
//! mix of queries and closed-loop commits, recovers the session from a
//! crash image, and checks every output. It prints a table of every
//! metric with its unit and sample count, then, as its last line, one
//! JSON object: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics (from spans around the calls into each layer) with
//! `--trace 1`. A traced run also writes its spans and a layer report
//! under `.bench_out/`. `BENCHMARK.json` at the repository root lists
//! the workloads, metrics and bounds. The command exits non-zero when
//! any output is wrong.
//!
//! Every end-to-end timing but `parallel_batch_s` is read on a CPU
//! clock (see `cpu`): the calling thread's for the single-threaded
//! queries and recovery, the whole process's for set-up and for the
//! requests to the in-process daemon. `parallel_batch_s` is wall time,
//! as the point of the parallel plan is to shorten it. The table
//! prints the wall-clock medians of set-up, insert commits and `top`
//! beside their CPU figures.

mod cpu;
mod gate;
mod live;
mod query;
mod report;
mod samples;
mod trace;
mod workload;

use gate::{importance, Checks, Reference};
use samples::Samples;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::Spec;

/// Extra processes per run that only set up, for the `setup_s` median.
/// Each is a fresh process: the string interner is process-global, so a
/// second set-up in one process would find it warm. They are paced over
/// the run like the commits, so a slow stretch of the host affects a
/// few of them rather than all.
const SETUP_PROBES: usize = 20;

/// Scratch space for data directories, under the working directory.
const TMP_ROOT: &str = ".bench_tmp";

/// The share of the time budget by which the workload's commits are
/// made; they are spread evenly over it, between the query passes.
const CHURN_END: f64 = 0.9;

/// Recoveries made even when the time budget is already spent.
const MIN_RECOVERIES: usize = 3;

/// Where traced runs write their span file and layer report.
const OUT_DIR: &str = ".bench_out";

#[derive(Debug)]
struct Args {
    workload: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Overrides the reference exact-FD digest; the gate's own test
    /// uses it to show that a wrong expectation fails the run.
    expect_digest: Option<u64>,
    /// Set up, print `setup_s=<cpu> <wall>` and exit (the set-up probe
    /// process).
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut expect_digest = None;
    let mut setup_probe = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(
                    workload::by_name(&name)
                        .ok_or(format!("unknown workload {name} (one of {names:?})"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = value()? == "1",
            "--expect-digest" => {
                let hex = value()?;
                expect_digest = Some(
                    u64::from_str_radix(&hex, 16).map_err(|e| format!("--expect-digest: {e}"))?,
                );
            }
            "--setup-probe" => setup_probe = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0).max(0.0),
        trace,
        expect_digest,
        setup_probe,
    })
}

/// A scratch directory removed when the run ends, however it ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no run uses it.
        let _ = self.0.parent().map(std::fs::remove_dir);
    }
}

/// Generates the database and starts the served session: the timed
/// set-up of every run. Returns its process CPU time (every thread the
/// set-up starts included; see `cpu`) and its wall time.
fn set_up(
    args: &Args,
    dir: &Path,
    tracer: &mut Tracer,
) -> (fd_relational::Database, live::Served, Duration, Duration) {
    let (cpu_start, start) = (cpu::process_time(), Instant::now());
    let (db, _) = tracer.time("relational.build", || args.workload.generate(args.seed));
    let served = live::serve(&db, dir, tracer);
    (db, served, cpu::process_time() - cpu_start, start.elapsed())
}

/// Runs set-up-only processes, one after another, until `setup` holds
/// `due` probes' samples (and the run's own).
fn probe_setups(
    args: &Args,
    due: usize,
    setup: &mut Samples,
    wall: &mut Samples,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    while setup.len() < due + 1 {
        let out = Command::new(&exe)
            .args([
                "--workload",
                args.workload.name,
                "--seed",
                &args.seed.to_string(),
                "--setup-probe",
            ])
            .output()
            .map_err(|e| format!("spawning a set-up probe: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let (cpu, wall_s) = text
            .lines()
            .find_map(|l| l.strip_prefix("setup_s="))
            .and_then(|v| v.split_once(' '))
            .and_then(|(c, w)| Some((c.parse::<f64>().ok()?, w.parse::<f64>().ok()?)))
            .filter(|_| out.status.success())
            .ok_or(format!("set-up probe failed: {text}"))?;
        setup.push(cpu);
        wall.push(wall_s);
    }
    Ok(())
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            println!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let scratch = ScratchDir(Path::new(TMP_ROOT).join(format!(
        "{}-{}",
        args.workload.name,
        std::process::id()
    )));
    if args.setup_probe {
        let (_, served, cpu, wall) =
            set_up(&args, &scratch.0.join("data"), &mut Tracer::new(false));
        let _ = served.server.stop();
        println!("setup_s={} {}", cpu.as_secs_f64(), wall.as_secs_f64());
        return ExitCode::SUCCESS;
    }
    match run(&args, &scratch.0) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            println!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One measured run; `Ok(false)` when an output was wrong.
fn run(args: &Args, scratch: &Path) -> Result<bool, String> {
    let spec = args.workload;
    let budget = Duration::from_secs_f64(args.seconds);
    let (mut setup, mut setup_wall) = (Samples::default(), Samples::default());

    let mut tracer = Tracer::new(args.trace);
    let data_dir = scratch.join("data");
    let (db, served, took, took_wall) = set_up(args, &data_dir, &mut tracer);
    setup.push(took.as_secs_f64());
    setup_wall.push(took_wall.as_secs_f64());
    let mut snapshot_write_ms = Samples::default();
    if args.trace {
        for _ in 0..3 {
            let (done, d) = tracer.time("store.checkpoint", || {
                served.server.handle().with(|s| s.checkpoint())
            });
            done.map_err(|e| e.to_string())?
                .map_err(|e| e.to_string())?;
            snapshot_write_ms.push(d.as_secs_f64() * 1e3);
        }
    }

    let mut checks = Checks::default();
    let imp = importance(&db);
    let reference = Reference::compute(spec.name, args.seed, &db, &imp, args.expect_digest);
    println!(
        "reference ({}): batch {:016x}  approx {:016x}",
        reference.source, reference.batch_digest, reference.approx_digest
    );

    // Query passes, churn and recoveries interleave, so each metric's
    // samples spread over the whole run rather than one stretch of it.
    let churn_input = live::ChurnInput {
        spec: &spec,
        seed: args.seed,
        db: &db,
        data_dir: &data_dir,
        image_dir: &scratch.join("image"),
        mirror_dir: &scratch.join("mirror"),
    };
    let mut queries = query::QueryMix::new(&db, &imp, &reference, args.trace);
    let mut churn = live::Churn::start(&churn_input, &served, &tracer);
    let mut recovery = live::RecoveryRun::default();
    // The commits are paced to end at CHURN_END of the time budget.
    let start = Instant::now();
    loop {
        let over = start.elapsed() >= budget;
        let more_queries = !over || !queries.satisfied();
        let more_recovery = churn.imaged() && (!over || recovery.recovery_s.len() < MIN_RECOVERIES);
        if !(more_queries || !churn.done() || more_recovery) {
            break;
        }
        if more_queries {
            queries.pass(&mut tracer, &mut checks);
        }
        let paced =
            (start.elapsed().as_secs_f64() / budget.mul_f64(CHURN_END).as_secs_f64()).min(1.0);
        let due = if over {
            u64::MAX
        } else {
            (spec.commits as f64 * paced).ceil() as u64
        };
        churn.run_until(due, &mut tracer, &mut checks);
        let probes = (SETUP_PROBES as f64 * paced).ceil() as usize;
        probe_setups(args, probes, &mut setup, &mut setup_wall)?;
        if more_recovery {
            let served_results = churn.base_results().to_vec();
            live::recover(
                churn_input.image_dir,
                scratch,
                &served_results,
                &mut recovery,
                &mut tracer,
                &mut checks,
            );
        }
    }
    probe_setups(args, SETUP_PROBES, &mut setup, &mut setup_wall)?;
    let queries = queries.finish();
    let churn = churn.finish(&mut checks);
    served
        .server
        .stop()
        .map_err(|e| format!("stopping the daemon: {e}"))?;

    let measured = report::Measured {
        spec: &spec,
        setup,
        setup_wall,
        queries,
        churn,
        recovery,
        snapshot_write_ms,
        peak_rss_mb: peak_rss_mb(),
    };
    let metrics = if args.trace {
        let layers = tracer.layers();
        let out = Path::new(OUT_DIR);
        let stem = format!("{}-seed{}", spec.name, args.seed);
        let text = report::layer_report(&measured, &layers, &tracer);
        std::fs::create_dir_all(out)
            .and_then(|()| tracer.write_spans(&out.join(format!("{stem}.spans.jsonl"))))
            .and_then(|()| std::fs::write(out.join(format!("{stem}.layers.txt")), &text))
            .map_err(|e| format!("writing the trace: {e}"))?;
        print!("{text}");
        report::per_layer(&measured, &layers)
    } else {
        let metrics = report::end_to_end(&measured);
        report::print_table(&metrics);
        metrics
    };
    for failure in &checks.failures {
        println!("FAILED: {failure}");
    }
    println!(
        "checks: {} attempted, {} failed, error_rate {:.6}",
        checks.attempted,
        checks.failed,
        checks.error_rate()
    );
    let correct = checks.failed == 0;
    println!("{}", report::json_line(correct, &checks, &metrics));
    Ok(correct)
}
