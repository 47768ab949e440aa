//! `rackbench --workload <ingest|cold_read|audit_repair|all> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Prints every metric of the run as a table, then, as the last line of
//! standard output, one JSON object: `correct`, `attempted`, `failed`
//! and the `metrics` that `BENCHMARK.json` names — its end-to-end
//! metrics untraced, its per-layer metrics with `--trace 1`. A traced
//! run also writes its spans, in Chrome trace-event format, to
//! `.bench_trace/<workload>-seed<n>.json`.

use rackbench::gen::Scale;
use rackbench::layers;
use rackbench::run::{self, Metric, Opts, Run, CONTRACT_E2E};
use rackbench::workload::{Workload, DEFAULT_THREADS};
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

/// What `--workload` names.
#[derive(Clone, Copy)]
enum Target {
    One(Workload),
    All,
}

struct Args {
    target: Target,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut target = None;
    let (mut seed, mut seconds, mut trace) = (1, 10.0, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value}: {e}");
        match flag.as_str() {
            "--workload" if value == "all" => target = Some(Target::All),
            "--workload" => {
                target = Some(Target::One(Workload::parse(&value).ok_or(format!(
                    "unknown workload {value} (ingest, cold_read, audit_repair, all)"
                ))?))
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let target = target.ok_or("--workload is required")?;
    Ok(Args {
        target,
        seed,
        seconds,
        trace,
    })
}

fn table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<38} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

/// The `metrics` object of the JSON line.
fn json_metrics(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push('}');
    out
}

/// Writes the run's spans as Chrome trace events, one lane per phase.
fn write_spans(run: &Run) -> std::io::Result<String> {
    let dir = std::path::Path::new(".bench_trace");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!(
        "{}-seed{}.json",
        run.opts.workload.name(),
        run.opts.seed
    ));
    let mut out = String::from("{\"traceEvents\": [\n");
    for (i, s) in run.spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { ",\n" };
        let _ = write!(
            out,
            "{sep}{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": \"{}\", \
             \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"op\": {}, \"sim_start_ns\": {}, \
             \"sim_end_ns\": {}, \"source\": \"{:?}\"}}}}",
            s.name,
            s.name.split('.').next().unwrap_or(""),
            s.phase,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.op,
            s.before.sim_ns,
            s.after.sim_ns,
            s.source,
        );
    }
    out.push_str("\n]}\n");
    std::fs::write(&path, out)?;
    Ok(path.display().to_string())
}

/// Runs one workload and prints its tables and JSON line.
fn run_one(args: &Args, workload: Workload) -> ExitCode {
    let opts = Opts {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        threads: DEFAULT_THREADS,
        scale: Scale::FULL,
    };
    let run = match run::run(opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("rackbench {}: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    let (attempted, failed) = run.attempted_failed();
    println!(
        "rackbench {} seed {} threads {DEFAULT_THREADS}: {} set-ups, {} timed repetitions, {attempted} ops and {failed} failed per repetition, {} wrong reads, {} fetches, fingerprint {}",
        workload.name(),
        args.seed,
        run.setups_s.len(),
        run.reps.len() + usize::from(run.traced.is_some()),
        run.wrong_reads,
        run.reps[0].fetches,
        run.fingerprint()
            .map_or("MISMATCH between repetitions".into(), |f| format!("{f:016x}")),
    );
    let e2e = run.end_to_end();
    table("end-to-end", &e2e);
    let chosen = if args.trace {
        let per_layer = layers::per_layer(&run);
        table("per-layer (traced run)", &per_layer);
        match write_spans(&run) {
            Ok(path) => println!("spans: {path}"),
            Err(e) => {
                eprintln!("rackbench: writing spans: {e}");
                return ExitCode::FAILURE;
            }
        }
        per_layer
    } else {
        e2e.into_iter()
            .filter(|m| CONTRACT_E2E.contains(&m.name))
            .collect()
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        run.wrong_reads == 0,
        json_metrics(&chosen)
    );
    ExitCode::SUCCESS
}

/// Reads `"key": <value>` from one of the JSON lines `run_one` prints.
fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = line.split_once(&format!("\"{key}\": "))?.1;
    Some(&rest[..rest.find(',')?])
}

/// `--workload all`: runs each workload in a child process of its own,
/// so that `peak_rss_mb` is that workload's peak, as in a single-workload
/// run. Passes each child's output through, then prints one JSON line
/// that merges theirs, with each metric name prefixed by `<workload>.`.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("rackbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for w in Workload::ALL {
        let child = Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output();
        let out = match child {
            Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
            Ok(o) => {
                eprintln!("rackbench {}: {}", w.name(), o.status);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("rackbench {}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        };
        let (body, last) = out
            .trim_end()
            .rsplit_once('\n')
            .unwrap_or(("", out.as_str()));
        println!("{body}");
        let parsed = (|| {
            let ok = json_field(last, "correct")? == "true";
            let a: u64 = json_field(last, "attempted")?.parse().ok()?;
            let f: u64 = json_field(last, "failed")?.parse().ok()?;
            let inner = last.split_once("\"metrics\": {")?.1.strip_suffix("}}")?;
            Some((ok, a, f, inner))
        })();
        let Some((ok, a, f, inner)) = parsed else {
            eprintln!("rackbench {}: no JSON line in its output", w.name());
            return ExitCode::FAILURE;
        };
        correct &= ok;
        attempted += a;
        failed += f;
        // Entries are `"name": {"value": v, "unit": "u"}` joined by ", ";
        // only the separator between two entries follows a `}`.
        let prefix = format!("\"{}.", w.name());
        metrics.push(
            inner
                .replacen('"', &prefix, 1)
                .replace("}, \"", &format!("}}, {prefix}")),
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    match parse_args() {
        Ok(args) => match args.target {
            Target::One(w) => run_one(&args, w),
            Target::All => run_all(&args),
        },
        Err(e) => {
            eprintln!("rackbench: {e}");
            ExitCode::from(2)
        }
    }
}
