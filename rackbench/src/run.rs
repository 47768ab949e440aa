//! One benchmark run: set-ups, timed phases and the end-to-end metrics.
//!
//! An untraced run repeats "set up a fresh rack, run the timed phase"
//! until at least `MIN_REPS` repetitions and `--seconds` of wall time
//! have passed. Every wall-clock metric is the median over repetitions,
//! which rides out the bursts of a shared host. Every repetition is the
//! same simulation, so sim-time metrics, counters and op outcomes come
//! from the first, and the fingerprints of all of them must agree.
//!
//! A traced run makes one untraced and one traced repetition on
//! identical inputs; the difference of their phase wall times is the
//! tracing overhead.

use crate::gen::Scale;
use crate::record::{self, OpKind, OpSample, Recorder, Span};
use crate::workload::{self, Client, Inputs, Phase, Workload};
use std::time::{Duration, Instant};

/// How a run is made.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Minimum wall time spent repeating set-up and phase.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics.
    pub traced: bool,
    /// Data-plane worker threads of the bench rack.
    pub threads: usize,
    /// Workload dimensions.
    pub scale: Scale,
}

/// End-to-end metrics the last JSON line of an untraced run carries,
/// as `BENCHMARK.json` lists them: those every workload reports, that
/// are never 0 and that repeat across seeds within their bounds.
/// `sim_first_byte_p99_ms`, `sim_mb_per_s`, `discs_per_client_gb`,
/// `failed_op_share` and `acked_files_unreadable` are printed in the
/// table only; failed ops also reach the JSON line through `failed`.
pub const CONTRACT_E2E: [&str; 7] = [
    "setup_s",
    "mb_per_wall_s",
    "op_wall_p50_us",
    "op_wall_p99_us",
    "sim_op_p50_ms",
    "sim_op_p99_ms",
    "peak_rss_mb",
];

/// Empty racks built per `ingest` repetition to time its set-up.
const INGEST_SETUPS: usize = 5;

/// Repetitions per untraced run, at least.
pub const MIN_REPS: usize = 3;

/// Everything one run measured.
pub struct Run {
    /// The options the run was made with.
    pub opts: Opts,
    /// Wall seconds of each set-up.
    pub setups_s: Vec<f64>,
    /// Untraced repetitions of the timed phase, in order.
    pub reps: Vec<Phase>,
    /// Fingerprint of each untraced repetition.
    pub fingerprints: Vec<u64>,
    /// The traced repetition (traced runs only).
    pub traced: Option<Phase>,
    /// Spans of the traced repetition and its set-up.
    pub spans: Vec<Span>,
    /// Reads that returned bytes other than the generated input.
    pub wrong_reads: u64,
    /// Peak resident set after the first repetition, in MB: later
    /// repetitions only add allocator fragmentation.
    pub peak_rss_mb: f64,
}

fn setup(inputs: &Inputs, rec: &mut Recorder, o: &Opts) -> Result<(Client, f64), String> {
    match inputs {
        Inputs::Ingest(_) => {
            // An empty rack builds in milliseconds: time several and keep
            // the median, so one page-fault burst does not set the figure.
            let mut times = Vec::with_capacity(INGEST_SETUPS);
            let mut client = None;
            for _ in 0..INGEST_SETUPS {
                drop(client.take());
                let start = Instant::now();
                client = Some(Client::new(o.seed, o.threads, true)?);
                times.push(start.elapsed().as_secs_f64());
            }
            let client = client.expect("INGEST_SETUPS is positive");
            Ok((client, record::median(&times)))
        }
        Inputs::Archive(a) => {
            let mut client = workload::archive_setup(rec, a, o.seed, o.threads)?;
            let wall = rec.call_wall_s();
            if o.workload == Workload::AuditRepair {
                let arrays = workload::rot_every_array(&mut client, a)?;
                rec.fold(&("rotted arrays", arrays));
            }
            Ok((client, wall))
        }
    }
}

/// One repetition: a fresh rack, then the timed phase.
fn repetition(inputs: &Inputs, rec: &mut Recorder, o: &Opts) -> Result<(Phase, f64), String> {
    let (mut client, setup_s) = setup(inputs, rec, o)?;
    let phase = match (inputs, o.workload) {
        (Inputs::Ingest(i), _) => workload::ingest_phase(&mut client, rec, i),
        (Inputs::Archive(a), Workload::AuditRepair) => {
            workload::audit_repair_phase(&mut client, rec, a)
        }
        (Inputs::Archive(a), _) => workload::cold_read_phase(&mut client, rec, a),
    };
    Ok((phase, setup_s))
}

/// Makes one run.
pub fn run(o: Opts) -> Result<Run, String> {
    let inputs = Inputs::generate(o.workload, o.seed, o.scale);
    let mut out = Run {
        opts: o,
        setups_s: Vec::new(),
        reps: Vec::new(),
        fingerprints: Vec::new(),
        traced: None,
        spans: Vec::new(),
        wrong_reads: 0,
        peak_rss_mb: 0.0,
    };
    let window = Instant::now();
    let wanted = if o.traced { 1 } else { MIN_REPS };
    while out.reps.len() < wanted
        || (!o.traced && window.elapsed() < Duration::from_secs_f64(o.seconds))
    {
        let mut rec = Recorder::new(false);
        let (phase, setup_s) = repetition(&inputs, &mut rec, &o)?;
        out.setups_s.push(setup_s);
        out.reps.push(phase);
        out.fingerprints.push(rec.fingerprint());
        out.wrong_reads += rec.wrong_reads;
        if out.reps.len() == 1 {
            out.peak_rss_mb = record::peak_rss_mb();
        }
    }
    if o.traced {
        let mut rec = Recorder::new(true);
        let (phase, _) = repetition(&inputs, &mut rec, &o)?;
        out.traced = Some(phase);
        out.wrong_reads += rec.wrong_reads;
        out.spans = rec.spans;
    }
    Ok(out)
}

/// A named measurement with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Stable metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Whether an op moves client data (its latency is a client latency).
fn is_data_op(kind: OpKind) -> bool {
    matches!(kind, OpKind::Write | OpKind::Read | OpKind::ReadRange)
}

/// `bytes / 1e6 / seconds`, 0 when no time passed.
pub fn mb_per_s(bytes: u64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        bytes as f64 / 1e6 / seconds
    } else {
        0.0
    }
}

/// End-to-end metrics that depend only on the seed, never on the host.
const DETERMINISTIC: [&str; 7] = [
    "sim_op_p50_ms",
    "sim_op_p99_ms",
    "sim_first_byte_p99_ms",
    "sim_mb_per_s",
    "discs_per_client_gb",
    "failed_op_share",
    "acked_files_unreadable",
];

impl Run {
    /// What must repeat exactly for a seed, at any thread count: the
    /// fingerprint and the bits of every deterministic metric.
    pub fn deterministic_view(&self) -> (Option<u64>, Vec<(&'static str, u64)>) {
        let metrics = self
            .end_to_end()
            .into_iter()
            .filter(|m| DETERMINISTIC.contains(&m.name))
            .map(|m| (m.name, m.value.to_bits()))
            .collect();
        (self.fingerprint(), metrics)
    }

    /// The fingerprint all untraced repetitions share; `None` when they
    /// differ, which would mean the program is not deterministic.
    pub fn fingerprint(&self) -> Option<u64> {
        let first = *self.fingerprints.first()?;
        self.fingerprints
            .iter()
            .all(|&f| f == first)
            .then_some(first)
    }

    /// Ops attempted and failed in the first repetition. Every
    /// repetition runs the same ops to the same outcomes (the
    /// fingerprint checks it), so the figures do not depend on how many
    /// repetitions fit into `--seconds`.
    pub fn attempted_failed(&self) -> (usize, usize) {
        let ops = &self.reps[0].ops;
        (ops.len(), ops.iter().filter(|o| o.failed).count())
    }

    /// The end-to-end metrics that apply to this run's workload.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let first = &self.reps[0];
        // Latencies on both clocks are those of served client ops; failed
        // ops have none to report and are counted by `failed_op_share`.
        let data = |p: &'_ Phase| -> Vec<OpSample> {
            p.ops
                .iter()
                .filter(|o| is_data_op(o.kind) && !o.failed)
                .cloned()
                .collect()
        };
        let per_rep = |f: &dyn Fn(&Phase) -> f64| {
            record::median(&self.reps.iter().map(f).collect::<Vec<f64>>())
        };
        let wall_q = |q: f64| {
            per_rep(&|p: &Phase| {
                let mut wall: Vec<f64> = data(p).iter().map(|o| o.wall_us).collect();
                record::quantile(&mut wall, q)
            })
        };
        let ms = |d: ros_sim::SimDuration| d.as_secs_f64() * 1e3;
        let mut sim: Vec<f64> = data(first).iter().filter_map(|o| o.sim).map(ms).collect();
        let mut first_byte: Vec<f64> = data(first)
            .iter()
            .filter_map(|o| o.first_byte)
            .map(ms)
            .collect();
        let failed = first.ops.iter().filter(|o| o.failed).count();
        let mut m = vec![
            metric("setup_s", record::median(&self.setups_s), "s"),
            metric(
                "mb_per_wall_s",
                per_rep(&|p: &Phase| mb_per_s(p.bytes, p.wall_s)),
                "MB/s",
            ),
            metric("op_wall_p50_us", wall_q(0.50), "us"),
            metric("op_wall_p99_us", wall_q(0.99), "us"),
            metric("op_wall_samples", data(first).len() as f64, "count"),
            metric("sim_op_p50_ms", record::quantile(&mut sim, 0.50), "ms"),
            metric("sim_op_p99_ms", record::quantile(&mut sim, 0.99), "ms"),
            metric(
                "sim_first_byte_p99_ms",
                record::quantile(&mut first_byte, 0.99),
                "ms",
            ),
            metric("sim_mb_per_s", mb_per_s(first.bytes, first.sim_s), "MB/s"),
        ];
        if self.opts.workload == Workload::Ingest {
            let gb = first.written as f64 / 1e9;
            m.push(metric(
                "discs_per_client_gb",
                first.discs_burned as f64 / gb,
                "discs/GB",
            ));
        }
        m.push(metric(
            "failed_op_share",
            failed as f64 / first.ops.len().max(1) as f64,
            "share",
        ));
        if let Some(n) = first.unreadable {
            m.push(metric("acked_files_unreadable", n as f64, "count"));
        }
        m.push(metric("peak_rss_mb", self.peak_rss_mb, "MB"));
        m
    }
}
