//! What a run records: one sample per client op (both clocks), and —
//! in a traced run only — one span per call into a layer's public
//! functions, with the engine's public counters read on both sides.
//!
//! Spans stay in memory; `main` writes them out when the run ends.

use ros_access::NasGateway;
use ros_olfs::cache::CacheStats;
use ros_olfs::engine::{Counters, ReadSource};
use ros_olfs::trace::OpTrace;
use ros_olfs::Ros;
use ros_sim::SimDuration;
use std::fmt::Debug;
use std::time::Instant;

/// Client-visible operation kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Gateway `write_file` (create or regenerating update).
    Write,
    /// Gateway `read_file`.
    Read,
    /// Engine `read_range`.
    ReadRange,
    /// Engine `flush` (seal → parity → burn drain).
    Flush,
    /// Engine `simulate_crash_and_restart`.
    Restart,
}

/// One client op, measured on both clocks.
#[derive(Clone, Debug)]
pub struct OpSample {
    /// What the op was.
    pub kind: OpKind,
    /// Host time spent inside the call, in microseconds.
    pub wall_us: f64,
    /// Latency the gateway (or engine) reported; `None` for failed ops
    /// and for maintenance calls, which report none.
    pub sim: Option<SimDuration>,
    /// Reported time to first byte, for reads.
    pub first_byte: Option<SimDuration>,
    /// Payload bytes moved (written or read back).
    pub bytes: u64,
    /// The call returned a typed error.
    pub failed: bool,
}

/// The engine's public counters at one instant.
#[derive(Clone, Copy, Debug)]
pub struct Snapshot {
    /// Activity counters.
    pub counters: Counters,
    /// Read-cache statistics.
    pub cache: CacheStats,
    /// Simulated clock, in nanoseconds.
    pub sim_ns: u64,
}

impl Snapshot {
    /// Reads the counters of `ros`.
    pub fn of(ros: &Ros) -> Snapshot {
        Snapshot {
            counters: ros.counters(),
            cache: ros.cache_stats(),
            sim_ns: ros.now().as_nanos(),
        }
    }
}

/// One timed call into a layer, recorded only when tracing is on.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.call` name, e.g. `access.write` or `olfs.audit`.
    pub name: &'static str,
    /// Phase the call belongs to (`setup` or the workload's phase).
    pub phase: &'static str,
    /// Client-op id within the run (maintenance calls get one too).
    pub op: u64,
    /// Wall-clock start and end, in ns since the run began.
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
    /// Counters before the call.
    pub before: Snapshot,
    /// Counters after the call.
    pub after: Snapshot,
    /// Where a read was served from.
    pub source: Option<ReadSource>,
}

impl Span {
    /// Wall duration in milliseconds.
    pub fn wall_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    /// Counter delta across the call.
    pub fn delta(&self, f: fn(&Counters) -> u64) -> u64 {
        f(&self.after.counters) - f(&self.before.counters)
    }
}

/// Simulated time of a phase's client ops, split by the steps of their
/// `OpTrace`s (Figure 7's decomposition at workload scale).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StepTotals {
    /// SMB protocol overhead (`smb` extras).
    pub smb_s: f64,
    /// Mechanical fetch and drive load (`fetch` extras).
    pub fetch_s: f64,
    /// Data reads from the buffer, cache or a loaded disc (`read`).
    pub read_s: f64,
    /// Bucket writes (`write`).
    pub write_s: f64,
    /// Metadata-volume work: `stat`, `mknod` and `close`.
    pub meta_s: f64,
    /// Kernel-user switches between internal steps.
    pub switches: u64,
}

impl StepTotals {
    fn add(&mut self, trace: &OpTrace) {
        for step in &trace.steps {
            let s = step.duration.as_secs_f64();
            match step.name.as_str() {
                "read" => self.read_s += s,
                "write" => self.write_s += s,
                _ => self.meta_s += s,
            }
        }
        for extra in &trace.extra {
            match extra.name.as_str() {
                "smb" => self.smb_s += extra.duration.as_secs_f64(),
                "fetch" => self.fetch_s += extra.duration.as_secs_f64(),
                _ => {}
            }
        }
        self.switches += trace.switches();
    }
}

/// Collects op samples, spans and the determinism fingerprint.
pub struct Recorder {
    traced: bool,
    origin: Instant,
    phase: &'static str,
    next_op: u64,
    /// Client ops of the current phase.
    pub ops: Vec<OpSample>,
    /// Spans of the whole run (traced runs only).
    pub spans: Vec<Span>,
    /// Reads whose bytes differed from the generated input.
    pub wrong_reads: u64,
    /// Sim-time step totals of the current phase's client ops.
    pub steps: StepTotals,
    call_wall_us: f64,
    fingerprint: u64,
}

impl Recorder {
    /// A recorder; `traced` turns span recording on.
    pub fn new(traced: bool) -> Recorder {
        Recorder {
            traced,
            origin: Instant::now(),
            phase: "setup",
            next_op: 0,
            ops: Vec::new(),
            spans: Vec::new(),
            wrong_reads: 0,
            steps: StepTotals::default(),
            call_wall_us: 0.0,
            fingerprint: 0xCBF2_9CE4_8422_2325,
        }
    }

    /// Starts a phase: later spans carry its name, and op samples are
    /// collected afresh.
    pub fn begin_phase(&mut self, phase: &'static str) {
        self.phase = phase;
        self.ops.clear();
        self.steps = StepTotals::default();
        self.call_wall_us = 0.0;
    }

    /// Wall time spent inside calls since the phase began, in seconds.
    pub fn call_wall_s(&self) -> f64 {
        self.call_wall_us / 1e6
    }

    /// Adds a client op's sim-time trace to the phase totals.
    pub fn sim_steps(&mut self, trace: &OpTrace) {
        self.steps.add(trace);
    }

    /// Times `f` as a call into a layer. With tracing on, it records a
    /// span and reads the engine's counters on both sides of the call.
    pub fn call<T>(
        &mut self,
        name: &'static str,
        gw: &mut NasGateway,
        f: impl FnOnce(&mut NasGateway) -> T,
    ) -> (T, f64) {
        let before = self.traced.then(|| Snapshot::of(gw.ros()));
        let start = Instant::now();
        let out = f(gw);
        let end = Instant::now();
        let wall_us = (end - start).as_secs_f64() * 1e6;
        self.call_wall_us += wall_us;
        self.next_op += 1;
        if let Some(before) = before {
            self.spans.push(Span {
                name,
                phase: self.phase,
                op: self.next_op,
                start_ns: (start - self.origin).as_nanos() as u64,
                end_ns: (end - self.origin).as_nanos() as u64,
                before,
                after: Snapshot::of(gw.ros()),
                source: None,
            });
        }
        (out, wall_us)
    }

    /// Tags the most recent span with the read source it reported.
    pub fn tag_source(&mut self, source: ReadSource) {
        if let Some(span) = self.spans.last_mut() {
            span.source = Some(source);
        }
    }

    /// Records a client op and folds its outcome into the fingerprint.
    pub fn op(&mut self, sample: OpSample, outcome: &impl Debug) {
        self.fold(&(
            sample.kind,
            sample.sim,
            sample.first_byte,
            sample.bytes,
            outcome,
        ));
        self.ops.push(sample);
    }

    /// Folds any deterministic value (counters, reports, op outcomes)
    /// into the run's fingerprint.
    pub fn fold(&mut self, value: &impl Debug) {
        for b in format!("{value:?}").bytes() {
            self.fingerprint = (self.fingerprint ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// FNV-1a over every op outcome, sim latency and counter folded in.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// Quantile `q` of `values` by the nearest-rank rule (0 when empty).
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(&mut values.to_vec(), 0.5)
}

/// Peak resident set of this process in MB, from `/proc/self/status`
/// (0 where that file does not exist).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
