//! The bench rack and the three workloads.
//!
//! One process drives one seeded rack as a single closed-loop client:
//! each op is sent only after the previous one returned. Client ops go
//! through the NAS gateway (`AccessStack::SambaOlfs`, the paper's NAS
//! path); `read_range` and maintenance calls go to the engine directly.

use crate::gen::{self, ArchiveInputs, Content, IngestInputs, Op, Rng, Scale};
use crate::record::{OpKind, OpSample, Recorder, StepTotals};
use bytes::Bytes;
use ros_access::{AccessStack, NasGateway};
use ros_faults::plan::{FaultEvent, FaultKind, FaultSink, InjectionOutcome};
use ros_mech::RackLayout;
use ros_olfs::{AuditReport, OlfsError, Redundancy, Ros, RosConfig, UdfPath};
use std::collections::BTreeMap;
use std::fmt::Debug;

/// Data-plane worker threads of the bench rack: the host's `nproc`
/// when the benchmark was defined. Results are identical at any count.
pub const DEFAULT_THREADS: usize = 2;

/// The bench rack: `RosConfig::tiny()` discs (4 MiB) on the full
/// `RackLayout::default()`, the prototype's 2 drive bays (24 drives),
/// RAID-5 and an 8-image read cache.
pub fn bench_config(threads: usize, dedup: bool) -> RosConfig {
    let mut cfg = RosConfig::tiny();
    cfg.layout = RackLayout::default();
    cfg.drive_bays = 2;
    cfg.redundancy = Redundancy::Raid5;
    cfg.read_cache_images = 8;
    cfg.data_plane_threads = threads;
    cfg.dedup = dedup;
    cfg
}

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Write path: dedup hashing, seal, parity, burn drain.
    Ingest,
    /// Cold reads: fetch, verify, restore, UDF parse, robot and drives.
    ColdRead,
    /// Audit, repair, crash-restart and read-back of rotted arrays.
    AuditRepair,
}

impl Workload {
    /// All workloads, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [Workload::Ingest, Workload::ColdRead, Workload::AuditRepair];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::ColdRead => "cold_read",
            Workload::AuditRepair => "audit_repair",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The client: a gateway over one rack, plus the generated bodies it
/// checks every read against.
pub struct Client {
    /// The NAS gateway wrapping the rack.
    pub gw: NasGateway,
    seed: u64,
}

/// What a timed phase did, for the end-to-end and per-layer metrics.
#[derive(Clone, Debug, Default)]
pub struct Phase {
    /// Client ops, in order.
    pub ops: Vec<OpSample>,
    /// Wall time spent inside calls to the program (input generation
    /// and read checks excluded), in seconds.
    pub wall_s: f64,
    /// Simulated time the phase took, in seconds.
    pub sim_s: f64,
    /// Workload bytes: client bytes written and read; for
    /// `audit_repair` also the bytes audited.
    pub bytes: u64,
    /// Client bytes written.
    pub written: u64,
    /// Discs consumed by burns during the phase (whole trays).
    pub discs_burned: u64,
    /// Files acked before the phase that a final read could not return.
    pub unreadable: Option<u64>,
    /// The audit pass, for `audit_repair`.
    pub audit: Option<AuditReport>,
    /// Bytes the audit pass verified.
    pub audited_bytes: u64,
    /// Array groups not yet burned after the phase's last flush.
    pub unburned_groups: u64,
    /// Sim time of the client ops, by `OpTrace` step.
    pub steps: StepTotals,
    /// Mechanical fetches the phase's reads caused.
    pub fetches: u64,
}

impl Client {
    /// A fresh bench rack behind the Samba+OLFS gateway.
    pub fn new(seed: u64, threads: usize, dedup: bool) -> Result<Client, String> {
        let ros = Ros::try_new(bench_config(threads, dedup)).map_err(|e| e.to_string())?;
        Ok(Client {
            gw: NasGateway::new(ros, AccessStack::SambaOlfs),
            seed,
        })
    }

    fn ros(&mut self) -> &mut Ros {
        self.gw.ros_mut()
    }

    /// Gateway write of `content` to `path`; true when acked.
    pub fn write(&mut self, rec: &mut Recorder, path: &str, content: Content) -> bool {
        let path = parse_path(path);
        let data = Bytes::from(content.bytes(self.seed));
        let (res, wall_us) = rec.call("access.write", &mut self.gw, |gw| {
            gw.write_file(&path, data)
        });
        if let Ok(r) = &res {
            rec.sim_steps(&r.trace);
        }
        rec.op(
            OpSample {
                kind: OpKind::Write,
                wall_us,
                sim: res.as_ref().ok().map(|r| r.latency),
                first_byte: None,
                bytes: content.size,
                failed: res.is_err(),
            },
            &res.as_ref().map(|r| (r.version, r.segments.len())),
        );
        res.is_ok()
    }

    /// Gateway read of `path`, checked byte-exact against `expect`.
    /// Returns false on a typed error.
    pub fn read(&mut self, rec: &mut Recorder, path: &str, expect: Content) -> bool {
        let path = parse_path(path);
        let (res, wall_us) = rec.call("access.read", &mut self.gw, |gw| gw.read_file(&path));
        let ok = res.is_ok();
        if let Ok(r) = &res {
            rec.tag_source(r.source);
            rec.sim_steps(&r.trace);
            if r.data != expect.bytes(self.seed) {
                rec.wrong_reads += 1;
            }
        }
        rec.op(
            OpSample {
                kind: OpKind::Read,
                wall_us,
                sim: res.as_ref().ok().map(|r| r.latency),
                first_byte: res.as_ref().ok().map(|r| r.first_byte_latency),
                bytes: res.as_ref().map_or(0, |r| r.data.len() as u64),
                failed: !ok,
            },
            &res.as_ref().map(|r| (r.version, r.source)),
        );
        ok
    }

    /// Engine `read_range` of `path`, checked against the slice of
    /// `expect`.
    pub fn read_range(
        &mut self,
        rec: &mut Recorder,
        path: &str,
        expect: Content,
        offset: u64,
        len: u64,
    ) -> bool {
        let path = parse_path(path);
        let (res, wall_us) = rec.call("olfs.read_range", &mut self.gw, |gw| {
            gw.ros_mut().read_range(&path, offset, len)
        });
        let ok = res.is_ok();
        if let Ok(r) = &res {
            rec.sim_steps(&r.trace);
            let body = expect.bytes(self.seed);
            let (lo, hi) = (offset as usize, (offset + len) as usize);
            if r.data != body[lo.min(body.len())..hi.min(body.len())] {
                rec.wrong_reads += 1;
            }
        }
        rec.op(
            OpSample {
                kind: OpKind::ReadRange,
                wall_us,
                sim: res.as_ref().ok().map(|r| r.latency),
                first_byte: res.as_ref().ok().map(|r| r.first_byte_latency),
                bytes: res.as_ref().map_or(0, |r| r.data.len() as u64),
                failed: !ok,
            },
            &res.as_ref().map(|r| (r.version, r.source)),
        );
        ok
    }

    /// A maintenance call on the engine, timed (and traced like a
    /// client op); its result goes into the fingerprint.
    pub fn maint<T: Debug>(
        &mut self,
        rec: &mut Recorder,
        name: &'static str,
        f: impl FnOnce(&mut Ros) -> T,
    ) -> T {
        let (out, _) = rec.call(name, &mut self.gw, |gw| f(gw.ros_mut()));
        rec.fold(&(name, &out));
        out
    }

    /// A maintenance call that counts as an attempted client op: its
    /// typed error counts as a failed op.
    pub fn maint_op<T: Debug>(
        &mut self,
        rec: &mut Recorder,
        name: &'static str,
        kind: OpKind,
        f: impl FnOnce(&mut Ros) -> Result<T, OlfsError>,
    ) -> Result<T, OlfsError> {
        let (out, wall_us) = rec.call(name, &mut self.gw, |gw| f(gw.ros_mut()));
        let sample = OpSample {
            kind,
            wall_us,
            sim: None,
            first_byte: None,
            bytes: 0,
            failed: out.is_err(),
        };
        rec.op(sample, &out);
        out
    }

    /// Flush that must succeed (set-up only).
    fn flush_clean(&mut self, rec: &mut Recorder) -> Result<(), String> {
        self.maint(rec, "olfs.flush", Ros::flush)
            .map_err(|e| format!("set-up flush failed: {e}"))
    }
}

fn parse_path(p: &str) -> UdfPath {
    p.parse().expect("generated paths are valid UDF paths")
}

/// Opens a phase on the recorder and snapshots the clocks it is
/// measured against.
struct PhaseClock {
    sim_ns: u64,
    burns: u64,
    fetches: u64,
}

impl PhaseClock {
    fn start(rec: &mut Recorder, client: &mut Client, name: &'static str) -> PhaseClock {
        rec.begin_phase(name);
        let ros = client.ros();
        PhaseClock {
            sim_ns: ros.now().as_nanos(),
            burns: ros.counters().burns,
            fetches: ros.counters().fetches,
        }
    }

    fn finish(self, rec: &mut Recorder, client: &mut Client) -> Phase {
        let ros = client.gw.ros();
        let census = ros.group_census();
        let phase = Phase {
            ops: rec.ops.clone(),
            wall_s: rec.call_wall_s(),
            sim_s: (ros.now().as_nanos() - self.sim_ns) as f64 / 1e9,
            bytes: rec.ops.iter().map(|o| o.bytes).sum(),
            written: rec
                .ops
                .iter()
                .filter(|o| o.kind == OpKind::Write)
                .map(|o| o.bytes)
                .sum(),
            discs_burned: (ros.counters().burns - self.burns)
                * u64::from(ros.config().array_size()),
            unburned_groups: (census.0 + census.1 + census.2 + census.3) as u64,
            steps: rec.steps,
            fetches: ros.counters().fetches - self.fetches,
            ..Phase::default()
        };
        rec.fold(&(
            ros.counters(),
            ros.cache_stats(),
            census,
            ros.now(),
            rec.steps,
        ));
        phase
    }
}

/// `ingest` phase: the op list, timed through the final `flush`.
pub fn ingest_phase(client: &mut Client, rec: &mut Recorder, inputs: &IngestInputs) -> Phase {
    let clock = PhaseClock::start(rec, client, "ingest");
    let mut latest: Vec<Option<Content>> = vec![None; inputs.paths.len()];
    for op in &inputs.ops {
        match *op {
            Op::Write { path, content } | Op::Update { path, content } => {
                if client.write(rec, &inputs.paths[path], content) {
                    latest[path] = Some(content);
                }
            }
            Op::Read { path } | Op::ReadRange { path, .. } => {
                // Reads only ever target files whose write was acked.
                if let Some(content) = latest[path] {
                    client.read(rec, &inputs.paths[path], content);
                }
            }
        }
    }
    let _ = client.maint_op(rec, "olfs.flush", OpKind::Flush, Ros::flush);
    clock.finish(rec, client)
}

/// `cold_read` / `audit_repair` set-up: write the archive with dedup
/// off, flush it to disc, drop every buffer copy and unload the bays,
/// so the optical media hold the only copy.
pub fn archive_setup(
    rec: &mut Recorder,
    inputs: &ArchiveInputs,
    seed: u64,
    threads: usize,
) -> Result<Client, String> {
    rec.begin_phase("setup");
    let mut client = Client::new(seed, threads, false)?;
    for (path, content) in inputs.paths.iter().zip(&inputs.contents) {
        if !client.write(rec, path, *content) {
            return Err(format!("set-up write of {path} failed"));
        }
    }
    client.flush_clean(rec)?;
    client.maint(rec, "olfs.evict", Ros::evict_all_burned_copies);
    client
        .maint(rec, "olfs.unload", Ros::unload_all_bays)
        .map_err(|e| format!("unload failed: {e}"))?;
    Ok(client)
}

/// `cold_read` phase: the Zipf(0.9) read list against the cold archive.
pub fn cold_read_phase(client: &mut Client, rec: &mut Recorder, inputs: &ArchiveInputs) -> Phase {
    let clock = PhaseClock::start(rec, client, "cold_read");
    for op in &inputs.reads {
        match *op {
            Op::Read { path } => {
                client.read(rec, &inputs.paths[path], inputs.contents[path]);
            }
            Op::ReadRange { path, offset, len } => {
                let content = inputs.contents[path];
                client.read_range(rec, &inputs.paths[path], content, offset, len);
            }
            Op::Write { .. } | Op::Update { .. } => {}
        }
    }
    clock.finish(rec, client)
}

/// Rots one seeded disc in every burned array — within RAID-5's one
/// tolerated loss per array. Returns how many arrays were struck.
///
/// `FaultKind::MediaRot` picks its victim by index into the burned
/// in-tray discs in disc-id order. Disc ids run tray by tray, each tray
/// burned from position 0: data images first, then parity. The data
/// images' locations therefore give every burned tray and its burned
/// disc count.
pub fn rot_every_array(client: &mut Client, inputs: &ArchiveInputs) -> Result<usize, String> {
    let ros = client.gw.ros();
    let mut trays: BTreeMap<u64, u64> = BTreeMap::new();
    for path in &inputs.paths {
        for image in ros.image_segments(&parse_path(path)).unwrap_or_default() {
            if let Some(loc) = ros.locate_image(image) {
                let base = loc.disc.0 - u64::from(loc.position);
                let top = trays.entry(base).or_default();
                *top = (*top).max(u64::from(loc.position) + 1);
            }
        }
    }
    let burned_groups = ros.group_census().4;
    if trays.len() != burned_groups {
        return Err(format!(
            "located {} burned trays but the rack reports {burned_groups} burned groups",
            trays.len()
        ));
    }
    let parity = u64::from(ros.config().redundancy.parity_discs());
    let mut pick: Rng = inputs.rot_pick.clone();
    let mut first = 0u64;
    for data_discs in trays.values() {
        let discs = data_discs + parity;
        let event = FaultEvent {
            seq: 0,
            at_op: 0,
            kind: FaultKind::MediaRot {
                disc: first + pick.below(discs),
                bytes: 8,
            },
        };
        if client.ros().inject_fault(&event) != InjectionOutcome::Injected {
            return Err(format!("media rot was not injected: {:?}", event.kind));
        }
        first += discs;
    }
    Ok(trays.len())
}

/// `audit_repair` phase: audit every image, read every acked file back,
/// crash and restart, flush, and read everything back once more.
pub fn audit_repair_phase(
    client: &mut Client,
    rec: &mut Recorder,
    inputs: &ArchiveInputs,
) -> Phase {
    let clock = PhaseClock::start(rec, client, "audit_repair");
    let images = client.gw.ros().status().images;
    let audit = client.maint(rec, "olfs.audit", |ros| ros.audit_sample(images));
    let read_back = |client: &mut Client, rec: &mut Recorder| -> u64 {
        let mut unreadable = 0;
        for (path, content) in inputs.paths.iter().zip(&inputs.contents) {
            if !client.read(rec, path, *content) {
                unreadable += 1;
            }
        }
        unreadable
    };
    read_back(client, rec);
    let _ = client.maint_op(
        rec,
        "olfs.crash_restart",
        OpKind::Restart,
        Ros::simulate_crash_and_restart,
    );
    let _ = client.maint_op(rec, "olfs.flush", OpKind::Flush, Ros::flush);
    let unreadable = read_back(client, rec);
    let mut phase = clock.finish(rec, client);
    // Counted at the disc image size: the engine does not publish
    // per-image payload sizes.
    phase.audited_bytes = audit.sampled as u64 * client.gw.ros().config().disc_class.capacity();
    phase.bytes += phase.audited_bytes;
    phase.unreadable = Some(unreadable);
    phase.audit = Some(audit);
    phase
}

/// Inputs of one workload, generated before anything is timed.
pub enum Inputs {
    /// `ingest`.
    Ingest(IngestInputs),
    /// `cold_read` and `audit_repair`.
    Archive(ArchiveInputs),
}

impl Inputs {
    /// Generates the inputs of `workload` from `seed`.
    pub fn generate(workload: Workload, seed: u64, scale: Scale) -> Inputs {
        match workload {
            Workload::Ingest => Inputs::Ingest(gen::ingest(seed, scale)),
            Workload::ColdRead | Workload::AuditRepair => {
                Inputs::Archive(gen::archive(seed, scale))
            }
        }
    }
}
