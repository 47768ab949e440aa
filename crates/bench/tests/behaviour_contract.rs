//! The behaviour contract a refactor must keep (ROADMAP, "Quality of
//! design"): fixed digests of the seeded chaos soak timeline, of the
//! durability campaign's JSON report, and of the per-op sim charges of
//! every OLFS write and read branch.
//!
//! `repro chaos --smoke` and `repro durability --smoke` already check
//! that two runs agree with each other. These tests pin the values
//! themselves, so a change that shifts the simulated timeline or any
//! durability figure fails here, even when it stays self-consistent.
//! If a change is *meant* to move them, update the constants in the
//! same change and say why.

use ros_bench::chaos::{run_chaos, ChaosConfig};
use ros_bench::render::render_durability;
use ros_drive::media::fnv1a;

/// `repro chaos --smoke`: "timeline digest 0x5fffeec46621e147".
const CHAOS_SMOKE_TIMELINE_DIGEST: u64 = 0x5fff_eec4_6621_e147;

/// FNV-1a of the exact stdout of `repro durability --smoke --json`.
const DURABILITY_SMOKE_JSON_FNV1A: u64 = 0xaa68_a9eb_b1a9_c5ff;

#[test]
fn chaos_smoke_timeline_digest_is_pinned() {
    let report = run_chaos(&ChaosConfig::smoke()).expect("chaos smoke runs");
    assert_eq!(
        report.timeline_digest, CHAOS_SMOKE_TIMELINE_DIGEST,
        "chaos smoke timeline moved: {:#018x}",
        report.timeline_digest
    );
}

#[test]
fn durability_smoke_json_is_pinned() {
    let json = render_durability(true, true).expect("durability smoke runs");
    assert_eq!(
        fnv1a(json.as_bytes()),
        DURABILITY_SMOKE_JSON_FNV1A,
        "durability smoke JSON changed:\n{json}"
    );
}

/// FNV-1a over [`olfs_op_charges_trace`]: the per-op sim charges of
/// every write and read branch of the OLFS engine.
const OLFS_OP_CHARGES_FNV1A: u64 = 0xeeef_7c5c_aa47_9732;

fn olfs_p(s: &str) -> ros_olfs::UdfPath {
    s.parse().expect("valid path")
}

/// Deterministic test body `n` bytes long, distinct per `seed`.
fn olfs_body(seed: u8, n: usize) -> Vec<u8> {
    (0..n)
        .map(|i| (i as u64 * 31 + u64::from(seed) * 7) as u8)
        .collect()
}

/// The golden OLFS script: a rack, the log of every report, and the
/// bytes of each retained version per path (for the byte checks).
struct OlfsScript {
    ros: ros_olfs::Ros,
    log: String,
    files: Vec<(&'static str, Vec<Vec<u8>>)>,
}

impl OlfsScript {
    fn write(&mut self, path: &'static str, data: Vec<u8>) {
        let w = self
            .ros
            .write_file(&olfs_p(path), data.clone())
            .expect("write");
        self.log.push_str(&format!(
            "write {path} v{} {:?} {:?} {:?}\n",
            w.version, w.segments, w.latency, w.trace
        ));
        match self.files.iter_mut().find(|(p, _)| *p == path) {
            Some((_, versions)) => versions.push(data),
            None => self.files.push((path, vec![data])),
        }
    }

    /// Logs one read. Served bytes must equal `expect`; an error (an
    /// in-place update overwrote the version) is logged as such.
    fn record(
        &mut self,
        label: String,
        result: Result<ros_olfs::ReadReport, ros_olfs::OlfsError>,
        expect: &[u8],
    ) {
        let line = match result {
            Ok(r) => {
                assert_eq!(r.data.as_ref(), expect, "{label}: wrong bytes");
                format!(
                    "{label} v{} {:?} {:?} {:?} {:?} {}\n",
                    r.version,
                    r.latency,
                    r.first_byte_latency,
                    r.source,
                    r.trace,
                    r.data.len()
                )
            }
            Err(e) => format!("{label} err {e:?}\n"),
        };
        self.log.push_str(&line);
    }

    /// Reads every file whole, every retained version, and three ranges
    /// (inside the forepart, outside it, past the end). `cold` drops
    /// every burned disk copy before each read, so each pays a fetch.
    fn battery(&mut self, stage: &str, cold: bool) {
        for (path, versions) in self.files.clone() {
            let p = olfs_p(path);
            let newest = versions.last().expect("written");
            let mut reads = vec![(format!("read_file {path}"), None, (0, u64::MAX))];
            for ver in 1..=versions.len() as u32 {
                reads.push((
                    format!("read_version {path} {ver}"),
                    Some(ver),
                    (0, u64::MAX),
                ));
            }
            for range in [(0u64, 1_000u64), (20_000, 10_000), (4_000_000, 300_000)] {
                reads.push((format!("read_range {path} {range:?}"), None, range));
            }
            for (label, ver, (offset, len)) in reads {
                if cold {
                    self.ros.evict_all_burned_copies();
                }
                let (result, bytes) = match ver {
                    Some(v) => (self.ros.read_version(&p, v), &versions[v as usize - 1]),
                    None if len == u64::MAX => (self.ros.read_file(&p), newest),
                    None => (self.ros.read_range(&p, offset, len), newest),
                };
                let lo = (offset as usize).min(bytes.len());
                let hi = (offset.saturating_add(len) as usize).min(bytes.len());
                self.record(format!("{stage} {label}"), result, &bytes[lo..hi]);
            }
        }
    }
}

/// Scripts one `RosConfig::tiny()` rack (dedup on) through every write
/// branch — fresh, dedup-hit fresh, in-place update, regenerated
/// update, dedup-hit update, split file — and reads every file back
/// whole, by version and by range inside and outside the forepart, with
/// the data in an open bucket, a sealed image, a disc in a drive and a
/// disc on its tray. Returns the log of every report and the final
/// counters.
fn olfs_op_charges_trace() -> String {
    let mut cfg = ros_olfs::RosConfig::tiny();
    cfg.dedup = true;
    let mut s = OlfsScript {
        ros: ros_olfs::Ros::new(cfg),
        log: String::new(),
        files: Vec::new(),
    };

    // Bucket residency: fresh, dedup-hit fresh, in-place update.
    s.write("/g/a", olfs_body(1, 100_000));
    s.write("/g/b", olfs_body(1, 100_000));
    s.write("/g/c", olfs_body(3, 50_000));
    s.write("/g/c", olfs_body(4, 60_000));
    s.write("/g/d", olfs_body(5, 30_000));
    s.battery("bucket", false);

    // Image residency. Updates of sealed versions regenerate; /g/b's
    // new content matches /g/c's catalogued bytes (a dedup-hit update).
    s.ros.seal_open_buckets().expect("seal");
    s.battery("image", false);
    s.write("/g/d", olfs_body(6, 40_000));
    s.write("/g/b", olfs_body(4, 60_000));
    s.write("/g/big", olfs_body(7, 6 * 1024 * 1024));
    s.battery("mixed", false);

    // Disc residency: the array still in the drives, then on its tray.
    s.ros.flush().expect("flush");
    s.battery("drive", true);
    s.ros.evict_all_burned_copies();
    s.ros.unload_all_bays().expect("unload");
    s.battery("tray", false);

    s.log.push_str(&format!("{:?}\n", s.ros.counters()));
    s.log
}

#[test]
fn olfs_op_charges_are_pinned() {
    let log = olfs_op_charges_trace();
    let digest = fnv1a(log.as_bytes());
    assert_eq!(
        digest, OLFS_OP_CHARGES_FNV1A,
        "OLFS per-op charges changed ({digest:#018x}):\n{log}"
    );
}
