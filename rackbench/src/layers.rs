//! Per-layer metrics of a traced run.
//!
//! Every layer is measured from outside the program: spans around the
//! benchmark's calls into the layer's public functions, the engine's
//! public counters read on both sides of each call, the sim-time steps
//! of each op's `OpTrace`, and replays of the data-plane kernels (GF
//! parity, SHA-256 content digest, UDF serialize and parse) on the
//! phase's own sizes. An access span contains the OLFS work beneath it;
//! the `olfs.write.*` and `olfs.read.*` metrics split those same spans
//! by the path the engine took, read off the counter deltas.

use crate::gen::{Content, Rng};
use crate::record::{self, OpKind, Span};
use crate::run::{mb_per_s, metric, Metric, Run};
use crate::workload::Phase;
use ros_disk::{parity, DataPlane};
use ros_olfs::cache::CacheStats;
use ros_olfs::engine::{Counters, ReadSource};
use ros_udf::{format, Bucket, SealedImage, UdfPath};
use std::hint::black_box;
use std::time::Instant;

/// The six read sources of the paper's Table 1, with their metric names.
const SOURCES: [(ReadSource, &str, &str); 6] = [
    (
        ReadSource::DiskBucket,
        "olfs.read.disk_bucket.calls",
        "olfs.read.disk_bucket.wall_ms",
    ),
    (
        ReadSource::DiskImage,
        "olfs.read.disk_image.calls",
        "olfs.read.disk_image.wall_ms",
    ),
    (
        ReadSource::DiscInDrive,
        "olfs.read.disc_in_drive.calls",
        "olfs.read.disc_in_drive.wall_ms",
    ),
    (
        ReadSource::RollerFreeDrives,
        "olfs.read.roller_free_drives.calls",
        "olfs.read.roller_free_drives.wall_ms",
    ),
    (
        ReadSource::RollerUnloadFirst,
        "olfs.read.roller_unload_first.calls",
        "olfs.read.roller_unload_first.wall_ms",
    ),
    (
        ReadSource::RollerDrivesBusy,
        "olfs.read.roller_drives_busy.calls",
        "olfs.read.roller_drives_busy.wall_ms",
    ),
];

const DISC_BYTES: usize = 4 * 1024 * 1024;

/// Sum of wall milliseconds of `spans`.
fn wall_ms<'a>(spans: impl Iterator<Item = &'a Span>) -> f64 {
    spans.map(Span::wall_ms).fold(0.0, |a, b| a + b)
}

/// Median wall time of `f` over `reps` calls, in milliseconds.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    record::median(&samples)
}

/// The per-layer metrics of a traced run, in the order of the table in
/// the benchmark's README.
pub fn per_layer(run: &Run) -> Vec<Metric> {
    let Some(traced) = &run.traced else {
        return Vec::new();
    };
    let untraced = &run.reps[0];
    let name = run.opts.workload.name();
    let phase: Vec<&Span> = run.spans.iter().filter(|s| s.phase == name).collect();
    let named = |n: &'static str| phase.iter().copied().filter(move |s| s.name == n);
    let count = |n| named(n).count() as f64;
    let sum = |f: fn(&Counters) -> u64| phase.iter().map(|s| s.delta(f)).sum::<u64>() as f64;
    let cache = |f: fn(&CacheStats) -> u64| -> f64 {
        phase
            .iter()
            .map(|s| f(&s.after.cache) - f(&s.before.cache))
            .sum::<u64>() as f64
    };
    let writes_with = |f: fn(&Counters) -> u64| -> f64 {
        named("access.write").filter(|s| s.delta(f) > 0).count() as f64
    };

    // Write calls that sealed a bucket, and those that did not.
    let sealed = |s: &&Span| s.delta(|c| c.buckets_sealed) > 0;
    let mut fast_us: Vec<f64> = named("access.write")
        .filter(|s| !sealed(s))
        .map(|s| s.wall_ms() * 1e3)
        .collect();
    let flush_sim_ns: u64 = named("olfs.flush")
        .map(|s| s.after.sim_ns - s.before.sim_ns)
        .sum();
    let read_bytes: u64 = traced
        .ops
        .iter()
        .filter(|o| matches!(o.kind, OpKind::Read | OpKind::ReadRange))
        .map(|o| o.bytes)
        .sum();
    let setup_evict = run
        .spans
        .iter()
        .filter(|s| s.phase == "setup" && s.name == "olfs.evict");
    let audit = traced.audit.clone().unwrap_or_default();
    let audit_ms = wall_ms(named("olfs.audit"));
    let plane = DataPlane::with_threads(run.opts.threads);
    let (parity_ms, reconstruct_ms) = replay_parity(&plane);
    let digest_s = replay_digest(traced, &plane);
    let (serialize_ms, parse_ms) = replay_udf(traced);

    let mut rows = vec![
        // access
        ("access.write.calls", count("access.write"), "count"),
        ("access.write.wall_ms", wall_ms(named("access.write")), "ms"),
        ("access.read.calls", count("access.read"), "count"),
        ("access.read.wall_ms", wall_ms(named("access.read")), "ms"),
        ("trace.smb_sim_s", traced.steps.smb_s, "s"),
        ("trace.switches", traced.steps.switches as f64, "count"),
        // olfs write path
        (
            "olfs.write.fast.wall_p50_us",
            record::quantile(&mut fast_us, 0.5),
            "us",
        ),
        (
            "olfs.write.seal.calls",
            named("access.write").filter(sealed).count() as f64,
            "count",
        ),
        (
            "olfs.write.seal.wall_ms",
            wall_ms(named("access.write").filter(sealed)),
            "ms",
        ),
        ("olfs.write.split.calls", writes_with(|c| c.splits), "count"),
        (
            "olfs.write.dedup_hit.calls",
            writes_with(|c| c.dedup_hits),
            "count",
        ),
        ("olfs.flush.wall_ms", wall_ms(named("olfs.flush")), "ms"),
        ("olfs.flush.sim_s", flush_sim_ns as f64 / 1e9, "s"),
        ("olfs.buckets_sealed", sum(|c| c.buckets_sealed), "count"),
        ("olfs.parity_runs", sum(|c| c.parity_runs), "count"),
        ("olfs.burns", sum(|c| c.burns), "count"),
    ];
    // olfs read path, by Table-1 source.
    for (source, calls, wall) in SOURCES {
        let of = || named("access.read").filter(move |s| s.source == Some(source));
        rows.push((calls, of().count() as f64, "count"));
        rows.push((wall, wall_ms(of()), "ms"));
    }
    rows.extend([
        ("olfs.read_range.calls", count("olfs.read_range"), "count"),
        (
            "olfs.read_range.wall_ms",
            wall_ms(named("olfs.read_range")),
            "ms",
        ),
        ("olfs.fetches", sum(|c| c.fetches), "count"),
        ("olfs.burn_interrupts", sum(|c| c.burn_interrupts), "count"),
        (
            "olfs.read_copy_bytes_per_read_byte",
            ratio(sum(|c| c.read_copy_bytes), read_bytes as f64),
            "ratio",
        ),
        (
            "olfs.cache.hit_ratio",
            ratio(cache(|c| c.hits), cache(|c| c.hits + c.misses)),
            "ratio",
        ),
        ("olfs.cache.evictions", cache(|c| c.evictions), "count"),
        // olfs maintenance
        ("olfs.evict.wall_ms", wall_ms(setup_evict), "ms"),
        ("olfs.audit.wall_ms", audit_ms, "ms"),
        ("olfs.audit.sim_s", audit.elapsed.as_secs_f64(), "s"),
        (
            "olfs.audit.mb_per_wall_s",
            mb_per_s(traced.audited_bytes, audit_ms / 1e3),
            "MB/s",
        ),
        ("olfs.audit.rotted", audit.rotted.len() as f64, "count"),
        ("olfs.audit.repaired", audit.repaired.len() as f64, "count"),
        (
            "olfs.audit.unrepairable",
            audit.unrepairable.len() as f64,
            "count",
        ),
        ("olfs.latent_repairs", sum(|c| c.latent_repairs), "count"),
        ("olfs.reburns", sum(|c| c.reburns), "count"),
        (
            "olfs.crash_restart.wall_ms",
            wall_ms(named("olfs.crash_restart")),
            "ms",
        ),
        (
            "olfs.groups_unburned_after_flush",
            traced.unburned_groups as f64,
            "count",
        ),
        // mech + drive, and disk: sim time from the ops' traces
        ("trace.fetch_sim_s", traced.steps.fetch_s, "s"),
        ("trace.read_sim_s", traced.steps.read_s, "s"),
        ("trace.write_sim_s", traced.steps.write_s, "s"),
        ("trace.meta_sim_s", traced.steps.meta_s, "s"),
        // kernel replays on the phase's own sizes
        ("disk.parity_ms_per_array", parity_ms, "ms"),
        ("disk.reconstruct_ms_per_array", reconstruct_ms, "ms"),
        ("cas.digest_pass_s", digest_s, "s"),
        (
            "cas.digest_pass_share",
            ratio(digest_s, untraced.wall_s),
            "ratio",
        ),
        ("udf.serialize_ms_per_image", serialize_ms, "ms"),
        ("udf.parse_ms_per_image", parse_ms, "ms"),
        // sim, and the cost of tracing itself
        (
            "sim.sim_s_per_wall_s",
            ratio(untraced.sim_s, untraced.wall_s),
            "ratio",
        ),
        (
            "trace.overhead_ms",
            (traced.wall_s - untraced.wall_s) * 1e3,
            "ms",
        ),
        ("trace.spans", run.spans.len() as f64, "count"),
    ]);
    rows.into_iter()
        .map(|(name, value, unit)| metric(name, value, unit))
        .collect()
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// A full RAID-5 array of 4 MiB members: P parity, and reconstruction
/// of one lost data member.
fn replay_parity(plane: &DataPlane) -> (f64, f64) {
    let members: Vec<Vec<u8>> = (0..11)
        .map(|i| {
            Content {
                id: i,
                size: DISC_BYTES as u64,
            }
            .bytes(0xA77A)
        })
        .collect();
    let refs: Vec<&[u8]> = members.iter().map(Vec::as_slice).collect();
    let p = parity::parity_p_padded_with(&refs, plane).expect("equal-length members");
    let parity_ms = median_ms(3, || {
        black_box(parity::parity_p_padded_with(black_box(&refs), plane).ok());
    });
    let mut lost: Vec<Option<&[u8]>> = refs.iter().copied().map(Some).collect();
    lost[5] = None;
    let reconstruct_ms = median_ms(3, || {
        black_box(parity::reconstruct_p_with(black_box(&lost), Some(&p), plane).ok());
    });
    (parity_ms, reconstruct_ms)
}

/// One `content_digest` pass over the phase's workload bytes, call by
/// call at the sizes the phase moved (audited images at disc size).
fn replay_digest(phase: &Phase, plane: &DataPlane) -> f64 {
    let largest = phase.ops.iter().map(|o| o.bytes).max().unwrap_or(0);
    let buf = Content {
        id: 1,
        size: largest.max(DISC_BYTES as u64),
    }
    .bytes(0xD16E);
    let mut sizes: Vec<usize> = phase.ops.iter().map(|o| o.bytes as usize).collect();
    if let Some(audit) = &phase.audit {
        sizes.extend(std::iter::repeat_n(DISC_BYTES, audit.sampled));
    }
    let start = Instant::now();
    for n in sizes {
        black_box(ros_cas::content_digest(black_box(&buf[..n]), plane));
    }
    start.elapsed().as_secs_f64()
}

/// A 4 MiB image packed with the phase's file-size mix: serialize it
/// into UDF, then parse it back (median of 5 each).
fn replay_udf(phase: &Phase) -> (f64, f64) {
    let mut bucket = Bucket::new(1, DISC_BYTES as u64);
    let mut rng = Rng::new(0x0DF, 0);
    let sizes: Vec<u64> = phase
        .ops
        .iter()
        .filter(|o| o.kind == OpKind::Write || o.kind == OpKind::Read)
        .map(|o| o.bytes)
        .collect();
    for (k, size) in sizes.iter().enumerate() {
        let path: UdfPath = format!("/img/d{}/f{k}", rng.below(8))
            .parse()
            .expect("valid path");
        let body = Content {
            id: k as u64,
            size: *size,
        };
        if bucket.cost_of(&path, *size) <= bucket.free_bytes() {
            let _ = bucket.write(&path, body.bytes(0x0DF), 0);
        }
        if bucket.free_bytes() < 64 * 1024 {
            break;
        }
    }
    let image = format::serialize(bucket.tree(), 1, DISC_BYTES as u64).expect("bucket fits");
    let serialize_ms = median_ms(5, || {
        black_box(format::serialize(black_box(bucket.tree()), 1, DISC_BYTES as u64).ok());
    });
    let parse_ms = median_ms(5, || {
        black_box(SealedImage::from_bytes(black_box(image.clone())).ok());
    });
    (serialize_ms, parse_ms)
}
