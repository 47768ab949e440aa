//! Seeded workload inputs.
//!
//! Everything a workload feeds the rack is derived from the `--seed`
//! argument here: file sizes, duplicate choices, update targets, Zipf
//! read order and the rot victims. File contents are never stored: a
//! [`Content`] names them, and [`Content::bytes`] regenerates the same
//! bytes on demand, both for the write and for the byte-exact check of
//! every read.

/// One file body: regenerated from `(seed, id)`, so two files with the
/// same `Content` carry byte-identical payloads (exact duplicates).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Content {
    /// Content identity; distinct ids give distinct bytes.
    pub id: u64,
    /// Length in bytes.
    pub size: u64,
}

impl Content {
    /// The file body for this content under `seed`.
    pub fn bytes(self, seed: u64) -> Vec<u8> {
        let mut state = mix(seed ^ mix(self.id.wrapping_add(1)));
        let len = usize::try_from(self.size).expect("file sizes fit in memory");
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            out.extend_from_slice(&mix(state).to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

/// SplitMix64 finaliser.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64 stream: small, fast and identical on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for one purpose (`tag`) of one seed.
    pub fn new(seed: u64, tag: u64) -> Rng {
        Rng(mix(seed ^ mix(tag)))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Log-uniform in `[lo, hi)`.
    pub fn log_uniform(&mut self, lo: u64, hi: u64) -> u64 {
        let (l, h) = ((lo as f64).ln(), (hi as f64).ln());
        ((l + (h - l) * self.unit()).exp() as u64).clamp(lo, hi - 1)
    }
}

const KIB: u64 = 1024;
const MIB: u64 = 1024 * KIB;

/// The heavy-tailed size mix at quantile `q` in `[0, 1)`: the top
/// `large_share` of files are 0.5–6 MiB (they split across 4 MiB
/// images), the rest 2–64 KiB, each log-uniform.
pub fn size_at(q: f64, large_share: f64) -> u64 {
    let log_interp = |lo: u64, hi: u64, t: f64| {
        let (l, h) = ((lo as f64).ln(), (hi as f64).ln());
        ((l + (h - l) * t).exp() as u64).clamp(lo, hi - 1)
    };
    let small = 1.0 - large_share;
    if q >= small {
        log_interp(512 * KIB, 6 * MIB, (q - small) / large_share)
    } else {
        log_interp(2 * KIB, 64 * KIB, q / small)
    }
}

/// `n` sizes drawn by stratified sampling: the `i`-th comes from the
/// `i`-th of `n` equal quantile strata. Every seed thus gets the same
/// size profile (and nearly the same total), and heavy-tailed totals
/// do not swing from seed to seed; the seed only jitters sizes within
/// their strata.
pub fn stratified_sizes(rng: &mut Rng, n: usize, large_share: f64) -> Vec<u64> {
    (0..n)
        .map(|i| size_at((i as f64 + rng.unit()) / n as f64, large_share))
        .collect()
}

/// A seeded permutation of `0..n`.
pub fn shuffled(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
    v
}

/// Workload dimensions. [`Scale::FULL`] is what the benchmark measures;
/// smaller scales only serve the determinism test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Client ops in the `ingest` phase.
    pub ingest_ops: usize,
    /// Files written by the `cold_read`/`audit_repair` set-up.
    pub archive_files: usize,
    /// Client reads in the `cold_read` phase.
    pub cold_reads: usize,
}

impl Scale {
    /// The measured scale: every timed phase has at least 1000 client
    /// ops, so its p99 has at least ten samples beyond it.
    pub const FULL: Scale = Scale {
        ingest_ops: 1200,
        archive_files: 1000,
        cold_reads: 1000,
    };
}

/// One client operation of a generated op list. Paths are indices into
/// the workload's path table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Create file `path` with `content`.
    Write { path: usize, content: Content },
    /// Regenerating update (§4.6): a new version of existing `path`.
    Update { path: usize, content: Content },
    /// Whole-file read through the gateway.
    Read { path: usize },
    /// `read_range` straight on the engine.
    ReadRange { path: usize, offset: u64, len: u64 },
}

/// Inputs of the `ingest` workload.
#[derive(Clone, Debug)]
pub struct IngestInputs {
    /// Path table.
    pub paths: Vec<String>,
    /// The op list, in order.
    pub ops: Vec<Op>,
}

/// `ingest`: 65 % fresh writes, 20 % exact duplicates of one of the 64
/// newest bodies under new paths, 5 % regenerating updates and 10 %
/// reads of the 32 newest files, in seeded order (the first op is a
/// fresh write).
pub fn ingest(seed: u64, scale: Scale) -> IngestInputs {
    let mut rng = Rng::new(seed, 1);
    let n = scale.ingest_ops;
    let share = |s: f64| (n as f64 * s).round() as usize;
    let (dups, updates, reads) = (share(0.20), share(0.05), share(0.10));
    let fresh = n - dups - updates - reads;
    // Kinds: 0 fresh write, 1 duplicate, 2 update, 3 read.
    let base: Vec<u8> = [(0, fresh), (1, dups), (2, updates), (3, reads)]
        .into_iter()
        .flat_map(|(k, c)| std::iter::repeat_n(k, c))
        .collect();
    let mut kinds: Vec<u8> = shuffled(&mut rng, n).into_iter().map(|i| base[i]).collect();
    if let Some(first) = kinds.iter().position(|&k| k == 0) {
        kinds.swap(0, first);
    }
    let sizes = stratified_sizes(&mut rng, fresh + updates, 0.10);
    let mut fresh_sizes = shuffled(&mut rng, sizes.len())
        .into_iter()
        .map(|i| sizes[i]);
    let mut paths: Vec<String> = Vec::new();
    let mut contents: Vec<Content> = Vec::new();
    let mut ops = Vec::with_capacity(n);
    for kind in kinds {
        let op = match kind {
            0 | 2 => {
                let content = Content {
                    id: contents.len() as u64,
                    size: fresh_sizes.next().expect("one size per fresh body"),
                };
                contents.push(content);
                if kind == 0 {
                    new_path(&mut paths, "ingest");
                    Op::Write {
                        path: paths.len() - 1,
                        content,
                    }
                } else {
                    Op::Update {
                        path: rng.below(paths.len() as u64) as usize,
                        content,
                    }
                }
            }
            1 => {
                // Re-uploads of a recent body: its image is usually still
                // cached, so reads of the new path do not depend on how
                // far back the seed happened to reach.
                let recent = (contents.len() as u64).min(64);
                let content = contents[contents.len() - 1 - rng.below(recent) as usize];
                new_path(&mut paths, "ingest");
                Op::Write {
                    path: paths.len() - 1,
                    content,
                }
            }
            _ => {
                let recent = (paths.len() as u64).min(32);
                Op::Read {
                    path: paths.len() - 1 - rng.below(recent) as usize,
                }
            }
        };
        ops.push(op);
    }
    IngestInputs { paths, ops }
}

fn new_path(paths: &mut Vec<String>, root: &str) {
    let k = paths.len();
    paths.push(format!("/{root}/d{:02}/f{k:05}", k % 16));
}

/// Inputs of the archive-backed workloads (`cold_read`, `audit_repair`).
#[derive(Clone, Debug)]
pub struct ArchiveInputs {
    /// Path table.
    pub paths: Vec<String>,
    /// The body of each path, written once by the set-up.
    pub contents: Vec<Content>,
    /// The timed `cold_read` op list (Zipf(0.9) over the paths).
    pub reads: Vec<Op>,
    /// Draws, per burned array, which of its discs `audit_repair` rots.
    pub rot_pick: Rng,
}

/// Archive of ≈1000 files (≈350 MB at a 15 % large-file share) plus a
/// Zipf(0.9) read list: ¾ whole-file reads, ¼ 4–64 KiB ranges.
///
/// The head of a Zipf law is a handful of files. Whether they happen to
/// be 6 MiB or 2 KiB, and whether they share a disc image, would swing
/// every metric from seed to seed. So popularity is laid out rather
/// than drawn: rank `r` gets the size stratum at the golden-ratio point
/// `frac(r / φ)`, the same for every seed, and the write position (hence
/// image and array) at the rotated point `frac(r·(√2−1) + u)`, with `u`
/// drawn from the seed. The seed also draws sizes within their strata,
/// the file bytes and the order of the reads.
pub fn archive(seed: u64, scale: Scale) -> ArchiveInputs {
    let mut rng = Rng::new(seed, 2);
    let n = scale.archive_files;
    let sizes = stratified_sizes(&mut rng, n, 0.15);
    let stratum = spread(n, (5f64.sqrt() - 1.0) / 2.0, 0.0);
    let by_rank = spread(n, 2f64.sqrt() - 1.0, rng.unit());
    let mut contents = vec![Content { id: 0, size: 0 }; n];
    for r in 0..n {
        contents[by_rank[r]] = Content {
            id: by_rank[r] as u64,
            size: sizes[stratum[r]],
        };
    }
    let mut paths = Vec::with_capacity(n);
    for _ in 0..n {
        new_path(&mut paths, "archive");
    }
    // Stratified Zipf draws in seeded order: each rank is read its
    // expected number of times (±1), and every fourth draw is a range.
    let zipf = ZipfTable::new(n, 0.9);
    let count = scale.cold_reads;
    let reads = shuffled(&mut rng, count)
        .into_iter()
        .map(|j| {
            let path = by_rank[zipf.rank_at((j as f64 + rng.unit()) / count as f64)];
            if j % 4 != 3 {
                Op::Read { path }
            } else {
                let size = contents[path].size;
                let len = rng.log_uniform(4 * KIB, 64 * KIB).min(size);
                let offset = rng.below(size - len + 1);
                Op::ReadRange { path, offset, len }
            }
        })
        .collect();
    ArchiveInputs {
        paths,
        contents,
        reads,
        rot_pick: Rng::new(seed, 3),
    }
}

/// A permutation of `0..n` that sends `r` to the rank of the point
/// `frac((r + 1)·alpha + offset)` among all `n` points: for irrational
/// `alpha`, any run of consecutive `r` lands evenly spread over `0..n`.
fn spread(n: usize, alpha: f64, offset: f64) -> Vec<usize> {
    let mut points: Vec<(f64, usize)> = (0..n)
        .map(|r| (((r + 1) as f64 * alpha + offset).fract(), r))
        .collect();
    points.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut out = vec![0; n];
    for (slot, &(_, r)) in points.iter().enumerate() {
        out[r] = slot;
    }
    out
}

/// Inverse-CDF Zipf sampler over ranks `0..n`.
struct ZipfTable {
    cdf: Vec<f64>,
}

impl ZipfTable {
    fn new(n: usize, s: f64) -> ZipfTable {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        ZipfTable { cdf }
    }

    /// The rank at cumulative probability `u`.
    fn rank_at(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let s = Scale::FULL;
        assert_eq!(ingest(7, s).ops, ingest(7, s).ops);
        assert_ne!(ingest(7, s).ops, ingest(8, s).ops);
        assert_eq!(archive(7, s).reads, archive(7, s).reads);
        let c = Content { id: 3, size: 100 };
        assert_eq!(c.bytes(1), c.bytes(1));
        assert_ne!(c.bytes(1), c.bytes(2));
    }

    #[test]
    fn ingest_mix_matches_the_spec() {
        let inputs = ingest(11, Scale::FULL);
        let n = inputs.ops.len() as f64;
        let share = |f: fn(&Op) -> bool| inputs.ops.iter().filter(|o| f(o)).count() as f64 / n;
        assert!((share(|o| matches!(o, Op::Read { .. })) - 0.10).abs() < 0.03);
        assert!((share(|o| matches!(o, Op::Update { .. })) - 0.05).abs() < 0.02);
        let large = inputs
            .ops
            .iter()
            .filter_map(|o| match o {
                Op::Write { content, .. } => Some(content.size >= 512 * KIB),
                _ => None,
            })
            .collect::<Vec<_>>();
        let share_large = large.iter().filter(|l| **l).count() as f64 / large.len() as f64;
        assert!((share_large - 0.10).abs() < 0.04, "{share_large}");
    }
}
