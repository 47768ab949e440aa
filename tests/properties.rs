//! Property-based tests over the core invariants:
//!
//! - UDF images round-trip arbitrary file trees byte-for-byte,
//! - RAID-5/6 parity reconstructs any tolerated loss pattern exactly,
//! - OLFS serves back exactly what was written, for arbitrary file sets,
//!   at every tier,
//! - bucket packing never exceeds the disc capacity,
//! - version rings behave like a bounded append-only log.

use proptest::collection::vec;
use proptest::prelude::*;
use ros::prelude::*;
use ros::ros_disk::parity;
use ros::ros_udf::{Bucket, SealedImage, BLOCK_SIZE};

fn name_strategy() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_.-]{0,12}".prop_map(|s| s)
}

fn path_strategy() -> impl Strategy<Value = UdfPath> {
    vec(name_strategy(), 1..4)
        .prop_map(|parts| format!("/{}", parts.join("/")).parse().expect("valid path"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn udf_image_roundtrips_arbitrary_trees(
        files in vec((path_strategy(), vec(any::<u8>(), 0..5_000)), 1..20)
    ) {
        let mut bucket = Bucket::new(1, 16 * 1024 * 1024);
        let mut expected: std::collections::BTreeMap<String, Vec<u8>> =
            std::collections::BTreeMap::new();
        for (path, data) in files {
            // Skip paths that collide with an existing file/dir.
            if bucket.write(&path, data.clone(), 0).is_ok() {
                expected.insert(path.to_string(), data);
            }
        }
        prop_assume!(!expected.is_empty());
        let image = bucket.close().expect("close");
        // Serialize → parse → every file identical.
        let reparsed = SealedImage::from_bytes(image.bytes().clone()).expect("parse");
        for (path, data) in &expected {
            let p: UdfPath = path.parse().expect("path");
            let got = reparsed.read(&p).expect("read");
            prop_assert_eq!(got.as_ref(), data.as_slice());
        }
        // And the scan enumerates exactly the expected namespace
        // (orders differ: the walk is component-wise, the map string-wise).
        let mut scanned: Vec<String> = reparsed
            .scan_files()
            .into_iter()
            .map(|(p, _)| p.to_string())
            .collect();
        scanned.sort_unstable();
        let expected_paths: Vec<String> = expected.keys().cloned().collect();
        prop_assert_eq!(scanned, expected_paths);
    }

    #[test]
    fn raid5_recovers_any_single_loss(
        stripes in vec(vec(any::<u8>(), 1..200), 2..12),
        lost_seed in any::<u64>()
    ) {
        // Pad stripes to equal length.
        let len = stripes.iter().map(Vec::len).max().unwrap();
        let stripes: Vec<Vec<u8>> = stripes
            .into_iter()
            .map(|mut s| { s.resize(len, 0); s })
            .collect();
        let refs: Vec<&[u8]> = stripes.iter().map(|s| s.as_slice()).collect();
        let p = parity::parity_p(&refs).expect("parity");
        let lost = (lost_seed as usize) % stripes.len();
        let masked: Vec<Option<&[u8]>> = refs
            .iter()
            .enumerate()
            .map(|(i, s)| (i != lost).then_some(*s))
            .collect();
        let (rec, _) = parity::reconstruct_p(&masked, Some(&p)).expect("reconstruct");
        prop_assert_eq!(rec, stripes);
    }

    #[test]
    fn raid6_recovers_any_double_loss(
        stripes in vec(vec(any::<u8>(), 1..100), 3..10),
        seed in any::<u64>()
    ) {
        let len = stripes.iter().map(Vec::len).max().unwrap();
        let stripes: Vec<Vec<u8>> = stripes
            .into_iter()
            .map(|mut s| { s.resize(len, 0); s })
            .collect();
        let refs: Vec<&[u8]> = stripes.iter().map(|s| s.as_slice()).collect();
        let p = parity::parity_p(&refs).expect("p");
        let q = parity::parity_q(&refs).expect("q");
        let x = (seed as usize) % stripes.len();
        let y = (seed as usize / 7919) % stripes.len();
        prop_assume!(x != y);
        let masked: Vec<Option<&[u8]>> = refs
            .iter()
            .enumerate()
            .map(|(i, s)| (i != x && i != y).then_some(*s))
            .collect();
        let (rec, _, _) =
            parity::reconstruct_pq(&masked, Some(&p), Some(&q)).expect("reconstruct");
        prop_assert_eq!(rec, stripes);
    }

    #[test]
    fn bucket_never_exceeds_capacity(
        writes in vec((path_strategy(), 0u64..20_000), 1..40)
    ) {
        let capacity = 64 * BLOCK_SIZE;
        let mut bucket = Bucket::new(1, capacity);
        for (path, size) in writes {
            let _ = bucket.write(&path, vec![0u8; size as usize], 0);
            prop_assert!(bucket.used_bytes() <= capacity,
                "used {} > capacity {}", bucket.used_bytes(), capacity);
        }
        // A non-empty bucket always seals into a parseable image.
        if !bucket.is_empty() {
            let img = bucket.close().expect("close");
            prop_assert!(img.len() <= capacity);
        }
    }

    #[test]
    fn version_ring_is_a_bounded_log(sizes in vec(1usize..3_000, 1..25)) {
        let mut ros = Ros::new(RosConfig::tiny());
        let path: UdfPath = "/ring".parse().unwrap();
        let mut history: Vec<Vec<u8>> = Vec::new();
        for (i, size) in sizes.iter().enumerate() {
            let data = vec![(i % 251) as u8; *size];
            ros.write_file(&path, data.clone()).unwrap();
            history.push(data);
        }
        let versions = ros.versions(&path).unwrap();
        prop_assert!(versions.len() <= 15);
        prop_assert_eq!(versions.last().unwrap().0 as usize, history.len());
        // The newest version always reads back exactly.
        let r = ros.read_file(&path).unwrap();
        prop_assert_eq!(r.data.as_ref(), history.last().unwrap().as_slice());
        prop_assert_eq!(r.version as usize, history.len());
    }
}

proptest! {
    // The end-to-end engine property is expensive; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn olfs_serves_exactly_what_was_written(
        files in vec((path_strategy(), vec(any::<u8>(), 0..60_000)), 1..15)
    ) {
        let mut ros = Ros::new(RosConfig::tiny());
        let mut expected: std::collections::BTreeMap<String, Vec<u8>> =
            std::collections::BTreeMap::new();
        for (path, data) in files {
            // Path conflicts (file vs dir) may reject; duplicates update.
            if ros.write_file(&path, data.clone()).is_ok() {
                expected.insert(path.to_string(), data);
            }
        }
        prop_assume!(!expected.is_empty());
        // Hot reads.
        for (path, data) in &expected {
            let p: UdfPath = path.parse().unwrap();
            let r = ros.read_file(&p).unwrap();
            prop_assert_eq!(r.data.as_ref(), data.as_slice());
        }
        // Cold reads after burning + eviction.
        ros.flush().unwrap();
        ros.evict_burned_copies();
        ros.unload_all_bays().unwrap();
        for (path, data) in &expected {
            let p: UdfPath = path.parse().unwrap();
            let r = ros.read_file(&p).unwrap();
            prop_assert_eq!(r.data.as_ref(), data.as_slice());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn read_range_equals_full_read_slice(
        size in 0usize..200_000,
        a in 0u64..250_000,
        b in 0u64..250_000,
        kind in 0u8..4,
        residency in 0u8..3
    ) {
        // kind: 0 fresh write, 1 in-place update (an unsized segment),
        // 2 regenerated update, 3 dedup hit. residency: 0 open bucket,
        // 1 sealed image, 2 on disc with the disk copy evicted.
        let mut cfg = RosConfig::tiny();
        cfg.dedup = kind == 3;
        let mut ros = Ros::new(cfg);
        let path: UdfPath = "/range".parse().unwrap();
        let data: Vec<u8> = (0..size).map(|i| (i % 241) as u8).collect();
        match kind {
            1 => {
                ros.write_file(&path, vec![7u8; 1_000]).unwrap();
            }
            2 => {
                ros.write_file(&path, vec![7u8; 1_000]).unwrap();
                ros.seal_open_buckets().unwrap();
            }
            3 => {
                ros.write_file(&"/canonical".parse().unwrap(), data.clone()).unwrap();
            }
            _ => {}
        }
        let w = ros.write_file(&path, data.clone()).unwrap();
        match residency {
            1 => {
                ros.seal_open_buckets().unwrap();
            }
            2 => {
                ros.flush().unwrap();
                ros.evict_all_burned_copies();
            }
            _ => {}
        }
        let (offset, len) = if a <= b { (a, b - a) } else { (b, a - b) };
        let r = ros.read_range(&path, offset, len).unwrap();
        let lo = (offset as usize).min(data.len());
        let hi = ((offset + len) as usize).min(data.len());
        prop_assert_eq!(r.data.as_ref(), &data[lo..hi]);
        prop_assert_eq!(r.version, w.version);
        // The three whole-file reads agree on bytes and version.
        let whole = [
            ros.read_file(&path).unwrap(),
            ros.read_version(&path, w.version).unwrap(),
            ros.read_range(&path, 0, u64::MAX).unwrap(),
        ];
        for r in &whole {
            prop_assert_eq!(r.data.as_ref(), data.as_slice());
            prop_assert_eq!(r.version, w.version);
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn read_range_equals_full_read_slice_on_split_files(
        seed in 0u64..1000
    ) {
        // A file spanning several 4 MiB images, with per-segment sizes
        // recorded; ranges crossing segment boundaries must reassemble.
        let mut ros = Ros::new(RosConfig::tiny());
        let path: UdfPath = "/span".parse().unwrap();
        let size = 9 * 1024 * 1024;
        let data: Vec<u8> = (0..size).map(|i| ((i as u64 ^ seed) % 251) as u8).collect();
        let w = ros.write_file(&path, data.clone()).unwrap();
        prop_assume!(w.segments.len() >= 2);
        // A range straddling the first boundary, chosen from the seed.
        let offset = 3 * 1024 * 1024 + (seed % 1024) * 1024;
        let len = 2 * 1024 * 1024;
        let r = ros.read_range(&path, offset, len).unwrap();
        let lo = offset as usize;
        let hi = (offset + len) as usize;
        prop_assert_eq!(r.data.as_ref(), &data[lo..hi]);
    }
}
