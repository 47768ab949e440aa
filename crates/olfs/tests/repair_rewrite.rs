//! An array rewrite must never strand data (§4.7, DESIGN.md §16).
//!
//! Both rewrite flows — the sampled audit healing latent rot, and the
//! scrub-driven `rewrite_damaged_arrays` healing sector damage —
//! restore every data member of an array to the buffer, pin it, and
//! re-run parity → burn onto a fresh tray. On a two-bay rack with a
//! small read cache, burns of one rewritten array complete while the
//! next array's restored members are pinned but still carry their old
//! disc location. If cache pressure evicted those, the group could no
//! longer generate parity, `flush` would not quiesce and the acked
//! files would read `ImageLost`.

use ros_faults::{FaultEvent, FaultKind, FaultSink, InjectionOutcome};
use ros_olfs::{Ros, RosConfig};
use ros_udf::UdfPath;
use std::collections::BTreeSet;

#[derive(Clone, Copy, Debug)]
enum Damage {
    /// Latent rot on one disc per array, healed by `audit_sample`.
    Rot,
    /// Unreadable sectors on one disc per array, healed by `scrub` →
    /// `rewrite_damaged_arrays`.
    Sectors,
}

fn path(i: usize) -> UdfPath {
    UdfPath::parse(&format!("/archive/f{i:02}.bin")).expect("valid path")
}

/// About 1 MB of bytes unique to file `i`.
fn body(i: usize) -> Vec<u8> {
    let len = 1_000_000 + 7_919 * i;
    (0..len)
        .map(|j| ((j as u64).wrapping_mul(2_654_435_761) >> 13) as u8 ^ (i as u8).wrapping_mul(29))
        .collect()
}

/// Two bays of four drives, four-disc trays, the default 4-image read
/// cache: enough arrays that rewrites overlap with burns.
fn rack() -> Ros {
    let mut cfg = RosConfig::tiny();
    cfg.drive_bays = 2;
    cfg.drives_per_bay = 4;
    cfg.layout.discs_per_tray = 4;
    cfg.layout.layers = 8;
    Ros::new(cfg)
}

/// Archives 40 files, cold-stores them, damages one disc per burned
/// array, runs the matching repair, and checks that every acked file
/// still reads back byte-exact and that a final flush quiesces.
fn damage_and_repair(damage: Damage) {
    const FILES: usize = 40;
    let mut ros = rack();
    for i in 0..FILES {
        ros.write_file(&path(i), body(i)).expect("write");
    }
    ros.flush().expect("initial flush");
    ros.evict_all_burned_copies();
    ros.unload_all_bays().expect("unload");

    // The first disc of every burned tray. With every tray in the rack
    // burned in order and nothing loaded, a tray's first disc id is
    // also its index among the burned discs the injector picks from.
    let mut tray_bases = BTreeSet::new();
    for i in 0..FILES {
        for image in ros.image_segments(&path(i)).expect("segments") {
            let loc = ros.locate_image(image).expect("burned image");
            tray_bases.insert(loc.disc.0 - u64::from(loc.position));
        }
    }
    assert!(tray_bases.len() >= 4, "only {} arrays", tray_bases.len());
    for (seq, &base) in tray_bases.iter().enumerate() {
        let kind = match damage {
            Damage::Rot => FaultKind::MediaRot {
                disc: base,
                bytes: 8,
            },
            Damage::Sectors => FaultKind::MediaCorruption {
                disc: base,
                sectors: 8,
            },
        };
        let event = FaultEvent {
            seq: seq as u64,
            at_op: 0,
            kind,
        };
        assert_eq!(ros.inject_fault(&event), InjectionOutcome::Injected);
    }

    match damage {
        Damage::Rot => {
            let report = ros.audit_sample(ros.status().images);
            assert!(report.rotted.len() >= tray_bases.len(), "{report:?}");
            assert!(report.unrepairable.is_empty(), "{report:?}");
        }
        Damage::Sectors => {
            let report = ros.scrub();
            assert_eq!(report.damaged.len(), tray_bases.len(), "{report:?}");
            let rewritten = ros.rewrite_damaged_arrays(&report).expect("rewrite");
            assert_eq!(rewritten, tray_bases.len());
        }
    }

    for i in 0..FILES {
        let read = ros
            .read_file(&path(i))
            .unwrap_or_else(|e| panic!("{damage:?}: file {i} unreadable after repair: {e}"));
        assert!(
            read.data.as_ref() == body(i).as_slice(),
            "{damage:?}: file {i} wrong bytes"
        );
    }
    ros.flush()
        .unwrap_or_else(|e| panic!("{damage:?}: flush after repair: {e}"));
    let (collecting, parity_pending, ready, burning, _) = ros.group_census();
    assert_eq!(
        (collecting, parity_pending, ready, burning),
        (0, 0, 0, 0),
        "{damage:?}: a rewritten array never re-burned"
    );
}

#[test]
fn array_rewrites_never_strand_acked_files() {
    for damage in [Damage::Rot, Damage::Sectors] {
        damage_and_repair(damage);
    }
}
