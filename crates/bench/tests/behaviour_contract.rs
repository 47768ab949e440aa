//! The behaviour contract a refactor must keep (ROADMAP, "Quality of
//! design"): fixed digests of the seeded chaos soak timeline and of the
//! durability campaign's JSON report.
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
