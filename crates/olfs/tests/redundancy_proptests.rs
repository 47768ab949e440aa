//! Exhaustive erasure round-trip properties for §4.7's delayed parity.
//!
//! For randomly shaped disc arrays (member count and ragged member
//! sizes), every erasure pattern the schema tolerates — including loss
//! of the parity members themselves — must reconstruct the exact data
//! images, and any pattern one past the tolerance must be rejected with
//! the typed error.

use bytes::Bytes;
use proptest::prelude::*;
use ros_disk::DataPlane;
use ros_olfs::redundancy::{
    generate, reconstruct, repair, Member, RedundancyError, Wanted, SECTOR,
};
use ros_olfs::Redundancy;
use ros_sim::SimRng;

/// Deterministic ragged member images: `n` members around `base` bytes.
fn images(seed: u64, n: usize, base: usize) -> Vec<Vec<u8>> {
    let mut rng = SimRng::seed_from(seed);
    (0..n)
        .map(|_| {
            let len = base + rng.index(base.max(1));
            let mut v = vec![0u8; len.max(1)];
            rng.fill_bytes(&mut v);
            v
        })
        .collect()
}

/// Every data image plus its parity as gathered members, with sector
/// damage drawn from `rng`: sector `k` loses `per_sector(k, rng)`
/// distinct members, whose bytes there turn to garbage as on an
/// unreadable sector.
fn damaged_members(
    imgs: &[Vec<u8>],
    schema: Redundancy,
    rng: &mut SimRng,
    per_sector: impl Fn(usize, &mut SimRng) -> usize,
) -> Vec<Member> {
    let refs: Vec<&[u8]> = imgs.iter().map(|v| v.as_slice()).collect();
    let set = generate(schema, &refs).expect("generate");
    let mut raw: Vec<Vec<u8>> = imgs.to_vec();
    raw.extend(set.p.iter().chain(set.q.iter()).map(|b| b.to_vec()));
    let mut bad: Vec<Vec<u64>> = vec![Vec::new(); raw.len()];
    let sectors = raw.iter().map(Vec::len).max().unwrap_or(0).div_ceil(SECTOR);
    for k in 0..sectors {
        let mut hit: Vec<usize> = (0..raw.len()).collect();
        for _ in 0..per_sector(k, rng).min(raw.len()) {
            let i = hit.swap_remove(rng.index(hit.len()));
            bad[i].push(k as u64);
            for b in raw[i].iter_mut().skip(k * SECTOR).take(SECTOR) {
                *b = !*b;
            }
        }
    }
    raw.into_iter()
        .zip(bad)
        .map(|(r, mut bad_sectors)| {
            bad_sectors.sort_unstable();
            Member {
                bytes: Some(Bytes::from(r)),
                bad_sectors,
            }
        })
        .collect()
}

/// [`repair`]'s output check: the plain `ros-cas` verify.
fn check(d: &ros_cas::Digest, b: &Bytes) -> Result<ros_cas::Verified, ros_cas::CasError> {
    ros_cas::verify_payload(d, b, &DataPlane::single())
}

fn want_all(imgs: &[Vec<u8>]) -> Vec<Wanted> {
    imgs.iter()
        .enumerate()
        .map(|(member, d)| Wanted {
            member,
            size: d.len(),
            digest: ros_cas::content_digest(d, &DataPlane::single()),
        })
        .collect()
}

/// Applies an erasure pattern and checks reconstruction returns every
/// original data image byte-exactly. `lost_data` indexes data members;
/// `lose_p`/`lose_q` drop the parity payloads.
fn assert_round_trip(
    schema: Redundancy,
    imgs: &[Vec<u8>],
    lost_data: &[usize],
    lose_p: bool,
    lose_q: bool,
) -> Result<(), TestCaseError> {
    let refs: Vec<&[u8]> = imgs.iter().map(|v| v.as_slice()).collect();
    let sizes: Vec<usize> = imgs.iter().map(Vec::len).collect();
    let set = generate(schema, &refs).expect("generate");
    let masked: Vec<Option<&[u8]>> = imgs
        .iter()
        .enumerate()
        .map(|(i, d)| (!lost_data.contains(&i)).then_some(d.as_slice()))
        .collect();
    let p = if lose_p { None } else { set.p.as_deref() };
    let q = if lose_q { None } else { set.q.as_deref() };
    let rec = reconstruct(schema, &masked, &sizes, p, q).map_err(|e| {
        TestCaseError::fail(format!(
            "{schema:?} lost {lost_data:?} p_lost={lose_p} q_lost={lose_q}: {e}"
        ))
    })?;
    prop_assert_eq!(rec.len(), imgs.len());
    for (r, orig) in rec.iter().zip(imgs.iter()) {
        prop_assert_eq!(r.as_ref(), orig.as_slice());
    }
    Ok(())
}

proptest! {
    // RAID-5 tolerates one lost member: enumerate every single-member
    // erasure over data ∪ {P} for each sampled array shape.
    #[test]
    fn raid5_every_single_erasure_round_trips(
        seed in any::<u64>(),
        n in 2usize..9,
        base in 16usize..400,
    ) {
        let imgs = images(seed, n, base);
        for lost in 0..n {
            assert_round_trip(Redundancy::Raid5, &imgs, &[lost], false, false)?;
        }
        // Losing only P leaves the data intact (and P is regenerable).
        assert_round_trip(Redundancy::Raid5, &imgs, &[], true, false)?;
    }

    // RAID-6 tolerates two lost members: enumerate every pair over
    // data ∪ {P, Q}, plus all singles.
    #[test]
    fn raid6_every_double_erasure_round_trips(
        seed in any::<u64>(),
        n in 2usize..8,
        base in 16usize..300,
    ) {
        let imgs = images(seed, n, base);
        // Two data members.
        for x in 0..n {
            for y in (x + 1)..n {
                assert_round_trip(Redundancy::Raid6, &imgs, &[x, y], false, false)?;
            }
        }
        // One data member plus one parity member.
        for x in 0..n {
            assert_round_trip(Redundancy::Raid6, &imgs, &[x], true, false)?;
            assert_round_trip(Redundancy::Raid6, &imgs, &[x], false, true)?;
        }
        // Singles and parity-only losses.
        for x in 0..n {
            assert_round_trip(Redundancy::Raid6, &imgs, &[x], false, false)?;
        }
        assert_round_trip(Redundancy::Raid6, &imgs, &[], true, true)?;
    }

    // One loss past the tolerance is always rejected with the typed
    // error, never a wrong reconstruction.
    #[test]
    fn over_tolerance_is_rejected(
        seed in any::<u64>(),
        n in 3usize..9,
        base in 16usize..200,
    ) {
        let imgs = images(seed, n, base);
        let sizes: Vec<usize> = imgs.iter().map(Vec::len).collect();
        for (schema, tolerated) in [(Redundancy::None, 0usize), (Redundancy::Raid5, 1), (Redundancy::Raid6, 2)] {
            let refs: Vec<&[u8]> = imgs.iter().map(|v| v.as_slice()).collect();
            let set = generate(schema, &refs).expect("generate");
            let over = tolerated + 1;
            let masked: Vec<Option<&[u8]>> = imgs
                .iter()
                .enumerate()
                .map(|(i, d)| (i >= over).then_some(d.as_slice()))
                .collect();
            let err = reconstruct(schema, &masked, &sizes, set.p.as_deref(), set.q.as_deref())
                .expect_err("over-tolerance loss must fail");
            prop_assert_eq!(
                err,
                RedundancyError::TooManyLost { lost: over, tolerated }
            );
        }
    }

    // Generate → reconstruct with zero losses is the identity even when
    // parity is absent (pure pass-through).
    #[test]
    fn no_loss_is_identity(
        seed in any::<u64>(),
        n in 1usize..9,
        base in 1usize..200,
    ) {
        let imgs = images(seed, n, base);
        let sizes: Vec<usize> = imgs.iter().map(Vec::len).collect();
        let masked: Vec<Option<&[u8]>> = imgs.iter().map(|d| Some(d.as_slice())).collect();
        for schema in [Redundancy::None, Redundancy::Raid5, Redundancy::Raid6] {
            let rec = reconstruct(schema, &masked, &sizes, None, None).expect("identity");
            for (r, orig) in rec.iter().zip(imgs.iter()) {
                prop_assert_eq!(r.as_ref(), orig.as_slice());
            }
        }
    }

    // Sector-granular repair from erasure masks: any mix of members may
    // carry damage maps as long as no sector loses more than the schema
    // tolerates, optionally on top of one member erased whole (it
    // failed its digest), and the exact data comes back — the same
    // bytes the whole-member `reconstruct` oracle returns, at 1 and 2
    // threads. One loss past the tolerance in any sector is the typed
    // error.
    #[test]
    fn masked_repair_rebuilds_exact_data(
        seed in any::<u64>(),
        n in 2usize..7,
        sectors in 1usize..6,
        raid6 in any::<bool>(),
        whole in any::<bool>(),
    ) {
        let schema = if raid6 { Redundancy::Raid6 } else { Redundancy::Raid5 };
        let tolerated = schema.tolerated_losses() as usize;
        let budget = tolerated - usize::from(whole);
        let imgs = images(seed, n, sectors * SECTOR);
        let mut rng = SimRng::seed_from(seed ^ 0x5EC7);
        let mut members = damaged_members(&imgs, schema, &mut rng, |_, rng| rng.index(budget + 1));
        if whole {
            members[0] = Member::default();
        }
        let want = want_all(&imgs);
        let plane = DataPlane::single();
        let got = repair(schema, &members, n, &want, &plane, check).expect("within tolerance");
        for (g, orig) in got.iter().zip(imgs.iter()) {
            prop_assert_eq!(g.bytes().as_ref(), orig.as_slice());
        }
        let refs: Vec<&[u8]> = imgs.iter().map(|v| v.as_slice()).collect();
        let set = generate(schema, &refs).expect("generate");
        let sizes: Vec<usize> = imgs.iter().map(Vec::len).collect();
        let mut masked: Vec<Option<&[u8]>> = refs.iter().map(|d| Some(*d)).collect();
        masked[0] = None;
        let oracle = reconstruct(schema, &masked, &sizes, set.p.as_deref(), set.q.as_deref())
            .expect("oracle");
        prop_assert_eq!(got[0].bytes(), &oracle[0]);
        prop_assert_eq!(got, repair(schema, &members, n, &want, &DataPlane::new(2), check).expect("2 threads"));

        let over = damaged_members(&imgs, schema, &mut rng, |k, _| if k == 0 { tolerated + 1 } else { 0 });
        let err = repair(schema, &over, n, &want, &plane, check);
        prop_assert!(
            matches!(err, Err(RedundancyError::TooManyLost { .. })),
            "{:?}",
            err.map(|v| v.len())
        );
    }
}
