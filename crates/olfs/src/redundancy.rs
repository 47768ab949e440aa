//! Delayed parity generation and disc-array reconstruction (§4.7).
//!
//! "OLFS does not generate parity data synchronously when data are written
//! into images. On the contrary, parity disc images are generated only
//! when all data disc images in the same disc array have been prepared...
//! Note that the parity image is not a UDF volume."
//!
//! Parity is computed over the *raw serialized bytes* of the data images,
//! zero-padded to the longest member (burned images are physically
//! zero-filled past their used region anyway). Reconstruction therefore
//! recovers the exact image bytes, which re-parse into the exact file
//! tree — verified end to end in the tests.

use crate::config::Redundancy;
use bytes::Bytes;
use ros_cas::{CasError, Digest, Verified};
use ros_disk::parity::{self, ParityError};
use ros_disk::plane::DataPlane;
use std::borrow::Cow;

/// Parity payloads for one disc array.
#[derive(Clone, Debug, PartialEq)]
pub struct ParitySet {
    /// XOR parity (present for RAID-5 and RAID-6).
    pub p: Option<Bytes>,
    /// Reed-Solomon Q parity (RAID-6 only).
    pub q: Option<Bytes>,
    /// Length every member was padded to.
    pub stripe_len: usize,
}

/// Errors from redundancy operations.
#[derive(Clone, Debug, PartialEq)]
pub enum RedundancyError {
    /// Underlying parity math failed.
    Parity(ParityError),
    /// Losses exceed what the schema tolerates.
    TooManyLost {
        /// Missing member count.
        lost: usize,
        /// Tolerated count.
        tolerated: usize,
    },
    /// No members supplied.
    Empty,
    /// A reconstructed member's content digest disagrees with the
    /// expected one — the surviving inputs were themselves corrupt.
    DigestMismatch {
        /// Index of the failing member.
        member: usize,
    },
}

impl From<ParityError> for RedundancyError {
    fn from(e: ParityError) -> Self {
        RedundancyError::Parity(e)
    }
}

impl core::fmt::Display for RedundancyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RedundancyError::Parity(e) => write!(f, "parity: {e}"),
            RedundancyError::TooManyLost { lost, tolerated } => {
                write!(f, "{lost} members lost, {tolerated} tolerated")
            }
            RedundancyError::Empty => write!(f, "no members"),
            RedundancyError::DigestMismatch { member } => {
                write!(
                    f,
                    "reconstructed member {member} failed digest verification"
                )
            }
        }
    }
}

impl std::error::Error for RedundancyError {}

fn pad_to(data: &[u8], len: usize) -> Vec<u8> {
    let mut v = data.to_vec();
    v.resize(len, 0);
    v
}

/// Generates the parity payload(s) for a prepared set of data images.
///
/// Returns `ParitySet { p: None, q: None, .. }` for [`Redundancy::None`].
pub fn generate(schema: Redundancy, data_images: &[&[u8]]) -> Result<ParitySet, RedundancyError> {
    generate_with(schema, data_images, &DataPlane::single())
}

/// [`generate`] on a data plane: the ragged kernels treat short members
/// as zero-filled to the longest, so no padded copies are allocated, and
/// RAID-6 computes P and Q in one fused pass over each image.
pub fn generate_with(
    schema: Redundancy,
    data_images: &[&[u8]],
    plane: &DataPlane,
) -> Result<ParitySet, RedundancyError> {
    if data_images.is_empty() {
        return Err(RedundancyError::Empty);
    }
    let stripe_len = data_images.iter().map(|d| d.len()).max().unwrap_or(0);
    if schema == Redundancy::None {
        return Ok(ParitySet {
            p: None,
            q: None,
            stripe_len,
        });
    }
    let (p, q) = match schema {
        Redundancy::Raid6 => {
            let (p, q) = parity::encode_pq_padded_with(data_images, plane)?;
            (Bytes::from(p), Some(Bytes::from(q)))
        }
        _ => (
            Bytes::from(parity::parity_p_padded_with(data_images, plane)?),
            None,
        ),
    };
    // Debug builds re-verify the freshly generated parity group before it
    // is handed to the burn pipeline; compiled out in release. The check
    // runs against explicitly padded members — the invariant the burn
    // pipeline relies on — so the padding cost exists in debug only.
    #[cfg(debug_assertions)]
    {
        let padded: Vec<Vec<u8>> = data_images.iter().map(|d| pad_to(d, stripe_len)).collect();
        let refs: Vec<&[u8]> = padded.iter().map(|v| v.as_slice()).collect();
        parity::debug_assert_group(&refs, &p, q.as_deref());
    }
    Ok(ParitySet {
        p: Some(p),
        q,
        stripe_len,
    })
}

/// Reconstructs lost data images from the survivors plus parity.
///
/// `data[i] = None` marks a lost member; `sizes[i]` gives each member's
/// original (unpadded) length so recovered payloads are trimmed back.
/// Returns the full data set.
pub fn reconstruct(
    schema: Redundancy,
    data: &[Option<&[u8]>],
    sizes: &[usize],
    p: Option<&[u8]>,
    q: Option<&[u8]>,
) -> Result<Vec<Bytes>, RedundancyError> {
    reconstruct_with(schema, data, sizes, p, q, &DataPlane::single())
}

/// [`reconstruct`] on a data plane.
pub fn reconstruct_with(
    schema: Redundancy,
    data: &[Option<&[u8]>],
    sizes: &[usize],
    p: Option<&[u8]>,
    q: Option<&[u8]>,
    plane: &DataPlane,
) -> Result<Vec<Bytes>, RedundancyError> {
    assert_eq!(data.len(), sizes.len(), "one size per member");
    let lost = data.iter().filter(|d| d.is_none()).count();
    let tolerated = schema.tolerated_losses() as usize;
    if lost > tolerated {
        return Err(RedundancyError::TooManyLost { lost, tolerated });
    }
    if lost == 0 {
        return Ok(data
            .iter()
            .flatten()
            .map(|d| Bytes::copy_from_slice(d))
            .collect());
    }
    let stripe_len = p
        .map(<[u8]>::len)
        .or(q.map(<[u8]>::len))
        .or_else(|| data.iter().flatten().map(|d| d.len()).max())
        .ok_or(RedundancyError::Empty)?;
    let padded: Vec<Option<Vec<u8>>> = data
        .iter()
        .map(|d| d.map(|d| pad_to(d, stripe_len)))
        .collect();
    let masked: Vec<Option<&[u8]>> = padded.iter().map(|d| d.as_deref()).collect();
    let recovered: Vec<Vec<u8>> = match schema {
        Redundancy::None => {
            return Err(RedundancyError::TooManyLost { lost, tolerated: 0 });
        }
        Redundancy::Raid5 => parity::reconstruct_p_with(&masked, p, plane)?.0,
        Redundancy::Raid6 => parity::reconstruct_pq_with(&masked, p, q, plane)?.0,
    };
    Ok(recovered
        .into_iter()
        .zip(sizes.iter())
        .map(|(mut v, &len)| {
            v.truncate(len);
            Bytes::from(v)
        })
        .collect())
}

/// Sector granularity of a drive damage map
/// (`ros_drive::params::SECTOR_BYTES`).
pub const SECTOR: usize = 2_048;

/// One array member as gathered for [`repair`]. Members are listed in
/// array order: the data images, then P, then Q.
#[derive(Clone, Debug, Default)]
pub struct Member {
    /// The member's bytes as read. `None` erases the whole member: it
    /// was unreadable, or failed its content digest.
    pub bytes: Option<Bytes>,
    /// The drive's damage map: track-relative indices of unreadable
    /// [`SECTOR`]s, ascending. The bytes there are garbage.
    pub bad_sectors: Vec<u64>,
}

/// A data member [`repair`] hands back as a digest proof.
#[derive(Clone, Copy, Debug)]
pub struct Wanted {
    /// Index into the member list.
    pub member: usize,
    /// True (unpadded) length of the image.
    pub size: usize,
    /// Content digest recorded at seal time.
    pub digest: Digest,
}

/// Repairs a disc array from per-member erasure masks (§4.7) and
/// returns the `wanted` data members, each as the [`Verified`] proof
/// `verify` made against its digest. `verify` is the caller's
/// `ros_cas::verify_payload` on its plane (the engine's counted one);
/// only that entry point can produce a proof, so no output escapes
/// the check.
///
/// A member's mask is its damage map, or all of it when its bytes are
/// `None`. Members are zero-padded to the longest one and the stripe is
/// cut into maximal sector runs that share one damaged-member set; each
/// run that damages a data member is rebuilt in one plane call. Repair
/// is therefore sector-granular: several members may be damaged as long
/// as no run loses more than the schema tolerates
/// ([`RedundancyError::TooManyLost`] otherwise). A result that fails its
/// digest — a survivor was itself corrupt — is
/// [`RedundancyError::DigestMismatch`]. Untouched members come back as
/// refcounted slices of their input.
pub fn repair(
    schema: Redundancy,
    members: &[Member],
    n_data: usize,
    wanted: &[Wanted],
    plane: &DataPlane,
    verify: impl Fn(&Digest, &Bytes) -> Result<Verified, CasError>,
) -> Result<Vec<Verified>, RedundancyError> {
    if members.is_empty() {
        return Err(RedundancyError::Empty);
    }
    let tolerated = schema.tolerated_losses() as usize;
    let stripe_len = members
        .iter()
        .filter_map(|m| m.bytes.as_ref().map(Bytes::len))
        .max()
        .ok_or(RedundancyError::TooManyLost {
            lost: members.len(),
            tolerated,
        })?;
    let sectors = stripe_len.div_ceil(SECTOR) as u64;
    // The damaged set changes only where some member's damage starts or
    // stops.
    let mut cuts: Vec<u64> = members
        .iter()
        .flat_map(|m| &m.bad_sectors)
        .flat_map(|&s| [s, s + 1])
        .filter(|&s| s < sectors)
        .chain([0, sectors])
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    let mut runs: Vec<(u64, u64, Vec<usize>)> = Vec::new();
    for w in cuts.windows(2) {
        let set: Vec<usize> = (0..members.len())
            .filter(|&i| {
                let m = &members[i];
                m.bytes.is_none() || m.bad_sectors.binary_search(&w[0]).is_ok()
            })
            .collect();
        match runs.last_mut() {
            Some((_, end, last)) if *last == set => *end = w[1],
            _ => runs.push((w[0], w[1], set)),
        }
    }

    let absent_parity = (n_data + schema.parity_discs() as usize).saturating_sub(members.len());
    let mut out: Vec<Option<Vec<u8>>> = vec![None; wanted.len()];
    for (start, end, set) in runs {
        if !set.iter().any(|&i| i < n_data) {
            continue; // Only parity damaged: the data is intact.
        }
        let lost = set.len() + absent_parity;
        if lost > tolerated {
            return Err(RedundancyError::TooManyLost { lost, tolerated });
        }
        let lo = start as usize * SECTOR;
        let hi = (end as usize * SECTOR).min(stripe_len);
        let window = |i: usize| match members.get(i) {
            Some(Member { bytes: Some(b), .. }) if !set.contains(&i) => Some(padded(b, lo, hi)),
            _ => None,
        };
        let data: Vec<Option<Cow<'_, [u8]>>> = (0..n_data).map(window).collect();
        let data: Vec<Option<&[u8]>> = data.iter().map(Option::as_deref).collect();
        let (p, q) = (window(n_data), window(n_data + 1));
        let rebuilt = match schema {
            Redundancy::None => return Err(RedundancyError::TooManyLost { lost, tolerated }),
            Redundancy::Raid5 => parity::reconstruct_p_with(&data, p.as_deref(), plane)?.0,
            Redundancy::Raid6 => {
                parity::reconstruct_pq_with(&data, p.as_deref(), q.as_deref(), plane)?.0
            }
        };
        for (w, buf) in wanted.iter().zip(out.iter_mut()) {
            let touched = set.contains(&w.member) && lo < w.size;
            let Some(src) = rebuilt.get(w.member).filter(|_| touched) else {
                continue;
            };
            let buf = buf.get_or_insert_with(|| member_bytes(members, w).into_owned());
            let hi = hi.min(w.size);
            buf[lo..hi].copy_from_slice(&src[..hi - lo]);
        }
    }

    wanted
        .iter()
        .zip(out)
        .map(|(w, buf)| {
            let bytes = match (buf, members.get(w.member).and_then(|m| m.bytes.as_ref())) {
                (Some(buf), _) => Bytes::from(buf),
                (None, Some(b)) if b.len() >= w.size => b.slice(..w.size),
                (None, _) => Bytes::from(member_bytes(members, w).into_owned()),
            };
            verify(&w.digest, &bytes)
                .map_err(|_| RedundancyError::DigestMismatch { member: w.member })
        })
        .collect()
}

/// A wanted member's bytes as gathered, trimmed or zero-filled to its
/// true size.
fn member_bytes<'a>(members: &'a [Member], w: &Wanted) -> Cow<'a, [u8]> {
    let bytes = members.get(w.member).and_then(|m| m.bytes.as_deref());
    padded(bytes.unwrap_or_default(), 0, w.size)
}

/// `bytes[lo..hi]`, zero-filled past the end of `bytes`; borrowed when
/// `bytes` covers the whole window.
fn padded(bytes: &[u8], lo: usize, hi: usize) -> Cow<'_, [u8]> {
    match bytes.get(lo..hi) {
        Some(window) => Cow::Borrowed(window),
        None => {
            let mut v = bytes.get(lo..).unwrap_or_default().to_vec();
            v.resize(hi - lo, 0);
            Cow::Owned(v)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn images() -> Vec<Vec<u8>> {
        // Realistically ragged lengths.
        (0..11u8)
            .map(|i| {
                (0..(500 + i as usize * 37))
                    .map(|j| i.wrapping_mul(31) ^ (j as u8))
                    .collect()
            })
            .collect()
    }

    fn refs(v: &[Vec<u8>]) -> Vec<&[u8]> {
        v.iter().map(|s| s.as_slice()).collect()
    }

    #[test]
    fn raid5_round_trip_any_single_loss() {
        let imgs = images();
        let sizes: Vec<usize> = imgs.iter().map(Vec::len).collect();
        let set = generate(Redundancy::Raid5, &refs(&imgs)).unwrap();
        assert!(set.p.is_some() && set.q.is_none());
        for lost in 0..imgs.len() {
            let masked: Vec<Option<&[u8]>> = imgs
                .iter()
                .enumerate()
                .map(|(i, d)| (i != lost).then_some(d.as_slice()))
                .collect();
            let rec =
                reconstruct(Redundancy::Raid5, &masked, &sizes, set.p.as_deref(), None).unwrap();
            for (r, orig) in rec.iter().zip(imgs.iter()) {
                assert_eq!(r.as_ref(), orig.as_slice());
            }
        }
    }

    #[test]
    fn raid6_round_trip_any_double_loss() {
        let imgs: Vec<Vec<u8>> = images().into_iter().take(10).collect();
        let sizes: Vec<usize> = imgs.iter().map(Vec::len).collect();
        let set = generate(Redundancy::Raid6, &refs(&imgs)).unwrap();
        assert!(set.p.is_some() && set.q.is_some());
        for x in 0..imgs.len() {
            for y in (x + 1)..imgs.len() {
                let masked: Vec<Option<&[u8]>> = imgs
                    .iter()
                    .enumerate()
                    .map(|(i, d)| (i != x && i != y).then_some(d.as_slice()))
                    .collect();
                let rec = reconstruct(
                    Redundancy::Raid6,
                    &masked,
                    &sizes,
                    set.p.as_deref(),
                    set.q.as_deref(),
                )
                .unwrap();
                for (r, orig) in rec.iter().zip(imgs.iter()) {
                    assert_eq!(r.as_ref(), orig.as_slice());
                }
            }
        }
    }

    #[test]
    fn generate_and_reconstruct_are_thread_count_invariant() {
        let imgs = images();
        let sizes: Vec<usize> = imgs.iter().map(Vec::len).collect();
        let expect = generate(Redundancy::Raid6, &refs(&imgs)).unwrap();
        let mut masked: Vec<Option<&[u8]>> = imgs.iter().map(|d| Some(d.as_slice())).collect();
        masked[2] = None;
        masked[9] = None;
        let expect_rec = reconstruct(
            Redundancy::Raid6,
            &masked,
            &sizes,
            expect.p.as_deref(),
            expect.q.as_deref(),
        )
        .unwrap();
        for threads in [2, 4] {
            let plane = DataPlane::new(threads);
            let got = generate_with(Redundancy::Raid6, &refs(&imgs), &plane).unwrap();
            assert_eq!(got, expect, "threads={threads}");
            let rec = reconstruct_with(
                Redundancy::Raid6,
                &masked,
                &sizes,
                got.p.as_deref(),
                got.q.as_deref(),
                &plane,
            )
            .unwrap();
            assert_eq!(rec, expect_rec, "threads={threads}");
        }
    }

    #[test]
    fn raid5_rejects_double_loss() {
        let imgs = images();
        let sizes: Vec<usize> = imgs.iter().map(Vec::len).collect();
        let set = generate(Redundancy::Raid5, &refs(&imgs)).unwrap();
        let mut masked: Vec<Option<&[u8]>> = imgs.iter().map(|d| Some(d.as_slice())).collect();
        masked[0] = None;
        masked[1] = None;
        assert!(matches!(
            reconstruct(Redundancy::Raid5, &masked, &sizes, set.p.as_deref(), None).unwrap_err(),
            RedundancyError::TooManyLost {
                lost: 2,
                tolerated: 1
            }
        ));
    }

    #[test]
    fn none_schema_has_no_parity_and_no_recovery() {
        let imgs = images();
        let sizes: Vec<usize> = imgs.iter().map(Vec::len).collect();
        let set = generate(Redundancy::None, &refs(&imgs)).unwrap();
        assert!(set.p.is_none() && set.q.is_none());
        let mut masked: Vec<Option<&[u8]>> = imgs.iter().map(|d| Some(d.as_slice())).collect();
        masked[3] = None;
        assert!(matches!(
            reconstruct(Redundancy::None, &masked, &sizes, None, None).unwrap_err(),
            RedundancyError::TooManyLost { .. }
        ));
    }

    #[test]
    fn no_loss_is_identity() {
        let imgs = images();
        let sizes: Vec<usize> = imgs.iter().map(Vec::len).collect();
        let masked: Vec<Option<&[u8]>> = imgs.iter().map(|d| Some(d.as_slice())).collect();
        let rec = reconstruct(Redundancy::Raid5, &masked, &sizes, None, None).unwrap();
        for (r, orig) in rec.iter().zip(imgs.iter()) {
            assert_eq!(r.as_ref(), orig.as_slice());
        }
    }

    #[test]
    fn empty_input_rejected() {
        assert!(matches!(
            generate(Redundancy::Raid5, &[]).unwrap_err(),
            RedundancyError::Empty
        ));
    }

    fn digest(d: &[u8]) -> Digest {
        ros_cas::content_digest(d, &DataPlane::single())
    }

    /// [`repair`]'s output check: the plain `ros-cas` verify.
    fn check(d: &Digest, b: &Bytes) -> Result<Verified, CasError> {
        ros_cas::verify_payload(d, b, &DataPlane::single())
    }

    /// Every data image (plus its parity) as intact [`Member`]s.
    fn members(imgs: &[Vec<u8>], set: &ParitySet) -> Vec<Member> {
        imgs.iter()
            .map(|d| Bytes::from(d.clone()))
            .chain(set.p.clone())
            .chain(set.q.clone())
            .map(|b| Member {
                bytes: Some(b),
                bad_sectors: Vec::new(),
            })
            .collect()
    }

    fn want_all(imgs: &[Vec<u8>]) -> Vec<Wanted> {
        imgs.iter()
            .enumerate()
            .map(|(member, d)| Wanted {
                member,
                size: d.len(),
                digest: digest(d),
            })
            .collect()
    }

    /// Sector-sized images, so damage maps can name whole sectors.
    fn sector_images(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                (0..(6 * SECTOR + 100 * i))
                    .map(|j| (i as u8).wrapping_mul(37) ^ (j as u8) ^ ((j / SECTOR) as u8))
                    .collect()
            })
            .collect()
    }

    /// Garbles every byte of `sectors` in a member, as an unreadable
    /// sector's garbage would.
    fn garble(m: &mut Member, sectors: &[u64]) {
        let mut v = m.bytes.take().unwrap().to_vec();
        for &s in sectors {
            let lo = s as usize * SECTOR;
            for b in v.iter_mut().skip(lo).take(SECTOR) {
                *b ^= 0xA5;
            }
        }
        m.bytes = Some(Bytes::from(v));
        m.bad_sectors = sectors.to_vec();
    }

    #[test]
    fn repair_beyond_tolerance_is_a_typed_error() {
        let imgs = sector_images(4);
        let set = generate(Redundancy::Raid5, &refs(&imgs)).unwrap();
        // Two members damaged in the *same* sector: that stripe has two
        // erasures and RAID-5 tolerates one.
        let mut ms = members(&imgs, &set);
        garble(&mut ms[0], &[3]);
        garble(&mut ms[2], &[3, 4]);
        let err = repair(
            Redundancy::Raid5,
            &ms,
            4,
            &want_all(&imgs),
            &DataPlane::single(),
            check,
        );
        assert!(matches!(
            err,
            Err(RedundancyError::TooManyLost {
                lost: 2,
                tolerated: 1
            })
        ));
        // Whole members gone past the tolerance, no parity at all, and
        // nothing readable: typed errors, never a panic.
        let mut ms = members(&imgs, &set);
        ms[0].bytes = None;
        ms[4].bytes = None;
        assert!(repair(
            Redundancy::Raid5,
            &ms,
            4,
            &want_all(&imgs),
            &DataPlane::single(),
            check,
        )
        .is_err());
        let mut ms = members(&imgs, &set);
        ms.truncate(4);
        garble(&mut ms[1], &[0]);
        assert!(matches!(
            repair(
                Redundancy::None,
                &ms,
                4,
                &want_all(&imgs),
                &DataPlane::single(),
                check,
            ),
            Err(RedundancyError::TooManyLost { .. })
        ));
        let blank = vec![Member::default(); 5];
        assert!(repair(
            Redundancy::Raid5,
            &blank,
            4,
            &want_all(&imgs),
            &DataPlane::single(),
            check,
        )
        .is_err());
        assert!(matches!(
            repair(Redundancy::Raid5, &[], 0, &[], &DataPlane::single(), check),
            Err(RedundancyError::Empty)
        ));
    }

    #[test]
    fn repair_names_a_corrupt_survivor() {
        // Flip one byte in a *survivor*: the parity math still
        // "succeeds", but the digest check names the poisoned member.
        let imgs = images();
        let set = generate(Redundancy::Raid5, &refs(&imgs)).unwrap();
        let mut ms = members(&imgs, &set);
        ms[4].bytes = None;
        let mut corrupt = imgs[0].clone();
        corrupt[10] ^= 0xff;
        ms[0].bytes = Some(Bytes::from(corrupt));
        let want = [want_all(&imgs)[4]];
        let err = repair(
            Redundancy::Raid5,
            &ms,
            imgs.len(),
            &want,
            &DataPlane::single(),
            check,
        );
        assert_eq!(err, Err(RedundancyError::DigestMismatch { member: 4 }));
    }

    #[test]
    fn parity_image_is_not_a_udf_volume() {
        // §4.7: the parity payload need not parse as an image.
        let imgs = images();
        let set = generate(Redundancy::Raid5, &refs(&imgs)).unwrap();
        let p = set.p.unwrap();
        assert!(ros_udf::SealedImage::from_bytes(p).is_err());
    }
}
