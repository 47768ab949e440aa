//! The one repair path (§4.7): gather an array → mask → reconstruct →
//! restore, and the rewrite that moves a healed array onto fresh media.
//!
//! "Data on the failed sectors can be recovered from their parity discs
//! and the corresponding data discs in the same disc array under the
//! given tolerance degree... The recovered data can be written to new
//! buckets and finally burned into free disc arrays."
//!
//! Every repair runs the same three steps:
//!
//! 1. **Gather** ([`Ros::gather_array`]) every member of the array as
//!    refcounted `Bytes`: the buffer copy when there is one, else the
//!    disc — from the drives of the bay holding the array (fetch path)
//!    or from the tray registry (audit). A member whose very bytes the
//!    caller already digest-checked ([`Checks`]: the audit's sample, a
//!    fetch's failed read) reuses that verdict instead of a second hash.
//! 2. **Mask and reconstruct** ([`redundancy::repair`]): the drive's
//!    sector damage map, unioned with whole-member digest failures,
//!    marks what is lost; each run of sectors sharing one damaged set is
//!    rebuilt in one plane call and the result is digest-verified into a
//!    [`Verified`] proof.
//! 3. **Restore** ([`Ros::heal_members`] runs steps 2 and 3) each proof
//!    to the disk buffer: the restore compares digests, it does not
//!    hash the bytes again.
//!
//! The callers are policies over those steps and differ only in what
//! they trust and what they charge:
//!
//! | caller | masks | charges |
//! |---|---|---|
//! | fetch, sector errors ([`Ros::repair_image`]) | damage maps; buffer copies trusted | slowest drive read |
//! | fetch, digest mismatch ([`Ros::repair_image`] with `verify`) | whole members failing their digest | slowest *verified* drive read |
//! | audit (`Ros::repair_rotted_array`) | whole members failing their digest | every tray byte scanned, at the bay's aggregate rate |
//!
//! The audit and the scrub-driven [`Ros::rewrite_damaged_arrays`] then
//! hand the healed array to [`Ros::rewrite_array`].

use crate::dim::{ArrayGroup, ImageInfo};
use crate::engine::Ros;
use crate::error::OlfsError;
use crate::ids::ImageId;
use crate::redundancy::{self, Member, Wanted};
use bytes::Bytes;
use ros_cas::{CasError, Verified};
use ros_drive::media::Payload;
use ros_sim::{Bandwidth, SimDuration};
use std::collections::BTreeMap;

/// Where [`Ros::gather_array`] reads members that have no usable buffer
/// copy.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Source {
    /// The drives of this bay, which holds the array (member `i` sits in
    /// drive `i`).
    Bay(usize),
    /// The discs in their trays, via the registry.
    Trays,
}

/// One digest check already made on an image's bytes: the proof, or
/// the bytes that failed.
type Checked = Result<Verified, Bytes>;

/// Digest checks already made on array members, by image. The gather
/// reuses a verdict only for the very bytes it covered: the same
/// immutable `Bytes` range, which the record keeps alive, so a copy that
/// was replaced or rotted since is hashed afresh.
#[derive(Debug, Default)]
pub(crate) struct Checks(BTreeMap<ImageId, Vec<Checked>>);

impl Checks {
    /// Records the verdict of verifying `bytes` of `image`, and returns
    /// whether they passed.
    pub(crate) fn record(
        &mut self,
        image: ImageId,
        bytes: &Bytes,
        verdict: Result<Verified, CasError>,
    ) -> bool {
        let passed = verdict.is_ok();
        let check = verdict.map_err(|_| bytes.clone());
        self.0.entry(image).or_default().push(check);
        passed
    }

    /// The recorded verdict on exactly `bytes` of `image`, if any.
    fn verdict(&self, image: ImageId, bytes: &Bytes) -> Option<bool> {
        self.0.get(&image)?.iter().find_map(|check| {
            let (checked, ok) = match check {
                Ok(proof) => (proof.bytes(), true),
                Err(failed) => (failed, false),
            };
            std::ptr::eq(checked.as_ref(), bytes.as_ref()).then_some(ok)
        })
    }
}

/// One array's members as gathered for [`redundancy::repair`].
#[derive(Debug, Default)]
pub(crate) struct Gathered {
    /// Data members, then parity, in array order.
    pub(crate) members: Vec<Member>,
    /// Members served by their buffer copy.
    pub(crate) buffered: Vec<bool>,
    /// Members read from disc: bytes read and the rate they read at.
    reads: Vec<Option<(u64, Bandwidth)>>,
}

impl Gathered {
    /// The parallel drive reads of the members that survived the gather:
    /// the slowest one bounds the time.
    pub(crate) fn slowest_surviving_read(&self) -> SimDuration {
        self.members
            .iter()
            .zip(&self.reads)
            .filter(|(m, _)| m.bytes.is_some())
            .filter_map(|(_, r)| r.map(|(len, speed)| speed.time_for(len)))
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Bytes read from disc, whether or not they survived.
    pub(crate) fn bytes_read(&self) -> u64 {
        self.reads.iter().flatten().map(|(len, _)| len).sum()
    }
}

impl Ros {
    /// Gathers every member of an array (`ids`: data, then parity).
    ///
    /// With `verify` set, a member is kept only if its bytes match its
    /// content digest and its track read back without sector errors;
    /// anything else is erased whole. Bytes the [`Checks`] already
    /// cover take their recorded verdict; the rest are hashed here.
    /// Without `verify`, buffer copies and disc bytes are taken as they
    /// are, with the drive's damage map as the member's mask.
    pub(crate) fn gather_array(
        &self,
        ids: &[ImageId],
        from: Source,
        verify: Option<&Checks>,
    ) -> Gathered {
        let mut g = Gathered::default();
        for (i, id) in ids.iter().enumerate() {
            let info = self.store.get(*id);
            let trusted = |bytes: &Bytes| match verify {
                None => true,
                Some(checks) => info.is_some_and(|info| {
                    checks
                        .verdict(*id, bytes)
                        .unwrap_or_else(|| self.verify(&info.digest, bytes).is_ok())
                }),
            };
            let mut member = Member::default();
            let mut read = None;
            let mut buffered = false;
            if let Some(p) = info.and_then(|i| i.payload.as_ref()).filter(|p| trusted(p)) {
                member.bytes = Some(p.clone());
                buffered = true;
            } else if info.is_some() || verify.is_none() {
                let disc = match from {
                    Source::Bay(bay) => self.bays.get(bay).and_then(|b| b.drive(i)).and_then(|d| {
                        let speed = d
                            .read_speed()
                            .unwrap_or_else(|_| ros_drive::params::read_speed_bd25());
                        d.disc().map(|disc| (disc, speed))
                    }),
                    Source::Trays => info
                        .and_then(|i| i.burned)
                        .and_then(|loc| self.registry.disc(loc.disc))
                        .map(|disc| {
                            let speed = self.bays[0].aggregate_read_speed(self.cfg.disc_class);
                            (disc, speed)
                        }),
                };
                let raw = disc.map(|(disc, speed)| (disc.read_image_raw(id.0), speed));
                if let Some((Ok((Payload::Inline(bytes), bad)), speed)) = raw {
                    read = Some((bytes.len() as u64, speed));
                    if verify.is_none() {
                        member.bytes = Some(bytes.clone());
                        member.bad_sectors = bad;
                    } else if bad.is_empty() && trusted(bytes) {
                        member.bytes = Some(bytes.clone());
                    }
                }
            }
            g.members.push(member);
            g.buffered.push(buffered);
            g.reads.push(read);
        }
        g
    }

    /// Rebuilds the `wanted` data members of `group` from a gather,
    /// digest-verified, and restores their proofs to the disk buffer in
    /// place of any stale resident copy. Returns the buffer write time.
    pub(crate) fn heal_members(
        &mut self,
        group: &ArrayGroup,
        gathered: &Gathered,
        wanted: &[ImageId],
    ) -> Result<SimDuration, OlfsError> {
        let lost = |image: ImageId| OlfsError::Unrecoverable {
            image,
            array: Some(group.id),
        };
        let ids = group.members();
        let specs: Option<Vec<Wanted>> = wanted
            .iter()
            .map(|id| {
                let info = self.store.get(*id)?;
                Some(Wanted {
                    member: ids.iter().position(|m| m == id)?,
                    size: usize::try_from(info.size).ok()?,
                    digest: info.digest,
                })
            })
            .collect();
        let plane = self.data_plane();
        let rebuilt = specs
            .and_then(|specs| {
                let n_data = group.data.len();
                redundancy::repair(
                    self.cfg.redundancy,
                    &gathered.members,
                    n_data,
                    &specs,
                    &plane,
                    |digest, bytes| self.verify(digest, bytes),
                )
                .ok()
            })
            .ok_or_else(|| lost(wanted.first().copied().unwrap_or(ImageId(0))))?;
        let mut time = SimDuration::ZERO;
        for (&image, proof) in wanted.iter().zip(rebuilt) {
            if self.store.get(image).is_some_and(ImageInfo::on_disk) {
                let freed = self.store.evict_disk_copy(image).map_err(|_| lost(image))?;
                let _ = self.vm.release(self.vol_buffer, freed);
            }
            time += self
                .vm
                .write_time(self.vol_buffer, proof.bytes().len() as u64)?;
            // A full buffer stays a volume error; a refused restore
            // means the image is lost.
            self.restore_to_buffer(image, proof).map_err(|e| match e {
                OlfsError::Volume(_) => e,
                _ => lost(image),
            })?;
        }
        Ok(time)
    }

    /// The fetch-path repair: gathers the array loaded in `bay`,
    /// rebuilds `image`, restores it to the buffer, and charges the
    /// slowest surviving drive read plus the buffer write.
    ///
    /// Without `verify` it heals sector errors the drive reported: the
    /// damage maps are the masks, so several discs may be damaged as
    /// long as no 2 KB stripe exceeds the tolerance. With `verify` it
    /// heals latent rot, which leaves no damage map: every member is
    /// digest-verified whole (the fetch's own failed check among the
    /// [`Checks`]) and a mismatch erases it. Only the requested image is
    /// restored; rewriting the array onto fresh media is the audit's job
    /// (§16) — a fetch holding a reserved bay must not start a group
    /// rewrite.
    pub(crate) fn repair_image(
        &mut self,
        image: ImageId,
        bay: usize,
        verify: Option<&Checks>,
    ) -> Result<SimDuration, OlfsError> {
        let info = self.store.get(image).ok_or(OlfsError::ImageLost(image))?;
        let gid = info
            .array
            .ok_or(OlfsError::Unrecoverable { image, array: None })?;
        let unrecoverable = OlfsError::Unrecoverable {
            image,
            array: Some(gid),
        };
        let group = self.store.group(gid).ok_or(unrecoverable)?.clone();
        let gathered = self.gather_array(&group.members(), Source::Bay(bay), verify);
        let write = self.heal_members(&group, &gathered, &[image])?;
        Ok(gathered.slowest_surviving_read() + write)
    }

    /// Retires a burned array's tray and re-runs its parity → burn
    /// pipeline onto an empty tray. Every data member must already hold
    /// a healthy, pinned buffer copy; the re-burn updates the DILindex.
    /// `group` is the caller's snapshot: its tray is the one retired.
    pub(crate) fn rewrite_array(&mut self, group: &ArrayGroup) -> Result<(), OlfsError> {
        for bay in 0..self.bays.len() {
            if self.mech.bay_contents(bay).is_ok_and(|c| c == group.slot) {
                self.unload_bay(bay)?;
            }
        }
        if let Some(slot) = self.store.reset_group_for_rewrite(group.id)? {
            let idx = self.cfg.layout.slot_index(slot);
            self.store.set_da_state(idx, crate::dim::DaState::Failed);
        }
        self.schedule_parity(group.id);
        Ok(())
    }
}
