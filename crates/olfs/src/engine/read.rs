//! The read and fetch path (§4.1, §4.8, Table 1).
//!
//! One flow (Figure 7: stat → read → close): [`Ros::read_file`],
//! [`Ros::read_version`] and [`Ros::read_range`] all read a byte range
//! of one version, and each segment the range touches is served by
//! `read_segment` from an open bucket, a resident image, or an image
//! fetched from disc. Fetching picks a drive bay under the busy-read
//! policy, loads the array, verifies the payload's digest and repairs
//! it from array redundancy when it does not match.

use super::{Counters, Event, ReadReport, ReadSource, Ros};
use crate::config::BusyReadPolicy;
use crate::dim::{DiscLocation, GroupState};
use crate::error::OlfsError;
use crate::ids::ImageId;
use crate::params;
use crate::repair::Checks;
use crate::trace::OpTrace;
use bytes::Bytes;
use ros_drive::media::Payload;
use ros_mech::SlotAddress;
use ros_sim::SimDuration;
use ros_udf::UdfPath;

impl Ros {
    /// Reads the newest version of a file.
    pub fn read_file(&mut self, path: &UdfPath) -> Result<ReadReport, OlfsError> {
        self.read(path, None, 0, u64::MAX)
    }

    /// Reads a specific retained version (data provenance, §4.6).
    pub fn read_version(&mut self, path: &UdfPath, ver: u32) -> Result<ReadReport, OlfsError> {
        self.read(path, Some(ver), 0, u64::MAX)
    }

    /// Reads a byte range of a file's newest version (the `pread`
    /// behind the POSIX layer). Segments entirely outside the range are
    /// skipped — including their mechanical fetches — when the index
    /// entry recorded per-segment sizes.
    pub fn read_range(
        &mut self,
        path: &UdfPath,
        offset: u64,
        len: u64,
    ) -> Result<ReadReport, OlfsError> {
        self.read(path, None, offset, len)
    }

    /// The one read path (Figure 7: stat → read → close): bytes
    /// `[offset, offset + len)` of version `ver` (the newest if `None`).
    /// A whole-file read is the range `[0, u64::MAX)`.
    fn read(
        &mut self,
        path: &UdfPath,
        ver: Option<u32>,
        offset: u64,
        len: u64,
    ) -> Result<ReadReport, OlfsError> {
        let mut trace = OpTrace::new();
        let mv_read = self.vm.random_read_time(self.vol_mv, 1024)?;
        let d = trace.step("stat", mv_read);
        self.advance(d);

        let idx = self
            .mv
            .get(path)
            .ok_or_else(|| OlfsError::NotFound(path.to_string()))?;
        let entry = match ver {
            None => idx.latest(),
            // An in-place bucket update (§4.6) physically replaced the
            // bytes of the version it overwrote.
            Some(v) if self.overwritten.contains(&(path.to_string(), v)) => None,
            Some(v) => idx.version(v),
        };
        let entry = entry.cloned().ok_or_else(|| match ver {
            Some(version) => OlfsError::VersionGone {
                path: path.to_string(),
                version,
            },
            None => OlfsError::NotFound(path.to_string()),
        })?;
        // The forepart holds the newest version's head only.
        let forepart_hit = ver.is_none() && idx.forepart().is_some_and(|f| offset < f.len() as u64);
        let stored_paths = self.resolve_stored_paths(path, entry.ver);

        let end = offset.saturating_add(len).min(entry.size);
        let start = offset.min(entry.size);
        let sized = entry.seg_sizes.len() == entry.segs.len() && !entry.segs.is_empty();

        let mut pieces: Vec<Bytes> = Vec::new();
        let mut io = SimDuration::ZERO;
        let mut source = ReadSource::DiskBucket;
        let mut fetch_extra = SimDuration::ZERO;
        let mut cursor = 0u64; // Byte position at the current segment start.
        for (i, seg) in entry.segs.iter().enumerate() {
            let seg_len = if sized {
                entry.seg_sizes[i]
            } else {
                // Unknown layout: read everything and slice at the end.
                u64::MAX
            };
            let seg_end = cursor.saturating_add(seg_len);
            let overlaps = !sized || (seg_end > start && cursor < end);
            if overlaps {
                let (bytes, seg_io, seg_source, seg_fetch) =
                    self.read_segment(*seg, &stored_paths, entry.size)?;
                io += seg_io;
                fetch_extra += seg_fetch;
                source = source.max(seg_source);
                if sized {
                    let lo = start.saturating_sub(cursor).min(bytes.len() as u64);
                    let hi = end.saturating_sub(cursor).min(bytes.len() as u64);
                    // Sub-slicing a refcounted buffer, not copying.
                    pieces.push(bytes.slice(lo as usize..hi as usize));
                } else {
                    pieces.push(bytes);
                }
            }
            if sized {
                cursor = seg_end;
                if cursor >= end {
                    break;
                }
            }
        }
        let data = Self::join_segments(&mut self.counters, pieces);
        let data = if sized {
            data
        } else {
            // Slice the concatenation (zero-copy when one segment).
            let lo = start.min(data.len() as u64) as usize;
            let hi = end.min(data.len() as u64) as usize;
            data.slice(lo..hi)
        };
        if fetch_extra > SimDuration::ZERO {
            trace.extra("fetch", fetch_extra);
        }
        let d = trace.step("read", io);
        self.advance(d);
        let d = trace.step("close", SimDuration::ZERO);
        self.advance(d);

        let total = trace.total();
        let first_byte = if fetch_extra > SimDuration::ZERO && forepart_hit {
            params::forepart_first_byte()
        } else {
            total
        };
        self.counters.reads += 1;
        Ok(ReadReport {
            data,
            version: entry.ver,
            latency: total,
            first_byte_latency: first_byte,
            source,
            trace,
        })
    }

    /// Joins segment slices into a reply payload. A single slice — the
    /// common unsplit-file case — is handed back zero-copy (a refcount
    /// bump over the owning buffer); joining `n > 1` slices is the only
    /// memcpy on the read path, and its volume is counted in
    /// [`Counters::read_copy_bytes`].
    fn join_segments(counters: &mut Counters, mut pieces: Vec<Bytes>) -> Bytes {
        if pieces.len() == 1 {
            return pieces.remove(0);
        }
        let total: usize = pieces.iter().map(Bytes::len).sum();
        let mut buf = Vec::with_capacity(total);
        for b in &pieces {
            buf.extend_from_slice(b);
        }
        counters.read_copy_bytes += buf.len() as u64;
        Bytes::from(buf)
    }

    /// Candidate stored paths for a version, most likely first.
    pub(super) fn resolve_stored_paths(&self, path: &UdfPath, ver: u32) -> Vec<UdfPath> {
        let mut candidates = Vec::new();
        // A dedup-hit version reads the canonical copy's bytes (§14).
        if let Some(alias) = self.dedup.alias(path, ver) {
            candidates.push(alias.clone());
        }
        if let Some(stored) = self.in_place.get(&(path.to_string(), ver)) {
            candidates.push(stored.clone());
        }
        if ver > 1 {
            candidates.push(Self::shadow_path(path, ver));
        }
        candidates.push(path.clone());
        candidates
    }

    /// Reads one segment image, fetching from disc if needed. Returns
    /// `(bytes, device_io, source, mechanical_extra)`.
    fn read_segment(
        &mut self,
        image: ImageId,
        stored_paths: &[UdfPath],
        size_hint: u64,
    ) -> Result<(Bytes, SimDuration, ReadSource, SimDuration), OlfsError> {
        // 1. Still in an open bucket?
        if let Some(bi) = self.wbm.locate_image(image) {
            let b = self.wbm.bucket(bi).ok_or(OlfsError::ImageLost(image))?;
            let bytes = stored_paths
                .iter()
                .find_map(|p| b.read(p).ok())
                .ok_or(OlfsError::ImageLost(image))?;
            let io = params::bucket_read_device()
                + self.vm.read_time(self.vol_buffer, bytes.len() as u64)?;
            return Ok((bytes, io, ReadSource::DiskBucket, SimDuration::ZERO));
        }
        // 2. A sealed image resident on the buffer / read cache, or
        // 3. on disc: fetched first (a read-cache miss by definition).
        let resident = self
            .store
            .get(image)
            .ok_or(OlfsError::ImageLost(image))?
            .sealed
            .is_some();
        let (source, fetch_time) = if resident {
            (ReadSource::DiskImage, SimDuration::ZERO)
        } else {
            self.cache.touch(image);
            let (fetch_time, source) = self.fetch_image(image, size_hint)?;
            self.counters.fetches += 1;
            (source, fetch_time)
        };
        let sealed = self
            .store
            .get(image)
            .and_then(|i| i.sealed.clone())
            .ok_or(OlfsError::ImageLost(image))?;
        let bytes = stored_paths
            .iter()
            .find_map(|p| sealed.read(p).ok())
            .ok_or(OlfsError::ImageLost(image))?;
        let io =
            params::image_read_device() + self.vm.read_time(self.vol_buffer, bytes.len() as u64)?;
        if resident {
            self.cache.touch(image);
        } else {
            self.cache.insert(image);
        }
        Ok((bytes, io, source, fetch_time))
    }

    /// Brings a burned image's bytes back to the disk tier, performing
    /// whatever mechanical work is required.
    ///
    /// The foreground read transfers only the requested file
    /// (`file_bytes`) off the mounted disc (§5.4); the rest of the image
    /// streams into the read cache in the background, overlapped with
    /// the remaining mechanical/settling window.
    fn fetch_image(
        &mut self,
        image: ImageId,
        file_bytes: u64,
    ) -> Result<(SimDuration, ReadSource), OlfsError> {
        let loc = self
            .store
            .location_of(image)
            .ok_or(OlfsError::ImageLost(image))?;
        // A quarantined bay may hold the needed array hostage: evacuate
        // it (ejects work even on dead drives) so the array can be loaded
        // into a healthy bay below.
        let hostage = (0..self.bays.len()).find(|&b| {
            self.quarantined_bays.contains(&b)
                && self.mech.bay_contents(b).ok().flatten() == Some(loc.slot)
        });
        if let Some(b) = hostage {
            self.unload_bay(b)?;
        }
        let holding_bay = (0..self.bays.len()).find(|&b| {
            !self.burning.contains_key(&b)
                && !self.quarantined_bays.contains(&b)
                && self.mech.bay_contents(b).ok().flatten() == Some(loc.slot)
        });

        let (bay, mut extra, source) = match holding_bay {
            Some(bay) => {
                self.reserved_bays.insert(bay);
                (bay, SimDuration::ZERO, ReadSource::DiscInDrive)
            }
            None => {
                let (bay, free_time, source) = self.acquire_bay_for_fetch()?;
                let load = self.load_bay(loc.slot, bay);
                if load.is_err() {
                    self.reserved_bays.remove(&bay);
                }
                (bay, free_time + load? + params::post_load_spin_up(), source)
            }
        };

        let result = self.read_disc_payload(image, bay, loc, file_bytes, &mut extra);
        self.reserved_bays.remove(&bay);
        result?;
        if self.cfg.prefetch_array {
            self.schedule_array_prefetch(bay, loc.slot, image);
        }
        self.advance(extra);
        Ok((extra, source))
    }

    /// Schedules a background prefetch of every other image burned on
    /// the array now sitting in `bay` (§4.1's spatial-locality
    /// refinement). The transfer happens off the critical path while the
    /// discs remain loaded.
    fn schedule_array_prefetch(&mut self, bay: usize, slot: SlotAddress, just_read: ImageId) {
        let Some(gid) = self.store.get(just_read).and_then(|i| i.array) else {
            return;
        };
        let Some(group) = self.store.group(gid) else {
            return;
        };
        if group.slot != Some(slot) {
            return;
        }
        let siblings: Vec<ImageId> = group
            .data
            .iter()
            .copied()
            .filter(|&img| {
                img != just_read
                    && self
                        .store
                        .get(img)
                        .map(|i| i.burned.is_some() && !i.on_disk())
                        .unwrap_or(false)
            })
            .collect();
        if siblings.is_empty() {
            return;
        }
        // All sibling drives stream in parallel: the prefetch lands
        // after the slowest full-image read.
        let speed = self.bays[bay].aggregate_read_speed(self.cfg.disc_class)
            / self.cfg.drives_per_bay as f64;
        let slowest = siblings
            .iter()
            .filter_map(|img| self.store.get(*img).map(|i| i.size))
            .max()
            .unwrap_or(0);
        let dur = speed.time_for(slowest) + ros_drive::params::seek_time();
        self.queue.schedule_in(
            dur,
            Event::PrefetchDone {
                bay,
                images: siblings,
            },
        );
    }

    fn read_disc_payload(
        &mut self,
        image: ImageId,
        bay: usize,
        loc: DiscLocation,
        file_bytes: u64,
        extra: &mut SimDuration,
    ) -> Result<(), OlfsError> {
        let pos = loc.position as usize;
        // Idle drives spin down; the next access pays the ≈2 s mount
        // delay (§5.4: "occurs only when the drive is in the sleep
        // state").
        let idle_since = self.drive_last_used.get(&(bay, pos)).copied();
        if let Some(t) = idle_since {
            if self.now().duration_since(t) > ros_drive::params::sleep_after_idle() {
                if let Some(d) = self.bays[bay].drive_mut(pos) {
                    d.sleep();
                }
            }
        }
        self.drive_last_used.insert((bay, pos), self.now());
        let mounted = *self.vfs_mounted.get(&(bay, pos)).unwrap_or(&false);
        if !mounted {
            // The 220 ms VFS mount (§5.4) subsumes the first file seek,
            // which the drive charges separately below.
            *extra += params::vfs_mount() - ros_drive::params::seek_time();
            self.vfs_mounted.insert((bay, pos), true);
        }
        let read = self.bays[bay]
            .drive_mut(pos)
            .ok_or_else(|| OlfsError::BadState(format!("no drive {pos} in bay {bay}")))?
            .read_image(image.0);
        match read {
            Ok(timed) => {
                // Foreground: mount + seek + the requested file's bytes.
                // The remainder of the image streams into the cache in
                // the background (§4.1: the cache unit is a whole image).
                let speed = self.bays[bay]
                    .drive(pos)
                    .and_then(|d| d.read_speed().ok())
                    .unwrap_or_else(ros_drive::params::read_speed_bd25);
                let file_transfer = speed.time_for(file_bytes.min(timed.payload.len()));
                let full_transfer = speed.time_for(timed.payload.len());
                let overhead = timed.duration.saturating_sub(full_transfer);
                *extra += overhead + file_transfer;
                let payload = match timed.payload {
                    Payload::Inline(b) => b,
                    Payload::Synthetic { .. } => {
                        // PB-scale benches burn synthetic payloads, which
                        // carry no bytes to restore.
                        return Err(OlfsError::BadState(format!(
                            "image {image} has no inline payload"
                        )));
                    }
                };
                // End-to-end digest check *before* the restore: latent
                // rot flips bytes without any sector error, so the drive
                // read succeeds and only the CAS digest can tell. This is
                // the one hash of the fetched bytes: the restore takes
                // the proof. A mismatch is repaired from array redundancy
                // in-line — the client never observes corrupt bytes.
                let digest = self
                    .store
                    .get(image)
                    .map(|i| i.digest)
                    .ok_or(OlfsError::ImageLost(image))?;
                match self.verify(&digest, &payload) {
                    Ok(proof) => self.restore_to_buffer(image, proof),
                    failed @ Err(_) => {
                        let mut checks = Checks::default();
                        checks.record(image, &payload, failed);
                        *extra += self.repair_image(image, bay, Some(&checks))?;
                        self.counters.latent_repairs += 1;
                        Ok(())
                    }
                }
            }
            Err(ros_drive::DriveError::Media(ros_drive::media::MediaError::SectorErrors {
                ..
            })) => {
                *extra += self.repair_image(image, bay, None)?;
                self.counters.repairs += 1;
                Ok(())
            }
            Err(e @ ros_drive::DriveError::TransientRead) => {
                // A servo recalibration: the retry loop re-reads in place.
                Err(OlfsError::Transient(e.to_string()))
            }
            Err(ros_drive::DriveError::Failed) => {
                // The drive is gone for good: route around the bay. A
                // retry re-fetches through a healthy bay (the quarantined
                // one is evacuated by `fetch_image` first).
                self.quarantine_bay(bay);
                Err(OlfsError::Transient(format!(
                    "drive {pos} in bay {bay} failed; bay quarantined"
                )))
            }
            Err(e) => Err(OlfsError::Drive(e.to_string())),
        }
    }

    /// Finds and reserves a bay for a fetch per the busy-read policy.
    /// Returns `(bay, time_spent_freeing_it, source_classification)`.
    fn acquire_bay_for_fetch(&mut self) -> Result<(usize, SimDuration, ReadSource), OlfsError> {
        let mut spent = SimDuration::ZERO;
        let mut classification = ReadSource::RollerFreeDrives;
        for _round in 0..64 {
            // A free, unreserved, non-burning bay?
            if let Some(bay) = (0..self.bays.len()).find(|&b| self.bay_free(b, false)) {
                self.reserved_bays.insert(bay);
                return Ok((bay, spent, classification));
            }
            // An idle holding bay: reserve, unload, return.
            if let Some(bay) = (0..self.bays.len()).find(|&b| self.bay_free(b, true)) {
                self.reserved_bays.insert(bay);
                match self.unload_bay(bay) {
                    Ok(t) => {
                        spent += t;
                        classification = classification.max(ReadSource::RollerUnloadFirst);
                        return Ok((bay, spent, classification));
                    }
                    Err(_) => {
                        self.reserved_bays.remove(&bay);
                        continue;
                    }
                }
            }
            // Everything is burning (§4.8).
            classification = ReadSource::RollerDrivesBusy;
            match self.cfg.busy_read_policy {
                BusyReadPolicy::Wait => {
                    let next = self
                        .burning
                        .values()
                        .map(|i| i.until)
                        .min()
                        .ok_or(OlfsError::NoDriveAvailable)?;
                    let start = self.now();
                    self.run_until(next);
                    spent += self.now().duration_since(start);
                }
                BusyReadPolicy::InterruptBurn => {
                    let bay = *self
                        .burning
                        .keys()
                        .next()
                        .ok_or(OlfsError::NoDriveAvailable)?;
                    spent += self.interrupt_burn(bay)?;
                }
            }
        }
        Err(OlfsError::NoDriveAvailable)
    }

    /// Interrupts the burn in `bay`, requeueing its group for an
    /// appending re-burn (§4.8's aggressive policy).
    fn interrupt_burn(&mut self, bay: usize) -> Result<SimDuration, OlfsError> {
        let info = self
            .burning
            .remove(&bay)
            .ok_or(OlfsError::BadState(format!("bay {bay} not burning")))?;
        let gid = info.group;
        let group = self
            .store
            .group(gid)
            .ok_or(OlfsError::BadState(format!("no group {gid}")))?
            .clone();
        let imgs = group.members();
        for i in 0..self.cfg.drives_per_bay {
            if info.sizes.get(i).copied().unwrap_or(0) > 0 {
                let img = imgs.get(i).copied().unwrap_or(ImageId(0));
                self.bays[bay]
                    .drive_mut(i)
                    .ok_or_else(|| OlfsError::BadState(format!("no drive {i} in bay {bay}")))?
                    .interrupt_burn(img.0, 0)?;
            }
        }
        // The slot stays reserved for the group's appending re-burn.
        if let Some(g) = self.store.group_mut(gid) {
            g.state = GroupState::ReadyToBurn;
        }
        self.burn_queue.push_front(gid);
        self.append_groups.insert(gid);
        self.counters.burn_interrupts += 1;
        let t = SimDuration::from_millis(500);
        self.advance(t);
        Ok(t)
    }
}
