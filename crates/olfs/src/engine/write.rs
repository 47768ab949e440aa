//! The write path (PBW, §4.3–4.6).
//!
//! One flow (Figure 7): stat, then mknod → stat for a new file. An
//! existing file is updated in place while its only segment sits in an
//! open bucket with room; everything else — a new file or a regenerated
//! version under its shadow path — ends in `store_version`: the
//! dedup lookup, then a dedup link or bucket placement, then the close
//! that records the version. Sealing full buckets and scheduling their
//! group's delayed parity (§4.7) live here too.

use super::{Event, Ros, WriteReport};
use crate::error::OlfsError;
use crate::ids::{ArrayId, ImageId};
use crate::index::{LocTag, VersionEntry};
use crate::params;
use crate::trace::OpTrace;
use crate::wbm::{link_file_name, LinkFile, Placement};
use bytes::Bytes;
use ros_sim::SimDuration;
use ros_udf::UdfPath;

impl Ros {
    /// Writes a new file, or a new *version* if the path already exists
    /// (the regenerating update of §4.6).
    ///
    /// Figure 7's sequence: stat, then mknod → stat for a new file; an
    /// existing file is updated in place when its bucket can take the
    /// new bytes. Everything else ends in `store_version`.
    pub fn write_file(
        &mut self,
        path: &UdfPath,
        data: impl Into<Bytes>,
    ) -> Result<WriteReport, OlfsError> {
        let data = data.into();
        if path.is_root() {
            return Err(OlfsError::Invalid("cannot write to /".into()));
        }
        let mut trace = OpTrace::new();
        // Every MV step (stat, mknod, close) is one random index-file
        // access on the metadata volume.
        let mv_io = self.vm.random_read_time(self.vol_mv, 1024)?;

        // stat: look up the index file (MV random read, direct I/O).
        let d = trace.step("stat", mv_io);
        self.advance(d);
        if self.mv.is_file(path) {
            return self.update_file(path, data, trace, mv_io);
        }

        // mknod: create the index file and the bucket file entry.
        let d = trace.step("mknod", mv_io);
        self.advance(d);
        self.mv.create(path)?;

        // stat again (the VFS re-validates after create, §5.3).
        let d = trace.step("stat", mv_io);
        self.advance(d);
        self.store_version(path, path.clone(), data, trace, mv_io)
    }

    /// Updates an existing file (§4.6): in place while its only segment
    /// sits in an open bucket with room, otherwise a regenerated copy
    /// under a versioned shadow path.
    fn update_file(
        &mut self,
        path: &UdfPath,
        data: Bytes,
        mut trace: OpTrace,
        mv_io: SimDuration,
    ) -> Result<WriteReport, OlfsError> {
        let latest = self
            .mv
            .get(path)
            .and_then(|i| i.latest().cloned())
            .ok_or_else(|| OlfsError::NotFound(path.to_string()))?;

        let Some((bi, stored)) = self.in_place_target(path, &latest, data.len() as u64) else {
            // Regenerate: a fresh copy under a versioned shadow path in
            // current buckets (the old image keeps the old bytes).
            let shadow = Self::shadow_path(path, latest.ver + 1);
            return self.store_version(path, shadow, data, trace, mv_io);
        };
        let io = params::bucket_write_device()
            + self.vm.write_time(self.vol_buffer, data.len() as u64)?;
        let d = trace.step("write", io);
        self.advance(d);
        // The file's mtime is the write's, taken before close.
        let now = self.queue.now().as_nanos();
        self.wbm
            .bucket_mut(bi)
            .ok_or_else(|| OlfsError::BadState(format!("bucket {bi} vanished")))?
            .update(&stored, data.clone(), now)?;
        let d = trace.step("close", mv_io);
        self.advance(d);
        let forepart = self.make_forepart(&data);
        let idx = self
            .mv
            .get_mut(path)
            .ok_or_else(|| OlfsError::BadState("index entry vanished mid-update".into()))?;
        let version = idx.push_version(LocTag::Bucket, data.len() as u64, now, latest.segs.clone());
        idx.set_forepart(forepart);
        // Record that this version lives at the previous version's
        // stored path, whose old bytes are gone.
        self.in_place
            .insert((path.to_string(), version), stored.clone());
        self.overwritten.insert((path.to_string(), latest.ver));
        if self.cfg.dedup {
            // The old bytes were unshared (see `in_place_target`);
            // catalogue the stored location under the new content digest.
            self.dedup.invalidate_version(path, latest.ver);
            let digest = self.digest(&data);
            self.dedup.record_canonical(
                path,
                version,
                digest,
                &data,
                crate::dedup::CatalogEntry {
                    segments: latest.segs.clone(),
                    seg_sizes: vec![data.len() as u64],
                    stored,
                },
            );
        }
        self.counters.updates += 1;
        Ok(WriteReport {
            version,
            segments: latest.segs,
            latency: trace.total(),
            trace,
        })
    }

    /// The open bucket and stored path of `latest` when an update to
    /// `len` bytes can overwrite it in place: its only segment sits in
    /// an open bucket with room for the growth, and (§14) no other
    /// version shares its digest.
    fn in_place_target(
        &self,
        path: &UdfPath,
        latest: &VersionEntry,
        len: u64,
    ) -> Option<(usize, UdfPath)> {
        let shared = self.cfg.dedup && self.dedup.version_shared(path, latest.ver);
        if latest.segs.len() != 1 || shared {
            return None;
        }
        let bi = self.wbm.locate_image(latest.segs[0])?;
        let b = self.wbm.bucket(bi)?;
        let growth = ros_udf::blocks_for(len).saturating_sub(ros_udf::blocks_for(latest.size))
            * ros_udf::BLOCK_SIZE;
        if growth > b.free_bytes() {
            return None;
        }
        let stored = self
            .resolve_stored_paths(path, latest.ver)
            .into_iter()
            .find(|p| b.contains(p))?;
        Some((bi, stored))
    }

    /// Stores a new version of `path` under `stored` — the path itself
    /// for a new file, the shadow path for a regenerated version — and
    /// closes it. Dedup (§14): a payload whose content digest is already
    /// catalogued shares the canonical copy's placement — no second
    /// bucket residency, no second parity charge, no second burn.
    fn store_version(
        &mut self,
        path: &UdfPath,
        stored: UdfPath,
        data: Bytes,
        mut trace: OpTrace,
        mv_io: SimDuration,
    ) -> Result<WriteReport, OlfsError> {
        let fresh = stored == *path;
        let mut digest = None;
        if self.cfg.dedup {
            let d = self.digest(&data);
            if let Some(entry) = self.dedup.lookup(&d).cloned() {
                return self.finish_dedup_write(path, &data, d, entry, trace, mv_io, fresh);
            }
            digest = Some(d);
        }

        // write: place the data into buckets.
        let (segments, seg_sizes, write_time) = self.place_data(&stored, &data)?;
        let d = trace.step("write", write_time);
        self.advance(d);
        let version = self.close_version(path, &data, &mut trace, mv_io, &segments, &seg_sizes)?;

        if let Some(digest) = digest {
            self.dedup.record_canonical(
                path,
                version,
                digest,
                &data,
                crate::dedup::CatalogEntry {
                    segments: segments.clone(),
                    seg_sizes,
                    stored: stored.clone(),
                },
            );
        }
        for seg in &segments {
            self.image_paths
                .entry(*seg)
                .or_default()
                .push(stored.clone());
        }
        if fresh {
            self.counters.writes += 1;
            if segments.len() > 1 {
                self.counters.splits += 1;
            }
        } else {
            self.counters.updates += 1;
        }
        self.try_start_burns();
        Ok(WriteReport {
            version,
            segments,
            latency: trace.total(),
            trace,
        })
    }

    /// close/release: charges the index update, then records the new
    /// sized version and its forepart. Returns the version number.
    fn close_version(
        &mut self,
        path: &UdfPath,
        data: &Bytes,
        trace: &mut OpTrace,
        mv_io: SimDuration,
        segments: &[ImageId],
        seg_sizes: &[u64],
    ) -> Result<u32, OlfsError> {
        let d = trace.step("close", mv_io);
        self.advance(d);
        let now = self.queue.now().as_nanos();
        let forepart = self.make_forepart(data);
        let idx = self
            .mv
            .get_mut(path)
            .ok_or_else(|| OlfsError::BadState(format!("index entry of {path} vanished")))?;
        let version = idx.push_version_sized(
            LocTag::Bucket,
            data.len() as u64,
            now,
            segments.to_vec(),
            seg_sizes.to_vec(),
        );
        idx.set_forepart(forepart);
        Ok(version)
    }

    /// The shadow path regenerated version `ver` of `path` is stored
    /// under inside images.
    pub(super) fn shadow_path(path: &UdfPath, ver: u32) -> UdfPath {
        // Callers only pass file paths; a root path has no shadow.
        match (path.parent(), path.name()) {
            (Some(parent), Some(name)) => parent.join(&format!(".rosv{ver}-{name}")),
            _ => path.clone(),
        }
    }

    /// Completes a write whose payload dedup-hit a catalogued blob
    /// (§14): the new version points at the canonical copy's segments
    /// and no data is placed — only the index close is charged.
    #[allow(clippy::too_many_arguments)]
    fn finish_dedup_write(
        &mut self,
        path: &UdfPath,
        data: &Bytes,
        digest: ros_cas::Digest,
        entry: crate::dedup::CatalogEntry,
        mut trace: OpTrace,
        mv_io: SimDuration,
        fresh: bool,
    ) -> Result<WriteReport, OlfsError> {
        let version = self.close_version(
            path,
            data,
            &mut trace,
            mv_io,
            &entry.segments,
            &entry.seg_sizes,
        )?;
        if !self
            .dedup
            .record_duplicate(path, version, digest, &entry.stored)
        {
            return Err(OlfsError::BadState(format!(
                "dedup catalog out of sync for digest {digest}"
            )));
        }
        for seg in &entry.segments {
            self.image_paths.entry(*seg).or_default().push(path.clone());
            // The canonical copy may already have left the write buffer;
            // promote the fresh version's location tag to match.
            let tag = if self.wbm.locate_image(*seg).is_some() {
                None
            } else if self.store.get(*seg).and_then(|i| i.burned).is_some() {
                Some(LocTag::Disc)
            } else {
                Some(LocTag::Image)
            };
            if let Some(tag) = tag {
                if let Some(idx) = self.mv.get_mut(path) {
                    idx.promote_image(*seg, tag);
                }
            }
        }
        if fresh {
            self.counters.writes += 1;
        } else {
            self.counters.updates += 1;
        }
        self.counters.dedup_hits += 1;
        self.counters.dedup_bytes_saved += data.len() as u64;
        Ok(WriteReport {
            version,
            segments: entry.segments,
            latency: trace.total(),
            trace,
        })
    }

    /// Dedup accounting snapshot (§14); all-zero until `cfg.dedup`
    /// routes writes through the catalog.
    pub fn dedup_stats(&self) -> crate::dedup::DedupStats {
        self.dedup.stats()
    }

    fn make_forepart(&self, data: &Bytes) -> Option<Bytes> {
        if self.cfg.forepart_bytes == 0 {
            return None;
        }
        let n = (self.cfg.forepart_bytes as usize).min(data.len());
        Some(data.slice(..n))
    }

    /// Places file data into buckets, splitting and sealing as needed.
    /// Returns `(segments, per-segment sizes, device time)`.
    fn place_data(
        &mut self,
        path: &UdfPath,
        data: &Bytes,
    ) -> Result<(Vec<ImageId>, Vec<u64>, SimDuration), OlfsError> {
        let mut segments = Vec::new();
        let mut seg_sizes: Vec<u64> = Vec::new();
        let mut offset = 0u64;
        let total = data.len() as u64;
        let mut io = SimDuration::ZERO;
        let mut guard = 0u32;
        // An empty file still gets one (empty) segment.
        while offset < total || segments.is_empty() {
            guard += 1;
            if guard > 10_000 {
                return Err(OlfsError::BadState(
                    "file placement failed to converge".into(),
                ));
            }
            let remaining = total - offset;
            // The rest of the file fits a bucket whole, or a prefix of it
            // fills one bucket, which then seals.
            let (bucket, len, seal) = match self.wbm.place(path, remaining) {
                Placement::Whole { bucket } => (bucket, remaining, false),
                Placement::Split { bucket, prefix } => (bucket, prefix, true),
                Placement::NoRoom => {
                    let fullest = (0..self.wbm.len())
                        .max_by_key(|&i| self.wbm.bucket(i).map(|b| b.used_bytes()).unwrap_or(0))
                        .ok_or_else(|| OlfsError::BadState("no open buckets".into()))?;
                    if self.wbm.bucket(fullest).is_none_or(|b| b.is_empty()) {
                        return Err(OlfsError::Invalid(format!(
                            "file unplaceable: {remaining} bytes left"
                        )));
                    }
                    io += self.seal_bucket(fullest)?;
                    continue;
                }
            };
            let chunk = data.slice(offset as usize..(offset + len) as usize);
            io += params::bucket_write_device() + self.vm.write_time(self.vol_buffer, len)?;
            let now = self.queue.now().as_nanos();
            let b = self.wbm.bucket_mut(bucket).ok_or_else(|| {
                OlfsError::BadState(format!("placement chose missing bucket {bucket}"))
            })?;
            let image = ImageId(b.image_id());
            b.write(path, chunk, now)?;
            if offset > 0 {
                self.write_link_file(bucket, path, &segments, offset, total);
            }
            segments.push(image);
            seg_sizes.push(len);
            offset += len;
            if !seal {
                break;
            }
            io += self.seal_bucket(bucket)?;
        }
        Ok((segments, seg_sizes, io))
    }

    /// Writes the link file stitching subfile `offset` of `path` to the
    /// previous segment (§4.5).
    fn write_link_file(
        &mut self,
        bucket: usize,
        path: &UdfPath,
        segments: &[ImageId],
        offset: u64,
        total: u64,
    ) {
        let Some(&prev) = segments.last() else {
            return;
        };
        let link = LinkFile {
            prev_image: prev.0,
            offset,
            total_size: total,
        };
        // Best effort (see below): root paths carry no link file.
        let (Some(parent), Some(name)) = (path.parent(), path.name()) else {
            return;
        };
        let link_path = parent.join(&link_file_name(name));
        let now = self.queue.now().as_nanos();
        // Best effort: if the link file doesn't fit, MV still stitches
        // the segments; only MV-less recovery loses the continuation.
        if let Some(b) = self.wbm.bucket_mut(bucket) {
            let _ = b.write(&link_path, link.to_json().into_bytes(), now);
        }
    }

    /// Seals bucket `i` into an image. Returns device time consumed.
    pub(crate) fn seal_bucket(&mut self, i: usize) -> Result<SimDuration, OlfsError> {
        let new_id = self.store.allocate_image_id();
        let old = self.wbm.rotate(i, new_id);
        if old.is_empty() {
            return Ok(SimDuration::ZERO);
        }
        let sealed = old.close()?;
        let image = ImageId(sealed.image_id());
        let bytes = sealed.len();
        self.vm.allocate(self.vol_buffer, bytes)?;
        let digest = self.digest(sealed.bytes());
        let completed = self
            .store
            .register_sealed(sealed, digest, self.cfg.data_discs_per_array());
        self.cache.insert(image);
        self.cache.pin(image);
        self.promote_paths(image, LocTag::Image);
        self.counters.buckets_sealed += 1;
        if let Some(gid) = completed {
            self.schedule_parity(gid);
        }
        Ok(SimDuration::from_micros(500))
    }

    pub(super) fn promote_paths(&mut self, image: ImageId, loc: LocTag) {
        if let Some(paths) = self.image_paths.get(&image).cloned() {
            for p in paths {
                // Shadow paths map back to their original index file.
                let original = Self::original_of(&p);
                if let Some(idx) = self.mv.get_mut(&original) {
                    idx.promote_image(image, loc);
                }
            }
        }
    }

    /// Maps a (possibly shadow) stored path back to the global path.
    fn original_of(p: &UdfPath) -> UdfPath {
        let Some(name) = p.name() else {
            return p.clone();
        };
        if let Some(rest) = name.strip_prefix(".rosv") {
            if let (Some(dash), Some(parent)) = (rest.find('-'), p.parent()) {
                let original = &rest[dash + 1..];
                return parent.join(original);
            }
        }
        p.clone()
    }

    /// Schedules delayed parity generation for a completed group (§4.7).
    pub(crate) fn schedule_parity(&mut self, gid: ArrayId) {
        let Some(group) = self.store.group(gid) else {
            return;
        };
        let sizes: Vec<u64> = group
            .data
            .iter()
            .filter_map(|id| self.store.get(*id).map(|i| i.size))
            .collect();
        let read_bytes: u64 = sizes.iter().sum();
        let max_size = sizes.iter().copied().max().unwrap_or(0);
        let write_vol = if self.cfg.separate_volumes {
            self.vol_aux
        } else {
            self.vol_buffer
        };
        let parity_count = self.cfg.redundancy.parity_discs() as u64;
        let read = self
            .vm
            .read_time(self.vol_buffer, read_bytes)
            .unwrap_or(SimDuration::ZERO);
        let write = self
            .vm
            .write_time(write_vol, max_size * parity_count)
            .unwrap_or(SimDuration::ZERO);
        let dur = if self.cfg.separate_volumes {
            // Independent volumes let the read and write streams overlap.
            read.max(write)
        } else {
            // Same volume: the streams serialise and interfere.
            (read + write).mul_f64(1.0 / ros_disk::params::STREAM_INTERFERENCE_FACTOR)
        };
        self.queue
            .schedule_in(dur, Event::ParityDone { group: gid });
    }
}
