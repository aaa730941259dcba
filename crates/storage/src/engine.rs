//! The storage engine: generational WAL files + snapshots + recovery.
//!
//! # On-disk layout
//!
//! The storage directory holds numbered *epochs*:
//!
//! ```text
//! snapshot-000002.bin   state at the START of epoch 2 (= end of wal-000001.log)
//! wal-000002.log        frames appended during epoch 2
//! ```
//!
//! Epoch 0 has no snapshot — its starting state is the implicit empty system.
//! Rotation ([`StorageEngine::install_snapshot`]) writes `snapshot-(n+1)`
//! atomically, then switches appends to `wal-(n+1)`; the previous epoch's
//! snapshot and WAL are retained as a fallback until the *next* rotation, so a
//! snapshot that turns out corrupt on reopen never strands the database.
//!
//! # Recovery
//!
//! [`StorageEngine::open`] picks the highest snapshot that decodes cleanly
//! (falling back epoch by epoch, ultimately to empty), then replays the
//! contiguous chain of WAL files from that epoch forward. The first defect —
//! torn frame, CRC mismatch, undecodable record, missing file in the chain —
//! ends the replay: the defective file is truncated to its valid prefix and
//! later files are dropped, because nothing after a hole can be trusted to be
//! causally consistent. Every dropped byte is counted, and the report's
//! [`generation_safety_bump`](RecoveryReport::generation_safety_bump) bounds
//! how many generation stamps the lost tail could have handed out: each frame
//! advances any one counter by at most 1 and occupies at least
//! [`MIN_FRAME_BYTES`] bytes.

use crate::error::{StorageError, StorageResult};
use crate::records::WalRecord;
use crate::snapshot::SnapshotData;
use crate::vfs::Vfs;
use crate::wal::{encode_frame, scan_frames, MIN_FRAME_BYTES};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// What [`StorageEngine::open`] reconstructed from disk.
#[derive(Debug)]
pub struct Recovered {
    /// The snapshot recovery started from (`None` = implicit empty state).
    pub snapshot: Option<SnapshotData>,
    /// WAL records to replay on top of the snapshot, in append order.
    pub records: Vec<WalRecord>,
    /// What recovery saw and did.
    pub report: RecoveryReport,
}

/// Diagnostic summary of one recovery.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Epoch of the snapshot recovery started from (`None` = empty state).
    pub snapshot_seq: Option<u64>,
    /// Valid WAL frames replayed on top of the snapshot (retired audit
    /// frames are skipped, not replayed).
    pub frames_replayed: usize,
    /// Bytes discarded: torn tails plus WAL files past the first defect.
    pub dropped_bytes: u64,
    /// Human-readable description of every defect encountered (torn tails,
    /// corrupt snapshots that were skipped, dropped files).
    pub defects: Vec<String>,
    /// `ceil(dropped_bytes / MIN_FRAME_BYTES)` when any byte was dropped: an
    /// upper bound on how many generation bumps the lost tail could have
    /// produced. The system raises every recovered generation counter by this
    /// much so no stamp handed out before the crash exceeds a recovered one.
    pub generation_safety_bump: u64,
}

impl RecoveryReport {
    /// True when recovery found the directory byte-perfect.
    pub fn is_clean(&self) -> bool {
        self.defects.is_empty() && self.dropped_bytes == 0
    }
}

/// Append-side handle to the WAL + snapshot directory.
///
/// The engine is deliberately oblivious to what the records *mean* — it moves
/// validated frames in and out. Interpretation (replay, generation floors)
/// lives with the caller, which keeps this crate free of a dependency on the
/// core system and lets the fault-injection tests drive it directly.
#[derive(Debug)]
pub struct StorageEngine {
    vfs: Arc<dyn Vfs>,
    root: PathBuf,
    fsync: bool,
    seq: u64,
    mutation_frames: u64,
    /// Bytes of the current WAL file covered by *acknowledged* appends. A
    /// failed append may leave bytes past this point (a torn frame, or a whole
    /// frame whose fsync failed); [`StorageEngine::rewind_wal`] rolls the file
    /// back here so the caller can retry the same records exactly once.
    wal_len: u64,
    /// Set while an append is in flight, and left set by one that fails until
    /// a rewind succeeds: the next append rewinds first, so an acknowledged
    /// frame never follows bytes that recovery stops at.
    dangling: bool,
}

fn wal_name(seq: u64) -> String {
    format!("wal-{seq:06}.log")
}

fn snapshot_name(seq: u64) -> String {
    format!("snapshot-{seq:06}.bin")
}

fn parse_seq(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

impl StorageEngine {
    /// Open (or initialize) a storage directory and recover its state.
    ///
    /// Never panics on damaged input: every defect is either repaired
    /// (truncated to the valid prefix) or reported via the recovery report,
    /// and only environmental I/O failures surface as errors.
    pub fn open(
        vfs: Arc<dyn Vfs>,
        root: impl Into<PathBuf>,
        fsync: bool,
    ) -> StorageResult<(Self, Recovered)> {
        let root = root.into();
        vfs.create_dir_all(&root)
            .map_err(|e| StorageError::io(&root, "create_dir_all", &e))?;
        let names = vfs
            .list(&root)
            .map_err(|e| StorageError::io(&root, "list", &e))?;

        let mut snapshot_seqs: Vec<u64> = names
            .iter()
            .filter_map(|n| parse_seq(n, "snapshot-", ".bin"))
            .collect();
        let mut wal_seqs: Vec<u64> = names
            .iter()
            .filter_map(|n| parse_seq(n, "wal-", ".log"))
            .collect();
        snapshot_seqs.sort_unstable();
        wal_seqs.sort_unstable();

        let mut report = RecoveryReport::default();

        // Highest snapshot that decodes cleanly wins; corrupt ones are skipped
        // (the previous epoch is retained on disk exactly for this fallback).
        let mut snapshot = None;
        for &seq in snapshot_seqs.iter().rev() {
            let path = root.join(snapshot_name(seq));
            let bytes = vfs
                .read(&path)
                .map_err(|e| StorageError::io(&path, "read", &e))?;
            match SnapshotData::decode(&bytes, &path) {
                Ok(snap) if snap.seq == seq => {
                    snapshot = Some(snap);
                    break;
                }
                Ok(snap) => report.defects.push(format!(
                    "{}: sequence mismatch (file {seq}, payload {})",
                    path.display(),
                    snap.seq
                )),
                Err(e) => report.defects.push(e.to_string()),
            }
        }
        let base_seq = snapshot.as_ref().map(|s| s.seq).unwrap_or(0);
        report.snapshot_seq = snapshot.as_ref().map(|s| s.seq);

        // Replay the contiguous WAL chain from the snapshot's epoch forward.
        let mut records = Vec::new();
        let mut current_seq = base_seq;
        let mut current_mutations = 0u64;
        let mut current_len = 0u64;
        let mut stopped = false;
        for seq in base_seq.. {
            let path = root.join(wal_name(seq));
            let exists = vfs
                .file_len(&path)
                .map_err(|e| StorageError::io(&path, "stat", &e))?
                .is_some();
            if !exists {
                // End of the chain. wal-(base_seq) may simply not exist yet
                // when the snapshot was the last write before the crash.
                break;
            }
            current_seq = seq;
            current_mutations = 0;
            let bytes = vfs
                .read(&path)
                .map_err(|e| StorageError::io(&path, "read", &e))?;
            current_len = bytes.len() as u64;
            let scan = scan_frames(&bytes);
            let mut valid_len = scan.valid_len;
            let mut defect = scan
                .defect
                .map(|d| format!("{}: {d} at offset {valid_len}", path.display()));
            for (payload, offset) in scan.payloads.iter().zip(&scan.offsets) {
                if WalRecord::is_retired(payload) {
                    continue;
                }
                match WalRecord::decode(payload) {
                    Ok(rec) => {
                        if rec.is_mutation() {
                            current_mutations += 1;
                        }
                        records.push(rec);
                        report.frames_replayed += 1;
                    }
                    Err(e) => {
                        // A CRC-valid frame that no longer decodes is
                        // corruption too; everything from it onward is cut.
                        valid_len = *offset;
                        defect = Some(format!(
                            "{}: undecodable record at offset {offset}: {e}",
                            path.display()
                        ));
                        break;
                    }
                }
            }
            if let Some(detail) = defect {
                report.dropped_bytes += bytes.len() as u64 - valid_len;
                report.defects.push(detail);
                vfs.write_atomic(&path, &bytes[..valid_len as usize])
                    .map_err(|e| StorageError::io(&path, "truncate", &e))?;
                current_len = valid_len;
                stopped = true;
                break;
            }
        }
        if stopped {
            // Nothing after a hole is causally trustworthy: drop later files.
            for &seq in wal_seqs.iter().filter(|&&s| s > current_seq) {
                let path = root.join(wal_name(seq));
                if let Some(len) = vfs
                    .file_len(&path)
                    .map_err(|e| StorageError::io(&path, "stat", &e))?
                {
                    report.dropped_bytes += len;
                    report.defects.push(format!(
                        "{}: dropped (follows a torn epoch)",
                        path.display()
                    ));
                    vfs.remove_file(&path)
                        .map_err(|e| StorageError::io(&path, "remove", &e))?;
                }
            }
        }
        if report.dropped_bytes > 0 {
            report.generation_safety_bump = report.dropped_bytes.div_ceil(MIN_FRAME_BYTES);
        }

        let engine = StorageEngine {
            vfs,
            root,
            fsync,
            seq: current_seq,
            mutation_frames: current_mutations,
            wal_len: current_len,
            dangling: false,
        };
        Ok((
            engine,
            Recovered {
                snapshot,
                records,
                report,
            },
        ))
    }

    /// Directory this engine writes to.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Current epoch sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Mutation frames appended to the current epoch's WAL (replayed frames
    /// count too) — the auto-snapshot trigger compares this to its threshold.
    pub fn mutation_frames(&self) -> u64 {
        self.mutation_frames
    }

    fn wal_path(&self) -> PathBuf {
        self.root.join(wal_name(self.seq))
    }

    /// Append one record to the current WAL file (one frame, one write, one
    /// fsync when enabled).
    pub fn append(&mut self, record: &WalRecord) -> StorageResult<()> {
        self.append_batch(std::slice::from_ref(record))
    }

    /// Append several records as consecutive frames in a **single** write (and
    /// a single fsync when enabled). A torn write can cut the byte sequence at
    /// any point, but recovery truncates to the last whole frame, so a batch
    /// survives as a prefix of itself — never as interleaved fragments.
    pub fn append_batch(&mut self, records: &[WalRecord]) -> StorageResult<()> {
        if records.is_empty() {
            return Ok(());
        }
        let mut buf = Vec::new();
        let mut mutations = 0u64;
        for record in records {
            buf.extend_from_slice(&encode_frame(&record.encode()));
            if record.is_mutation() {
                mutations += 1;
            }
        }
        if self.dangling {
            self.rewind_wal()?;
        }
        let path = self.wal_path();
        self.dangling = true;
        self.vfs
            .append(&path, &buf)
            .map_err(|e| StorageError::io(&path, "append", &e))?;
        if self.fsync {
            self.vfs
                .sync(&path)
                .map_err(|e| StorageError::io(&path, "fsync", &e))?;
        }
        self.dangling = false;
        self.mutation_frames += mutations;
        self.wal_len += buf.len() as u64;
        Ok(())
    }

    /// Bytes of the current WAL file covered by acknowledged appends.
    pub fn wal_len(&self) -> u64 {
        self.wal_len
    }

    /// Roll the current WAL file back to the end of the last acknowledged
    /// append, discarding whatever a failed append left behind (a torn frame,
    /// or whole frames whose fsync failed). After a successful rewind the same
    /// records can be re-appended without any risk of frame duplication. A
    /// no-op when nothing dangles. [`StorageEngine::append_batch`] runs it
    /// first after an append that failed and was not rewound.
    pub fn rewind_wal(&mut self) -> StorageResult<()> {
        let path = self.wal_path();
        let on_disk = self
            .vfs
            .file_len(&path)
            .map_err(|e| StorageError::io(&path, "stat", &e))?;
        // A missing file: nothing was ever appended this epoch.
        if on_disk.is_some_and(|len| len > self.wal_len) {
            let bytes = self
                .vfs
                .read(&path)
                .map_err(|e| StorageError::io(&path, "read", &e))?;
            let keep = (self.wal_len as usize).min(bytes.len());
            self.vfs
                .write_atomic(&path, &bytes[..keep])
                .map_err(|e| StorageError::io(&path, "truncate", &e))?;
        }
        self.dangling = false;
        Ok(())
    }

    /// Rotate to a new epoch: atomically write `snapshot-(seq+1)`, switch
    /// appends to `wal-(seq+1)` and prune epochs older than the previous one.
    ///
    /// `snapshot.seq` is overwritten with the new epoch number; callers only
    /// provide the state.
    pub fn install_snapshot(&mut self, mut snapshot: SnapshotData) -> StorageResult<()> {
        let new_seq = self.seq + 1;
        snapshot.seq = new_seq;
        let path = self.root.join(snapshot_name(new_seq));
        self.vfs
            .write_atomic(&path, &snapshot.encode())
            .map_err(|e| StorageError::io(&path, "write_atomic", &e))?;
        self.seq = new_seq;
        self.mutation_frames = 0;
        self.wal_len = 0;

        // Retention: keep the previous epoch (snapshot + WAL) as fallback,
        // prune everything older. Pruning is best-effort cleanup — the files
        // are dead weight, not state — but errors are still surfaced.
        let names = self
            .vfs
            .list(&self.root)
            .map_err(|e| StorageError::io(&self.root, "list", &e))?;
        for name in names {
            let stale = parse_seq(&name, "snapshot-", ".bin")
                .or_else(|| parse_seq(&name, "wal-", ".log"))
                .is_some_and(|seq| seq + 1 < new_seq);
            if stale {
                let path = self.root.join(&name);
                self.vfs
                    .remove_file(&path)
                    .map_err(|e| StorageError::io(&path, "remove", &e))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultFs, FaultPlan};
    use crate::snapshot::{ConfigSnap, SnapshotData};
    use crate::vfs::MemFs;
    use crate::wal::FRAME_HEADER;
    use cqads_wordsim::WsMatrixState;

    fn floors(tag: u64) -> WalRecord {
        WalRecord::Floors {
            floors: vec![("cars".into(), tag, tag)],
        }
    }

    fn insert(tag: u64) -> WalRecord {
        WalRecord::Insert {
            domain: "cars".into(),
            record: addb::Record::builder()
                .text("make", format!("make{tag}"))
                .build(),
            table_gen: tag,
        }
    }

    fn empty_snapshot() -> SnapshotData {
        SnapshotData {
            seq: 0, // overwritten by install_snapshot
            domains: vec![],
            ws: WsMatrixState::default(),
            config: ConfigSnap {
                answer_limit: 10,
                partial_threshold: 512,
                cache_capacity: 0,
                cache_shards: 1,
            },
        }
    }

    fn open_mem(fs: &Arc<MemFs>) -> (StorageEngine, Recovered) {
        let vfs: Arc<dyn Vfs> = Arc::clone(fs) as Arc<dyn Vfs>;
        StorageEngine::open(vfs, "/db", false).unwrap()
    }

    #[test]
    fn empty_directory_recovers_to_empty_state() {
        let fs = Arc::new(MemFs::new());
        let (engine, rec) = open_mem(&fs);
        assert!(rec.snapshot.is_none());
        assert!(rec.records.is_empty());
        assert!(rec.report.is_clean());
        assert_eq!(rec.report.generation_safety_bump, 0);
        assert_eq!(engine.seq(), 0);
    }

    #[test]
    fn appended_records_replay_in_order() {
        let fs = Arc::new(MemFs::new());
        let (mut engine, _) = open_mem(&fs);
        engine.append(&insert(1)).unwrap();
        engine.append_batch(&[insert(2), floors(3)]).unwrap();
        assert_eq!(engine.mutation_frames(), 2);

        let (engine, rec) = open_mem(&fs);
        assert_eq!(rec.records, vec![insert(1), insert(2), floors(3)]);
        assert!(rec.report.is_clean());
        assert_eq!(rec.report.frames_replayed, 3);
        assert_eq!(engine.mutation_frames(), 2);
    }

    #[test]
    fn retired_audit_frames_are_skipped_and_not_counted() {
        let fs = Arc::new(MemFs::new());
        let (mut engine, _) = open_mem(&fs);
        engine.append(&insert(1)).unwrap();
        // Tag 5 held an audit record; its payload is never decoded.
        let wal = Path::new("/db/wal-000000.log");
        fs.append(wal, &encode_frame(&[5, 0xff])).unwrap();
        let (mut engine, _) = open_mem(&fs);
        engine.append(&insert(2)).unwrap();

        let (engine, rec) = open_mem(&fs);
        assert_eq!(rec.records, vec![insert(1), insert(2)]);
        assert_eq!(rec.report.frames_replayed, 2);
        assert!(rec.report.is_clean());
        assert_eq!(engine.mutation_frames(), 2);
    }

    #[test]
    fn rewind_after_torn_append_makes_retry_exactly_once() {
        let mem = Arc::new(MemFs::new());
        let fault = Arc::new(FaultFs::new(Arc::clone(&mem) as Arc<dyn Vfs>));
        let (mut engine, _) =
            StorageEngine::open(Arc::clone(&fault) as Arc<dyn Vfs>, "/db", false).unwrap();
        engine.append(&insert(1)).unwrap();
        let acked = engine.wal_len();

        // Tear the next append mid-frame: bytes land past the acknowledged
        // length, the call errors, and the counter does not advance.
        fault.set_plan(FaultPlan {
            append_budget: Some(5),
            ..FaultPlan::default()
        });
        engine.append(&insert(2)).unwrap_err();
        assert_eq!(engine.wal_len(), acked);
        let wal = Path::new("/db/wal-000000.log");
        assert_eq!(mem.read(wal).unwrap().len() as u64, acked + 5);

        // Rewind drops the torn bytes; the retried append then lands whole,
        // with no duplicate of frame 1 and exactly one copy of frame 2.
        fault.set_plan(FaultPlan::default());
        engine.rewind_wal().unwrap();
        assert_eq!(mem.read(wal).unwrap().len() as u64, acked);
        engine.append(&insert(2)).unwrap();
        let (_, rec) = open_mem(&mem);
        assert_eq!(rec.records, vec![insert(1), insert(2)]);
        assert!(rec.report.is_clean());

        // Rewind with nothing dangling is a no-op.
        let before = mem.read(wal).unwrap();
        engine.rewind_wal().unwrap();
        assert_eq!(mem.read(wal).unwrap(), before);
    }

    #[test]
    fn rewind_covers_fsync_failure_after_a_landed_append() {
        // fsync-on engine: the append lands but the sync fails, so the frame
        // is on disk yet unacknowledged. Rewind must remove it or a retry
        // would duplicate the frame.
        let mem = Arc::new(MemFs::new());
        let fault = Arc::new(FaultFs::new(Arc::clone(&mem) as Arc<dyn Vfs>));
        let (mut engine, _) =
            StorageEngine::open(Arc::clone(&fault) as Arc<dyn Vfs>, "/db", true).unwrap();
        engine.append(&insert(1)).unwrap();
        fault.set_plan(FaultPlan {
            fail_sync: true,
            ..FaultPlan::default()
        });
        engine.append(&insert(2)).unwrap_err();
        fault.set_plan(FaultPlan::default());
        engine.rewind_wal().unwrap();
        engine.append(&insert(2)).unwrap();
        let (_, rec) = open_mem(&mem);
        assert_eq!(rec.records, vec![insert(1), insert(2)]);
    }

    #[test]
    fn torn_tail_is_truncated_and_bounded() {
        let fs = Arc::new(MemFs::new());
        let (mut engine, _) = open_mem(&fs);
        engine.append(&insert(1)).unwrap();
        let keep = fs.file_bytes(Path::new("/db/wal-000000.log")).unwrap();
        engine.append(&insert(2)).unwrap();

        // Crash mid-write of the second frame.
        fs.truncate_file(Path::new("/db/wal-000000.log"), keep.len() as u64 + 5)
            .unwrap();
        let (_, rec) = open_mem(&fs);
        assert_eq!(rec.records, vec![insert(1)]);
        assert_eq!(rec.report.dropped_bytes, 5);
        assert_eq!(rec.report.generation_safety_bump, 1);
        assert_eq!(rec.report.defects.len(), 1);
        // The file was repaired on disk.
        assert_eq!(
            fs.file_bytes(Path::new("/db/wal-000000.log")).unwrap(),
            keep
        );

        // Double recovery is idempotent: nothing more to drop.
        let (_, rec2) = open_mem(&fs);
        assert_eq!(rec2.records, vec![insert(1)]);
        assert!(rec2.report.is_clean());
    }

    #[test]
    fn truncated_length_prefix_is_a_torn_header() {
        let fs = Arc::new(MemFs::new());
        let (mut engine, _) = open_mem(&fs);
        engine.append(&insert(1)).unwrap();
        let full = fs.file_bytes(Path::new("/db/wal-000000.log")).unwrap();
        engine.append(&insert(2)).unwrap();
        // Keep only 3 of the next frame's 4 length bytes.
        fs.truncate_file(Path::new("/db/wal-000000.log"), full.len() as u64 + 3)
            .unwrap();
        let (_, rec) = open_mem(&fs);
        assert_eq!(rec.records, vec![insert(1)]);
        assert!(rec.report.defects[0].contains("truncated frame header"));
    }

    #[test]
    fn corrupt_crc_mid_log_cuts_everything_after() {
        let fs = Arc::new(MemFs::new());
        let (mut engine, _) = open_mem(&fs);
        engine.append(&insert(1)).unwrap();
        let first_len = fs
            .file_bytes(Path::new("/db/wal-000000.log"))
            .unwrap()
            .len() as u64;
        engine.append(&insert(2)).unwrap();
        engine.append(&insert(3)).unwrap();
        let total = fs
            .file_bytes(Path::new("/db/wal-000000.log"))
            .unwrap()
            .len() as u64;

        // Flip a payload bit of the middle frame: frames 2 AND 3 are lost —
        // replaying 3 without 2 would be causally inconsistent.
        fs.flip_bit(Path::new("/db/wal-000000.log"), first_len + FRAME_HEADER)
            .unwrap();
        let (_, rec) = open_mem(&fs);
        assert_eq!(rec.records, vec![insert(1)]);
        assert_eq!(rec.report.dropped_bytes, total - first_len);
        assert!(rec.report.defects[0].contains("crc mismatch"));
        // Bump covers both potentially-lost frames.
        assert!(rec.report.generation_safety_bump >= 2);
    }

    #[test]
    fn snapshot_rotation_prunes_and_recovers_from_latest() {
        let fs = Arc::new(MemFs::new());
        let (mut engine, _) = open_mem(&fs);
        engine.append(&insert(1)).unwrap();
        engine.install_snapshot(empty_snapshot()).unwrap();
        assert_eq!(engine.seq(), 1);
        assert_eq!(engine.mutation_frames(), 0);
        engine.append(&insert(2)).unwrap();
        engine.install_snapshot(empty_snapshot()).unwrap();
        engine.append(&insert(3)).unwrap();

        // Epoch 0 was pruned, epochs 1 and 2 retained.
        let names: Vec<String> = fs
            .paths()
            .iter()
            .filter_map(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()))
            .collect();
        assert_eq!(
            names,
            vec![
                "snapshot-000001.bin",
                "snapshot-000002.bin",
                "wal-000001.log",
                "wal-000002.log"
            ]
        );

        let (engine, rec) = open_mem(&fs);
        assert_eq!(rec.report.snapshot_seq, Some(2));
        assert_eq!(rec.records, vec![insert(3)]);
        assert_eq!(engine.seq(), 2);
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_previous_epoch() {
        let fs = Arc::new(MemFs::new());
        let (mut engine, _) = open_mem(&fs);
        engine.append(&insert(1)).unwrap();
        engine.install_snapshot(empty_snapshot()).unwrap();
        engine.append(&insert(2)).unwrap();
        engine.install_snapshot(empty_snapshot()).unwrap();
        engine.append(&insert(3)).unwrap();

        // Corrupt the newest snapshot: recovery must fall back to epoch 1 and
        // replay wal-1 AND wal-2 to reach the same state.
        fs.flip_bit(Path::new("/db/snapshot-000002.bin"), 20)
            .unwrap();
        let (_, rec) = open_mem(&fs);
        assert_eq!(rec.report.snapshot_seq, Some(1));
        assert_eq!(rec.records, vec![insert(2), insert(3)]);
        assert_eq!(rec.report.defects.len(), 1);
        assert_eq!(rec.report.dropped_bytes, 0);
    }

    #[test]
    fn missing_snapshot_with_stale_wal_ignores_the_stale_epoch() {
        // snapshot-1 newer than a retained wal-0: the stale epoch is already
        // folded into the snapshot and must NOT be replayed again.
        let fs = Arc::new(MemFs::new());
        let (mut engine, _) = open_mem(&fs);
        engine.append(&insert(1)).unwrap();
        engine.install_snapshot(empty_snapshot()).unwrap();
        // No writes in epoch 1: wal-000001.log does not even exist.
        let (engine, rec) = open_mem(&fs);
        assert_eq!(rec.report.snapshot_seq, Some(1));
        assert!(rec.records.is_empty());
        assert!(rec.report.is_clean());
        assert_eq!(engine.seq(), 1);
    }

    #[test]
    fn wal_files_after_a_torn_epoch_are_dropped() {
        let fs = Arc::new(MemFs::new());
        let (mut engine, _) = open_mem(&fs);
        engine.append(&insert(1)).unwrap();
        engine.install_snapshot(empty_snapshot()).unwrap();
        engine.append(&insert(2)).unwrap();

        // Corrupt snapshot-1 so recovery starts from empty + wal-0, then tear
        // wal-0: wal-1 (a later epoch) must be dropped, not replayed over a
        // hole.
        fs.flip_bit(Path::new("/db/snapshot-000001.bin"), 20)
            .unwrap();
        let wal1_len = fs
            .file_bytes(Path::new("/db/wal-000001.log"))
            .unwrap()
            .len() as u64;
        fs.truncate_file(Path::new("/db/wal-000000.log"), 4)
            .unwrap();
        let (_, rec) = open_mem(&fs);
        assert_eq!(rec.report.snapshot_seq, None);
        assert!(rec.records.is_empty());
        assert_eq!(rec.report.dropped_bytes, 4 + wal1_len);
        assert!(fs.file_bytes(Path::new("/db/wal-000001.log")).is_none());
        // Idempotent second recovery: the corrupt snapshot is still reported
        // (it stays on disk), but nothing further is dropped.
        let (_, rec2) = open_mem(&fs);
        assert!(rec2.records.is_empty());
        assert_eq!(rec2.report.dropped_bytes, 0);
    }

    #[test]
    fn torn_append_through_faultfs_recovers_the_prefix() {
        let mem = Arc::new(MemFs::new());
        let fault = Arc::new(FaultFs::new(Arc::clone(&mem) as Arc<dyn Vfs>));
        let (mut engine, _) =
            StorageEngine::open(Arc::clone(&fault) as Arc<dyn Vfs>, "/db", true).unwrap();
        engine.append(&insert(1)).unwrap();

        // The next append is cut 5 bytes in by the fault layer.
        fault.set_plan(FaultPlan {
            append_budget: Some(5),
            ..FaultPlan::default()
        });
        let err = engine.append(&insert(2)).unwrap_err();
        assert!(matches!(err, StorageError::Io { .. }));
        assert!(err.to_string().contains("append"));

        fault.set_plan(FaultPlan::default());
        let (_, rec) = open_mem(&mem);
        assert_eq!(rec.records, vec![insert(1)]);
        assert_eq!(rec.report.dropped_bytes, 5);
        assert_eq!(rec.report.generation_safety_bump, 1);
    }

    #[test]
    fn fsync_and_snapshot_write_failures_are_typed_errors() {
        let mem = Arc::new(MemFs::new());
        let fault = Arc::new(FaultFs::new(Arc::clone(&mem) as Arc<dyn Vfs>));
        let (mut engine, _) =
            StorageEngine::open(Arc::clone(&fault) as Arc<dyn Vfs>, "/db", true).unwrap();

        fault.set_plan(FaultPlan {
            fail_sync: true,
            ..FaultPlan::default()
        });
        let err = engine.append(&insert(1)).unwrap_err();
        assert!(err.to_string().contains("fsync"));

        fault.set_plan(FaultPlan {
            fail_write_atomic: true,
            ..FaultPlan::default()
        });
        let err = engine.install_snapshot(empty_snapshot()).unwrap_err();
        assert!(err.to_string().contains("write_atomic"));
        // The failed rotation did not advance the epoch.
        assert_eq!(engine.seq(), 0);

        fault.set_plan(FaultPlan {
            fail_read: true,
            ..FaultPlan::default()
        });
        assert!(StorageEngine::open(Arc::clone(&fault) as Arc<dyn Vfs>, "/db", true).is_err());
    }

    #[test]
    fn snapshot_seq_mismatch_is_skipped() {
        let fs = Arc::new(MemFs::new());
        let (mut engine, _) = open_mem(&fs);
        engine.append(&insert(1)).unwrap();
        engine.install_snapshot(empty_snapshot()).unwrap();
        // Copy snapshot-1 over a fictitious snapshot-5: its payload still says
        // seq 1, so it must be rejected, falling back to the real snapshot-1.
        let bytes = fs.file_bytes(Path::new("/db/snapshot-000001.bin")).unwrap();
        fs.write_atomic(Path::new("/db/snapshot-000005.bin"), &bytes)
            .unwrap();
        let (_, rec) = open_mem(&fs);
        assert_eq!(rec.report.snapshot_seq, Some(1));
        assert!(rec.report.defects[0].contains("sequence mismatch"));
    }
}
