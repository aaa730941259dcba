//! # cqads-storage — durable WAL + snapshot engine for CQAds
//!
//! The paper's CQAds system is described as a long-running service over live
//! ads databases and query logs; this crate gives the reproduction the
//! durability such a service needs without changing any in-memory semantics:
//!
//! * **Write-ahead log** ([`wal`], [`records`]) — every mutation (domain
//!   registration, record insert, query-log delta, WS-matrix swap) is one
//!   CRC-32-checksummed, length-prefixed frame, stamped with the table/model
//!   generation it produced. The log holds mutations only; a read never
//!   writes to it.
//! * **Snapshots** ([`snapshot`]) — periodic point-in-time captures of every
//!   domain's table, TI-matrix raw accumulators, the WS-matrix and the config
//!   scalars, written atomically with their own checksum.
//! * **Recovery** ([`engine`]) — on open, the newest valid snapshot is loaded,
//!   the WAL tail replayed, torn tails truncated to the last whole frame, and
//!   a *generation safety bump* applied so that no generation stamp handed out
//!   before a crash can exceed a post-recovery one.
//! * **Fault injection** ([`fault`], [`vfs`]) — the engine only talks to disk
//!   through the [`Vfs`] trait, so tests crash it at arbitrary byte offsets
//!   ([`MemFs`] tamper helpers) or through an injected torn append
//!   ([`FaultFs`]) and verify recovery byte for byte. A failed append is
//!   rolled back ([`rewind_wal`](StorageEngine::rewind_wal)), so a caller's
//!   retry of the same records can never duplicate a frame.
//!
//! The crate is self-contained below the core pipeline: it depends on the data
//! crates (`addb`, `cqads-querylog`, `cqads-wordsim`) for the state it
//! persists, and `cqads` wires it in behind `CqadsConfig::storage`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod engine;
pub mod error;
pub mod fault;
pub mod records;
pub mod snapshot;
pub mod vfs;
pub mod wal;

pub use engine::{Recovered, RecoveryReport, StorageEngine};
pub use error::{StorageError, StorageResult};
pub use fault::{FaultFs, FaultPlan};
pub use records::{SpecData, WalRecord};
pub use snapshot::{ConfigSnap, DomainSnap, SnapshotData, SNAPSHOT_MAGIC};
pub use vfs::{MemFs, RealFs, Vfs};
pub use wal::{
    encode_frame, scan_frames, ScanOutcome, TailDefect, FRAME_HEADER, MAX_FRAME_BYTES,
    MIN_FRAME_BYTES,
};
