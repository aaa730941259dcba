//! Typed storage errors.
//!
//! Every failure mode of the durable engine — I/O errors, checksum mismatches,
//! unparseable payloads — surfaces as a [`StorageError`] carrying the file and
//! byte offset where the problem was found. The engine never panics on corrupt
//! or missing input; it recovers what is provably intact and reports the rest
//! through this type (wrapped into `CqadsError::Storage` by the pipeline crate).
//!
//! The type is `Clone + PartialEq` (raw `std::io::Error` is neither), so the
//! operating-system error is captured as its [`std::io::ErrorKind`] debug string
//! plus the display message.

use std::fmt;

/// Result alias for storage operations.
pub type StorageResult<T> = Result<T, StorageError>;

/// A structured storage failure with file / offset context.
#[derive(Debug, Clone, PartialEq)]
pub enum StorageError {
    /// An operating-system I/O call failed.
    Io {
        /// File (or directory) the operation targeted.
        path: String,
        /// What the engine was doing ("append", "read", "rename", ...).
        op: &'static str,
        /// `std::io::ErrorKind` of the underlying error, as its debug string.
        kind: String,
        /// Human-readable message of the underlying error.
        detail: String,
    },
    /// A WAL frame or snapshot failed its integrity checks (bad CRC, impossible
    /// length prefix, truncated header or payload, wrong magic).
    Corrupt {
        /// File the corruption was found in.
        path: String,
        /// Byte offset of the first invalid byte (frame start for frame-level
        /// defects).
        offset: u64,
        /// What exactly failed.
        detail: String,
    },
    /// A frame passed its CRC but its payload does not decode as a known record
    /// (version skew or logic error rather than bit rot).
    Codec {
        /// File the payload came from.
        path: String,
        /// Byte offset of the frame holding the payload.
        offset: u64,
        /// What the decoder choked on.
        detail: String,
    },
}

impl StorageError {
    /// Wrap an `std::io::Error` with the path and operation that hit it.
    pub fn io(path: &std::path::Path, op: &'static str, err: &std::io::Error) -> Self {
        StorageError::Io {
            path: path.display().to_string(),
            op,
            kind: format!("{:?}", err.kind()),
            detail: err.to_string(),
        }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io {
                path,
                op,
                kind,
                detail,
            } => {
                write!(
                    f,
                    "storage I/O error during {op} on `{path}` ({kind}): {detail}"
                )
            }
            StorageError::Corrupt {
                path,
                offset,
                detail,
            } => write!(f, "corrupt storage in `{path}` at byte {offset}: {detail}"),
            StorageError::Codec {
                path,
                offset,
                detail,
            } => write!(
                f,
                "undecodable record in `{path}` at byte {offset}: {detail}"
            ),
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn display_carries_path_and_offset_context() {
        let e = StorageError::Corrupt {
            path: "wal-000001.log".into(),
            offset: 42,
            detail: "crc mismatch".into(),
        };
        let s = e.to_string();
        assert!(s.contains("wal-000001.log") && s.contains("42") && s.contains("crc"));

        let io = std::io::Error::new(std::io::ErrorKind::WriteZero, "torn");
        let e = StorageError::io(Path::new("/tmp/x"), "append", &io);
        let s = e.to_string();
        assert!(s.contains("append") && s.contains("WriteZero") && s.contains("torn"));
    }

    #[test]
    fn errors_are_comparable_and_clonable() {
        let a = StorageError::Codec {
            path: "p".into(),
            offset: 0,
            detail: "bad tag".into(),
        };
        assert_eq!(a.clone(), a);
    }
}
