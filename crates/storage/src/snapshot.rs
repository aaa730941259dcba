//! Point-in-time snapshots.
//!
//! A snapshot captures the full durable state of a `CqadsWriter` (crate `cqads`)
//! at the start of a WAL epoch: every domain (spec, table records, generation,
//! TI-matrix raw accumulators), the WS-matrix and the config scalars. Snapshot
//! files are written atomically (`write_atomic`: temp file + fsync + rename) and
//! carry a magic header plus a CRC over the whole payload, so a torn or
//! bit-flipped snapshot is detected on open and recovery falls back to the
//! previous epoch's snapshot (or the implicit empty state of epoch 0).

use crate::codec::{crc32, DecodeResult, Decoder, Encoder};
use crate::error::{StorageError, StorageResult};
use crate::records::{
    get_record, get_spec, get_ti, get_ws, put_record, put_spec, put_ti, put_ws, SpecData,
};
use addb::Record;
use cqads_querylog::TiMatrixState;
use cqads_wordsim::WsMatrixState;
use std::path::Path;

/// Magic prefix of every snapshot file (the trailing digits version the format).
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"CQSNAP01";

/// Persisted scalar configuration. The answering knobs travel with the data so
/// a system reopened from disk answers exactly as the one that wrote it.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigSnap {
    /// Maximum answers returned per question.
    pub answer_limit: u64,
    /// Record-count threshold above which partial (WAND-style) scoring kicks in.
    pub partial_threshold: u64,
    /// Answer-cache capacity.
    pub cache_capacity: u64,
    /// Answer-cache shard count.
    pub cache_shards: u64,
}

/// Durable state of one registered domain.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainSnap {
    /// The domain specification.
    pub spec: SpecData,
    /// Table records in id order.
    pub records: Vec<Record>,
    /// Table generation.
    pub table_gen: u64,
    /// TI-matrix raw accumulators.
    pub ti: TiMatrixState,
    /// Model generation.
    pub model_gen: u64,
}

/// Everything a snapshot file stores.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotData {
    /// Epoch sequence number; must match the sequence in the file name, which
    /// guards against a snapshot file copied or renamed across epochs.
    pub seq: u64,
    /// Every registered domain, sorted by domain name.
    pub domains: Vec<DomainSnap>,
    /// WS-matrix state.
    pub ws: WsMatrixState,
    /// Config scalars.
    pub config: ConfigSnap,
}

impl SnapshotData {
    /// Encode to file bytes: magic, CRC of payload, payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u64(self.seq);
        e.put_u32(self.domains.len() as u32);
        for d in &self.domains {
            put_spec(&mut e, &d.spec);
            e.put_u32(d.records.len() as u32);
            for r in &d.records {
                put_record(&mut e, r);
            }
            e.put_u64(d.table_gen);
            put_ti(&mut e, &d.ti);
            e.put_u64(d.model_gen);
        }
        put_ws(&mut e, &self.ws);
        let c = &self.config;
        e.put_u64(c.answer_limit);
        e.put_u64(c.partial_threshold);
        // Reserved: stores written while the partial phase had a worker count carry
        // it here, so the word stays on the wire (no format bump).
        e.put_u64(0);
        e.put_u64(c.cache_capacity);
        e.put_u64(c.cache_shards);
        // Reserved: stores written before the exhaustive-engine knob was removed
        // carry its bool here, so the byte stays on the wire (no format bump).
        e.put_bool(false);
        let payload = e.finish();

        let mut out = Vec::with_capacity(SNAPSHOT_MAGIC.len() + 4 + payload.len());
        out.extend_from_slice(SNAPSHOT_MAGIC);
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Decode file bytes, verifying magic and CRC. `path` is only used for
    /// error context.
    pub fn decode(bytes: &[u8], path: &Path) -> StorageResult<Self> {
        let header = SNAPSHOT_MAGIC.len() + 4;
        if bytes.len() < header {
            return Err(StorageError::Corrupt {
                path: path.display().to_string(),
                offset: 0,
                detail: format!("snapshot shorter than its {header}-byte header"),
            });
        }
        if &bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
            return Err(StorageError::Corrupt {
                path: path.display().to_string(),
                offset: 0,
                detail: "bad snapshot magic".to_string(),
            });
        }
        let stored = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
        let payload = &bytes[header..];
        let computed = crc32(payload);
        if stored != computed {
            return Err(StorageError::Corrupt {
                path: path.display().to_string(),
                offset: SNAPSHOT_MAGIC.len() as u64,
                detail: format!(
                    "snapshot CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
                ),
            });
        }
        Self::decode_payload(payload).map_err(|detail| StorageError::Codec {
            path: path.display().to_string(),
            offset: header as u64,
            detail,
        })
    }

    fn decode_payload(payload: &[u8]) -> DecodeResult<Self> {
        let mut d = Decoder::new(payload);
        let seq = d.get_u64("snapshot sequence")?;
        let n = d.get_count("domain count")?;
        let mut domains = Vec::with_capacity(n);
        for _ in 0..n {
            let spec = get_spec(&mut d)?;
            let n_records = d.get_count("record count")?;
            let mut records = Vec::with_capacity(n_records);
            for _ in 0..n_records {
                records.push(get_record(&mut d)?);
            }
            let table_gen = d.get_u64("table generation")?;
            let ti = get_ti(&mut d)?;
            let model_gen = d.get_u64("model generation")?;
            domains.push(DomainSnap {
                spec,
                records,
                table_gen,
                ti,
                model_gen,
            });
        }
        let ws = get_ws(&mut d)?;
        let answer_limit = d.get_u64("answer limit")?;
        let partial_threshold = d.get_u64("partial threshold")?;
        d.get_u64("reserved config word")?;
        let config = ConfigSnap {
            answer_limit,
            partial_threshold,
            cache_capacity: d.get_u64("cache capacity")?,
            cache_shards: d.get_u64("cache shards")?,
        };
        d.get_bool("reserved config byte")?;
        if !d.is_done() {
            return Err(format!("{} trailing bytes after snapshot", d.remaining()));
        }
        Ok(SnapshotData {
            seq,
            domains,
            ws,
            config,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use addb::Schema;

    fn sample() -> SnapshotData {
        SnapshotData {
            seq: 3,
            domains: vec![DomainSnap {
                spec: SpecData {
                    schema: Schema::builder("cars")
                        .type1("make")
                        .type3("price", 500.0, 120_000.0, Some("usd"))
                        .build()
                        .unwrap(),
                    type1_values: vec![("honda".into(), "make".into())],
                    type2_values: vec![],
                    type3_keywords: vec![],
                    price_attribute: Some("price".into()),
                    year_attribute: None,
                },
                records: vec![Record::builder()
                    .text("make", "honda")
                    .number("price", 6600.0)
                    .build()],
                table_gen: 1,
                ti: TiMatrixState::default(),
                model_gen: 1,
            }],
            ws: WsMatrixState {
                entries: vec![("blue".into(), "silver".into(), 0.5)],
                max_raw: 0.5,
            },
            config: ConfigSnap {
                answer_limit: 10,
                partial_threshold: 512,
                cache_capacity: 1024,
                cache_shards: 8,
            },
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let snap = sample();
        let bytes = snap.encode();
        assert_eq!(&bytes[..8], SNAPSHOT_MAGIC);
        let back = SnapshotData::decode(&bytes, Path::new("snapshot-000003.bin")).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn stores_written_with_the_reserved_config_byte_set_still_decode() {
        // The config block's trailing byte used to carry a since-removed engine
        // knob; a store that had it on must open exactly like one that had it off.
        // Likewise the word after the partial threshold used to carry the partial
        // phase's worker count: a store that asked for two workers opens exactly
        // like one written with the constant.
        let snap = sample();
        let good = snap.encode();
        let reseal = |mut bytes: Vec<u8>| {
            let crc = crc32(&bytes[12..]);
            bytes[8..12].copy_from_slice(&crc.to_le_bytes());
            SnapshotData::decode(&bytes, Path::new("snapshot-000003.bin")).unwrap()
        };

        let mut bytes = good.clone();
        let last = bytes.len() - 1;
        assert_eq!(bytes[last], 0, "encoder writes the reserved byte as false");
        bytes[last] = 1;
        assert_eq!(reseal(bytes), snap);

        // Reserved word, cache capacity, cache shards (8 bytes each), reserved byte.
        let word = good.len() - 1 - 3 * 8;
        let mut bytes = good.clone();
        assert_eq!(
            bytes[word - 8..word],
            512u64.to_le_bytes(),
            "partial threshold"
        );
        assert_eq!(
            bytes[word..word + 8],
            0u64.to_le_bytes(),
            "encoder writes 0"
        );
        bytes[word..word + 8].copy_from_slice(&2u64.to_le_bytes());
        assert_eq!(reseal(bytes), snap);
    }

    #[test]
    fn corruption_is_detected() {
        let snap = sample();
        let good = snap.encode();
        let path = Path::new("snapshot-000003.bin");

        // Too short.
        assert!(matches!(
            SnapshotData::decode(&good[..4], path),
            Err(StorageError::Corrupt { .. })
        ));

        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            SnapshotData::decode(&bad, path),
            Err(StorageError::Corrupt { .. })
        ));

        // Any single bit flip in the payload trips the CRC.
        let mut bad = good.clone();
        let mid = 12 + (bad.len() - 12) / 2;
        bad[mid] ^= 0x01;
        let err = SnapshotData::decode(&bad, path).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }));
        assert!(err.to_string().contains("CRC"));

        // Truncated payload with a recomputed CRC is a codec error, not a panic.
        let cut = good.len() - 3;
        let mut truncated = good[..cut].to_vec();
        let crc = crc32(&truncated[12..]);
        truncated[8..12].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            SnapshotData::decode(&truncated, path),
            Err(StorageError::Codec { .. })
        ));
    }
}
