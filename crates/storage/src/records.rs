//! WAL record model and codec.
//!
//! Every mutation of a `CqadsWriter` (crate `cqads`) — domain registration,
//! record insert, query-log delta, WS-matrix swap — is one [`WalRecord`],
//! encoded to a frame payload ([`WalRecord::encode`]) and replayed on recovery
//! ([`WalRecord::decode`]). Stores written before the audit trail was removed
//! may still hold audit frames (a record tag now retired): recovery skips them
//! without decoding their payload.
//!
//! Generation stamps are stored **with** the mutation that produced them, and
//! every frame advances any single generation counter by at most one (a batch
//! insert is written as one frame per record, appended in a single write).
//! Recovery relies on this: if `k` bytes of tail are lost, at most
//! `ceil(k / MIN_FRAME_BYTES)` generation bumps can have been handed out past
//! the recovered state, bounding the safety bump that restores the
//! generations-never-regress invariant.

use crate::codec::{DecodeResult, Decoder, Encoder};
use addb::{AttrType, Record, Schema, Value};
use cqads_querylog::{
    ClickEvent, PairState, QueryLogDelta, Session, SubmittedQuery, TiMatrixState,
};
use cqads_wordsim::WsMatrixState;

/// Serializable mirror of a `DomainSpec` (the core crate depends on this crate,
/// not vice versa, so the spec is flattened into plain data here).
#[derive(Debug, Clone, PartialEq)]
pub struct SpecData {
    /// The domain's relational schema.
    pub schema: Schema,
    /// Known Type I values → attribute name.
    pub type1_values: Vec<(String, String)>,
    /// Known Type II values → attribute name.
    pub type2_values: Vec<(String, String)>,
    /// Type III keyword synonyms → attribute name.
    pub type3_keywords: Vec<(String, String)>,
    /// Attribute targeted by "cheapest"-style superlatives.
    pub price_attribute: Option<String>,
    /// Attribute targeted by "newest"/"oldest" superlatives.
    pub year_attribute: Option<String>,
}

/// One entry in the write-ahead log.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A domain was (re)registered with its table contents and TI-matrix state.
    RegisterDomain {
        /// The domain specification (boxed: this variant dwarfs the others).
        spec: Box<SpecData>,
        /// Full table contents at registration (id order).
        records: Vec<Record>,
        /// TI-matrix raw accumulators at registration.
        ti: TiMatrixState,
        /// Table generation after the registration.
        table_gen: u64,
        /// Model generation after the registration.
        model_gen: u64,
    },
    /// A record was inserted into a domain's table.
    Insert {
        /// Target domain.
        domain: String,
        /// The inserted record.
        record: Record,
        /// Table generation after the insert.
        table_gen: u64,
    },
    /// A query-log delta was applied to a domain's TI-matrix.
    LogDelta {
        /// Target domain.
        domain: String,
        /// The applied sessions.
        delta: QueryLogDelta,
        /// Model generation after the (batch) application.
        model_gen: u64,
    },
    /// The WS-matrix was swapped, refreshing every domain's model.
    SetWordSim {
        /// The new WS-matrix state.
        ws: WsMatrixState,
        /// Model generation of each registered domain after the swap.
        model_gens: Vec<(String, u64)>,
    },
    /// Generation floors persisted after a lossy recovery, so a second
    /// recovery of the same log reproduces the same (bumped) generations.
    Floors {
        /// `(domain, table_gen, model_gen)` floors.
        floors: Vec<(String, u64, u64)>,
    },
}

impl WalRecord {
    /// True if replaying this record changes system state (generation floors
    /// do not mutate data, though they do raise counters).
    pub fn is_mutation(&self) -> bool {
        !matches!(self, WalRecord::Floors { .. })
    }

    /// True for a frame payload under a retired record tag: an audit frame of
    /// a store written while served questions were still logged. Recovery
    /// skips such a frame; it never was a mutation.
    pub(crate) fn is_retired(payload: &[u8]) -> bool {
        payload.first() == Some(&TAG_RETIRED_AUDIT)
    }

    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        match self {
            WalRecord::RegisterDomain {
                spec,
                records,
                ti,
                table_gen,
                model_gen,
            } => {
                e.put_u8(TAG_REGISTER);
                put_spec(&mut e, spec);
                e.put_u32(records.len() as u32);
                for r in records {
                    put_record(&mut e, r);
                }
                put_ti(&mut e, ti);
                e.put_u64(*table_gen);
                e.put_u64(*model_gen);
            }
            WalRecord::Insert {
                domain,
                record,
                table_gen,
            } => {
                e.put_u8(TAG_INSERT);
                e.put_str(domain);
                put_record(&mut e, record);
                e.put_u64(*table_gen);
            }
            WalRecord::LogDelta {
                domain,
                delta,
                model_gen,
            } => {
                e.put_u8(TAG_LOG_DELTA);
                e.put_str(domain);
                e.put_u32(delta.sessions.len() as u32);
                for s in &delta.sessions {
                    put_session(&mut e, s);
                }
                e.put_u64(*model_gen);
            }
            WalRecord::SetWordSim { ws, model_gens } => {
                e.put_u8(TAG_SET_WORD_SIM);
                put_ws(&mut e, ws);
                e.put_u32(model_gens.len() as u32);
                for (domain, gen) in model_gens {
                    e.put_str(domain);
                    e.put_u64(*gen);
                }
            }
            WalRecord::Floors { floors } => {
                e.put_u8(TAG_FLOORS);
                e.put_u32(floors.len() as u32);
                for (domain, tg, mg) in floors {
                    e.put_str(domain);
                    e.put_u64(*tg);
                    e.put_u64(*mg);
                }
            }
        }
        e.finish()
    }

    /// Decode a frame payload. The payload has already passed its CRC check,
    /// so a failure here means a codec/version mismatch, which recovery treats
    /// as corruption at the frame's offset.
    pub fn decode(payload: &[u8]) -> DecodeResult<Self> {
        let mut d = Decoder::new(payload);
        let rec = match d.get_u8("record tag")? {
            TAG_REGISTER => {
                let spec = get_spec(&mut d)?;
                let n = d.get_count("record count")?;
                let mut records = Vec::with_capacity(n);
                for _ in 0..n {
                    records.push(get_record(&mut d)?);
                }
                let ti = get_ti(&mut d)?;
                WalRecord::RegisterDomain {
                    spec: Box::new(spec),
                    records,
                    ti,
                    table_gen: d.get_u64("table generation")?,
                    model_gen: d.get_u64("model generation")?,
                }
            }
            TAG_INSERT => WalRecord::Insert {
                domain: d.get_str("domain")?,
                record: get_record(&mut d)?,
                table_gen: d.get_u64("table generation")?,
            },
            TAG_LOG_DELTA => {
                let domain = d.get_str("domain")?;
                let n = d.get_count("session count")?;
                let mut sessions = Vec::with_capacity(n);
                for _ in 0..n {
                    sessions.push(get_session(&mut d)?);
                }
                WalRecord::LogDelta {
                    domain,
                    delta: QueryLogDelta::from_sessions(sessions),
                    model_gen: d.get_u64("model generation")?,
                }
            }
            TAG_SET_WORD_SIM => {
                let ws = get_ws(&mut d)?;
                let n = d.get_count("model generation count")?;
                let mut model_gens = Vec::with_capacity(n);
                for _ in 0..n {
                    model_gens.push((d.get_str("domain")?, d.get_u64("model generation")?));
                }
                WalRecord::SetWordSim { ws, model_gens }
            }
            TAG_FLOORS => {
                let n = d.get_count("floor count")?;
                let mut floors = Vec::with_capacity(n);
                for _ in 0..n {
                    floors.push((
                        d.get_str("domain")?,
                        d.get_u64("table generation floor")?,
                        d.get_u64("model generation floor")?,
                    ));
                }
                WalRecord::Floors { floors }
            }
            other => return Err(format!("unknown WAL record tag {other}")),
        };
        if !d.is_done() {
            return Err(format!("{} trailing bytes after WAL record", d.remaining()));
        }
        Ok(rec)
    }
}

const TAG_REGISTER: u8 = 1;
const TAG_INSERT: u8 = 2;
const TAG_LOG_DELTA: u8 = 3;
const TAG_SET_WORD_SIM: u8 = 4;
/// Reserved: the audit frames older stores hold. Never written, and never
/// reused for another record until the WAL format changes.
const TAG_RETIRED_AUDIT: u8 = 5;
const TAG_FLOORS: u8 = 6;

const VALUE_TEXT: u8 = 0;
const VALUE_NUMBER: u8 = 1;

const ATTR_TYPE1: u8 = 1;
const ATTR_TYPE2: u8 = 2;
const ATTR_TYPE3: u8 = 3;

pub(crate) fn put_record(e: &mut Encoder, record: &Record) {
    e.put_u32(record.len() as u32);
    for (name, value) in record.fields() {
        e.put_str(name);
        match value {
            Value::Text(s) => {
                e.put_u8(VALUE_TEXT);
                e.put_str(s);
            }
            Value::Number(n) => {
                e.put_u8(VALUE_NUMBER);
                e.put_f64(*n);
            }
        }
    }
}

pub(crate) fn get_record(d: &mut Decoder<'_>) -> DecodeResult<Record> {
    let n = d.get_count("record field count")?;
    let mut record = Record::default();
    for _ in 0..n {
        let name = d.get_str("attribute name")?;
        match d.get_u8("value tag")? {
            // Stored text was already normalized on the original insert, so it
            // is restored verbatim rather than re-normalized.
            VALUE_TEXT => record.set(name, Value::Text(d.get_str("text value")?)),
            VALUE_NUMBER => record.set(name, Value::Number(d.get_f64("numeric value")?)),
            other => return Err(format!("unknown value tag {other}")),
        }
    }
    Ok(record)
}

pub(crate) fn put_spec(e: &mut Encoder, spec: &SpecData) {
    put_schema(e, &spec.schema);
    for pairs in [&spec.type1_values, &spec.type2_values, &spec.type3_keywords] {
        e.put_u32(pairs.len() as u32);
        for (k, v) in pairs {
            e.put_str(k);
            e.put_str(v);
        }
    }
    e.put_opt_str(spec.price_attribute.as_deref());
    e.put_opt_str(spec.year_attribute.as_deref());
}

pub(crate) fn get_spec(d: &mut Decoder<'_>) -> DecodeResult<SpecData> {
    let schema = get_schema(d)?;
    let mut groups: [Vec<(String, String)>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for group in &mut groups {
        let n = d.get_count("value pair count")?;
        for _ in 0..n {
            group.push((d.get_str("value")?, d.get_str("attribute")?));
        }
    }
    let [type1_values, type2_values, type3_keywords] = groups;
    Ok(SpecData {
        schema,
        type1_values,
        type2_values,
        type3_keywords,
        price_attribute: d.get_opt_str("price attribute")?,
        year_attribute: d.get_opt_str("year attribute")?,
    })
}

fn put_schema(e: &mut Encoder, schema: &Schema) {
    e.put_str(&schema.name);
    e.put_u32(schema.attributes().len() as u32);
    for attr in schema.attributes() {
        e.put_str(&attr.name);
        e.put_u8(match attr.attr_type {
            AttrType::TypeI => ATTR_TYPE1,
            AttrType::TypeII => ATTR_TYPE2,
            AttrType::TypeIII => ATTR_TYPE3,
        });
        match attr.range {
            Some((lo, hi)) => {
                e.put_bool(true);
                e.put_f64(lo);
                e.put_f64(hi);
            }
            None => e.put_bool(false),
        }
        e.put_opt_str(attr.unit.as_deref());
    }
}

fn get_schema(d: &mut Decoder<'_>) -> DecodeResult<Schema> {
    let name = d.get_str("schema name")?;
    let n = d.get_count("attribute count")?;
    let mut builder = Schema::builder(name);
    for _ in 0..n {
        let attr_name = d.get_str("attribute name")?;
        let tag = d.get_u8("attribute type")?;
        let range = if d.get_bool("range presence")? {
            Some((d.get_f64("range low")?, d.get_f64("range high")?))
        } else {
            None
        };
        let unit = d.get_opt_str("attribute unit")?;
        builder = match tag {
            ATTR_TYPE1 => builder.type1(attr_name),
            ATTR_TYPE2 => builder.type2(attr_name),
            ATTR_TYPE3 => {
                let (lo, hi) =
                    range.ok_or_else(|| format!("Type III `{attr_name}` missing range"))?;
                builder.type3(attr_name, lo, hi, unit.as_deref())
            }
            other => return Err(format!("unknown attribute type tag {other}")),
        };
    }
    builder
        .build()
        .map_err(|e| format!("persisted schema failed validation: {e}"))
}

fn put_session(e: &mut Encoder, s: &Session) {
    e.put_u64(s.user_id);
    e.put_u32(s.queries.len() as u32);
    for q in &s.queries {
        e.put_str(&q.value);
        e.put_f64(q.at_seconds);
        e.put_u32(q.clicks.len() as u32);
        for c in &q.clicks {
            e.put_str(&c.ad_value);
            e.put_u32(c.rank);
            e.put_f64(c.dwell_seconds);
        }
        e.put_u32(q.shown.len() as u32);
        for shown in &q.shown {
            e.put_str(shown);
        }
    }
}

fn get_session(d: &mut Decoder<'_>) -> DecodeResult<Session> {
    let user_id = d.get_u64("user id")?;
    let n = d.get_count("query count")?;
    let mut queries = Vec::with_capacity(n);
    for _ in 0..n {
        let value = d.get_str("query value")?;
        let at_seconds = d.get_f64("query time")?;
        let n_clicks = d.get_count("click count")?;
        let mut clicks = Vec::with_capacity(n_clicks);
        for _ in 0..n_clicks {
            clicks.push(ClickEvent {
                ad_value: d.get_str("clicked ad value")?,
                rank: d.get_u32("click rank")?,
                dwell_seconds: d.get_f64("dwell seconds")?,
            });
        }
        let n_shown = d.get_count("shown count")?;
        let mut shown = Vec::with_capacity(n_shown);
        for _ in 0..n_shown {
            shown.push(d.get_str("shown value")?);
        }
        queries.push(SubmittedQuery {
            value,
            at_seconds,
            clicks,
            shown,
        });
    }
    Ok(Session { user_id, queries })
}

pub(crate) fn put_ti(e: &mut Encoder, ti: &TiMatrixState) {
    e.put_u32(ti.pairs.len() as u32);
    for p in &ti.pairs {
        e.put_str(&p.a);
        e.put_str(&p.b);
        for v in [
            p.mod_count,
            p.time_sum,
            p.time_n,
            p.ad_time_sum,
            p.ad_time_n,
            p.rank_sum,
            p.rank_n,
            p.click_count,
        ] {
            e.put_f64(v);
        }
    }
    e.put_u32(ti.manual.len() as u32);
    for (a, b, sim) in &ti.manual {
        e.put_str(a);
        e.put_str(b);
        e.put_f64(*sim);
    }
}

pub(crate) fn get_ti(d: &mut Decoder<'_>) -> DecodeResult<TiMatrixState> {
    let n = d.get_count("TI pair count")?;
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        pairs.push(PairState {
            a: d.get_str("pair value a")?,
            b: d.get_str("pair value b")?,
            mod_count: d.get_f64("mod count")?,
            time_sum: d.get_f64("time sum")?,
            time_n: d.get_f64("time n")?,
            ad_time_sum: d.get_f64("ad time sum")?,
            ad_time_n: d.get_f64("ad time n")?,
            rank_sum: d.get_f64("rank sum")?,
            rank_n: d.get_f64("rank n")?,
            click_count: d.get_f64("click count")?,
        });
    }
    let n = d.get_count("manual override count")?;
    let mut manual = Vec::with_capacity(n);
    for _ in 0..n {
        manual.push((
            d.get_str("manual value a")?,
            d.get_str("manual value b")?,
            d.get_f64("manual similarity")?,
        ));
    }
    Ok(TiMatrixState { pairs, manual })
}

pub(crate) fn put_ws(e: &mut Encoder, ws: &WsMatrixState) {
    e.put_u32(ws.entries.len() as u32);
    for (a, b, raw) in &ws.entries {
        e.put_str(a);
        e.put_str(b);
        e.put_f64(*raw);
    }
    e.put_f64(ws.max_raw);
}

pub(crate) fn get_ws(d: &mut Decoder<'_>) -> DecodeResult<WsMatrixState> {
    let n = d.get_count("WS entry count")?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push((
            d.get_str("WS stem a")?,
            d.get_str("WS stem b")?,
            d.get_f64("WS raw score")?,
        ));
    }
    Ok(WsMatrixState {
        entries,
        max_raw: d.get_f64("WS max raw")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> SpecData {
        SpecData {
            schema: Schema::builder("cars")
                .type1("make")
                .type1("model")
                .type2("color")
                .type3("price", 500.0, 120_000.0, Some("usd"))
                .build()
                .unwrap(),
            type1_values: vec![
                ("accord".into(), "model".into()),
                ("honda".into(), "make".into()),
            ],
            type2_values: vec![("blue".into(), "color".into())],
            type3_keywords: vec![("cost".into(), "price".into())],
            price_attribute: Some("price".into()),
            year_attribute: None,
        }
    }

    fn sample_session() -> Session {
        Session {
            user_id: 42,
            queries: vec![SubmittedQuery {
                value: "accord".into(),
                at_seconds: 1.5,
                clicks: vec![ClickEvent {
                    ad_value: "camry".into(),
                    rank: 2,
                    dwell_seconds: 30.0,
                }],
                shown: vec!["accord".into(), "camry".into()],
            }],
        }
    }

    fn all_variants() -> Vec<WalRecord> {
        vec![
            WalRecord::RegisterDomain {
                spec: Box::new(sample_spec()),
                records: vec![Record::builder()
                    .text("make", "honda")
                    .text("model", "accord")
                    .number("price", 6600.0)
                    .build()],
                ti: TiMatrixState {
                    pairs: vec![PairState {
                        a: "accord".into(),
                        b: "camry".into(),
                        mod_count: 3.0,
                        time_sum: 12.5,
                        time_n: 2.0,
                        ad_time_sum: 60.0,
                        ad_time_n: 2.0,
                        rank_sum: 5.0,
                        rank_n: 2.0,
                        click_count: 1.0,
                    }],
                    manual: vec![("accord".into(), "civic".into(), 0.8)],
                },
                table_gen: 1,
                model_gen: 1,
            },
            WalRecord::Insert {
                domain: "cars".into(),
                record: Record::builder()
                    .text("make", "toyota")
                    .text("model", "camry")
                    .build(),
                table_gen: 2,
            },
            WalRecord::LogDelta {
                domain: "cars".into(),
                delta: QueryLogDelta::from_sessions(vec![sample_session()]),
                model_gen: 2,
            },
            WalRecord::SetWordSim {
                ws: WsMatrixState {
                    entries: vec![("blue".into(), "silver".into(), 0.4)],
                    max_raw: 0.4,
                },
                model_gens: vec![("cars".into(), 3)],
            },
            WalRecord::Floors {
                floors: vec![("cars".into(), 5, 7)],
            },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for rec in all_variants() {
            let payload = rec.encode();
            let back = WalRecord::decode(&payload).unwrap();
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn only_the_retired_tag_is_retired() {
        assert!(WalRecord::is_retired(&[TAG_RETIRED_AUDIT, 0, 0]));
        assert!(!WalRecord::is_retired(&[]));
        for rec in all_variants() {
            assert!(!WalRecord::is_retired(&rec.encode()), "{rec:?}");
        }
    }

    #[test]
    fn mutation_classification_is_correct() {
        let flags: Vec<bool> = all_variants().iter().map(WalRecord::is_mutation).collect();
        assert_eq!(flags, vec![true, true, true, true, false]);
    }

    #[test]
    fn truncated_or_garbled_payloads_are_rejected() {
        for rec in all_variants() {
            let payload = rec.encode();
            // Every strict prefix must fail to decode — no silent partial reads.
            for cut in 0..payload.len() {
                assert!(
                    WalRecord::decode(&payload[..cut]).is_err(),
                    "prefix of length {cut} decoded unexpectedly"
                );
            }
        }
        assert!(WalRecord::decode(&[99]).unwrap_err().contains("unknown"));
        // The retired tag is skipped by recovery, never decoded.
        assert!(WalRecord::decode(&[TAG_RETIRED_AUDIT]).is_err());
        // Trailing garbage after a complete record is rejected.
        let mut payload = all_variants()[4].encode();
        payload.push(0);
        assert!(WalRecord::decode(&payload)
            .unwrap_err()
            .contains("trailing"));
    }

    #[test]
    fn record_values_restore_verbatim() {
        let mut rec = Record::default();
        rec.set("note", Value::Text("multi word value".into()));
        rec.set("price", Value::Number(-0.0));
        let mut e = Encoder::new();
        put_record(&mut e, &rec);
        let bytes = e.finish();
        let back = get_record(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(back, rec);
        assert_eq!(
            back.get_number("price").unwrap().to_bits(),
            (-0.0f64).to_bits()
        );
    }

    #[test]
    fn persisted_schema_is_validated_on_decode() {
        // A Type III attribute without a range cannot be rebuilt.
        let mut e = Encoder::new();
        e.put_str("bad");
        e.put_u32(1);
        e.put_str("price");
        e.put_u8(ATTR_TYPE3);
        e.put_bool(false); // no range
        e.put_opt_str(None);
        let bytes = e.finish();
        let err = get_schema(&mut Decoder::new(&bytes)).unwrap_err();
        assert!(err.contains("missing range"));
    }
}
