//! Query-log data model (Section 4.3.2).
//!
//! A log is a set of sessions; each session belongs to one anonymous user id (the paper
//! notes the user id "determines the boundary of each session") and holds the queries
//! the user submitted, with timestamps, and the ads the user clicked, with the rank the
//! ads search engine gave them and the time spent reading them.

/// One click on a retrieved ad.
#[derive(Debug, Clone, PartialEq)]
pub struct ClickEvent {
    /// The Type I attribute value the clicked ad showcases (e.g. the car model of the ad).
    pub ad_value: String,
    /// Rank position the ads search engine gave the ad (1 = top).
    pub rank: u32,
    /// Seconds the user spent on the ad page.
    pub dwell_seconds: f64,
}

/// One query submission inside a session.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmittedQuery {
    /// The Type I attribute value the query text asks for.
    pub value: String,
    /// Seconds since the start of the session.
    pub at_seconds: f64,
    /// Ads the user clicked on the result page of this query.
    pub clicks: Vec<ClickEvent>,
    /// Ranked result list shown for this query (Type I values of the returned ads),
    /// index 0 being rank 1. Used for the `Rank(A, B)` feature.
    pub shown: Vec<String>,
}

/// A user session: one anonymous user id and its submitted queries in time order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Session {
    /// Anonymous user identifier.
    pub user_id: u64,
    /// Queries in submission order.
    pub queries: Vec<SubmittedQuery>,
}

impl Session {
    /// Consecutive query reformulations `(from, to)` within the session — the raw events
    /// behind the `Mod(A, B)` feature.
    pub fn reformulations(&self) -> Vec<(&str, &str)> {
        self.queries
            .windows(2)
            .map(|w| (w[0].value.as_str(), w[1].value.as_str()))
            .collect()
    }
}

/// A full query log.
#[derive(Debug, Clone, Default)]
pub struct QueryLog {
    /// All sessions.
    pub sessions: Vec<Session>,
}

impl QueryLog {
    /// Number of sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// True if the log holds no sessions.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Total number of submitted queries across sessions.
    pub fn query_count(&self) -> usize {
        self.sessions.iter().map(|s| s.queries.len()).sum()
    }

    /// Total number of clicks across sessions.
    pub fn click_count(&self) -> usize {
        self.sessions
            .iter()
            .flat_map(|s| &s.queries)
            .map(|q| q.clicks.len())
            .sum()
    }

    /// Append one finished session to the log.
    pub fn push(&mut self, session: Session) {
        self.sessions.push(session);
    }

    /// Append every session of a delta to the log, in delta order. After
    /// `log.extend(&delta)` the log is session-for-session equal to the log a batch
    /// collector would have produced had the delta's sessions been recorded directly —
    /// the identity [`TIMatrix::build`](crate::TIMatrix::build)`(log ++ delta)` ==
    /// [`TIMatrix::apply`](crate::TIMatrix::apply) relies on exactly this ordering.
    pub fn extend(&mut self, delta: &QueryLogDelta) {
        self.sessions.extend(delta.sessions.iter().cloned());
    }

    /// The concatenation `self ++ delta` as a new log (the "ground truth" a full
    /// rebuild would see; used by the equivalence tests).
    pub fn concat(&self, delta: &QueryLogDelta) -> QueryLog {
        let mut combined = self.clone();
        combined.extend(delta);
        combined
    }
}

/// A batch of **new** query-log sessions: the unit of incremental TI-matrix learning.
///
/// A live serving system does not re-read its whole query log on every refresh; it
/// collects freshly finished sessions into deltas (see [`QueryLogStream`]) and feeds
/// each delta to [`TIMatrix::apply`](crate::TIMatrix::apply), which updates the
/// matrix in time proportional to the delta, not the log.
///
/// ```
/// use cqads_querylog::{QueryLog, QueryLogDelta, Session};
///
/// let mut log = QueryLog::default();
/// let delta = QueryLogDelta::from_sessions(vec![Session::default()]);
/// log.extend(&delta);
/// assert_eq!(log.len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryLogDelta {
    /// Newly finished sessions, in the order they completed.
    pub sessions: Vec<Session>,
}

impl QueryLogDelta {
    /// Wrap finished sessions as a delta.
    pub fn from_sessions(sessions: Vec<Session>) -> Self {
        QueryLogDelta { sessions }
    }

    /// Number of sessions in the delta.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// True when the delta carries no sessions (applying it is a no-op on the
    /// matrix entries, though it still re-finalizes).
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Total number of submitted queries across the delta's sessions.
    pub fn query_count(&self) -> usize {
        self.sessions.iter().map(|s| s.queries.len()).sum()
    }
}

/// Collects live-traffic sessions and batches them into [`QueryLogDelta`]s.
///
/// The serving path appends each finished session with [`QueryLogStream::push`];
/// once `batch_size` sessions have accumulated the push returns a ready delta for
/// [`CqadsWriter::ingest_query_log`-style](crate::TIMatrix::apply) application.
/// [`QueryLogStream::flush`] drains a partial batch (e.g. on a timer tick), so no
/// session is ever lost to the buffer.
///
/// ```
/// use cqads_querylog::{QueryLogStream, Session};
///
/// let mut stream = QueryLogStream::new(2);
/// assert!(stream.push(Session::default()).is_none()); // buffered
/// let delta = stream.push(Session::default()).expect("batch full");
/// assert_eq!(delta.len(), 2);
/// assert!(stream.flush().is_none()); // nothing pending
/// ```
#[derive(Debug, Clone)]
pub struct QueryLogStream {
    buffer: Vec<Session>,
    batch_size: usize,
}

impl QueryLogStream {
    /// Create a stream that emits a delta every `batch_size` sessions (clamped to at
    /// least 1).
    pub fn new(batch_size: usize) -> Self {
        QueryLogStream {
            buffer: Vec::new(),
            batch_size: batch_size.max(1),
        }
    }

    /// Record one finished session. Returns a full delta once `batch_size` sessions
    /// have accumulated, `None` while the batch is still filling.
    pub fn push(&mut self, session: Session) -> Option<QueryLogDelta> {
        self.buffer.push(session);
        if self.buffer.len() >= self.batch_size {
            self.flush()
        } else {
            None
        }
    }

    /// Drain whatever is buffered as a (possibly short) delta; `None` when empty.
    pub fn flush(&mut self) -> Option<QueryLogDelta> {
        if self.buffer.is_empty() {
            return None;
        }
        Some(QueryLogDelta::from_sessions(std::mem::take(
            &mut self.buffer,
        )))
    }

    /// Sessions currently buffered (not yet emitted as a delta).
    pub fn pending(&self) -> usize {
        self.buffer.len()
    }

    /// The configured batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session() -> Session {
        Session {
            user_id: 7,
            queries: vec![
                SubmittedQuery {
                    value: "camry".into(),
                    at_seconds: 0.0,
                    clicks: vec![ClickEvent {
                        ad_value: "accord".into(),
                        rank: 2,
                        dwell_seconds: 40.0,
                    }],
                    shown: vec!["camry".into(), "accord".into(), "corolla".into()],
                },
                SubmittedQuery {
                    value: "accord".into(),
                    at_seconds: 65.0,
                    clicks: vec![],
                    shown: vec!["accord".into()],
                },
            ],
        }
    }

    #[test]
    fn reformulations_pair_consecutive_queries() {
        let s = session();
        assert_eq!(s.reformulations(), vec![("camry", "accord")]);
        assert!(Session::default().reformulations().is_empty());
    }

    #[test]
    fn log_counts_aggregate_sessions() {
        let log = QueryLog {
            sessions: vec![session(), session()],
        };
        assert_eq!(log.len(), 2);
        assert!(!log.is_empty());
        assert_eq!(log.query_count(), 4);
        assert_eq!(log.click_count(), 2);
        assert!(QueryLog::default().is_empty());
    }

    #[test]
    fn extend_and_concat_append_delta_sessions_in_order() {
        let mut log = QueryLog {
            sessions: vec![session()],
        };
        let delta = QueryLogDelta::from_sessions(vec![session(), Session::default()]);
        assert_eq!(delta.len(), 2);
        assert_eq!(delta.query_count(), 2);
        assert!(!delta.is_empty());

        let combined = log.concat(&delta);
        log.extend(&delta);
        assert_eq!(log.sessions, combined.sessions);
        assert_eq!(log.len(), 3);
        // Order: base sessions first, then delta sessions in delta order.
        assert_eq!(log.sessions[2], Session::default());

        log.push(session());
        assert_eq!(log.len(), 4);
    }

    #[test]
    fn stream_batches_sessions_into_deltas() {
        let mut stream = QueryLogStream::new(3);
        assert_eq!(stream.batch_size(), 3);
        assert!(stream.push(session()).is_none());
        assert!(stream.push(session()).is_none());
        assert_eq!(stream.pending(), 2);
        let delta = stream.push(session()).expect("third push fills the batch");
        assert_eq!(delta.len(), 3);
        assert_eq!(stream.pending(), 0);

        // flush drains partial batches and is a no-op when empty.
        assert!(stream.flush().is_none());
        stream.push(session());
        let partial = stream.flush().expect("one buffered session");
        assert_eq!(partial.len(), 1);
        assert_eq!(stream.pending(), 0);

        // batch_size is clamped to at least 1: every push emits.
        let mut unit = QueryLogStream::new(0);
        assert_eq!(unit.batch_size(), 1);
        assert!(unit.push(session()).is_some());
    }
}
