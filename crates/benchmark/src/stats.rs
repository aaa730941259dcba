//! Small numeric helpers: percentiles, element-wise minima and the FNV-1a hash the
//! harness uses for `ops_hash` and `answers_checksum`.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by the nearest-rank rule; 0 when empty.
pub fn percentile(values: &[u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values`; 0 when empty.
pub fn median(values: &[u64]) -> u64 {
    percentile(values, 0.5)
}

/// Median of floats; 0 when empty.
pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

/// Fold one replay's latencies into the running per-op minima.
pub fn fold_min(quiet: &mut [u64], observed: &[u64]) {
    for (q, &o) in quiet.iter_mut().zip(observed) {
        *q = (*q).min(o);
    }
}

/// The host's prevailing state among replays: the indices of the half of the
/// replays whose total times lie closest together (the shortest interval holding
/// ⌈n/2⌉ of them). One or two replays are all returned.
pub fn modal_half(totals: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..totals.len()).collect();
    if totals.len() < 3 {
        return order;
    }
    order.sort_by_key(|&r| totals[r]);
    let half = totals.len().div_ceil(2);
    let start = (0..=order.len() - half)
        .min_by_key(|&s| totals[order[s + half - 1]] - totals[order[s]])
        .unwrap_or(0);
    let mut chosen = order[start..start + half].to_vec();
    chosen.sort_unstable();
    chosen
}

/// Quiet latency per op: the minimum over the replays of the modal half.
///
/// `observed[r][i]` is the latency of op `i` in replay `r`. A shared host sits in one
/// of a few speed states for seconds at a time (on the box this was written on: a
/// contended plateau 87 % of the time, bursts 28 % faster the rest). The plain
/// minimum over replays reports whichever state the fastest replay happened to see,
/// so runs disagree by the gap between states; restricting the minimum to the
/// replays of the prevailing state makes runs agree, and within one state the
/// minimum strips the one-sided jitter that is left.
pub fn quiet_latency(observed: &[Vec<u64>]) -> Vec<u64> {
    let totals: Vec<u64> = observed.iter().map(|r| r.iter().sum()).collect();
    let ops = observed.first().map_or(0, Vec::len);
    let mut quiet = vec![u64::MAX; ops];
    for r in modal_half(&totals) {
        fold_min(&mut quiet, &observed[r]);
    }
    quiet
}

/// Nanoseconds to microseconds.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Nanoseconds to seconds.
pub fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// `part / whole`, 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Incremental 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Absorb raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Absorb a string plus a terminator, so `("ab","c")` and `("a","bc")` differ.
    pub fn text(&mut self, text: &str) {
        self.bytes(text.as_bytes());
        self.bytes(&[0xff]);
    }

    /// Absorb one integer.
    pub fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.95), 95);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.95), 7);
    }

    #[test]
    fn fold_min_keeps_the_fastest_reading_per_op() {
        let mut quiet = vec![u64::MAX; 3];
        fold_min(&mut quiet, &[5, 9, 4]);
        fold_min(&mut quiet, &[6, 2, 4]);
        assert_eq!(quiet, vec![5, 2, 4]);
    }

    #[test]
    fn modal_half_picks_the_prevailing_state() {
        // Two fast outliers, one slow outlier, a plateau around 100.
        let totals = [100, 70, 101, 99, 140, 102, 71, 100];
        assert_eq!(modal_half(&totals), vec![0, 2, 3, 7]);
        assert_eq!(modal_half(&[5, 1, 9]), vec![0, 1]);
        assert_eq!(modal_half(&[5, 1]), vec![0, 1]);
    }

    #[test]
    fn quiet_latency_ignores_replays_outside_the_modal_half() {
        let observed = vec![
            vec![50, 50], // plateau
            vec![30, 30], // a fast burst: excluded
            vec![51, 49], // plateau
            vec![52, 50], // plateau
            vec![90, 90], // a slow spell: excluded
            vec![50, 51], // plateau
        ];
        assert_eq!(quiet_latency(&observed), vec![50, 49]);
    }

    #[test]
    fn fnv_separates_field_boundaries() {
        let hash = |parts: &[&str]| {
            let mut h = Fnv::default();
            parts.iter().for_each(|p| h.text(p));
            h.finish()
        };
        assert_ne!(hash(&["ab", "c"]), hash(&["a", "bc"]));
        assert_eq!(hash(&["ab", "c"]), hash(&["ab", "c"]));
    }
}
