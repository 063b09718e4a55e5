//! `obs` — streaming metrics primitives for the simulator and harness.
//!
//! The paper's method is observability: diagnosing throughput limits
//! from `ss -tin` and ethtool counters. This crate gives the *repo*
//! the same substrate the paper applies to Linux hosts:
//!
//! * [`HdrHistogram`] — a mergeable log-linear histogram with bounded
//!   relative quantile error (≤ 1/128 ≈ 0.78%), O(buckets) memory,
//!   exact `min`/`max`/`count`/`sum`, and a lossless bucketwise merge
//!   so per-shard histograms recorded by parallel workers fold into
//!   exactly the histogram a single-pass recorder would have built.
//! * [`Recorder`] — a thread-safe named registry of counters, gauges
//!   and histograms. It is *passive*: callers that hold no recorder
//!   handle pay nothing, which is how the harness keeps metrics-off
//!   runs bit-identical (the neutrality contract of DESIGN.md §6h).
//! * [`IntervalAggregator`] — folds timestamped samples into
//!   fixed-width interval series with one streaming histogram per
//!   metric per open interval, so memory stays O(open intervals ×
//!   metrics × buckets) regardless of total sample count.
//! * [`render_openmetrics`] — OpenMetrics text exposition of a
//!   registry snapshot, and JSONL renderings for interval series and
//!   phase [`SpanRecord`]s.
//!
//! The crate is std-only and domain-neutral: it knows nothing about
//! the simulator. Domain crates export plain snapshot structs (e.g.
//! `simcore::QueueHealth`) and the harness samples them into a
//! [`Recorder`].

#![deny(unreachable_pub)]
// Recoverable failures carry typed errors; every surviving `expect`
// states its infallibility argument (tests are exempt).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
mod interval;
mod openmetrics;
mod registry;
mod span;

pub use hist::HdrHistogram;
pub use interval::{IntervalAggregator, IntervalRecord};
pub use openmetrics::render_openmetrics;
pub use registry::{MetricsSnapshot, Recorder};
pub use span::SpanRecord;

/// JSON string escaping (without the surrounding quotes) for every
/// hand-rolled JSON writer in the workspace: quotes, backslashes and
/// control characters. Metric/scope names are already sanitized by
/// callers; this keeps the output well-formed even if they are not.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::json_escape;

    /// Reverse [`json_escape`] (the oracle for the round trip); `None`
    /// on a malformed escape.
    fn json_unescape(s: &str) -> Option<String> {
        let mut out = String::with_capacity(s.len());
        let mut chars = s.chars();
        while let Some(ch) = chars.next() {
            if ch != '\\' {
                out.push(ch);
                continue;
            }
            match chars.next()? {
                '\\' => out.push('\\'),
                '"' => out.push('"'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    if hex.len() != 4 {
                        return None;
                    }
                    out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                }
                _ => return None,
            }
        }
        Some(out)
    }

    #[test]
    fn json_escape_round_trips() {
        // Adversarial strings (quotes, backslashes, control chars,
        // multi-byte, JSON punctuation) drawn by a fixed splitmix64
        // stream: every one must survive escaping, and the escaped form
        // must hold no raw quote or control character.
        const POOL: &[char] = &[
            'a', 'Z', '0', ' ', '"', '\\', '\n', '\t', '\r', '\u{1}', '\u{1f}', 'é', '→', '日',
            '{', '}', ':', ',', '[', ']', '/',
        ];
        let mut state = 0x5eed_f00d_u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for i in 0..200 {
            let len = (next() % 48) as usize;
            let s: String = (0..len).map(|_| POOL[next() as usize % POOL.len()]).collect();
            let escaped = json_escape(&s);
            assert_eq!(json_unescape(&escaped).as_deref(), Some(s.as_str()), "case {i}: {escaped}");
            let unescaped_quote = escaped.replace("\\\\", "").replace("\\\"", "").contains('"');
            assert!(!unescaped_quote, "case {i}: raw quote in {escaped}");
            assert!(!escaped.chars().any(|c| (c as u32) < 0x20), "case {i}: {escaped}");
        }
        // The oracle rejects what the escaper never emits.
        assert_eq!(json_unescape("trailing \\"), None);
        assert_eq!(json_unescape("bad \\q escape"), None);
        assert_eq!(json_unescape("short \\u00"), None);
    }
}
