//! The content-addressed run cache.
//!
//! Simulated repetitions are pure functions of (scenario, seed,
//! cost-model version). When `REPRO_CACHE_DIR` is set, the harness
//! keys each repetition by the 128-bit fingerprint of exactly those
//! inputs — the scenario's canonical serialization (display names
//! excluded) plus the seed and [`linuxhost::COST_MODEL_VERSION`] — and
//! stores the resulting [`Iperf3Report`] as a checksummed JSON file.
//! A later invocation with the same key loads the report instead of
//! simulating, bit-identically: floats round-trip through their
//! IEEE-754 bit patterns, never through decimal.
//!
//! Safety properties:
//! * **corruption** — a truncated or bit-flipped file fails the length
//!   or FNV-1a checksum test in the header and is recomputed (and
//!   overwritten) as if absent;
//! * **staleness** — the cost-model version is part of the key *and*
//!   the header, so bumping [`linuxhost::COST_MODEL_VERSION`] orphans
//!   every old entry;
//! * **atomicity** — entries are written to a temp file and renamed
//!   into place, so a crashed writer can leave junk but never a
//!   plausible half-entry;
//! * **observers excluded** — only runs without telemetry sampling or
//!   attribution are cached (those attach large observer payloads that
//!   do not affect traffic; the runner skips the cache for them).

use iperf3sim::{Iperf3Report, StreamReport};
use linuxhost::CpuReport;
use simcore::{fnv1a_64, BitRate, Bytes, Canon, Canonicalize, SimDuration};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::scenario::Scenario;

/// On-disk schema version (layout of the payload JSON).
const SCHEMA: u32 = 1;

/// 128-bit content address of one repetition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheKey {
    hi: u64,
    lo: u64,
}

impl CacheKey {
    /// The entry's file name.
    pub fn file_name(&self) -> String {
        format!("{:016x}{:016x}.json", self.hi, self.lo)
    }
}

/// What was wrong with an on-disk entry that *existed* but could not
/// be used. Each kind is counted separately: a rash of corrupt entries
/// points at the disk, a rash of stale ones at a cost-model bump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheFault {
    /// Bad magic, failed checksum, or an unparsable payload.
    Corrupt,
    /// Header `len` disagrees with the payload (partial write/truncate).
    Truncated,
    /// Intact entry from an older schema or cost-model version.
    Stale,
}

impl CacheFault {
    /// Human-readable reason, used in the recovery warning.
    pub fn reason(self) -> &'static str {
        match self {
            CacheFault::Corrupt => "corrupt (checksum or payload mismatch)",
            CacheFault::Truncated => "truncated (length mismatch)",
            CacheFault::Stale => "stale (schema or cost-model version)",
        }
    }
}

/// Hit/miss/store counters for one cache handle, plus recovery
/// counters for entries that existed but had to be recomputed.
#[derive(Debug, Default)]
pub struct CacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    corrupt: AtomicU64,
    truncated: AtomicU64,
    stale: AtomicU64,
}

impl CacheStats {
    /// Lookups that returned a valid entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing usable (absent, corrupt, or stale).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries written.
    pub fn stores(&self) -> u64 {
        self.stores.load(Ordering::Relaxed)
    }

    /// Misses caused by a corrupt entry (bad checksum/magic/payload).
    pub fn corrupt_recoveries(&self) -> u64 {
        self.corrupt.load(Ordering::Relaxed)
    }

    /// Misses caused by a truncated entry.
    pub fn truncated_recoveries(&self) -> u64 {
        self.truncated.load(Ordering::Relaxed)
    }

    /// Misses caused by a stale (old schema/cost-model) entry.
    pub fn stale_recoveries(&self) -> u64 {
        self.stale.load(Ordering::Relaxed)
    }

    /// Total misses where an entry existed but was unusable.
    pub fn recoveries(&self) -> u64 {
        self.corrupt_recoveries() + self.truncated_recoveries() + self.stale_recoveries()
    }

    fn count_fault(&self, fault: CacheFault) {
        let counter = match fault {
            CacheFault::Corrupt => &self.corrupt,
            CacheFault::Truncated => &self.truncated,
            CacheFault::Stale => &self.stale,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// A content-addressed report cache rooted at one directory.
#[derive(Debug)]
pub struct RunCache {
    dir: PathBuf,
    cost_model_version: u32,
    /// Counters, readable while runs are in flight.
    pub stats: CacheStats,
}

impl RunCache {
    /// A cache in `dir` (created on first store), keyed on the current
    /// [`linuxhost::COST_MODEL_VERSION`].
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        RunCache {
            dir: dir.into(),
            cost_model_version: linuxhost::COST_MODEL_VERSION,
            stats: CacheStats::default(),
        }
    }

    /// From `REPRO_CACHE_DIR`, if set.
    pub fn from_env() -> Option<Self> {
        std::env::var_os("REPRO_CACHE_DIR").map(|d| RunCache::new(PathBuf::from(d)))
    }

    /// Test hook: pretend the cost model is at a different version.
    pub fn with_cost_model_version(mut self, version: u32) -> Self {
        self.cost_model_version = version;
        self
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The cost-model version this cache keys on.
    pub fn cost_model_version(&self) -> u32 {
        self.cost_model_version
    }

    /// The content address of one repetition.
    pub fn key(&self, scenario: &Scenario, seed: u64) -> CacheKey {
        let mut c = Canon::new();
        c.scope("scenario", |c| scenario.canonicalize(c));
        c.put_u64("seed", seed);
        c.put_u64("cost_model_version", self.cost_model_version as u64);
        c.put_u64("schema", SCHEMA as u64);
        CacheKey { hi: c.fingerprint(), lo: c.fingerprint_alt() }
    }

    /// The on-disk path of `key`'s entry (whether or not it exists).
    pub fn entry_path(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(key.file_name())
    }

    /// Load the entry for `key`, with the miss cause exposed: `Ok(Some)`
    /// is a hit, `Ok(None)` means no entry existed, and `Err(fault)`
    /// means an entry existed but was corrupt/truncated/stale — counted on
    /// [`RunCache::stats`], logged with the offending path, and left
    /// for the caller's recompute-and-store to overwrite (self-heal).
    pub fn lookup_detail(&self, key: &CacheKey) -> Result<Option<Iperf3Report>, CacheFault> {
        let path = self.entry_path(key);
        let Ok(text) = std::fs::read_to_string(&path) else {
            self.stats.misses.fetch_add(1, Ordering::Relaxed);
            return Ok(None);
        };
        match decode_entry(&text, self.cost_model_version) {
            Ok(report) => {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                Ok(Some(report))
            }
            Err(fault) => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                self.stats.count_fault(fault);
                eprintln!(
                    "warning: cache entry {} {}: recomputing",
                    path.display(),
                    fault.reason()
                );
                Err(fault)
            }
        }
    }

    /// Store `report` under `key` (atomic: temp file + rename). Errors
    /// are reported on stderr and swallowed — a read-only cache
    /// degrades to "always miss", it never fails the run.
    pub fn store(&self, key: &CacheKey, report: &Iperf3Report) {
        let entry = encode_entry(report, self.cost_model_version);
        let path = self.dir.join(key.file_name());
        let tmp = self.dir.join(format!(".{}.tmp{}", key.file_name(), std::process::id()));
        let write = || -> std::io::Result<()> {
            std::fs::create_dir_all(&self.dir)?;
            std::fs::write(&tmp, &entry)?;
            std::fs::rename(&tmp, &path)
        };
        match write() {
            Ok(()) => {
                self.stats.stores.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                eprintln!("warning: cache store failed for {}: {e}", path.display());
            }
        }
    }
}

// ---------------------------------------------------------------------
// Entry format: one header line, then the payload JSON.
//
//   dtnperf-cache schema=1 cost_model=1 len=1234 checksum=0123456789abcdef
//   {"command":...}
//
// `len` is the payload's byte length (truncation check); `checksum` is
// FNV-1a over the payload bytes (bit-flip check).
// ---------------------------------------------------------------------

fn encode_entry(report: &Iperf3Report, cost_model_version: u32) -> String {
    let payload = encode_report(report);
    format!(
        "dtnperf-cache schema={SCHEMA} cost_model={cost_model_version} len={} checksum={:016x}\n{payload}",
        payload.len(),
        fnv1a_64(payload.as_bytes()),
    )
}

fn decode_entry(text: &str, cost_model_version: u32) -> Result<Iperf3Report, CacheFault> {
    let (header, payload) = text.split_once('\n').ok_or(CacheFault::Truncated)?;
    let mut fields = header.split(' ');
    if fields.next() != Some("dtnperf-cache") {
        return Err(CacheFault::Corrupt);
    }
    let mut schema = None;
    let mut cost_model = None;
    let mut len = None;
    let mut checksum = None;
    for field in fields {
        let (k, v) = field.split_once('=').ok_or(CacheFault::Corrupt)?;
        match k {
            "schema" => schema = v.parse::<u32>().ok(),
            "cost_model" => cost_model = v.parse::<u32>().ok(),
            "len" => len = v.parse::<usize>().ok(),
            "checksum" => checksum = u64::from_str_radix(v, 16).ok(),
            _ => return Err(CacheFault::Corrupt),
        }
    }
    let (schema, cost_model) = (schema.ok_or(CacheFault::Corrupt)?, cost_model.ok_or(CacheFault::Corrupt)?);
    let (len, checksum) = (len.ok_or(CacheFault::Corrupt)?, checksum.ok_or(CacheFault::Corrupt)?);
    if schema != SCHEMA || cost_model != cost_model_version {
        return Err(CacheFault::Stale); // stale layout or stale cost model
    }
    if len != payload.len() {
        return Err(CacheFault::Truncated);
    }
    if checksum != fnv1a_64(payload.as_bytes()) {
        return Err(CacheFault::Corrupt); // bit-flipped
    }
    decode_report(payload).ok_or(CacheFault::Corrupt)
}

/// f64 → exact 16-hex IEEE-754 bits (the only float encoding used).
fn hex_bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn f64_seq(xs: impl Iterator<Item = f64>) -> String {
    let items: Vec<String> = xs.map(|x| format!("\"{}\"", hex_bits(x))).collect();
    format!("[{}]", items.join(","))
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn encode_cpu(cpu: &CpuReport) -> String {
    format!(
        "{{\"per_core\":{},\"app_pct\":\"{}\",\"irq_pct\":\"{}\",\"peak_core_pct\":\"{}\"}}",
        f64_seq(cpu.per_core.iter().copied()),
        hex_bits(cpu.app_pct),
        hex_bits(cpu.irq_pct),
        hex_bits(cpu.peak_core_pct),
    )
}

fn encode_report(r: &Iperf3Report) -> String {
    let streams: Vec<String> = r
        .streams
        .iter()
        .map(|s| {
            format!(
                "{{\"id\":{},\"bytes\":{},\"bitrate\":\"{}\",\"retr\":{},\"intervals\":{}}}",
                s.id,
                s.bytes.as_u64(),
                hex_bits(s.bitrate.as_bps()),
                s.retr,
                f64_seq(s.intervals.iter().map(|b| b.as_bps())),
            )
        })
        .collect();
    format!(
        "{{\"command\":\"{}\",\"window_ns\":{},\"zc_fallback_fraction\":\"{}\",\"sender_cpu\":{},\"receiver_cpu\":{},\"streams\":[{}]}}",
        escape(&r.command),
        r.window.as_nanos(),
        hex_bits(r.zc_fallback_fraction),
        encode_cpu(&r.sender_cpu),
        encode_cpu(&r.receiver_cpu),
        streams.join(","),
    )
}

/// Strict cursor over the exact byte layout `encode_report` emits. The
/// checksum has already vouched for the bytes; the parser only needs to
/// reverse the writer, failing (`None`) on any mismatch.
struct Cursor<'a> {
    rest: &'a str,
}

impl<'a> Cursor<'a> {
    fn eat(&mut self, token: &str) -> Option<()> {
        self.rest = self.rest.strip_prefix(token)?;
        Some(())
    }

    fn u64_until(&mut self, stop: char) -> Option<u64> {
        let end = self.rest.find(stop)?;
        let n = self.rest[..end].parse::<u64>().ok()?;
        self.rest = &self.rest[end..];
        Some(n)
    }

    /// A quoted 16-hex float-bits literal.
    fn f64_bits(&mut self) -> Option<f64> {
        self.eat("\"")?;
        let bits = u64::from_str_radix(self.rest.get(..16)?, 16).ok()?;
        self.rest = &self.rest[16..];
        self.eat("\"")?;
        Some(f64::from_bits(bits))
    }

    /// A quoted, escaped string.
    fn string(&mut self) -> Option<String> {
        self.eat("\"")?;
        let mut out = String::new();
        let mut chars = self.rest.char_indices();
        loop {
            let (i, ch) = chars.next()?;
            match ch {
                '"' => {
                    self.rest = &self.rest[i + 1..];
                    return Some(out);
                }
                '\\' => {
                    let (_, esc) = chars.next()?;
                    match esc {
                        '"' | '\\' => out.push(esc),
                        _ => return None,
                    }
                }
                _ => out.push(ch),
            }
        }
    }

    fn f64_array(&mut self) -> Option<Vec<f64>> {
        self.eat("[")?;
        let mut out = Vec::new();
        if self.rest.starts_with(']') {
            self.eat("]")?;
            return Some(out);
        }
        loop {
            out.push(self.f64_bits()?);
            if self.rest.starts_with(',') {
                self.eat(",")?;
            } else {
                self.eat("]")?;
                return Some(out);
            }
        }
    }

    fn cpu(&mut self) -> Option<CpuReport> {
        self.eat("{\"per_core\":")?;
        let per_core = self.f64_array()?;
        self.eat(",\"app_pct\":")?;
        let app_pct = self.f64_bits()?;
        self.eat(",\"irq_pct\":")?;
        let irq_pct = self.f64_bits()?;
        self.eat(",\"peak_core_pct\":")?;
        let peak_core_pct = self.f64_bits()?;
        self.eat("}")?;
        Some(CpuReport { per_core, app_pct, irq_pct, peak_core_pct })
    }

    fn stream(&mut self) -> Option<StreamReport> {
        self.eat("{\"id\":")?;
        let id = self.u64_until(',')? as usize;
        self.eat(",\"bytes\":")?;
        let bytes = Bytes::new(self.u64_until(',')?);
        self.eat(",\"bitrate\":")?;
        let bitrate = BitRate::from_bps(self.f64_bits()?);
        self.eat(",\"retr\":")?;
        let retr = self.u64_until(',')?;
        self.eat(",\"intervals\":")?;
        let intervals = self.f64_array()?.into_iter().map(BitRate::from_bps).collect();
        self.eat("}")?;
        Some(StreamReport { id, bytes, bitrate, retr, intervals })
    }
}

fn decode_report(payload: &str) -> Option<Iperf3Report> {
    let mut c = Cursor { rest: payload };
    c.eat("{\"command\":")?;
    let command = c.string()?;
    c.eat(",\"window_ns\":")?;
    let window = SimDuration::from_nanos(c.u64_until(',')?);
    c.eat(",\"zc_fallback_fraction\":")?;
    let zc_fallback_fraction = c.f64_bits()?;
    c.eat(",\"sender_cpu\":")?;
    let sender_cpu = c.cpu()?;
    c.eat(",\"receiver_cpu\":")?;
    let receiver_cpu = c.cpu()?;
    c.eat(",\"streams\":[")?;
    let mut streams = Vec::new();
    if c.rest.starts_with(']') {
        c.eat("]")?;
    } else {
        loop {
            streams.push(c.stream()?);
            if c.rest.starts_with(',') {
                c.eat(",")?;
            } else {
                c.eat("]")?;
                break;
            }
        }
    }
    c.eat("}")?;
    if !c.rest.is_empty() {
        return None;
    }
    Some(Iperf3Report {
        command,
        streams,
        window,
        sender_cpu,
        receiver_cpu,
        zc_fallback_fraction,
        telemetry: None,
        attribution: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> Iperf3Report {
        Iperf3Report {
            command: "iperf3 -c \"dtn\\1\" -t 10 -J".into(),
            streams: vec![
                StreamReport {
                    id: 5,
                    bytes: Bytes::gib(10),
                    bitrate: BitRate::from_bps(10.1e9 + 0.3),
                    retr: 12,
                    intervals: vec![BitRate::from_bps(0.1 + 0.2), BitRate::ZERO],
                },
                StreamReport {
                    id: 6,
                    bytes: Bytes::new(0),
                    bitrate: BitRate::ZERO,
                    retr: 0,
                    intervals: Vec::new(),
                },
            ],
            window: SimDuration::from_secs(10),
            sender_cpu: CpuReport {
                per_core: vec![1.5, 0.0, 99.99999],
                app_pct: 101.5,
                irq_pct: 3.25,
                peak_core_pct: 99.99999,
            },
            receiver_cpu: CpuReport::zero(2),
            zc_fallback_fraction: 0.1 + 0.2,
            telemetry: None,
            attribution: None,
        }
    }

    fn reports_bit_identical(a: &Iperf3Report, b: &Iperf3Report) -> bool {
        encode_report(a) == encode_report(b)
    }

    #[test]
    fn payload_roundtrips_bit_exactly() {
        let r = report();
        let decoded = decode_report(&encode_report(&r)).expect("decode");
        assert!(reports_bit_identical(&r, &decoded));
        assert_eq!(decoded.command, r.command);
        assert_eq!(decoded.zc_fallback_fraction.to_bits(), r.zc_fallback_fraction.to_bits());
        assert_eq!(decoded.streams.len(), 2);
        assert!(decoded.streams[1].intervals.is_empty());
    }

    #[test]
    fn entry_roundtrips_through_header() {
        let r = report();
        let entry = encode_entry(&r, 1);
        let decoded = decode_entry(&entry, 1).expect("decode entry");
        assert!(reports_bit_identical(&r, &decoded));
    }

    #[test]
    fn truncated_entry_rejected() {
        let entry = encode_entry(&report(), 1);
        let truncated = &entry[..entry.len() - 7];
        assert_eq!(decode_entry(truncated, 1).unwrap_err(), CacheFault::Truncated);
    }

    #[test]
    fn bit_flipped_entry_rejected() {
        let entry = encode_entry(&report(), 1);
        // Flip one payload byte, keeping the length intact.
        let mut bytes = entry.into_bytes();
        let idx = bytes.len() - 10;
        bytes[idx] ^= 0x01;
        let flipped = String::from_utf8(bytes).expect("utf8");
        assert_eq!(decode_entry(&flipped, 1).unwrap_err(), CacheFault::Corrupt);
    }

    #[test]
    fn cost_model_version_mismatch_rejected() {
        let entry = encode_entry(&report(), 1);
        assert_eq!(decode_entry(&entry, 2).unwrap_err(), CacheFault::Stale);
        assert!(decode_entry(&entry, 1).is_ok());
    }

    #[test]
    fn garbage_rejected() {
        assert_eq!(decode_entry("", 1).unwrap_err(), CacheFault::Truncated);
        assert_eq!(decode_entry("not a cache file\n{}", 1).unwrap_err(), CacheFault::Corrupt);
        assert_eq!(
            decode_entry("dtnperf-cache schema=1\n{}", 1).unwrap_err(),
            CacheFault::Corrupt
        );
    }

    #[test]
    fn lookup_detail_counts_and_heals_faults() {
        let dir = std::env::temp_dir().join(format!("cache_heal_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cache = RunCache::new(&dir);
        let key = CacheKey { hi: 1, lo: 2 };
        let r = report();

        // Absent: clean miss, no fault counted.
        assert!(matches!(cache.lookup_detail(&key), Ok(None)));
        assert_eq!(cache.stats.recoveries(), 0);

        // Store, then truncate on disk: the fault is typed, counted,
        // and the entry self-heals on the next store.
        cache.store(&key, &r);
        let path = cache.entry_path(&key);
        let bytes = std::fs::read(&path).expect("entry written");
        std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
        assert!(matches!(cache.lookup_detail(&key), Err(CacheFault::Truncated)));
        assert_eq!(cache.stats.truncated_recoveries(), 1);
        assert_eq!(cache.stats.recoveries(), 1);

        cache.store(&key, &r);
        let healed = cache.lookup_detail(&key).expect("intact").expect("hit");
        assert!(reports_bit_identical(&r, &healed));
        assert_eq!(cache.stats.recoveries(), 1, "heal adds no new fault");
        std::fs::remove_dir_all(&dir).ok();
    }
}
