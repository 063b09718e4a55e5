//! Canonical serialization and stable fingerprints for configuration
//! values.
//!
//! The harness derives per-repetition seeds and content-addressed cache
//! keys from *what a scenario is*, not from where it sits in a loop.
//! That requires a serialization of the configuration that is stable
//! across refactors: a [`Canon`] collects `path = value` records
//! through the [`Canonicalize`] trait, then sorts them by path before
//! hashing or rendering — so the fingerprint does not change when a
//! struct's fields are reordered, and two scenarios canonicalize
//! identically iff they configure the same run.
//!
//! Hashing is 64-bit FNV-1a (std-only, stable by specification — no
//! dependency on `std::hash`'s unspecified per-release behaviour).
//! Floats are canonicalized through their IEEE-754 bit patterns, so
//! `0.1 + 0.2` and `0.30000000000000004` stay distinguishable and the
//! representation is exact.

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One step of FNV-1a over a byte slice, from a running state.
fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= b as u64;
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// SplitMix64 finalizer — used to mix fingerprints, base seeds and
/// stream indices into per-repetition seeds.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive the seed for repetition `stream` of a configuration with the
/// given fingerprint under a harness `base` seed.
///
/// The derivation is position-free: it depends only on the three
/// inputs, never on where the scenario sits in an experiment grid or
/// which loop iteration launched it, so adding a sibling scenario to a
/// figure cannot change another scenario's seeds.
pub fn derive_seed(fingerprint: u64, base: u64, stream: u64) -> u64 {
    mix64(fingerprint ^ mix64(base) ^ stream.wrapping_mul(0xA24B_AED4_963E_E407))
}

/// A collector of canonical `path = value` records.
///
/// Values are keyed by a dotted path (`"opts.parallel"`,
/// `"client.sysctl.optmem_max"`). Records are sorted by path before
/// hashing/rendering, so the order fields are *pushed* in — i.e. the
/// order they happen to be declared in a struct — does not matter.
/// Duplicate paths are rejected (they would silently alias two fields).
#[derive(Debug, Default)]
pub struct Canon {
    prefix: String,
    records: Vec<(String, String)>,
}

impl Canon {
    /// An empty collector.
    pub fn new() -> Self {
        Canon::default()
    }

    fn push(&mut self, key: &str, value: String) {
        let path = if self.prefix.is_empty() {
            key.to_string()
        } else {
            format!("{}.{key}", self.prefix)
        };
        debug_assert!(
            !self.records.iter().any(|(p, _)| *p == path),
            "duplicate canonical path '{path}'"
        );
        self.records.push((path, value));
    }

    /// Record an unsigned integer field.
    pub fn put_u64(&mut self, key: &str, value: u64) {
        self.push(key, value.to_string());
    }

    /// Record a boolean field.
    pub fn put_bool(&mut self, key: &str, value: bool) {
        self.push(key, value.to_string());
    }

    /// Record a float field, exactly, via its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, key: &str, value: f64) {
        self.push(key, format!("f{:016x}", value.to_bits()));
    }

    /// Record a string-ish field (enum token, name). The value is
    /// escaped into one line so rendered canonical text stays parseable.
    pub fn put_str(&mut self, key: &str, value: &str) {
        self.push(key, format!("{:?}", value));
    }

    /// Record a nested value under `key.` — used for struct fields.
    pub fn scope(&mut self, key: &str, f: impl FnOnce(&mut Canon)) {
        let saved = self.prefix.clone();
        self.prefix = if saved.is_empty() {
            key.to_string()
        } else {
            format!("{saved}.{key}")
        };
        f(self);
        self.prefix = saved;
    }

    /// Record each element of a sequence under `key[i]`.
    pub fn put_seq(&mut self, key: &str, items: &[&dyn Canonicalize]) {
        // Length first, so [a] + [] and [] + [a] under adjacent keys
        // cannot collide.
        self.put_u64(&format!("{key}#len"), items.len() as u64);
        for (i, item) in items.iter().enumerate() {
            self.scope(&format!("{key}[{i}]"), |c| item.canonicalize(c));
        }
    }

    /// Record a sequence of integers (core lists and the like).
    pub fn put_u64_seq(&mut self, key: &str, items: &[u64]) {
        let rendered: Vec<String> = items.iter().map(u64::to_string).collect();
        self.push(key, format!("[{}]", rendered.join(",")));
    }

    /// The canonical text: one sorted `path = value` line per record.
    pub fn render(&self) -> String {
        let mut sorted: Vec<&(String, String)> = self.records.iter().collect();
        sorted.sort();
        let mut out = String::new();
        for (path, value) in sorted {
            out.push_str(path);
            out.push_str(" = ");
            out.push_str(value);
            out.push('\n');
        }
        out
    }

    /// The 64-bit FNV-1a fingerprint of the canonical text.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(FNV_OFFSET, self.render().as_bytes())
    }

    /// A second, independent 64-bit hash (FNV-1a over the reversed
    /// text). Cache keys combine both into 128 bits so that a random
    /// collision is out of reach for any realistic grid size.
    pub fn fingerprint_alt(&self) -> u64 {
        let text = self.render();
        let mut state = fnv1a(FNV_OFFSET ^ 0x5bd1_e995_9e37_79b9, text.as_bytes());
        state = fnv1a(state, &[0xff]);
        fnv1a(state, text.len().to_le_bytes().as_slice())
    }
}

/// Hash arbitrary bytes with 64-bit FNV-1a (checksums for cache
/// entries).
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, bytes)
}

/// A configuration value with a canonical serialization.
///
/// Implementations enumerate every *semantically meaningful* field —
/// anything that changes the simulated outcome. Display-only fields
/// (labels, host display names) are deliberately excluded so renaming
/// a scenario does not re-seed or re-simulate it.
pub trait Canonicalize {
    /// Record this value's fields into `c`.
    fn canonicalize(&self, c: &mut Canon);

    /// Convenience: this value's standalone fingerprint.
    fn canon_fingerprint(&self) -> u64 {
        let mut c = Canon::new();
        self.canonicalize(&mut c);
        c.fingerprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Pair {
        a: u64,
        b: f64,
    }

    impl Canonicalize for Pair {
        fn canonicalize(&self, c: &mut Canon) {
            c.put_u64("a", self.a);
            c.put_f64("b", self.b);
        }
    }

    #[test]
    fn fingerprint_is_field_order_invariant() {
        let mut fwd = Canon::new();
        fwd.put_u64("a", 1);
        fwd.put_f64("b", 2.5);
        fwd.put_str("c", "x");
        let mut rev = Canon::new();
        rev.put_str("c", "x");
        rev.put_f64("b", 2.5);
        rev.put_u64("a", 1);
        assert_eq!(fwd.render(), rev.render());
        assert_eq!(fwd.fingerprint(), rev.fingerprint());
        assert_eq!(fwd.fingerprint_alt(), rev.fingerprint_alt());
    }

    #[test]
    fn fingerprint_distinguishes_values_and_paths() {
        let fp = |k: &str, v: u64| {
            let mut c = Canon::new();
            c.put_u64(k, v);
            c.fingerprint()
        };
        assert_ne!(fp("a", 1), fp("a", 2));
        assert_ne!(fp("a", 1), fp("b", 1));
    }

    #[test]
    fn floats_canonicalize_by_bits() {
        let mut a = Canon::new();
        a.put_f64("x", 0.1 + 0.2);
        let mut b = Canon::new();
        b.put_f64("x", 0.3);
        // 0.1+0.2 != 0.3 in IEEE-754; the canonical forms must differ.
        assert_ne!(a.render(), b.render());
        let mut c = Canon::new();
        c.put_f64("x", -0.0);
        let mut d = Canon::new();
        d.put_f64("x", 0.0);
        assert_ne!(c.render(), d.render(), "signed zero is a distinct config");
    }

    #[test]
    fn scopes_nest_and_restore() {
        let mut c = Canon::new();
        c.scope("outer", |c| {
            c.put_u64("x", 1);
            c.scope("inner", |c| c.put_u64("y", 2));
        });
        c.put_u64("z", 3);
        let text = c.render();
        assert!(text.contains("outer.x = 1"));
        assert!(text.contains("outer.inner.y = 2"));
        assert!(text.starts_with("outer."), "sorted: {text}");
        assert!(text.ends_with("z = 3\n"));
    }

    #[test]
    fn sequences_record_length_and_elements() {
        let mut c = Canon::new();
        let items: Vec<&dyn Canonicalize> =
            vec![&Pair { a: 1, b: 0.5 }, &Pair { a: 2, b: 1.5 }];
        c.put_seq("pairs", &items);
        let text = c.render();
        assert!(text.contains("pairs#len = 2"));
        assert!(text.contains("pairs[0].a = 1"));
        assert!(text.contains("pairs[1].a = 2"));
        let mut empty = Canon::new();
        empty.put_seq("pairs", &[]);
        assert!(empty.render().contains("pairs#len = 0"));
    }

    #[test]
    fn derive_seed_depends_on_all_inputs_only() {
        let s = derive_seed(0xdead_beef, 1000, 0);
        assert_eq!(s, derive_seed(0xdead_beef, 1000, 0), "pure function");
        assert_ne!(s, derive_seed(0xdead_beef, 1000, 1), "stream matters");
        assert_ne!(s, derive_seed(0xdead_beef, 1001, 0), "base matters");
        assert_ne!(s, derive_seed(0xdead_bee0, 1000, 0), "fingerprint matters");
    }

    #[test]
    fn derive_seed_streams_are_spread() {
        // Consecutive streams must not produce near-identical seeds the
        // way `base + i` did.
        let seeds: Vec<u64> = (0..64).map(|i| derive_seed(7, 1000, i)).collect();
        let mut sorted = seeds.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 64, "no collisions across streams");
        for w in seeds.windows(2) {
            assert!(w[0].abs_diff(w[1]) > 1 << 20, "seeds not clustered");
        }
    }

    #[test]
    fn fnv_vector() {
        // Published FNV-1a test vector: "foobar" -> 0x85944171f73967e8.
        assert_eq!(fnv1a_64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
