//! Content fingerprints for canonical problem/config identities.
//!
//! The exploration layers key persistent artifacts (sweep-store entries,
//! warm-start hints) by a *content fingerprint*: a 128-bit hash over a
//! canonical, platform-independent byte encoding of the inputs that determine
//! a result. Two design rules make the fingerprints stable enough to commit
//! to disk and compare across machines:
//!
//! * **Canonical serialization first.** Callers hash canonical strings (the
//!   hand-rolled wire-JSON encodings with their fixed field order and
//!   shortest-round-trip float formatting), never in-memory layouts. The
//!   hash therefore cannot depend on struct layout, pointer width, or
//!   endianness of the host.
//! * **Length-prefixed framing.** Every variable-length part is framed with
//!   its length before its bytes, so concatenation ambiguities (`"ab" + "c"`
//!   vs `"a" + "bc"`) produce different digests.
//!
//! The hash itself is FNV-1a/128 — not cryptographic, but collision-sparse
//! far beyond the population of any realistic sweep store, dependency-free,
//! and trivially reproducible in other languages.

use std::fmt;
use std::str::FromStr;

/// FNV-1a 128-bit offset basis.
const FNV_OFFSET_BASIS: u128 = 0x6c62272e07bb014262b821756295c58d;
/// FNV-1a 128-bit prime: 2^88 + 2^8 + 0x3b.
const FNV_PRIME: u128 = (1u128 << 88) + (1 << 8) + 0x3b;

/// A 128-bit content fingerprint.
///
/// Displays as (and parses from) 32 lowercase hex digits. The value is a pure
/// function of the bytes fed to the [`FingerprintHasher`] that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(u128);

impl Fingerprint {
    /// Reconstructs a fingerprint from its raw 128-bit value.
    pub const fn from_raw(raw: u128) -> Self {
        Fingerprint(raw)
    }

    /// Renders the fingerprint as 32 lowercase hex digits.
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// The first 8 hex digits — the human-scale abbreviation log lines and
    /// progress reports use (collision-sparse enough to scan by eye, never
    /// a substitute for the full digest as a key).
    pub fn short_hex(self) -> String {
        format!("{:08x}", self.0 >> 96)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Error returned when parsing a [`Fingerprint`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFingerprintError;

impl fmt::Display for ParseFingerprintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "expected exactly 32 lowercase hex digits")
    }
}

impl std::error::Error for ParseFingerprintError {}

impl FromStr for Fingerprint {
    type Err = ParseFingerprintError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.len() != 32 || !s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
            return Err(ParseFingerprintError);
        }
        let raw = u128::from_str_radix(s, 16).map_err(|_| ParseFingerprintError)?;
        Ok(Fingerprint(raw))
    }
}

/// Incremental FNV-1a/128 hasher producing [`Fingerprint`]s.
///
/// All multi-byte writes use explicit little-endian encodings and
/// length-prefixed framing, so the digest depends only on the logical
/// sequence of values written — never on the host platform.
#[derive(Debug, Clone)]
pub struct FingerprintHasher {
    state: u128,
}

impl Default for FingerprintHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl FingerprintHasher {
    /// Creates a hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        FingerprintHasher {
            state: FNV_OFFSET_BASIS,
        }
    }

    /// Absorbs raw bytes (no framing; frame variable-length data yourself or
    /// use [`FingerprintHasher::write_str`]).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u128::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a `u64` as 8 little-endian bytes.
    pub fn write_u64(&mut self, value: u64) {
        self.write_bytes(&value.to_le_bytes());
    }

    /// Absorbs a string with length-prefixed framing (`len` as u64, then the
    /// UTF-8 bytes).
    pub fn write_str(&mut self, value: &str) {
        self.write_u64(value.len() as u64);
        self.write_bytes(value.as_bytes());
    }

    /// Finalizes the digest.
    pub fn finish(&self) -> Fingerprint {
        Fingerprint(self.state)
    }

    /// A hasher that has absorbed everything [`Fingerprint::of_parts`]
    /// writes before the bytes of its last part, for the parts `whole`
    /// followed by one last part of `last_len` bytes. Writing that part's
    /// bytes (in any split) and finishing gives `of_parts`' digest, so
    /// callers whose last parts share a length and a prefix hash the shared
    /// bytes once and clone the hasher.
    pub fn before_last_part(version: u64, whole: &[&str], last_len: usize) -> Self {
        let mut hasher = FingerprintHasher::with_header(version, whole.len() + 1);
        for part in whole {
            hasher.write_str(part);
        }
        hasher.write_u64(last_len as u64);
        hasher
    }

    /// A hasher that has absorbed the version tag and the part count.
    fn with_header(version: u64, parts: usize) -> Self {
        let mut hasher = FingerprintHasher::new();
        hasher.write_u64(version);
        hasher.write_u64(parts as u64);
        hasher
    }
}

impl Fingerprint {
    /// Hashes a version tag plus an ordered sequence of canonical string
    /// parts. This is the standard entry point: `version` brackets the
    /// encoding revision, and every part is length-prefix framed.
    pub fn of_parts(version: u64, parts: &[&str]) -> Fingerprint {
        let Some((last, whole)) = parts.split_last() else {
            return FingerprintHasher::with_header(version, 0).finish();
        };
        let mut hasher = FingerprintHasher::before_last_part(version, whole, last.len());
        hasher.write_bytes(last.as_bytes());
        hasher.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_input_is_the_offset_basis() {
        let h = FingerprintHasher::new();
        assert_eq!(h.finish().to_hex(), "6c62272e07bb014262b821756295c58d");
    }

    #[test]
    fn known_vector_is_stable() {
        // Pinned digest: any change to the hash function, framing, or
        // endianness convention must show up as a test failure, because
        // committed sweep stores depend on it.
        let fp = Fingerprint::of_parts(1, &["alpha", "beta"]);
        assert_eq!(fp.to_hex(), "9a7be84621861e5523aa1fdb34592dd3");
    }

    #[test]
    fn an_empty_part_list_hashes_its_header_only() {
        let mut header = FingerprintHasher::new();
        header.write_u64(3);
        header.write_u64(0);
        assert_eq!(Fingerprint::of_parts(3, &[]), header.finish());
    }

    #[test]
    fn short_hex_is_the_leading_eight_digits() {
        let fp = Fingerprint::of_parts(1, &["alpha", "beta"]);
        assert_eq!(fp.short_hex(), &fp.to_hex()[..8]);
        assert_eq!(fp.short_hex().len(), 8);
        // Zero-padded: a small raw value still renders 8 digits.
        assert_eq!(Fingerprint::from_raw(0).short_hex(), "00000000");
    }

    #[test]
    fn hex_round_trip() {
        let fp = Fingerprint::of_parts(7, &["x"]);
        let parsed: Fingerprint = fp.to_hex().parse().unwrap();
        assert_eq!(parsed, fp);
    }

    #[test]
    fn parse_rejects_bad_strings() {
        assert!("".parse::<Fingerprint>().is_err());
        assert!("zz".parse::<Fingerprint>().is_err());
        // Uppercase is rejected: the canonical rendering is lowercase.
        assert!("6C62272E07BB014262B821756295C58D"
            .parse::<Fingerprint>()
            .is_err());
        // 31 and 33 digits.
        assert!("6c62272e07bb014262b821756295c58"
            .parse::<Fingerprint>()
            .is_err());
        assert!("6c62272e07bb014262b821756295c58dd"
            .parse::<Fingerprint>()
            .is_err());
    }

    #[test]
    fn framing_disambiguates_concatenation() {
        assert_ne!(
            Fingerprint::of_parts(1, &["ab", "c"]),
            Fingerprint::of_parts(1, &["a", "bc"])
        );
        assert_ne!(
            Fingerprint::of_parts(1, &["ab"]),
            Fingerprint::of_parts(1, &["ab", ""])
        );
    }

    #[test]
    fn version_is_part_of_the_digest() {
        assert_ne!(
            Fingerprint::of_parts(1, &["x"]),
            Fingerprint::of_parts(2, &["x"])
        );
    }

    proptest! {
        /// Hash stability: re-hashing identical logical input always gives
        /// the identical digest, however the bytes are sliced into
        /// `write_bytes` calls.
        #[test]
        fn digest_is_invariant_under_write_chunking(
            data in collection::vec((0usize..256).prop_map(|b| b as u8), 0usize..256),
            split in 0usize..256,
        ) {
            let mut whole = FingerprintHasher::new();
            whole.write_bytes(&data);

            let cut = split.min(data.len());
            let mut parts = FingerprintHasher::new();
            parts.write_bytes(&data[..cut]);
            parts.write_bytes(&data[cut..]);

            prop_assert_eq!(whole.finish(), parts.finish());
        }

        /// The hasher positioned before the last part, fed that part's bytes
        /// in any split, reproduces `of_parts` over the same parts.
        #[test]
        fn before_last_part_resumes_of_parts(
            whole in collection::vec(collection::vec(32usize..127, 0usize..12), 0usize..4),
            last in collection::vec(32usize..127, 0usize..64),
            split in 0usize..64,
            version in 0usize..4,
        ) {
            let text = |codes: &[usize]| codes.iter().map(|&c| char::from(c as u8)).collect::<String>();
            let whole: Vec<String> = whole.iter().map(|codes| text(codes)).collect();
            let last = text(&last);
            let mut parts: Vec<&str> = whole.iter().map(String::as_str).collect();

            let (head, tail) = last.as_bytes().split_at(split.min(last.len()));
            let mut resumed = FingerprintHasher::before_last_part(version as u64, &parts, last.len());
            resumed.write_bytes(head);
            resumed.write_bytes(tail);

            parts.push(&last);
            prop_assert_eq!(resumed.finish(), Fingerprint::of_parts(version as u64, &parts));
        }

        /// Distinct part lists give distinct digests (no accidental
        /// collisions on realistic short inputs).
        #[test]
        fn distinct_strings_give_distinct_digests(a in 0usize..100_000, b in 0usize..100_000) {
            let (sa, sb) = (format!("part-{a}"), format!("part-{b}"));
            prop_assert!(
                a == b || Fingerprint::of_parts(1, &[&sa]) != Fingerprint::of_parts(1, &[&sb]),
                "collision between {sa:?} and {sb:?}"
            );
        }

        /// Hex round-trip holds for arbitrary 128-bit values.
        #[test]
        fn hex_round_trip_holds(hi in 0usize..usize::MAX, lo in 0usize..usize::MAX) {
            let fp = Fingerprint::from_raw(((hi as u128) << 64) | lo as u128);
            prop_assert_eq!(fp.to_hex().parse::<Fingerprint>().unwrap(), fp);
        }
    }
}
