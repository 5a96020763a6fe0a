//! Hardened decoding of untrusted bytes: the typed error taxonomy, the
//! allocation/size limits every reader shares, and the seedable corpus
//! mutator the differential tests feed them with.
//!
//! Every persistent format in the system — the `.mcb` binary scenario
//! wire, the sparse/dense JSON instance wires, the crc32-framed JSONL
//! event log, and the `serve.ckpt` snapshot file — decodes bytes it did
//! not write. A bit-rotted disk, a crashed writer, or a hostile peer can
//! hand any of them garbage, and the contract here is uniform: decoding
//! yields a typed [`DecodeError`] naming the byte offset and the
//! violated rule, or (for append-only streams) a salvaged valid prefix —
//! never a panic, an unbounded allocation, or silent garbage.
//!
//! The two load-bearing rules:
//!
//! * **declared-vs-actual**: a length prefix is only trusted after it is
//!   checked against the bytes that actually remain
//!   ([`check_declared_len`]) and against an absolute sanity cap
//!   ([`DecodeLimits`]) — so a forged 2⁶⁰-byte section header is a named
//!   error, not a 2⁶⁰-byte `Vec::reserve`;
//! * **bounded salvage**: stream formats recover the longest prefix that
//!   passes framing, checksum, and schema checks, and report why the
//!   tail was dropped with its byte offset.
//!
//! See DESIGN.md §15 for the full threat model.

use std::path::Path;

use mcast_core::splitmix64;

/// What class of rule a decoder caught the input violating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeErrorKind {
    /// The underlying file could not be read at all.
    Io,
    /// The input ended before the bytes its framing promised.
    Truncated,
    /// The leading magic/version marker is wrong — not this format.
    BadMagic,
    /// Structural framing is broken (wrong tag, misaligned records,
    /// malformed envelope).
    Framing,
    /// A checksum did not match its payload.
    Checksum,
    /// A declared length or count exceeds what remains in the file or an
    /// absolute sanity cap — the length-prefix-inflation guard.
    LimitExceeded,
    /// Bytes decoded structurally but carry an invalid value (bad enum
    /// byte, non-positive denominator, inconsistent counts, …).
    BadValue,
}

impl DecodeErrorKind {
    /// The kind as a short stable label (used in error text and logs).
    pub fn label(self) -> &'static str {
        match self {
            DecodeErrorKind::Io => "io",
            DecodeErrorKind::Truncated => "truncated",
            DecodeErrorKind::BadMagic => "bad-magic",
            DecodeErrorKind::Framing => "framing",
            DecodeErrorKind::Checksum => "checksum",
            DecodeErrorKind::LimitExceeded => "limit-exceeded",
            DecodeErrorKind::BadValue => "bad-value",
        }
    }
}

/// A decoding failure with byte-offset provenance: which rule broke,
/// where in the input, and a human-readable account.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// The violated rule class.
    pub kind: DecodeErrorKind,
    /// Byte offset into the input where the violation was detected.
    pub offset: u64,
    /// What went wrong, human-readable.
    pub what: String,
}

impl DecodeError {
    /// Builds a decode error at `offset`.
    pub fn new(kind: DecodeErrorKind, offset: u64, what: impl Into<String>) -> DecodeError {
        DecodeError {
            kind,
            offset,
            what: what.into(),
        }
    }

    /// Wraps a filesystem error (no meaningful offset).
    pub fn io(path: &Path, e: &std::io::Error) -> DecodeError {
        DecodeError::new(
            DecodeErrorKind::Io,
            0,
            format!("cannot read {}: {e}", path.display()),
        )
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "decode error [{}] at byte {}: {}",
            self.kind.label(),
            self.offset,
            self.what
        )
    }
}

impl std::error::Error for DecodeError {}

/// Absolute sanity caps for untrusted input. The primary defense against
/// length-prefix inflation is checking declared lengths against the
/// bytes that actually remain; these caps are the backstop for formats
/// or fields where "remaining bytes" is not a tight bound.
#[derive(Debug, Clone, Copy)]
pub struct DecodeLimits {
    /// Largest payload one framed section may declare.
    pub max_section_bytes: u64,
    /// Largest single record/line in a JSONL stream. Bounds the JSON
    /// parse work and allocation a corrupt line can demand.
    pub max_record_bytes: u64,
    /// Largest whole scenario/JSON document a loader will read.
    pub max_document_bytes: u64,
}

impl Default for DecodeLimits {
    fn default() -> DecodeLimits {
        DecodeLimits {
            // The link arena of a 16M-user scenario is ~2 GiB; leave
            // generous headroom while still rejecting absurd headers.
            max_section_bytes: 64 << 30,
            max_record_bytes: 64 << 20,
            max_document_bytes: 64 << 30,
        }
    }
}

impl DecodeLimits {
    /// Deliberately tiny caps for tests that want to watch the limits
    /// fire without multi-gigabyte fixtures.
    pub fn strict_small() -> DecodeLimits {
        DecodeLimits {
            max_section_bytes: 1 << 16,
            max_record_bytes: 1 << 12,
            max_document_bytes: 1 << 20,
        }
    }
}

/// Largest single journal/snapshot line the stream replayers accept
/// ([`DecodeLimits::max_record_bytes`] of the default limits). A longer
/// line ends the valid prefix with a named tail reason.
pub const MAX_RECORD_BYTES: u64 = 64 << 20;

/// The declared-vs-actual guard: a section/field that declares
/// `declared` payload bytes at `offset` is rejected when the declaration
/// exceeds the `remaining` bytes of input or the absolute `cap`.
///
/// # Errors
///
/// [`DecodeErrorKind::LimitExceeded`] naming the declaration, the bound
/// it broke, and the offset of the declaring header.
pub fn check_declared_len(
    declared: u64,
    remaining: u64,
    cap: u64,
    offset: u64,
    what: &str,
) -> Result<(), DecodeError> {
    if declared > cap {
        return Err(DecodeError::new(
            DecodeErrorKind::LimitExceeded,
            offset,
            format!("{what} declares {declared} bytes, above the {cap}-byte cap"),
        ));
    }
    if declared > remaining {
        return Err(DecodeError::new(
            DecodeErrorKind::LimitExceeded,
            offset,
            format!("{what} declares {declared} bytes but only {remaining} remain in the file"),
        ));
    }
    Ok(())
}

/// One corruption class the corpus mutator can apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Flip one random bit.
    BitFlip,
    /// Cut the input at a random offset (a torn write).
    Truncate,
    /// Overwrite 8 random bytes with an enormous little-endian value —
    /// lands on a length prefix often enough to exercise the
    /// declared-vs-actual guard, and is garbage everywhere else.
    LengthInflate,
    /// Swap two random same-length blocks (section reordering and
    /// record shuffling both reduce to this at the byte level).
    Reorder,
    /// Corrupt a payload byte *and* patch a checksum so the framing
    /// layer passes — only semantic validation can catch it. The generic
    /// form targets the journal line framing
    /// (`<crc32-hex8> <payload>\n`); format-specific forgeries (e.g.
    /// `.mcb` section trailers) live with their format's tests.
    CrcForge,
}

/// Every mutation class, for exhaustive corpus sweeps.
pub const ALL_MUTATIONS: [Mutation; 5] = [
    Mutation::BitFlip,
    Mutation::Truncate,
    Mutation::LengthInflate,
    Mutation::Reorder,
    Mutation::CrcForge,
];

impl Mutation {
    /// A stable lowercase name (corpus fixture file names use it).
    pub fn name(self) -> &'static str {
        match self {
            Mutation::BitFlip => "bitflip",
            Mutation::Truncate => "truncate",
            Mutation::LengthInflate => "inflate",
            Mutation::Reorder => "reorder",
            Mutation::CrcForge => "crcforge",
        }
    }
}

/// Applies `mutation` to a copy of `bytes`, deterministically from
/// `seed`. The output is a corrupted variant a decoder must survive:
/// return a typed error, or decode to something that passes the
/// format's own validation — never panic or over-allocate.
pub fn mutate(bytes: &[u8], mutation: Mutation, seed: u64) -> Vec<u8> {
    let mut s = seed;
    let mut out = bytes.to_vec();
    if out.is_empty() {
        return out;
    }
    match mutation {
        Mutation::BitFlip => {
            let pos = (splitmix64(&mut s) % out.len() as u64) as usize;
            let bit = (splitmix64(&mut s) % 8) as u8;
            out[pos] ^= 1 << bit;
        }
        Mutation::Truncate => {
            let cut = (splitmix64(&mut s) % out.len() as u64) as usize;
            out.truncate(cut);
        }
        Mutation::LengthInflate => {
            if out.len() >= 8 {
                let pos = (splitmix64(&mut s) % (out.len() as u64 - 7)) as usize;
                let huge: u64 = (1 << 60) | (splitmix64(&mut s) % (1 << 40));
                out[pos..pos + 8].copy_from_slice(&huge.to_le_bytes());
            } else {
                out.fill(0xFF);
            }
        }
        Mutation::Reorder => {
            let len = out.len();
            let block = ((splitmix64(&mut s) % (len as u64 / 2).max(1)) + 1) as usize;
            let a = (splitmix64(&mut s) % (len - block + 1) as u64) as usize;
            let b = (splitmix64(&mut s) % (len - block + 1) as u64) as usize;
            if a.abs_diff(b) >= block {
                let (lo, hi) = (a.min(b), a.max(b));
                let (left, right) = out.split_at_mut(hi);
                left[lo..lo + block].swap_with_slice(&mut right[..block]);
            } else {
                out.rotate_left(block.min(len));
            }
        }
        Mutation::CrcForge => forge_journal_line(&mut out, &mut s),
    }
    out
}

/// Picks a random journal-framed line, corrupts one payload byte, and
/// rewrites the line's crc32 hex prefix so the checksum holds — the
/// framing layer now vouches for garbage, and only schema/semantic
/// validation stands between the file and the caller.
fn forge_journal_line(bytes: &mut [u8], s: &mut u64) {
    let lines: Vec<(usize, usize)> = {
        let mut spans = Vec::new();
        let mut start = 0usize;
        for (i, &b) in bytes.iter().enumerate() {
            if b == b'\n' {
                if i > start + 10 {
                    spans.push((start, i));
                }
                start = i + 1;
            }
        }
        spans
    };
    if lines.is_empty() {
        // Not line-framed input: degrade to a bit flip.
        let pos = (splitmix64(s) % bytes.len() as u64) as usize;
        bytes[pos] ^= 0x01;
        return;
    }
    let (start, end) = lines[(splitmix64(s) % lines.len() as u64) as usize];
    let payload_start = start + 9;
    if payload_start >= end {
        return;
    }
    let pos = payload_start + (splitmix64(s) % (end - payload_start) as u64) as usize;
    bytes[pos] ^= 0x04;
    let crc = crate::journal::crc32(&bytes[payload_start..end]);
    let hex = format!("{crc:08x}");
    bytes[start..start + 8].copy_from_slice(hex.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_carries_kind_and_offset() {
        let e = DecodeError::new(DecodeErrorKind::Checksum, 1234, "section 8 mismatch");
        let s = e.to_string();
        assert!(s.contains("[checksum]"), "{s}");
        assert!(s.contains("byte 1234"), "{s}");
        assert!(s.contains("section 8"), "{s}");
    }

    #[test]
    fn declared_len_guard_fires_on_inflation_and_caps() {
        // Fits: fine.
        assert!(check_declared_len(100, 200, 1000, 4, "section 2").is_ok());
        // More than remains in the file.
        let e = check_declared_len(300, 200, 1000, 4, "section 2").unwrap_err();
        assert_eq!(e.kind, DecodeErrorKind::LimitExceeded);
        assert!(e.to_string().contains("only 200 remain"), "{e}");
        // Above the absolute cap, even if the file claimed to be huge.
        let e = check_declared_len(2000, u64::MAX, 1000, 4, "section 2").unwrap_err();
        assert!(e.to_string().contains("cap"), "{e}");
        assert_eq!(e.offset, 4);
    }

    #[test]
    fn mutations_are_deterministic_per_seed() {
        let base: Vec<u8> = (0..=255u8).cycle().take(1024).collect();
        for m in ALL_MUTATIONS {
            let a = mutate(&base, m, 42);
            let b = mutate(&base, m, 42);
            assert_eq!(a, b, "{m:?} not deterministic");
            if m != Mutation::Truncate {
                assert_eq!(a.len(), base.len(), "{m:?} changed length");
            }
            let c = mutate(&base, m, 43);
            // Different seeds *usually* differ; at minimum nothing panics.
            let _ = c;
        }
    }

    #[test]
    fn bitflip_changes_exactly_one_bit() {
        let base = vec![0u8; 64];
        let flipped = mutate(&base, Mutation::BitFlip, 7);
        let ones: u32 = flipped.iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 1);
    }

    #[test]
    fn crc_forge_keeps_the_frame_checksum_valid() {
        let payload = "{\"n\":1}";
        let line = format!(
            "{:08x} {payload}\n",
            crate::journal::crc32(payload.as_bytes())
        );
        let doc = line.repeat(4).into_bytes();
        let forged = mutate(&doc, Mutation::CrcForge, 3);
        assert_ne!(forged, doc, "forgery must change the payload");
        // The framing layer must NOT be what catches this: any dropped
        // tail is a JSON/schema rejection, never a checksum mismatch.
        let replay = crate::journal::replay_raw_bytes(&forged);
        if let Some(reason) = &replay.tail_reason {
            assert!(!reason.contains("checksum"), "{reason}");
        }
    }

    #[test]
    fn mutating_empty_input_is_a_no_op() {
        for m in ALL_MUTATIONS {
            assert!(mutate(&[], m, 1).is_empty());
        }
    }
}
