//! `.mcb` — the compact binary scenario format (`mcast binary, v1`).
//!
//! JSON is the interchange format, but at million-user scale the sparse
//! JSON wire still renders every link as text through an in-memory value
//! tree. `.mcb` serializes the same [`Scenario`] as flat little-endian
//! arrays — a direct dump of the CSR arenas — streamed through a small
//! constant-size buffer in both directions, so writing or loading a
//! 2M-user scenario never allocates more than the arenas themselves.
//!
//! ## Layout
//!
//! A 4-byte magic (`MCB` + format version byte) followed by sections,
//! each framed exactly like the event journal's records
//! (`crates/events`): a tag byte, a little-endian `u64` payload length,
//! the payload, and the payload's CRC-32 (same polynomial and
//! reflection as [`mcast_events::journal::crc32`] — the reader
//! cross-checks with that very function). Sections appear in a fixed
//! order and end with an empty `END` section:
//!
//! | tag | payload |
//! |-----|---------|
//! | 1 `CONFIG`   | the [`ScenarioConfig`] as JSON bytes |
//! | 2 `SESSIONS` | `u32` stream rate (kbps) per session |
//! | 3 `BUDGETS`  | `i64` numerator, `i64` denominator per AP |
//! | 4 `RATES`    | `u32` per supported rate |
//! | 5 `POLICY`   | one byte: 0 = multi-rate, 1 = basic-only |
//! | 6 `USERS`    | `u32` session index per user |
//! | 7 `USER_OFF` | `u32` × (users + 1), the CSR row offsets |
//! | 8 `LINKS`    | `u32` AP, `u32` rate, `i64` signal per link |
//! | 9 `AP_POS`   | `f64` x, `f64` y per AP |
//! | 10 `USER_POS`| `f64` x, `f64` y per user |
//! | 255 `END`    | empty |
//!
//! Signals use `i64::MIN` as the "absent" sentinel, exactly as the CSR
//! arena does in memory. The reader validates every CRC, then rebuilds
//! the instance through [`Instance::from_csr`], which re-checks all
//! structural invariants — a corrupted-but-CRC-valid file still cannot
//! produce an invalid [`Scenario`].

use std::fs::{self, File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use mcast_core::{ApId, Instance, Kbps, Load, RatePolicy, SessionId, SessionSpec, UserSpec};
use mcast_events::{check_declared_len, DecodeError, DecodeErrorKind, DecodeLimits};

use crate::geometry::Point;
use crate::scenario::{Scenario, ScenarioConfig};

/// File magic: `MCB` plus the format version byte.
pub const MCB_MAGIC: [u8; 4] = *b"MCB\x01";

const TAG_CONFIG: u8 = 1;
const TAG_SESSIONS: u8 = 2;
const TAG_BUDGETS: u8 = 3;
const TAG_RATES: u8 = 4;
const TAG_POLICY: u8 = 5;
const TAG_USERS: u8 = 6;
const TAG_USER_OFF: u8 = 7;
const TAG_LINKS: u8 = 8;
const TAG_AP_POS: u8 = 9;
const TAG_USER_POS: u8 = 10;
const TAG_END: u8 = 255;

/// Incremental CRC-32 with the journal's polynomial (IEEE 802.3,
/// reflected): feeding the whole payload at once yields exactly
/// [`mcast_events::journal::crc32`] — pinned by a unit test below — but
/// this form lets the writer checksum a section while streaming it.
struct Crc32(u32);

impl Crc32 {
    fn new() -> Crc32 {
        Crc32(!0)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u32::from(b);
            for _ in 0..8 {
                let mask = (self.0 & 1).wrapping_neg();
                self.0 = (self.0 >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
    }

    fn finish(self) -> u32 {
        !self.0
    }
}

/// One framed section going out: accumulates the CRC as payload bytes
/// pass through, so the writer never holds a section in memory.
struct SectionWriter<'a, W: Write> {
    out: &'a mut W,
    crc: Crc32,
    written: u64,
    declared: u64,
}

impl<'a, W: Write> SectionWriter<'a, W> {
    fn begin(out: &'a mut W, tag: u8, len: u64) -> std::io::Result<SectionWriter<'a, W>> {
        out.write_all(&[tag])?;
        out.write_all(&len.to_le_bytes())?;
        Ok(SectionWriter {
            out,
            crc: Crc32::new(),
            written: 0,
            declared: len,
        })
    }

    fn put(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.crc.update(bytes);
        self.written += bytes.len() as u64;
        self.out.write_all(bytes)
    }

    fn end(self) -> std::io::Result<()> {
        assert_eq!(
            self.written, self.declared,
            "section length mismatch (writer bug)"
        );
        self.out.write_all(&self.crc.finish().to_le_bytes())
    }
}

fn io_err(path: &Path, what: &str, e: &std::io::Error) -> String {
    format!("{what} {}: {e}", path.display())
}

/// Writes `scenario` to `path` in the `.mcb` format, atomically: the
/// bytes stream into a same-directory temp file (fsynced), which is then
/// renamed over the destination — the same protocol as the event
/// journal's `atomic_write`, without ever materializing the file in
/// memory.
///
/// # Errors
///
/// I/O failures, or a budget whose reduced fraction overflows `i64`
/// (unreachable for generated scenarios; budgets are permille ratios).
pub fn write_mcb(scenario: &Scenario, path: &Path) -> Result<(), String> {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    fs::create_dir_all(&dir).map_err(|e| io_err(&dir, "cannot create", &e))?;
    // Per-process temp name, as `atomic_write` uses: two processes writing
    // the same destination never rename away each other's temp file.
    let tmp = dir.join(format!(
        ".{}.tmp.{}",
        path.file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("scenario.mcb"),
        std::process::id()
    ));
    let result = (|| {
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)
            .map_err(|e| io_err(&tmp, "cannot create", &e))?;
        let mut w = BufWriter::with_capacity(1 << 20, file);
        write_mcb_into(scenario, &mut w).map_err(|e| io_err(&tmp, "cannot write", &e))?;
        let file = w
            .into_inner()
            .map_err(|e| io_err(&tmp, "cannot flush", &e.into_error()))?;
        file.sync_all()
            .map_err(|e| io_err(&tmp, "cannot sync", &e))?;
        drop(file);
        fs::rename(&tmp, path).map_err(|e| io_err(path, "cannot rename into", &e))
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    } else if let Ok(d) = File::open(&dir) {
        let _ = d.sync_all();
    }
    result
}

fn write_mcb_into<W: Write>(scenario: &Scenario, w: &mut W) -> std::io::Result<()> {
    let (sessions, users, budgets, user_off, user_adj, user_sig, rates, rate_policy) =
        scenario.instance.csr_parts();

    w.write_all(&MCB_MAGIC)?;

    let config_json = serde_json::to_string(&scenario.config)
        .map_err(|e| std::io::Error::other(format!("config serialization: {e}")))?;
    let mut s = SectionWriter::begin(w, TAG_CONFIG, config_json.len() as u64)?;
    s.put(config_json.as_bytes())?;
    s.end()?;

    let mut s = SectionWriter::begin(w, TAG_SESSIONS, 4 * sessions.len() as u64)?;
    for spec in sessions {
        s.put(&spec.rate.0.to_le_bytes())?;
    }
    s.end()?;

    let mut s = SectionWriter::begin(w, TAG_BUDGETS, 16 * budgets.len() as u64)?;
    for b in budgets {
        let num = i64::try_from(b.numer())
            .map_err(|_| std::io::Error::other("budget numerator overflows i64"))?;
        let den = i64::try_from(b.denom())
            .map_err(|_| std::io::Error::other("budget denominator overflows i64"))?;
        s.put(&num.to_le_bytes())?;
        s.put(&den.to_le_bytes())?;
    }
    s.end()?;

    let mut s = SectionWriter::begin(w, TAG_RATES, 4 * rates.len() as u64)?;
    for r in rates {
        s.put(&r.0.to_le_bytes())?;
    }
    s.end()?;

    let mut s = SectionWriter::begin(w, TAG_POLICY, 1)?;
    s.put(&[match rate_policy {
        RatePolicy::MultiRate => 0,
        RatePolicy::BasicOnly => 1,
    }])?;
    s.end()?;

    let mut s = SectionWriter::begin(w, TAG_USERS, 4 * users.len() as u64)?;
    for u in users {
        s.put(&u.session.0.to_le_bytes())?;
    }
    s.end()?;

    let mut s = SectionWriter::begin(w, TAG_USER_OFF, 4 * user_off.len() as u64)?;
    for off in user_off {
        s.put(&off.to_le_bytes())?;
    }
    s.end()?;

    let mut s = SectionWriter::begin(w, TAG_LINKS, 16 * user_adj.len() as u64)?;
    for (&(a, r), &sig) in user_adj.iter().zip(user_sig) {
        s.put(&a.0.to_le_bytes())?;
        s.put(&r.0.to_le_bytes())?;
        s.put(&sig.to_le_bytes())?;
    }
    s.end()?;

    let mut s = SectionWriter::begin(w, TAG_AP_POS, 16 * scenario.ap_positions.len() as u64)?;
    for p in &scenario.ap_positions {
        s.put(&p.x.to_le_bytes())?;
        s.put(&p.y.to_le_bytes())?;
    }
    s.end()?;

    let mut s = SectionWriter::begin(w, TAG_USER_POS, 16 * scenario.user_positions.len() as u64)?;
    for p in &scenario.user_positions {
        s.put(&p.x.to_le_bytes())?;
        s.put(&p.y.to_le_bytes())?;
    }
    s.end()?;

    let s = SectionWriter::begin(w, TAG_END, 0)?;
    s.end()?;
    w.flush()
}

/// The cursor a `.mcb` read threads through every section: the absolute
/// byte offset (for [`DecodeError`] provenance), the total file length
/// (so a declared section length is checked against what actually
/// remains — the length-prefix-inflation guard), and the caps.
struct McbCursor {
    offset: u64,
    file_len: u64,
    limits: DecodeLimits,
}

/// One framed section coming in: hands the payload to `decode` in
/// bounded chunks while accumulating the CRC, then checks it against the
/// trailer — so even the link arena of a million-user file flows through
/// a 1 MiB buffer. The declared length is validated against the
/// remaining file bytes *before* any payload is read, so a forged
/// header is a named error, not a stall or an allocation.
fn read_section<R: Read>(
    r: &mut R,
    cur: &mut McbCursor,
    expect_tag: u8,
    mut decode: impl FnMut(&[u8]) -> Result<(), String>,
) -> Result<(), DecodeError> {
    let header_off = cur.offset;
    let mut head = [0u8; 9];
    r.read_exact(&mut head).map_err(|e| {
        DecodeError::new(
            DecodeErrorKind::Truncated,
            header_off,
            format!("truncated header of section {expect_tag}: {e}"),
        )
    })?;
    let tag = head[0];
    if tag != expect_tag {
        return Err(DecodeError::new(
            DecodeErrorKind::Framing,
            header_off,
            format!("expected section {expect_tag}, found {tag}"),
        ));
    }
    let len = u64::from_le_bytes(head[1..9].try_into().expect("8 bytes"));
    cur.offset += 9;
    // Payload plus its 4-byte CRC trailer must fit in what remains.
    let remaining = cur.file_len.saturating_sub(cur.offset).saturating_sub(4);
    check_declared_len(
        len,
        remaining,
        cur.limits.max_section_bytes,
        header_off,
        &format!("section {tag}"),
    )?;
    let mut crc = Crc32::new();
    let mut remaining = len;
    let mut buf = vec![0u8; (1 << 20).min(len.max(1)) as usize];
    while remaining > 0 {
        let take = remaining.min(buf.len() as u64) as usize;
        r.read_exact(&mut buf[..take]).map_err(|e| {
            DecodeError::new(
                DecodeErrorKind::Truncated,
                cur.offset,
                format!("truncated payload of section {tag}: {e}"),
            )
        })?;
        crc.update(&buf[..take]);
        decode(&buf[..take])
            .map_err(|what| DecodeError::new(DecodeErrorKind::Framing, cur.offset, what))?;
        cur.offset += take as u64;
        remaining -= take as u64;
    }
    let mut trailer = [0u8; 4];
    r.read_exact(&mut trailer).map_err(|e| {
        DecodeError::new(
            DecodeErrorKind::Truncated,
            cur.offset,
            format!("truncated checksum of section {tag}: {e}"),
        )
    })?;
    let got = crc.finish();
    let want = u32::from_le_bytes(trailer);
    if got != want {
        return Err(DecodeError::new(
            DecodeErrorKind::Checksum,
            cur.offset,
            format!("section {tag} checksum mismatch: computed {got:#010x}, stored {want:#010x}"),
        ));
    }
    cur.offset += 4;
    Ok(())
}

/// Collects a section whose payload is a flat array of fixed-size
/// records. Chunk boundaries land on record boundaries because the
/// buffer size is a multiple of every record size used here (1, 4, 16).
/// Allocation stays bounded by the declared length, which
/// [`read_section`] has already checked against the file's actual size.
fn read_records<R: Read, T>(
    r: &mut R,
    cur: &mut McbCursor,
    tag: u8,
    record: usize,
    mut parse: impl FnMut(&[u8]) -> T,
) -> Result<Vec<T>, DecodeError> {
    let mut out = Vec::new();
    read_section(r, cur, tag, |chunk| {
        if chunk.len() % record != 0 {
            return Err(format!("section {tag}: payload not a multiple of {record}"));
        }
        out.reserve(chunk.len() / record);
        for rec in chunk.chunks_exact(record) {
            out.push(parse(rec));
        }
        Ok(())
    })?;
    Ok(out)
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b.try_into().expect("4 bytes"))
}

fn le_i64(b: &[u8]) -> i64 {
    i64::from_le_bytes(b.try_into().expect("8 bytes"))
}

fn le_f64(b: &[u8]) -> f64 {
    f64::from_le_bytes(b.try_into().expect("8 bytes"))
}

/// Reads a `.mcb` file back into a [`Scenario`] with the default
/// [`DecodeLimits`].
///
/// # Errors
///
/// A typed [`DecodeError`] with byte-offset provenance: I/O failures, a
/// bad magic/version, framing/checksum/limit violations, or CSR content
/// [`Instance::from_csr`] rejects. Never panics and never allocates
/// beyond the file's actual size (declared lengths are checked against
/// the remaining bytes before being trusted).
pub fn read_mcb(path: &Path) -> Result<Scenario, DecodeError> {
    read_mcb_with_limits(path, DecodeLimits::default())
}

/// [`read_mcb`] with explicit [`DecodeLimits`], for tests that want to
/// watch the caps fire on small files.
///
/// # Errors
///
/// Like [`read_mcb`].
pub fn read_mcb_with_limits(path: &Path, limits: DecodeLimits) -> Result<Scenario, DecodeError> {
    let file_len = fs::metadata(path)
        .map_err(|e| DecodeError::io(path, &e))?
        .len();
    let file = File::open(path).map_err(|e| DecodeError::io(path, &e))?;
    let mut r = BufReader::with_capacity(1 << 20, file);
    let mut cur = McbCursor {
        offset: 0,
        file_len,
        limits,
    };

    let mut magic = [0u8; 4];
    r.read_exact(&mut magic).map_err(|e| {
        DecodeError::new(
            DecodeErrorKind::Truncated,
            0,
            format!("{}: file ends inside the 4-byte magic: {e}", path.display()),
        )
    })?;
    if magic != MCB_MAGIC {
        return Err(DecodeError::new(
            DecodeErrorKind::BadMagic,
            0,
            format!("{}: not an mcb file (magic {magic:02x?})", path.display()),
        ));
    }
    cur.offset = 4;

    let bad_value = |off: u64, what: String| DecodeError::new(DecodeErrorKind::BadValue, off, what);

    let config_off = cur.offset;
    let mut config_json = Vec::new();
    read_section(&mut r, &mut cur, TAG_CONFIG, |chunk| {
        config_json.extend_from_slice(chunk);
        Ok(())
    })?;
    let config_json = String::from_utf8(config_json)
        .map_err(|e| bad_value(config_off, format!("config not UTF-8: {e}")))?;
    let config: ScenarioConfig = serde_json::from_str(&config_json)
        .map_err(|e| bad_value(config_off, format!("bad embedded config: {e}")))?;

    let sessions: Vec<SessionSpec> =
        read_records(&mut r, &mut cur, TAG_SESSIONS, 4, |b| SessionSpec {
            rate: Kbps(le_u32(b)),
        })?;
    let budgets_off = cur.offset;
    let budgets: Vec<Load> = read_records(&mut r, &mut cur, TAG_BUDGETS, 16, |b| {
        (le_i64(&b[0..8]), le_i64(&b[8..16]))
    })?
    .into_iter()
    .enumerate()
    .map(|(a, (num, den))| {
        if den <= 0 {
            return Err(bad_value(
                budgets_off,
                format!("AP {a}: budget denominator {den} not positive"),
            ));
        }
        let num = u64::try_from(num)
            .map_err(|_| bad_value(budgets_off, format!("AP {a}: negative budget")))?;
        Ok(Load::from_ratio(num, den as u64))
    })
    .collect::<Result<_, DecodeError>>()?;
    let rates: Vec<Kbps> = read_records(&mut r, &mut cur, TAG_RATES, 4, |b| Kbps(le_u32(b)))?;
    let policy_off = cur.offset;
    let mut policy_byte = None;
    read_section(&mut r, &mut cur, TAG_POLICY, |chunk| {
        if let [b] = chunk {
            policy_byte = Some(*b);
            Ok(())
        } else {
            Err(format!(
                "policy section has {} bytes, wanted 1",
                chunk.len()
            ))
        }
    })?;
    let rate_policy = match policy_byte {
        Some(0) => RatePolicy::MultiRate,
        Some(1) => RatePolicy::BasicOnly,
        other => {
            return Err(bad_value(
                policy_off,
                format!("unknown rate policy byte {other:?}"),
            ))
        }
    };
    let users: Vec<UserSpec> = read_records(&mut r, &mut cur, TAG_USERS, 4, |b| UserSpec {
        session: SessionId(le_u32(b)),
    })?;
    let user_off: Vec<u32> = read_records(&mut r, &mut cur, TAG_USER_OFF, 4, le_u32)?;
    let mut user_adj: Vec<(ApId, Kbps)> = Vec::new();
    let mut user_sig: Vec<i64> = Vec::new();
    read_section(&mut r, &mut cur, TAG_LINKS, |chunk| {
        if chunk.len() % 16 != 0 {
            return Err("link section payload not a multiple of 16".into());
        }
        user_adj.reserve(chunk.len() / 16);
        user_sig.reserve(chunk.len() / 16);
        for rec in chunk.chunks_exact(16) {
            user_adj.push((ApId(le_u32(&rec[0..4])), Kbps(le_u32(&rec[4..8]))));
            user_sig.push(le_i64(&rec[8..16]));
        }
        Ok(())
    })?;
    let ap_positions: Vec<Point> = read_records(&mut r, &mut cur, TAG_AP_POS, 16, |b| Point {
        x: le_f64(&b[0..8]),
        y: le_f64(&b[8..16]),
    })?;
    let user_positions: Vec<Point> = read_records(&mut r, &mut cur, TAG_USER_POS, 16, |b| Point {
        x: le_f64(&b[0..8]),
        y: le_f64(&b[8..16]),
    })?;
    read_section(&mut r, &mut cur, TAG_END, |_| {
        Err("END section carries payload".into())
    })?;
    if cur.offset != file_len {
        return Err(DecodeError::new(
            DecodeErrorKind::Framing,
            cur.offset,
            format!(
                "{} trailing bytes after the END section",
                file_len - cur.offset
            ),
        ));
    }

    let instance = Instance::from_csr(
        sessions,
        users,
        budgets,
        user_off,
        user_adj,
        user_sig,
        rates,
        rate_policy,
    )
    .map_err(|e| bad_value(4, format!("{}: {e}", path.display())))?;
    if ap_positions.len() != instance.n_aps() {
        return Err(bad_value(
            4,
            format!(
                "{}: {} AP positions for {} APs",
                path.display(),
                ap_positions.len(),
                instance.n_aps()
            ),
        ));
    }
    if user_positions.len() != instance.n_users() {
        return Err(bad_value(
            4,
            format!(
                "{}: {} user positions for {} users",
                path.display(),
                user_positions.len(),
                instance.n_users()
            ),
        ));
    }
    Ok(Scenario {
        instance,
        ap_positions,
        user_positions,
        config,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::SessionPopularity;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("mcb_test_{}_{name}", std::process::id()))
    }

    fn small() -> Scenario {
        ScenarioConfig {
            n_aps: 15,
            n_users: 40,
            n_sessions: 3,
            ..ScenarioConfig::paper_default()
        }
        .with_seed(11)
        .generate()
    }

    #[test]
    fn incremental_crc_matches_journal_crc() {
        for sample in [
            &b""[..],
            b"123456789",
            b"The quick brown fox jumps over the lazy dog",
        ] {
            let mut inc = Crc32::new();
            // Feed in ragged pieces to exercise the incremental path.
            for piece in sample.chunks(3) {
                inc.update(piece);
            }
            assert_eq!(inc.finish(), mcast_events::journal::crc32(sample));
        }
    }

    #[test]
    fn roundtrip_preserves_the_scenario() {
        let s = small();
        let path = tmp("roundtrip.mcb");
        write_mcb(&s, &path).unwrap();
        let back = read_mcb(&path).unwrap();
        assert_eq!(
            serde_json::to_string(&s).unwrap(),
            serde_json::to_string(&back).unwrap()
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn roundtrip_zipf_and_basic_only() {
        let s = ScenarioConfig {
            n_aps: 10,
            n_users: 25,
            n_sessions: 4,
            popularity: SessionPopularity::Zipf { exponent: 1.0 },
            rate_policy: RatePolicy::BasicOnly,
            ..ScenarioConfig::paper_default()
        }
        .with_seed(4)
        .generate();
        let path = tmp("zipf.mcb");
        write_mcb(&s, &path).unwrap();
        let back = read_mcb(&path).unwrap();
        assert_eq!(
            serde_json::to_string(&s).unwrap(),
            serde_json::to_string(&back).unwrap()
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn failed_write_leaves_no_temp_file() {
        // The destination is a non-empty directory, so the final rename
        // fails after the temp file was fully written.
        let dir = tmp("failed_write");
        let dest = dir.join("scene.mcb");
        std::fs::create_dir_all(dest.join("occupied")).unwrap();
        assert!(write_mcb(&small(), &dest).is_err());
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn bad_magic_rejected() {
        let path = tmp("magic.mcb");
        std::fs::write(&path, b"NOPE----------------").unwrap();
        let err = read_mcb(&path).unwrap_err();
        assert_eq!(err.kind, mcast_events::DecodeErrorKind::BadMagic);
        assert!(err.to_string().contains("not an mcb file"), "{err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn corruption_is_detected_by_crc() {
        let s = small();
        let path = tmp("corrupt.mcb");
        write_mcb(&s, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte in the middle of the file (inside some payload).
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let err = read_mcb(&path).unwrap_err();
        assert!(
            err.to_string().contains("checksum mismatch") || err.to_string().contains("truncated"),
            "{err}"
        );
        assert!(err.offset > 0, "provenance should point past the magic");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn truncation_is_detected_with_offset() {
        let s = small();
        let path = tmp("trunc.mcb");
        write_mcb(&s, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let err = read_mcb(&path).unwrap_err();
        assert_eq!(err.kind, mcast_events::DecodeErrorKind::Truncated);
        assert!(err.to_string().contains("truncated"), "{err}");
        assert_eq!(err.offset, bytes.len() as u64 - 13, "END header offset");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn inflated_length_prefix_is_a_named_limit_error_not_an_allocation() {
        let s = small();
        let path = tmp("inflate.mcb");
        write_mcb(&s, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Forge the CONFIG section's length prefix (bytes 5..13) to an
        // absurd value; the declared-vs-remaining guard must fire before
        // any payload is read or buffered.
        bytes[5..13].copy_from_slice(&(1u64 << 60).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = read_mcb(&path).unwrap_err();
        assert_eq!(err.kind, mcast_events::DecodeErrorKind::LimitExceeded);
        assert_eq!(err.offset, 4, "points at the declaring header");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn section_cap_fires_under_strict_limits() {
        let s = small();
        let path = tmp("cap.mcb");
        write_mcb(&s, &path).unwrap();
        // The LINKS section of even this small scenario is far above a
        // 64-byte cap; the typed error names the cap.
        let err = read_mcb_with_limits(
            &path,
            mcast_events::DecodeLimits {
                max_section_bytes: 64,
                ..mcast_events::DecodeLimits::default()
            },
        )
        .unwrap_err();
        assert_eq!(err.kind, mcast_events::DecodeErrorKind::LimitExceeded);
        assert!(err.to_string().contains("cap"), "{err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn trailing_garbage_after_end_is_rejected() {
        let s = small();
        let path = tmp("trailing.mcb");
        write_mcb(&s, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"junk");
        std::fs::write(&path, &bytes).unwrap();
        let err = read_mcb(&path).unwrap_err();
        assert_eq!(err.kind, mcast_events::DecodeErrorKind::Framing);
        assert!(err.to_string().contains("trailing"), "{err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn every_corpus_mutation_yields_a_typed_error_or_a_valid_scenario() {
        use mcast_events::harden::{mutate, ALL_MUTATIONS};
        let s = small();
        let path = tmp("mutate.mcb");
        write_mcb(&s, &path).unwrap();
        let clean = std::fs::read(&path).unwrap();
        let mutated_path = tmp("mutated.mcb");
        for m in ALL_MUTATIONS {
            for seed in 0..24u64 {
                let corrupted = mutate(&clean, m, seed);
                std::fs::write(&mutated_path, &corrupted).unwrap();
                match read_mcb(&mutated_path) {
                    // Salvage or a coincidental miss is only acceptable
                    // when the result still passes full validation.
                    Ok(back) => {
                        assert_eq!(back.instance.n_users(), s.instance.n_users());
                        assert_eq!(back.instance.n_aps(), s.instance.n_aps());
                    }
                    Err(e) => {
                        assert!(!e.what.is_empty(), "{m:?}/{seed}: unnamed error");
                    }
                }
            }
        }
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(mutated_path);
    }

    #[test]
    fn mcb_is_much_smaller_than_sparse_json() {
        let s = small();
        let path = tmp("size.mcb");
        write_mcb(&s, &path).unwrap();
        let mcb_len = std::fs::metadata(&path).unwrap().len() as usize;
        let json_len = serde_json::to_string(&s).unwrap().len();
        assert!(
            mcb_len < json_len,
            "mcb {mcb_len} bytes vs json {json_len} bytes"
        );
        let _ = std::fs::remove_file(path);
    }
}
