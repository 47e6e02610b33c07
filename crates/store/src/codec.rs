//! The on-disk frame and the primitive binary codec every store artifact
//! shares.
//!
//! Each cache file is one *frame*:
//!
//! ```text
//! magic "ANRVSTOR" (8) | format version u32 | kind u8 | reserved (11)
//! | payload length u64 | payload bytes
//! | FNV-1a-64 checksum of everything before it (u64)
//! ```
//!
//! All integers are little-endian.  The header is exactly 32 bytes, so a
//! payload offset that is a multiple of 16 is also a 16-aligned *file*
//! offset: payloads place their flat `u128`/`u64`/`u32` arrays on 16-byte
//! boundaries ([`Enc::align16`]/[`Dec::align16`]) and move them with the
//! bulk array codecs below — one `extend_from_slice`-style copy per array
//! instead of a per-element decode loop.  The frame gives every artifact
//! the same three integrity gates, checked in order on load:
//!
//! 1. **magic + version** — a file written at any other format version is
//!    *invalidated* (treated as a miss, then overwritten by the recompute),
//!    never partially interpreted: there are no legacy readers;
//! 2. **length** — a truncated or padded file can never cause a read past
//!    the payload;
//! 3. **checksum** — random corruption inside the payload is caught before
//!    any value is decoded.
//!
//! Beyond the frame, every payload embeds the *identity* of what it caches
//! (graph hash, program key, horizon, ...) and the loader verifies that
//! identity against the query — a filename-hash collision therefore degrades
//! to a miss, never to wrong data being served.  The codec is deliberately
//! hand-rolled: the store's value types live in `anonrv-sim` / `anonrv-plan`
//! (which stay serde-free), `u128` round counters need exact framing, and
//! the whole format fits in this one auditable module.

/// File magic: identifies an anonrv store artifact.
pub(crate) const MAGIC: [u8; 8] = *b"ANRVSTOR";

/// The format version every frame is written and read at.  Bump it on any
/// payload layout change: frames of every other version then fail the
/// version gate and are recomputed and rewritten in place.  The current
/// layout is a 32-byte header and 16-aligned flat-array payloads — timeline
/// and symbolic entries carry only their segment `starts` and `nodes`
/// columns, timeline payloads lead with their distinct recorded horizons
/// so `stats` can peek them from a bounded prefix read, outcome tables
/// store one column per field — in the four artifact kinds of [`Kind`].
pub(crate) const FORMAT_VERSION: u32 = 6;

/// Frame header size: magic(8) + version(4) + kind(1) + reserved(11) +
/// payload length(8).  The 11 reserved zero bytes pad the header to 32 so
/// 16-aligned payload offsets are 16-aligned file offsets.
pub(crate) const HEADER: usize = 32;

/// Alignment of the flat arrays inside payloads (the widest element,
/// `u128`).
pub(crate) const ALIGN: usize = 16;

/// Artifact kind tags (one per payload layout).  A tag is part of the frame
/// format: changing one needs a [`FORMAT_VERSION`] bump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// Recorded trajectory timelines of one `(graph, program, horizon)`.
    Timelines = 2,
    /// A full representative-outcome table of one executed sweep plan.
    Outcomes = 3,
    /// A partial outcome table produced by one shard of a sweep plan.
    Shard = 4,
    /// Symbolic (prefix + cycle) timelines of one `(graph, program)` pair —
    /// horizon-free: one detection serves *every* horizon, so these
    /// supersede explicit timeline recordings under the longest-wins rule.
    SymbolicTimelines = 5,
}

/// 64-bit FNV-1a over a byte slice (the frame checksum and the filename
/// key hash).
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_extend(0xcbf29ce484222325, bytes)
}

/// Continue an FNV-1a hash `h` over more bytes: `fnv64(a ++ b)` is
/// `fnv64_extend(fnv64(a), b)`.
pub(crate) fn fnv64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Append-only payload encoder.
#[derive(Debug, Clone)]
pub(crate) struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub(crate) fn new() -> Self {
        Enc { buf: Vec::new() }
    }

    /// Drop the payload, keeping the allocation for the next one.
    pub(crate) fn clear(&mut self) {
        self.buf.clear();
    }

    pub(crate) fn u8(&mut self, x: u8) {
        self.buf.push(x);
    }

    pub(crate) fn u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    pub(crate) fn u128(&mut self, x: u128) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    pub(crate) fn usize(&mut self, x: usize) {
        self.u64(x as u64);
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Zero-pad to the next [`ALIGN`] boundary (relative to the payload
    /// start, which the 32-byte header keeps 16-aligned in the file).
    pub(crate) fn align16(&mut self) {
        let pad = self.buf.len().next_multiple_of(ALIGN) - self.buf.len();
        self.buf.resize(self.buf.len() + pad, 0);
    }

    /// An aligned flat `u128` array (no length prefix: callers frame counts
    /// themselves so directories stay at fixed offsets).
    pub(crate) fn u128_slice(&mut self, xs: &[u128]) {
        self.align16();
        for &x in xs {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// An aligned flat `u64` array.
    pub(crate) fn u64_slice(&mut self, xs: &[u64]) {
        self.align16();
        for &x in xs {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// An aligned flat `u32` array.
    pub(crate) fn u32_slice(&mut self, xs: &[u32]) {
        self.align16();
        for &x in xs {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// An aligned flat byte array.
    pub(crate) fn u8_slice(&mut self, xs: &[u8]) {
        self.align16();
        self.buf.extend_from_slice(xs);
    }

    /// The raw payload accumulated so far (fingerprinting without framing).
    pub(crate) fn payload(&self) -> &[u8] {
        &self.buf
    }

    /// Wrap the accumulated payload in a checksummed frame.
    pub(crate) fn into_frame(self, kind: Kind) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER + self.buf.len() + 8);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.push(kind as u8);
        out.extend_from_slice(&[0u8; 11]);
        out.extend_from_slice(&(self.buf.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.buf);
        let checksum = fnv64(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }
}

/// Bounds-checked payload decoder.  Every read returns `None` past the end,
/// so a malformed payload can never panic the loader.
pub(crate) struct Dec<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, len: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(len)?;
        let slice = self.data.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    /// The inverse of [`Enc::u8`] — an unaligned scalar byte.  Payloads
    /// move byte *columns* with [`Dec::u8_vec`]; the symbolic entries read
    /// their tail-kind code through this.
    pub(crate) fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|s| u64::from_le_bytes(s.try_into().expect("8 bytes")))
    }

    pub(crate) fn u128(&mut self) -> Option<u128> {
        self.take(16).map(|s| u128::from_le_bytes(s.try_into().expect("16 bytes")))
    }

    pub(crate) fn usize(&mut self) -> Option<usize> {
        self.u64().and_then(|x| usize::try_from(x).ok())
    }

    /// A length-prefixed UTF-8 string.
    pub(crate) fn str(&mut self) -> Option<String> {
        let len = self.usize()?;
        // lengths beyond the remaining payload are malformed, not huge
        if len > self.data.len() - self.pos {
            return None;
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    /// Skip the zero padding [`Enc::align16`] wrote.  Rejects non-zero pad
    /// bytes so every payload has exactly one valid encoding.
    pub(crate) fn align16(&mut self) -> Option<()> {
        let pad = self.pos.next_multiple_of(ALIGN) - self.pos;
        self.take(pad)?.iter().all(|&b| b == 0).then_some(())
    }

    /// A bulk-copied aligned `u128` array of exactly `len` elements.
    pub(crate) fn u128_vec(&mut self, len: usize) -> Option<Vec<u128>> {
        self.align16()?;
        let bytes = self.take(len.checked_mul(16)?)?;
        Some(
            bytes
                .chunks_exact(16)
                .map(|c| u128::from_le_bytes(c.try_into().expect("16 bytes")))
                .collect(),
        )
    }

    /// A bulk-copied aligned `u64` array of exactly `len` elements.
    pub(crate) fn u64_vec(&mut self, len: usize) -> Option<Vec<u64>> {
        self.align16()?;
        let bytes = self.take(len.checked_mul(8)?)?;
        Some(
            bytes
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
                .collect(),
        )
    }

    /// A bulk-copied aligned `u32` array of exactly `len` elements.
    pub(crate) fn u32_vec(&mut self, len: usize) -> Option<Vec<u32>> {
        self.align16()?;
        let bytes = self.take(len.checked_mul(4)?)?;
        Some(
            bytes
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
                .collect(),
        )
    }

    /// A bulk-copied aligned byte array of exactly `len` elements.
    pub(crate) fn u8_vec(&mut self, len: usize) -> Option<Vec<u8>> {
        self.align16()?;
        Some(self.take(len)?.to_vec())
    }

    /// `true` iff the whole payload was consumed (trailing garbage is
    /// rejected by loaders that call this).
    pub(crate) fn exhausted(&self) -> bool {
        self.pos == self.data.len()
    }

    /// Bytes left to read — the bound decoders check *declared* element
    /// counts against before allocating, so a forged count can never cost
    /// more memory than the payload it rode in on.
    pub(crate) fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }
}

/// Why a frame failed validation — the distinction the read path's
/// quarantine policy turns on: a [`FrameFailure::Version`] mismatch is an
/// *expected* miss (an artifact written by another format revision, left in
/// place for the recompute to supersede), while every other failure means
/// the bytes on disk are damaged and worth preserving for inspection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameFailure {
    /// Missing or wrong file magic (not a store frame at all, or the
    /// header itself was overwritten).
    Magic,
    /// A well-formed frame of a different format version.
    Version,
    /// The kind byte disagrees with what the filename claims.
    Kind,
    /// Non-zero reserved header bytes.
    Reserved,
    /// The file length disagrees with the declared payload length
    /// (truncation or trailing garbage).
    Length,
    /// The trailing FNV-64 checksum does not match the frame body.
    Checksum,
}

impl FrameFailure {
    /// `true` when the failure indicates damaged bytes (quarantine-worthy)
    /// rather than a version-stale artifact (a plain miss).
    pub(crate) fn is_corruption(&self) -> bool {
        !matches!(self, FrameFailure::Version)
    }

    /// A short stable label for reason sidecars and fsck listings.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            FrameFailure::Magic => "bad-magic",
            FrameFailure::Version => "version-mismatch",
            FrameFailure::Kind => "kind-mismatch",
            FrameFailure::Reserved => "reserved-bytes",
            FrameFailure::Length => "length-mismatch",
            FrameFailure::Checksum => "checksum-mismatch",
        }
    }
}

/// Validate a frame of the expected `kind` and hand back its payload, or
/// `None` when any integrity gate fails (magic, version, kind, length,
/// checksum).
pub(crate) fn unframe(kind: Kind, bytes: &[u8]) -> Option<Dec<'_>> {
    unframe_checked(kind, bytes).ok()
}

/// [`unframe`] with a classified failure: which integrity gate rejected the
/// frame, so the caller can distinguish corruption from version staleness.
pub(crate) fn unframe_checked(kind: Kind, bytes: &[u8]) -> Result<Dec<'_>, FrameFailure> {
    let payload_len = check_header_checked(kind, bytes)?;
    if bytes.len() != HEADER + payload_len + 8 {
        return Err(FrameFailure::Length);
    }
    let body = &bytes[..HEADER + payload_len];
    let stored = u64::from_le_bytes(bytes[HEADER + payload_len..].try_into().expect("8 bytes"));
    if fnv64(body) != stored {
        return Err(FrameFailure::Checksum);
    }
    Ok(Dec { data: &bytes[HEADER..HEADER + payload_len], pos: 0 })
}

/// Validate only the fixed-size header fields (magic, version, kind,
/// reserved) and return the declared payload length.  `bytes` may be an
/// arbitrary prefix of the file.
fn check_header(kind: Kind, bytes: &[u8]) -> Option<usize> {
    check_header_checked(kind, bytes).ok()
}

/// [`check_header`] with a classified failure.
fn check_header_checked(kind: Kind, bytes: &[u8]) -> Result<usize, FrameFailure> {
    if bytes.len() < HEADER {
        return Err(FrameFailure::Length);
    }
    if bytes[..8] != MAGIC {
        return Err(FrameFailure::Magic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(FrameFailure::Version);
    }
    if bytes[12] != kind as u8 {
        return Err(FrameFailure::Kind);
    }
    if bytes[13..24].iter().any(|&b| b != 0) {
        return Err(FrameFailure::Reserved);
    }
    let payload_len = u64::from_le_bytes(bytes[24..32].try_into().expect("8 bytes"));
    usize::try_from(payload_len).map_err(|_| FrameFailure::Length)
}

/// Header-gate a *prefix* of a frame against the full on-disk file length
/// and hand back a decoder over whatever part of the payload the prefix
/// holds.  The checksum is **not** verified (the trailer may be outside the
/// prefix): reads that run past the prefix return `None` as usual, so this
/// serves bounded-prefix identity peeks (`Store::stats`, `Store::gc`)
/// without pulling whole payloads off disk.  Full integrity checking still
/// requires [`unframe`] over the complete file.
pub(crate) fn peek_frame(kind: Kind, prefix: &[u8], file_len: u64) -> Option<Dec<'_>> {
    let payload_len = check_header(kind, prefix)?;
    let framed = (HEADER as u64).checked_add(payload_len as u64)?.checked_add(8)?;
    if file_len != framed {
        return None;
    }
    let avail = prefix.len().min(HEADER + payload_len);
    Some(Dec { data: &prefix[HEADER..avail], pos: 0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frame() -> Vec<u8> {
        let mut e = Enc::new();
        e.u8(7);
        e.u64(42);
        e.u128(u128::MAX - 1);
        e.str("walker-0x5eed");
        e.into_frame(Kind::Shard)
    }

    #[test]
    fn frames_round_trip() {
        let bytes = sample_frame();
        let mut d = unframe(Kind::Shard, &bytes).expect("valid frame");
        assert_eq!(d.u8(), Some(7));
        assert_eq!(d.u64(), Some(42));
        assert_eq!(d.u128(), Some(u128::MAX - 1));
        assert_eq!(d.str().as_deref(), Some("walker-0x5eed"));
        assert!(d.exhausted());
    }

    #[test]
    fn every_integrity_gate_rejects() {
        let good = sample_frame();
        // wrong kind
        assert!(unframe(Kind::Timelines, &good).is_none());
        // bad magic
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(unframe(Kind::Shard, &bad).is_none());
        // every other version, older or newer, is a version miss
        for version in [3u32, 4, 5, 7] {
            let mut bad = good.clone();
            bad[8..12].copy_from_slice(&version.to_le_bytes());
            assert_eq!(unframe_checked(Kind::Shard, &bad).err(), Some(FrameFailure::Version));
        }
        // truncation (any prefix)
        for cut in 0..good.len() {
            assert!(unframe(Kind::Shard, &good[..cut]).is_none(), "prefix {cut} accepted");
        }
        // trailing garbage
        let mut bad = good.clone();
        bad.push(0);
        assert!(unframe(Kind::Shard, &bad).is_none());
        // single-byte corruption anywhere past the magic — reserved bytes,
        // length, payload and checksum are all covered (by the reserved-zero
        // gate, the length gate or the checksum)
        for i in 8..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            assert!(unframe(Kind::Shard, &bad).is_none(), "corrupt byte {i} accepted");
        }
    }

    #[test]
    fn aligned_bulk_arrays_round_trip() {
        let wide = vec![0u128, 7, u128::MAX];
        let mid = vec![3u64, 1 << 40];
        let narrow = vec![9u32, 8, 7, 6, 5];
        let bytes = vec![0xAAu8, 0xBB];
        let mut e = Enc::new();
        e.u8(1); // misalign on purpose
        e.u128_slice(&wide);
        e.u8(2);
        e.u64_slice(&mid);
        e.u32_slice(&narrow);
        e.u8_slice(&bytes);
        // every array starts on a 16-byte payload offset
        let frame = e.into_frame(Kind::Timelines);
        let mut d = unframe(Kind::Timelines, &frame).expect("valid frame");
        assert_eq!(d.u8(), Some(1));
        assert_eq!(d.u128_vec(wide.len()).as_deref(), Some(&wide[..]));
        assert_eq!(d.u8(), Some(2));
        assert_eq!(d.u64_vec(mid.len()).as_deref(), Some(&mid[..]));
        assert_eq!(d.u32_vec(narrow.len()).as_deref(), Some(&narrow[..]));
        assert_eq!(d.u8_vec(bytes.len()).as_deref(), Some(&bytes[..]));
        assert!(d.exhausted());
        // a length that overruns the payload is malformed, not a panic
        let mut d = unframe(Kind::Timelines, &frame).unwrap();
        assert!(d.u128_vec(usize::MAX).is_none());
        // non-zero padding bytes are rejected (offset 33 = first pad byte
        // after the misaligning u8 at payload offset 0)
        let mut bad = frame.clone();
        bad[HEADER + 1] = 0xFF;
        let body_end = bad.len() - 8;
        let sum = fnv64(&bad[..body_end]).to_le_bytes();
        bad[body_end..].copy_from_slice(&sum);
        let mut d = unframe(Kind::Timelines, &bad).expect("checksum refreshed");
        assert_eq!(d.u8(), Some(1));
        assert!(d.u128_vec(wide.len()).is_none());
    }

    #[test]
    fn peeking_a_prefix_gates_the_header_and_file_length() {
        let frame = sample_frame();
        let len = frame.len() as u64;
        // a generous prefix exposes the leading payload fields
        let mut d = peek_frame(Kind::Shard, &frame[..HEADER + 9], len).expect("peek");
        assert_eq!(d.u8(), Some(7));
        assert_eq!(d.u64(), Some(42));
        // reads past the prefix degrade to None, not to garbage
        assert_eq!(d.u128(), None);
        // too-short prefix, wrong kind, and a file length that disagrees
        // with the declared payload length are all rejected
        assert!(peek_frame(Kind::Shard, &frame[..HEADER - 1], len).is_none());
        assert!(peek_frame(Kind::Timelines, &frame, len).is_none());
        assert!(peek_frame(Kind::Shard, &frame, len + 1).is_none());
        assert!(peek_frame(Kind::Shard, &frame, len - 1).is_none());
    }

    #[test]
    fn decoder_reads_never_run_past_the_payload() {
        let mut e = Enc::new();
        e.u64(1);
        let bytes = e.into_frame(Kind::Shard);
        let mut d = unframe(Kind::Shard, &bytes).unwrap();
        assert_eq!(d.u64(), Some(1));
        assert_eq!(d.u64(), None);
        assert_eq!(d.u8(), None);
        assert_eq!(d.u128(), None);
        assert!(d.str().is_none());
        // a declared string length far beyond the payload is malformed
        let mut e = Enc::new();
        e.u64(u64::MAX);
        let bytes = e.into_frame(Kind::Shard);
        let mut d = unframe(Kind::Shard, &bytes).unwrap();
        assert!(d.str().is_none());
    }
}
