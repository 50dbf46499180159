//! The versioned binary snapshot format.
//!
//! A snapshot is written once (`pathcons snapshot build`) and loaded
//! near-instantly at serve startup: no JSON parsing, no string
//! re-interning hash churn — the string table and the edge columns are
//! length-prefixed little-endian arrays read back with bounds checks.
//!
//! Layout:
//!
//! ```text
//! magic      8 bytes   "PCSTORE\0"
//! version    u32 LE    FORMAT_VERSION
//! length     u64 LE    payload byte length
//! payload    …         string table + context records (below)
//! checksum   u64 LE    FNV-1a 64 over the payload bytes
//! ```
//!
//! Payload:
//!
//! ```text
//! u32 label_count      then label_count strings (u32 length + UTF-8)
//! u32 context_count    then per context:
//!   str name, str kind
//!   u32 sigma_count    then sigma_count constraint-text strings
//!   u8  has_graph      0 or 1; when 1:
//!     u32 node_count, u32 root, u32 edge_count
//!     edge_count × u32 src column
//!     edge_count × u32 label column
//!     edge_count × u32 dst column
//! ```
//!
//! [`decode`] streams: it reads the payload from any [`Read`] in fixed
//! chunks, hashing each as it arrives, so a snapshot file is never held
//! in memory beside the columns decoded from it.
//!
//! A corrupt, truncated, or version-mismatched file is rejected with a
//! typed [`SnapshotError`] — never a panic — and the **content id**
//! (the FNV-1a checksum, rendered as 16 hex digits like the certificate
//! layer's snapshot ids) names the loaded content in `snapshot info`
//! and the serve stats, so served answers can be tied to the exact
//! bytes that produced them.

use std::fmt;
use std::io::{self, Read, Write};

/// The 8 magic bytes opening every snapshot.
pub const MAGIC: [u8; 8] = *b"PCSTORE\0";

/// The current snapshot format version.
pub const FORMAT_VERSION: u32 = 1;

/// Why a snapshot failed to load.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The format version is not [`FORMAT_VERSION`].
    UnsupportedVersion {
        /// The version found in the file.
        found: u32,
    },
    /// The file ends before the structure it promises.
    Truncated {
        /// The section being read when the bytes ran out.
        at: &'static str,
    },
    /// The payload checksum does not match the stored one.
    ChecksumMismatch {
        /// The checksum stored in the file.
        stored: u64,
        /// The checksum computed over the payload as read.
        computed: u64,
    },
    /// The bytes decode but describe an invalid structure.
    Corrupt(String),
    /// Reading the snapshot failed for a reason other than its end.
    Io(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a pathcons snapshot (bad magic bytes)"),
            SnapshotError::UnsupportedVersion { found } => write!(
                f,
                "unsupported snapshot format version {found} (this build reads version {FORMAT_VERSION})"
            ),
            SnapshotError::Truncated { at } => {
                write!(f, "snapshot truncated while reading {at}")
            }
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: stored {stored:016x}, computed {computed:016x} (file corrupt)"
            ),
            SnapshotError::Corrupt(why) => write!(f, "snapshot corrupt: {why}"),
            SnapshotError::Io(why) => write!(f, "cannot read snapshot: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// The decoded document: a string table plus per-context records.
/// This is the codec-level view; [`crate::ConstraintStore`] turns it
/// into resident contexts (prebuilt solver contexts, parsed Σ, built
/// adjacency indexes).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SnapshotDoc {
    /// The interned label names, in id order.
    pub labels: Vec<String>,
    /// The stored contexts.
    pub contexts: Vec<ContextRecord>,
}

/// One stored context.
#[derive(Clone, Debug, PartialEq)]
pub struct ContextRecord {
    /// The context's name (what jobs reference).
    pub name: String,
    /// The solver-context kind (`semistructured`, `m-bibliography`, …).
    pub kind: String,
    /// Base constraint texts Σ, prepended to every job's own sigma.
    pub sigma: Vec<String>,
    /// The context's data graph, if it carries one.
    pub graph: Option<GraphColumns>,
}

/// Raw graph columns as stored on the wire (label ids reference the
/// document's string table).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphColumns {
    /// Number of nodes.
    pub node_count: u32,
    /// The root node.
    pub root: u32,
    /// Source column.
    pub src: Vec<u32>,
    /// Label column.
    pub label: Vec<u32>,
    /// Target column.
    pub dst: Vec<u32>,
}

/// The FNV-1a 64 offset basis: the hash of no bytes.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Extends an FNV-1a 64 hash (the construction the canonical cache keys
/// use) over `bytes`, so a payload can be hashed piece by piece.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Payload bytes the decoder reads, and hashes, per refill.
const CHUNK: usize = 64 << 10;

/// Encodes a document to snapshot bytes (magic, version, payload,
/// checksum), writing the payload straight into the output.
pub fn encode(doc: &SnapshotDoc) -> Vec<u8> {
    encode_payload(doc)
}

/// The content id `doc` encodes to — the payload checksum, rendered as
/// 16 hex digits (`{:016x}`) in line with the certificate layer's
/// snapshot-id strings — computed without materialising the encoding.
pub fn content_id(doc: &SnapshotDoc) -> u64 {
    payload_id(doc)
}

/// What the payload writer reads: a string table and context records,
/// borrowed from a [`SnapshotDoc`] or straight from a resident store.
pub(crate) trait Payload {
    /// The label names, in id order.
    fn label_names(&self) -> impl ExactSizeIterator<Item = &str>;
    /// The context records, in payload order.
    fn records(&self) -> impl ExactSizeIterator<Item = ContextPayload<'_>>;
}

/// One context record as the payload writer reads it.
pub(crate) struct ContextPayload<'a> {
    pub name: &'a str,
    pub kind: &'a str,
    pub sigma: &'a [String],
    pub graph: Option<GraphPayload<'a>>,
}

/// One graph as the payload writer reads it.
pub(crate) struct GraphPayload<'a> {
    pub node_count: u32,
    pub root: u32,
    pub sources: Sources<'a>,
    pub label: &'a [u32],
    pub dst: &'a [u32],
}

/// Where the payload writer reads the `src` column from.
pub(crate) enum Sources<'a> {
    /// The column itself.
    Column(&'a [u32]),
    /// CSR offsets: node `n` is the source of the positions
    /// `offsets[n]..offsets[n + 1]`.
    Offsets(&'a [u32]),
}

impl Payload for SnapshotDoc {
    fn label_names(&self) -> impl ExactSizeIterator<Item = &str> {
        self.labels.iter().map(String::as_str)
    }

    fn records(&self) -> impl ExactSizeIterator<Item = ContextPayload<'_>> {
        self.contexts.iter().map(|context| ContextPayload {
            name: &context.name,
            kind: &context.kind,
            sigma: &context.sigma,
            graph: context.graph.as_ref().map(|g| GraphPayload {
                node_count: g.node_count,
                root: g.root,
                sources: Sources::Column(&g.src),
                label: &g.label,
                dst: &g.dst,
            }),
        })
    }
}

/// Encodes `payload` to snapshot bytes (magic, version, payload,
/// checksum), writing the payload straight into the output.
pub(crate) fn encode_payload(payload: &impl Payload) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    // The payload length is known once the payload is written: reserve
    // its slot and fill it in below.
    out.extend_from_slice(&0u64.to_le_bytes());
    let (length, checksum) = write_payload(payload, &mut out).expect("a Vec sink cannot fail");
    out[MAGIC.len() + 4..MAGIC.len() + 12].copy_from_slice(&length.to_le_bytes());
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// The content id `payload` encodes to, hashed without materialising
/// the encoding.
pub(crate) fn payload_id(payload: &impl Payload) -> u64 {
    write_payload(payload, io::sink())
        .expect("io::sink cannot fail")
        .1
}

/// Streams `payload` into `out`; returns its byte length and FNV-1a
/// checksum.
fn write_payload<W: Write>(payload: &impl Payload, out: W) -> io::Result<(u64, u64)> {
    let mut w = Hashing {
        out,
        length: 0,
        hash: FNV_OFFSET,
    };
    let put_u32 = |w: &mut Hashing<W>, v: u32| w.write_all(&v.to_le_bytes());
    let put_str = |w: &mut Hashing<W>, s: &str| {
        put_u32(w, s.len() as u32)?;
        w.write_all(s.as_bytes())
    };
    let labels = payload.label_names();
    put_u32(&mut w, labels.len() as u32)?;
    for name in labels {
        put_str(&mut w, name)?;
    }
    let contexts = payload.records();
    put_u32(&mut w, contexts.len() as u32)?;
    for context in contexts {
        put_str(&mut w, context.name)?;
        put_str(&mut w, context.kind)?;
        put_u32(&mut w, context.sigma.len() as u32)?;
        for text in context.sigma {
            put_str(&mut w, text)?;
        }
        match context.graph {
            None => w.write_all(&[0])?,
            Some(g) => {
                w.write_all(&[1])?;
                put_u32(&mut w, g.node_count)?;
                put_u32(&mut w, g.root)?;
                put_u32(&mut w, g.label.len() as u32)?;
                match g.sources {
                    Sources::Column(src) => {
                        for &s in src {
                            put_u32(&mut w, s)?;
                        }
                    }
                    Sources::Offsets(offsets) => {
                        for (node, bounds) in offsets.windows(2).enumerate() {
                            for _ in bounds[0]..bounds[1] {
                                put_u32(&mut w, node as u32)?;
                            }
                        }
                    }
                }
                for column in [g.label, g.dst] {
                    for &v in column {
                        put_u32(&mut w, v)?;
                    }
                }
            }
        }
    }
    Ok((w.length, w.hash))
}

/// A writer that counts and FNV-hashes what passes through it.
struct Hashing<W> {
    out: W,
    length: u64,
    hash: u64,
}

impl<W: Write> Write for Hashing<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.out.write(buf)?;
        self.hash = fnv1a(self.hash, &buf[..n]);
        self.length += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// Decodes a snapshot of `length` bytes from `input` into a document,
/// validating magic, version, framing, checksum, and every embedded
/// length. Also returns the verified payload checksum — the
/// [`content_id`]. The payload is hashed chunk by chunk as it is read,
/// so the whole file is never held; every allocation is bounded by the
/// payload bytes still unread. A slice decodes as `decode(bytes,
/// bytes.len() as u64)`.
///
/// A structural error is reported only once the rest of the payload has
/// been hashed and the checksum found to match, so damaged bytes report
/// [`SnapshotError::ChecksumMismatch`] exactly as if the checksum had
/// been checked first. A stream that ends before `length` bytes is
/// [`SnapshotError::Truncated`].
pub fn decode<R: Read>(mut input: R, length: u64) -> Result<(SnapshotDoc, u64), SnapshotError> {
    let payload_length = frame(&mut input, length)?;
    let mut d = Decoder {
        input,
        // Never more than the payload, so tiny snapshots stay tiny.
        buf: vec![0; usize::try_from(payload_length).map_or(CHUNK, |n| n.min(CHUNK))],
        pos: 0,
        end: 0,
        unread: payload_length,
        hash: FNV_OFFSET,
    };
    let doc = payload(&mut d);
    let checksum = d.finish()?;
    Ok((doc?, checksum))
}

/// Reads and validates magic, version, and the framing of a snapshot of
/// `length` bytes; returns the declared payload length.
fn frame<R: Read>(input: &mut R, length: u64) -> Result<u64, SnapshotError> {
    if length < MAGIC.len() as u64 || read_array(input, "magic")? != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    if length < 12 {
        return Err(SnapshotError::Truncated {
            at: "format version",
        });
    }
    let version = u32::from_le_bytes(read_array(input, "format version")?);
    if version != FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion { found: version });
    }
    if length < 20 {
        return Err(SnapshotError::Truncated {
            at: "payload length",
        });
    }
    let payload_length = u64::from_le_bytes(read_array(input, "payload length")?);
    // The declared length is attacker-controlled: the +8 for the
    // trailing checksum must be checked, or a crafted length near
    // u64::MAX wraps into a passing comparison.
    let rest = length - 20;
    let need = payload_length
        .checked_add(8)
        .ok_or(SnapshotError::Truncated { at: "payload" })?;
    if rest < need {
        return Err(SnapshotError::Truncated { at: "payload" });
    }
    if rest > need {
        return Err(SnapshotError::Corrupt(format!(
            "{} trailing bytes after the checksum",
            rest - need
        )));
    }
    Ok(payload_length)
}

/// Decodes the payload records; the caller verifies the checksum.
fn payload<R: Read>(d: &mut Decoder<R>) -> Result<SnapshotDoc, SnapshotError> {
    let label_count = d.u32("label count")?;
    let mut labels = Vec::new();
    d.reserve(&mut labels, label_count, 1, "string table")?;
    for _ in 0..label_count {
        labels.push(d.str("label name")?);
    }
    let context_count = d.u32("context count")?;
    let mut contexts = Vec::new();
    d.reserve(&mut contexts, context_count, 3, "context table")?;
    for _ in 0..context_count {
        let name = d.str("context name")?;
        let kind = d.str("context kind")?;
        let sigma_count = d.u32("sigma count")?;
        let mut sigma = Vec::new();
        d.reserve(&mut sigma, sigma_count, 1, "sigma table")?;
        for _ in 0..sigma_count {
            sigma.push(d.str("sigma text")?);
        }
        let graph = match d.u8("graph flag")? {
            0 => None,
            1 => {
                let node_count = d.u32("node count")?;
                let root = d.u32("root")?;
                let edge_count = d.u32("edge count")?;
                let src = d.u32_array(edge_count, "src column")?;
                let label = d.u32_array(edge_count, "label column")?;
                let dst = d.u32_array(edge_count, "dst column")?;
                for &l in &label {
                    if l as usize >= labels.len() {
                        return Err(SnapshotError::Corrupt(format!(
                            "edge label id {l} outside the string table ({} labels)",
                            labels.len()
                        )));
                    }
                }
                Some(GraphColumns {
                    node_count,
                    root,
                    src,
                    label,
                    dst,
                })
            }
            other => {
                return Err(SnapshotError::Corrupt(format!(
                    "graph flag must be 0 or 1, found {other}"
                )))
            }
        };
        contexts.push(ContextRecord {
            name,
            kind,
            sigma,
            graph,
        });
    }
    if d.remaining() != 0 {
        return Err(SnapshotError::Corrupt(format!(
            "{} trailing payload bytes",
            d.remaining()
        )));
    }
    Ok(SnapshotDoc { labels, contexts })
}

/// Reads exactly `N` bytes of `input`; a stream that ends first is
/// [`SnapshotError::Truncated`] at `at`.
fn read_array<const N: usize, R: Read>(
    input: &mut R,
    at: &'static str,
) -> Result<[u8; N], SnapshotError> {
    let mut bytes = [0; N];
    input.read_exact(&mut bytes).map_err(read_error(at))?;
    Ok(bytes)
}

fn read_error(at: &'static str) -> impl Fn(io::Error) -> SnapshotError {
    move |e| match e.kind() {
        io::ErrorKind::UnexpectedEof => SnapshotError::Truncated { at },
        _ => SnapshotError::Io(e.to_string()),
    }
}

/// A bounds-checked little-endian reader over the payload: it pulls the
/// payload from `input` one chunk at a time, hashing each chunk as it
/// arrives, and every read past the payload's end is a typed
/// [`SnapshotError::Truncated`], never a slice panic.
struct Decoder<R> {
    input: R,
    /// Payload bytes read and hashed; `buf[pos..end]` is not yet decoded.
    buf: Vec<u8>,
    pos: usize,
    end: usize,
    /// Payload bytes not yet read from `input`.
    unread: u64,
    hash: u64,
}

impl<R: Read> Decoder<R> {
    /// Payload bytes not yet decoded.
    fn remaining(&self) -> u64 {
        self.unread + (self.end - self.pos) as u64
    }

    /// Moves the undecoded bytes to the front of the buffer and reads
    /// and hashes the next chunk of the payload behind them.
    fn refill(&mut self, at: &'static str) -> Result<(), SnapshotError> {
        self.buf.copy_within(self.pos..self.end, 0);
        self.end -= self.pos;
        self.pos = 0;
        let n = ((self.buf.len() - self.end) as u64).min(self.unread) as usize;
        let fresh = &mut self.buf[self.end..self.end + n];
        self.input.read_exact(fresh).map_err(read_error(at))?;
        self.hash = fnv1a(self.hash, fresh);
        self.end += n;
        self.unread -= n as u64;
        Ok(())
    }

    /// `len` as a `usize`, if that many payload bytes remain to decode.
    fn within(&self, len: u64, at: &'static str) -> Result<usize, SnapshotError> {
        match usize::try_from(len) {
            Ok(len) if (len as u64) <= self.remaining() => Ok(len),
            _ => Err(SnapshotError::Truncated { at }),
        }
    }

    /// Feeds the next `len` payload bytes to `sink` in pieces of whole
    /// `unit`s (`len` a multiple of `unit`, `unit` at most 8).
    fn pieces(
        &mut self,
        len: u64,
        unit: usize,
        at: &'static str,
        mut sink: impl FnMut(&[u8]),
    ) -> Result<(), SnapshotError> {
        self.within(len, at)?;
        let mut left = len;
        while left > 0 {
            if self.end - self.pos < unit {
                self.refill(at)?;
            }
            let n = ((self.end - self.pos) as u64).min(left) as usize / unit * unit;
            sink(&self.buf[self.pos..self.pos + n]);
            self.pos += n;
            left -= n as u64;
        }
        Ok(())
    }

    fn array<const N: usize>(&mut self, at: &'static str) -> Result<[u8; N], SnapshotError> {
        let mut bytes = [0; N];
        self.pieces(N as u64, N, at, |piece| bytes.copy_from_slice(piece))?;
        Ok(bytes)
    }

    fn u8(&mut self, at: &'static str) -> Result<u8, SnapshotError> {
        Ok(self.array::<1>(at)?[0])
    }

    fn u32(&mut self, at: &'static str) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.array(at)?))
    }

    fn u32_array(&mut self, count: u32, at: &'static str) -> Result<Vec<u32>, SnapshotError> {
        let len = u64::from(count) * 4;
        let mut column = Vec::with_capacity(self.within(len, at)? / 4);
        self.pieces(len, 4, at, |piece| {
            column.extend(
                piece
                    .chunks_exact(4)
                    .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]])),
            );
        })?;
        Ok(column)
    }

    fn str(&mut self, at: &'static str) -> Result<String, SnapshotError> {
        let len = u64::from(self.u32(at)?);
        let mut raw = Vec::with_capacity(self.within(len, at)?);
        self.pieces(len, 1, at, |piece| raw.extend_from_slice(piece))?;
        String::from_utf8(raw).map_err(|_| SnapshotError::Corrupt(format!("invalid UTF-8 in {at}")))
    }

    /// Pre-reserves for a declared element count, but only after
    /// checking the payload is long enough to possibly hold it — a
    /// checksum-valid file never trips this, yet no attacker-controlled
    /// length can force a huge allocation before the data is read.
    fn reserve<T>(
        &self,
        vec: &mut Vec<T>,
        count: u32,
        min_bytes_each: u64,
        at: &'static str,
    ) -> Result<(), SnapshotError> {
        self.within(u64::from(count) * min_bytes_each, at)?;
        vec.reserve(count as usize);
        Ok(())
    }

    /// Reads and hashes whatever payload is left, then checks the stored
    /// checksum; returns the verified checksum.
    fn finish(mut self) -> Result<u64, SnapshotError> {
        while self.unread > 0 {
            self.pos = self.end;
            self.refill("payload")?;
        }
        let stored = u64::from_le_bytes(read_array(&mut self.input, "checksum")?);
        if stored != self.hash {
            return Err(SnapshotError::ChecksumMismatch {
                stored,
                computed: self.hash,
            });
        }
        Ok(self.hash)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> SnapshotDoc {
        SnapshotDoc {
            labels: vec!["a".into(), "b".into(), "rel".into()],
            contexts: vec![
                ContextRecord {
                    name: "plain".into(),
                    kind: "semistructured".into(),
                    sigma: vec!["a -> b".into()],
                    graph: None,
                },
                ContextRecord {
                    name: "with-graph".into(),
                    kind: "semistructured".into(),
                    sigma: vec![],
                    graph: Some(GraphColumns {
                        node_count: 3,
                        root: 0,
                        src: vec![0, 1],
                        label: vec![0, 2],
                        dst: vec![1, 2],
                    }),
                },
            ],
        }
    }

    fn decode_slice(bytes: &[u8]) -> Result<(SnapshotDoc, u64), SnapshotError> {
        decode(bytes, bytes.len() as u64)
    }

    /// A reader that hands out at most `step` bytes per call.
    struct Trickle<'a> {
        bytes: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.step).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let doc = sample_doc();
        let bytes = encode(&doc);
        let (decoded, checksum) = decode_slice(&bytes).unwrap();
        assert_eq!(decoded, doc);
        assert_eq!(checksum, fnv1a(FNV_OFFSET, &bytes[20..bytes.len() - 8]));
        assert_eq!(content_id(&doc), checksum);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = encode(&sample_doc());
        bytes[0] ^= 0xFF;
        assert_eq!(decode_slice(&bytes), Err(SnapshotError::BadMagic));
        assert_eq!(decode_slice(b"short"), Err(SnapshotError::BadMagic));
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut bytes = encode(&sample_doc());
        bytes[8] = 99;
        assert_eq!(
            decode_slice(&bytes),
            Err(SnapshotError::UnsupportedVersion { found: 99 })
        );
    }

    #[test]
    fn every_truncation_point_errors_cleanly() {
        let bytes = encode(&sample_doc());
        for len in 0..bytes.len() {
            let err = decode_slice(&bytes[..len]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::BadMagic
                        | SnapshotError::Truncated { .. }
                        | SnapshotError::ChecksumMismatch { .. }
                ),
                "prefix of {len} bytes: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn crafted_huge_lengths_are_truncation_errors_not_panics() {
        // A file whose declared payload length is near u64::MAX must
        // not wrap the `length + 8` framing arithmetic into a passing
        // comparison (and an out-of-range read).
        for length in [u64::MAX, u64::MAX - 7, u64::MAX - 8, 1 << 62] {
            let mut bytes = MAGIC.to_vec();
            bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
            bytes.extend_from_slice(&length.to_le_bytes());
            bytes.extend_from_slice(&[0u8; 7]); // a few "payload" bytes
            assert_eq!(
                decode_slice(&bytes),
                Err(SnapshotError::Truncated { at: "payload" }),
                "declared length {length:#x}"
            );
        }
    }

    #[test]
    fn bit_flips_fail_the_checksum() {
        let clean = encode(&sample_doc());
        // Flip one bit of every payload byte in turn: the checksum is
        // verified before any structural check reports.
        for i in 20..clean.len() - 8 {
            let mut bytes = clean.clone();
            bytes[i] ^= 0x01;
            assert!(
                matches!(
                    decode_slice(&bytes),
                    Err(SnapshotError::ChecksumMismatch { .. })
                ),
                "flip at byte {i}"
            );
        }
    }

    #[test]
    fn streamed_reads_match_the_slice_path() {
        let clean = encode(&sample_doc());
        let mut inputs: Vec<Vec<u8>> = (0..=clean.len()).map(|n| clean[..n].to_vec()).collect();
        for i in 0..clean.len() * 8 {
            let mut bytes = clean.clone();
            bytes[i / 8] ^= 1 << (i % 8);
            inputs.push(bytes);
        }
        for bytes in &inputs {
            let want = decode_slice(bytes);
            for step in [1, 3, 7, 4096] {
                let reader = Trickle { bytes, step };
                assert_eq!(
                    decode(reader, bytes.len() as u64),
                    want,
                    "{} bytes read {step} at a time",
                    bytes.len()
                );
            }
        }
    }

    #[test]
    fn a_stream_shorter_than_its_length_is_truncated() {
        let bytes = encode(&sample_doc());
        for n in 0..bytes.len() {
            let reader = Trickle {
                bytes: &bytes[..n],
                step: 5,
            };
            let got = decode(reader, bytes.len() as u64);
            assert!(
                matches!(got, Err(SnapshotError::Truncated { .. })),
                "stream cut at {n} bytes: {got:?}"
            );
        }
    }

    #[test]
    fn label_ids_outside_the_table_are_corrupt() {
        let mut doc = sample_doc();
        if let Some(g) = &mut doc.contexts[1].graph {
            g.label[0] = 17;
        }
        let bytes = encode(&doc);
        assert!(matches!(
            decode_slice(&bytes),
            Err(SnapshotError::Corrupt(_))
        ));
    }
}
