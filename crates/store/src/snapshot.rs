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
//! A corrupt, truncated, or version-mismatched file is rejected with a
//! typed [`SnapshotError`] — never a panic — and the **content id**
//! (the FNV-1a checksum, rendered as 16 hex digits like the certificate
//! layer's snapshot ids) names the loaded content in `snapshot info`
//! and the serve stats, so served answers can be tied to the exact
//! bytes that produced them.

use std::fmt;

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

/// FNV-1a 64 — the same construction the canonical cache keys use.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Encodes a document to snapshot bytes (magic, version, payload,
/// checksum).
pub fn encode(doc: &SnapshotDoc) -> Vec<u8> {
    let mut payload = Vec::new();
    put_u32(&mut payload, doc.labels.len() as u32);
    for name in &doc.labels {
        put_str(&mut payload, name);
    }
    put_u32(&mut payload, doc.contexts.len() as u32);
    for context in &doc.contexts {
        put_str(&mut payload, &context.name);
        put_str(&mut payload, &context.kind);
        put_u32(&mut payload, context.sigma.len() as u32);
        for text in &context.sigma {
            put_str(&mut payload, text);
        }
        match &context.graph {
            None => payload.push(0),
            Some(g) => {
                payload.push(1);
                put_u32(&mut payload, g.node_count);
                put_u32(&mut payload, g.root);
                put_u32(&mut payload, g.src.len() as u32);
                for column in [&g.src, &g.label, &g.dst] {
                    for &v in column.iter() {
                        put_u32(&mut payload, v);
                    }
                }
            }
        }
    }
    let mut out = Vec::with_capacity(payload.len() + 28);
    out.extend_from_slice(&MAGIC);
    put_u32(&mut out, FORMAT_VERSION);
    put_u64(&mut out, payload.len() as u64);
    let checksum = fnv1a(&payload);
    out.extend_from_slice(&payload);
    put_u64(&mut out, checksum);
    out
}

/// The content id of encoded snapshot bytes: the payload checksum.
/// Renders as 16 hex digits (`{:016x}`), lining up with the certificate
/// layer's snapshot-id strings.
pub fn content_id(bytes: &[u8]) -> Result<u64, SnapshotError> {
    verified_payload(bytes).map(|(_, checksum)| checksum)
}

/// Decodes snapshot bytes into a document, validating magic, version,
/// framing, checksum, and every embedded length. Also returns the
/// verified payload checksum — the [`content_id`] — so a loader hashes
/// the payload exactly once.
pub fn decode(bytes: &[u8]) -> Result<(SnapshotDoc, u64), SnapshotError> {
    let (payload, checksum) = verified_payload(bytes)?;
    let mut r = Reader {
        bytes: payload,
        pos: 0,
    };
    let label_count = r.u32("label count")?;
    let mut labels = Vec::new();
    r.reserve(&mut labels, label_count, 1, "string table")?;
    for _ in 0..label_count {
        labels.push(r.str("label name")?);
    }
    let context_count = r.u32("context count")?;
    let mut contexts = Vec::new();
    r.reserve(&mut contexts, context_count, 3, "context table")?;
    for _ in 0..context_count {
        let name = r.str("context name")?;
        let kind = r.str("context kind")?;
        let sigma_count = r.u32("sigma count")?;
        let mut sigma = Vec::new();
        r.reserve(&mut sigma, sigma_count, 1, "sigma table")?;
        for _ in 0..sigma_count {
            sigma.push(r.str("sigma text")?);
        }
        let graph = match r.u8("graph flag")? {
            0 => None,
            1 => {
                let node_count = r.u32("node count")?;
                let root = r.u32("root")?;
                let edge_count = r.u32("edge count")?;
                let src = r.u32_array(edge_count, "src column")?;
                let label = r.u32_array(edge_count, "label column")?;
                let dst = r.u32_array(edge_count, "dst column")?;
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
    if r.pos != payload.len() {
        return Err(SnapshotError::Corrupt(format!(
            "{} trailing payload bytes",
            payload.len() - r.pos
        )));
    }
    Ok((SnapshotDoc { labels, contexts }, checksum))
}

/// The payload of snapshot bytes and its checksum, after validating
/// magic, version, framing and the checksum itself.
fn verified_payload(bytes: &[u8]) -> Result<(&[u8], u64), SnapshotError> {
    let (payload, stored) = frame(bytes)?;
    let computed = fnv1a(payload);
    if computed != stored {
        return Err(SnapshotError::ChecksumMismatch { stored, computed });
    }
    Ok((payload, computed))
}

/// Splits snapshot bytes into `(payload, stored_checksum)` after
/// validating magic, version, and framing lengths.
fn frame(bytes: &[u8]) -> Result<(&[u8], u64), SnapshotError> {
    if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let mut r = Reader {
        bytes,
        pos: MAGIC.len(),
    };
    let version = r.u32("format version")?;
    if version != FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion { found: version });
    }
    // The declared length is attacker-controlled: both the usize
    // conversion and the +8 for the trailing checksum must be checked,
    // or a crafted length near u64::MAX wraps and indexes out of range.
    let length = usize::try_from(r.u64("payload length")?)
        .map_err(|_| SnapshotError::Truncated { at: "payload" })?;
    let payload_start = r.pos;
    let rest = bytes.len() - payload_start;
    let need = length
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
    let payload = &bytes[payload_start..payload_start + length];
    let mut tail = Reader {
        bytes,
        pos: payload_start + length,
    };
    let stored = tail.u64("checksum")?;
    Ok((payload, stored))
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked little-endian reader: every overrun is a typed
/// [`SnapshotError::Truncated`], never a slice panic.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, at: &'static str) -> Result<&'a [u8], SnapshotError> {
        if self.bytes.len() - self.pos < n {
            return Err(SnapshotError::Truncated { at });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self, at: &'static str) -> Result<u8, SnapshotError> {
        Ok(self.take(1, at)?[0])
    }

    fn u32(&mut self, at: &'static str) -> Result<u32, SnapshotError> {
        let b = self.take(4, at)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, at: &'static str) -> Result<u64, SnapshotError> {
        let b = self.take(8, at)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn u32_array(&mut self, count: u32, at: &'static str) -> Result<Vec<u32>, SnapshotError> {
        let raw = self.take(count as usize * 4, at)?;
        Ok(raw
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect())
    }

    fn str(&mut self, at: &'static str) -> Result<String, SnapshotError> {
        let len = self.u32(at)? as usize;
        let raw = self.take(len, at)?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| SnapshotError::Corrupt(format!("invalid UTF-8 in {at}")))
    }

    /// Pre-reserves for a declared element count, but only after
    /// checking the payload is long enough to possibly hold it — a
    /// checksum-valid file never trips this, yet no attacker-controlled
    /// length can force a huge allocation before the data is read.
    fn reserve<T>(
        &self,
        vec: &mut Vec<T>,
        count: u32,
        min_bytes_each: usize,
        at: &'static str,
    ) -> Result<(), SnapshotError> {
        let remaining = self.bytes.len() - self.pos;
        if (count as usize).saturating_mul(min_bytes_each) > remaining {
            return Err(SnapshotError::Truncated { at });
        }
        vec.reserve(count as usize);
        Ok(())
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

    #[test]
    fn encode_decode_round_trips() {
        let doc = sample_doc();
        let bytes = encode(&doc);
        let (decoded, checksum) = decode(&bytes).unwrap();
        assert_eq!(decoded, doc);
        assert_eq!(checksum, fnv1a(&bytes[20..bytes.len() - 8]));
        assert_eq!(content_id(&bytes), Ok(checksum));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = encode(&sample_doc());
        bytes[0] ^= 0xFF;
        assert_eq!(decode(&bytes), Err(SnapshotError::BadMagic));
        assert_eq!(decode(b"short"), Err(SnapshotError::BadMagic));
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut bytes = encode(&sample_doc());
        bytes[8] = 99;
        assert_eq!(
            decode(&bytes),
            Err(SnapshotError::UnsupportedVersion { found: 99 })
        );
    }

    #[test]
    fn every_truncation_point_errors_cleanly() {
        let bytes = encode(&sample_doc());
        for len in 0..bytes.len() {
            let err = decode(&bytes[..len]).unwrap_err();
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
        // comparison (and an out-of-range slice).
        for length in [u64::MAX, u64::MAX - 7, u64::MAX - 8, 1 << 62] {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&MAGIC);
            put_u32(&mut bytes, FORMAT_VERSION);
            put_u64(&mut bytes, length);
            bytes.extend_from_slice(&[0u8; 7]); // a few "payload" bytes
            assert_eq!(
                decode(&bytes),
                Err(SnapshotError::Truncated { at: "payload" }),
                "declared length {length:#x}"
            );
        }
    }

    #[test]
    fn bit_flips_fail_the_checksum() {
        let clean = encode(&sample_doc());
        // Flip one bit of every payload byte in turn; the checksum (or a
        // stricter structural check) must catch each one.
        for i in 20..clean.len() - 8 {
            let mut bytes = clean.clone();
            bytes[i] ^= 0x01;
            assert!(decode(&bytes).is_err(), "flip at byte {i} accepted");
        }
    }

    #[test]
    fn label_ids_outside_the_table_are_corrupt() {
        let mut doc = sample_doc();
        if let Some(g) = &mut doc.contexts[1].graph {
            g.label[0] = 17;
        }
        let bytes = encode(&doc);
        assert!(matches!(decode(&bytes), Err(SnapshotError::Corrupt(_))));
    }
}
