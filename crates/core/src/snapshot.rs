//! Hand-rolled binary snapshot codec for the serving layer: persist a
//! [`PreparedTree`], its cached [`SolvePlan`], and a [`SolverStore`] to plain bytes
//! and restore them bit-identically — pure `std`, no external serialization crates
//! (the environment is offline).
//!
//! ## Format
//!
//! Every snapshot is a 32-byte header followed by the payload:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"TREEDPSS"
//! 8       4     version (little-endian u32, currently 1)
//! 12      4     kind    (what the payload encodes — tree / plan / store / ...)
//! 16      8     payload length in bytes
//! 24      8     FNV-1a-64 checksum of the payload
//! 32      -     payload
//! ```
//!
//! All integers are little-endian; `usize` travels as `u64`; `f64` travels as its IEEE
//! bit pattern. Collections encode a `u64` length followed by their elements; maps
//! encode their entries in key order ([`std::collections::BTreeMap`] iteration order),
//! so encoding is deterministic: equal values produce equal bytes.
//!
//! Decoding is total: corrupted headers, truncated payloads, unknown versions, wrong
//! kinds, and checksum mismatches all surface as [`SnapshotError`] values — never
//! panics (the workspace's `clippy::unwrap_used` deny applies here like anywhere). A
//! plan travels as its skeleton views only: decoding derives the routing indexes from
//! them, as a plan build does. The views are spelled out in full — every member's
//! whole clustering element, parent and child list — although a plan keeps only a
//! few words per member ([`crate::skeleton`]): the encoder derives the rest, and the
//! decoder packs the views and refuses them unless every field it derives back reads
//! as written. A checksum only vouches for the bytes, so a decoded [`SolvePlan`] is
//! also checked for member trees it can pack and for what the evaluation pass relies
//! on ([`SolvePlan::validate`]), a decoded [`SolverStore`] for slot state that matches
//! its plan, and a decoded [`PreparedTree`] for root and node-count slots that repeat
//! its clustering's: a re-sealed payload with one index or one derived field out of
//! place is [`SnapshotError::Malformed`], not a panic on the next solve.
//!
//! The codec is versioned through [`SNAPSHOT_VERSION`]: a reader refuses payloads
//! written by a future version instead of misinterpreting them. Downstream users (the
//! `tree-dp-server` crate's tenant snapshots) layer their own kinds on top via
//! [`seal`] / [`open`].

use crate::pipeline::PreparedTree;
use crate::plan::{PlanMember, PlanView, SolvePlan};
use crate::problem::{ClusterDp, Payload, SlotState};
use crate::routing::Routing;
use crate::skeleton::{Linked, Skeletons, MAX_MEMBERS};
use crate::state_dp::StateSummary;
use crate::store::SolverStore;
use mpc_engine::{unmetered, DistVec, MpcConfig};
use std::cell::OnceCell;
use std::collections::BTreeMap;
use tree_clustering::{Clustering, EdgeKind, Element, ElementId, ElementKind};
use tree_repr::{DirectedEdge, NodeId};

/// Magic bytes opening every snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"TREEDPSS";

/// Current format version written by [`seal`] and accepted by [`open`].
pub const SNAPSHOT_VERSION: u32 = 1;

/// Payload kind: a [`PreparedTree`] (with its cached plan, if built). Bumped 1 → 5
/// when plans stopped carrying their routing indexes.
pub const KIND_PREPARED_TREE: u32 = 5;
/// Payload kind: a bare [`SolvePlan`]. Bumped 2 → 6 when plans stopped carrying their
/// routing indexes.
pub const KIND_PLAN: u32 = 6;
/// Payload kind: a [`SolverStore`]. Bumped 3 → 4 when the store became a plan plus
/// slot state (kind 3 held a cloned view per cluster and a payload map), 4 → 7 when
/// plans stopped carrying their routing indexes.
pub const KIND_STORE: u32 = 7;

/// Why a snapshot failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The magic bytes do not open the buffer — not a snapshot at all.
    BadMagic,
    /// The snapshot was written by a newer (or unknown) format version.
    UnsupportedVersion {
        /// The version recorded in the header.
        found: u32,
    },
    /// The payload encodes a different kind than the caller asked for.
    WrongKind {
        /// The kind recorded in the header.
        found: u32,
        /// The kind the caller expected.
        expected: u32,
    },
    /// The buffer ends before the encoded data does.
    Truncated,
    /// The payload bytes do not hash to the recorded checksum.
    ChecksumMismatch,
    /// The payload is structurally invalid (bad enum tag, non-UTF-8 string,
    /// impossible length, trailing bytes, ...).
    Malformed(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "snapshot: bad magic bytes"),
            SnapshotError::UnsupportedVersion { found } => {
                write!(f, "snapshot: unsupported format version {found}")
            }
            SnapshotError::WrongKind { found, expected } => {
                write!(
                    f,
                    "snapshot: kind {found} where kind {expected} was expected"
                )
            }
            SnapshotError::Truncated => write!(f, "snapshot: truncated input"),
            SnapshotError::ChecksumMismatch => write!(f, "snapshot: payload checksum mismatch"),
            SnapshotError::Malformed(what) => write!(f, "snapshot: malformed payload ({what})"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a 64-bit hash of `bytes` — the payload checksum.
fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Append-only byte sink the encoders write into.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as a `u64` (portable across word sizes).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append a `bool` as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Append an `f64` as its IEEE-754 bit pattern (bit-exact round trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append raw bytes (no length prefix).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Consume the writer, returning the written bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor over a snapshot payload; every `take_*` fails with
/// [`SnapshotError::Truncated`] instead of reading past the end.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// A reader over `bytes` (a bare payload, without header — see [`open`]).
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Take `n` raw bytes.
    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Take one byte.
    pub fn take_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take_bytes(1)?[0])
    }

    /// Take a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take_bytes(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_le_bytes(a))
    }

    /// Take a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take_bytes(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Take a little-endian `i64`.
    pub fn take_i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(self.take_u64()? as i64)
    }

    /// Take a `usize` (encoded as `u64`); fails on values the platform cannot hold.
    pub fn take_usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.take_u64()?).map_err(|_| SnapshotError::Malformed("usize overflow"))
    }

    /// Take a `bool`; any byte other than 0/1 is malformed.
    pub fn take_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Malformed("bool tag")),
        }
    }

    /// Take an `f64` from its bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Take a collection length prefix, validating it against the remaining buffer
    /// BEFORE any allocation happens. Every element of a snapshotted collection
    /// occupies at least one byte (the zero-width `()` impl exists for trait
    /// completeness and never appears inside a snapshotted collection), so a recorded
    /// length exceeding the remaining byte count can never decode successfully — it is
    /// rejected up front as [`SnapshotError::Malformed`] instead of driving a giant
    /// `Vec::with_capacity` or an element-by-element walk to the end of the buffer.
    fn take_len(&mut self) -> Result<usize, SnapshotError> {
        let len = self.take_usize()?;
        if len > self.remaining() {
            return Err(SnapshotError::Malformed("length prefix exceeds buffer"));
        }
        Ok(len)
    }

    /// Assert the payload is fully consumed.
    pub fn finish(&self) -> Result<(), SnapshotError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapshotError::Malformed("trailing payload bytes"))
        }
    }
}

/// Frame `payload` with the versioned header (magic, [`SNAPSHOT_VERSION`], `kind`,
/// length, checksum). The inverse of [`open`].
pub fn seal(kind: u32, payload: SnapshotWriter) -> Vec<u8> {
    let payload = payload.into_bytes();
    let mut out = Vec::with_capacity(32 + payload.len());
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&kind.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a_64(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Validate the header of `bytes` (magic, version, kind, length, checksum) and return
/// a reader positioned at the start of the payload. The inverse of [`seal`].
pub fn open(bytes: &[u8], expected_kind: u32) -> Result<SnapshotReader<'_>, SnapshotError> {
    let mut header = SnapshotReader::new(bytes);
    let magic = header.take_bytes(8)?;
    if magic != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = header.take_u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion { found: version });
    }
    let kind = header.take_u32()?;
    if kind != expected_kind {
        return Err(SnapshotError::WrongKind {
            found: kind,
            expected: expected_kind,
        });
    }
    let len = header.take_usize()?;
    let checksum = header.take_u64()?;
    if header.remaining() < len {
        return Err(SnapshotError::Truncated);
    }
    if header.remaining() > len {
        return Err(SnapshotError::Malformed("trailing bytes after payload"));
    }
    let payload = header.take_bytes(len)?;
    if fnv1a_64(payload) != checksum {
        return Err(SnapshotError::ChecksumMismatch);
    }
    Ok(SnapshotReader::new(payload))
}

/// A value with a binary snapshot encoding. Implementations must round-trip exactly:
/// `decode(encode(v)) == v`, bit for bit, and `encode` must be deterministic (equal
/// values produce equal bytes — map contents encode in key order).
pub trait Snapshot: Sized {
    /// Append this value's encoding to `w`.
    fn encode(&self, w: &mut SnapshotWriter);
    /// Decode one value from `r`, consuming exactly the bytes `encode` wrote.
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError>;
}

/// Encode `value` as a complete snapshot (header + payload) of the given `kind`.
pub fn snapshot_to_bytes<T: Snapshot>(kind: u32, value: &T) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    value.encode(&mut w);
    seal(kind, w)
}

/// Decode a complete snapshot of the given `kind` back into a value.
pub fn snapshot_from_bytes<T: Snapshot>(kind: u32, bytes: &[u8]) -> Result<T, SnapshotError> {
    let mut r = open(bytes, kind)?;
    let value = T::decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

// ----- primitive impls --------------------------------------------------------------

impl Snapshot for u8 {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_u8(*self);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.take_u8()
    }
}

impl Snapshot for u32 {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_u32(*self);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.take_u32()
    }
}

impl Snapshot for u64 {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_u64(*self);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.take_u64()
    }
}

impl Snapshot for i64 {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_i64(*self);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.take_i64()
    }
}

impl Snapshot for usize {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_usize(*self);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.take_usize()
    }
}

impl Snapshot for bool {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_bool(*self);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.take_bool()
    }
}

impl Snapshot for f64 {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_f64(*self);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.take_f64()
    }
}

impl Snapshot for () {
    fn encode(&self, _w: &mut SnapshotWriter) {}
    fn decode(_r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(())
    }
}

impl Snapshot for String {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.len());
        w.put_bytes(self.as_bytes());
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let len = r.take_len()?;
        let bytes = r.take_bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapshotError::Malformed("non-UTF-8 string"))
    }
}

impl<A: Snapshot, B: Snapshot> Snapshot for (A, B) {
    fn encode(&self, w: &mut SnapshotWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<T: Snapshot> Snapshot for Option<T> {
    fn encode(&self, w: &mut SnapshotWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        match r.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(SnapshotError::Malformed("Option tag")),
        }
    }
}

impl<T: Snapshot> Snapshot for Vec<T> {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.len());
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        // `take_len` bounds the length by the remaining bytes, so this capacity is
        // already no larger than the buffer itself — a corrupt length surfaces as
        // `Malformed` before any allocation.
        let len = r.take_len()?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<K: Snapshot + Ord, V: Snapshot> Snapshot for BTreeMap<K, V> {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.len());
        for (k, v) in self {
            k.encode(w);
            v.encode(w);
        }
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let len = r.take_len()?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<T: Snapshot> Snapshot for DistVec<T> {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.chunks().len());
        for chunk in self.chunks() {
            w.put_usize(chunk.len());
            for item in chunk {
                item.encode(w);
            }
        }
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let num_chunks = r.take_len()?;
        let mut chunks = Vec::with_capacity(num_chunks);
        for _ in 0..num_chunks {
            let len = r.take_len()?;
            let mut chunk = Vec::with_capacity(len);
            for _ in 0..len {
                chunk.push(T::decode(r)?);
            }
            chunks.push(chunk);
        }
        // Restores the encode-time chunk placement; no record changes machine.
        Ok(unmetered::from_chunks(chunks))
    }
}

// ----- engine / clustering impls ----------------------------------------------------

impl Snapshot for MpcConfig {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.n);
        w.put_f64(self.delta);
        w.put_f64(self.memory_slack);
        w.put_f64(self.bandwidth_slack);
        w.put_bool(self.strict);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(MpcConfig {
            n: r.take_usize()?,
            delta: r.take_f64()?,
            memory_slack: r.take_f64()?,
            bandwidth_slack: r.take_f64()?,
            strict: r.take_bool()?,
        })
    }
}

impl Snapshot for DirectedEdge {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.child);
        w.put_u64(self.parent);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(DirectedEdge {
            child: r.take_u64()?,
            parent: r.take_u64()?,
        })
    }
}

impl Snapshot for EdgeKind {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_u8(match self {
            EdgeKind::Original => 0,
            EdgeKind::Auxiliary => 1,
        });
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        match r.take_u8()? {
            0 => Ok(EdgeKind::Original),
            1 => Ok(EdgeKind::Auxiliary),
            _ => Err(SnapshotError::Malformed("EdgeKind tag")),
        }
    }
}

impl Snapshot for ElementKind {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_u8(match self {
            ElementKind::Node => 0,
            ElementKind::ClusterIndeg0 => 1,
            ElementKind::ClusterIndeg1 => 2,
            ElementKind::TopCluster => 3,
        });
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        match r.take_u8()? {
            0 => Ok(ElementKind::Node),
            1 => Ok(ElementKind::ClusterIndeg0),
            2 => Ok(ElementKind::ClusterIndeg1),
            3 => Ok(ElementKind::TopCluster),
            _ => Err(SnapshotError::Malformed("ElementKind tag")),
        }
    }
}

impl Snapshot for Element {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.id);
        self.kind.encode(w);
        w.put_u32(self.formed_at);
        w.put_u64(self.absorbed_into);
        w.put_u32(self.absorbed_at);
        self.out_edge.encode(w);
        self.in_edge.encode(w);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Element {
            id: r.take_u64()?,
            kind: ElementKind::decode(r)?,
            formed_at: r.take_u32()?,
            absorbed_into: r.take_u64()?,
            absorbed_at: r.take_u32()?,
            out_edge: DirectedEdge::decode(r)?,
            in_edge: Option::decode(r)?,
        })
    }
}

impl Snapshot for Clustering {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.num_nodes);
        w.put_u64(self.root);
        w.put_u32(self.num_layers);
        w.put_usize(self.threshold);
        self.elements.encode(w);
        w.put_u64(self.top_cluster);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Clustering {
            num_nodes: r.take_usize()?,
            root: r.take_u64()?,
            num_layers: r.take_u32()?,
            threshold: r.take_usize()?,
            elements: DistVec::decode(r)?,
            top_cluster: r.take_u64()?,
        })
    }
}

// ----- plan impls -------------------------------------------------------------------

/// One member of a [`WireView`]: the clustering element, the kind of its outgoing
/// edge and its place in the member tree — the plan snapshot's member layout.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WireMember {
    pub(crate) element: Element,
    pub(crate) out_kind: EdgeKind,
    pub(crate) parent: Option<usize>,
    pub(crate) children: Vec<usize>,
}

/// A skeleton view as a plan snapshot spells it out: every field the compact layout
/// derives written in full ([`crate::skeleton`]). The encoder derives the fields from
/// the plan; the decoder packs them and refuses them unless they agree with what it
/// derives back.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WireView {
    pub(crate) cluster: ElementId,
    pub(crate) kind: ElementKind,
    pub(crate) members: Vec<WireMember>,
    pub(crate) top: usize,
    pub(crate) out_edge: DirectedEdge,
    pub(crate) in_edge: Option<DirectedEdge>,
    pub(crate) attach: Option<usize>,
    pub(crate) in_kind: EdgeKind,
}

/// A plan as its snapshot spells it out: the header fields and every view in full,
/// `layers[layer - 1][machine][view]`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WirePlan {
    pub(crate) num_layers: u32,
    pub(crate) num_machines: usize,
    pub(crate) root: NodeId,
    pub(crate) top_cluster: ElementId,
    pub(crate) top_machine: usize,
    pub(crate) aux_nodes: Vec<(NodeId, usize)>,
    pub(crate) layers: Vec<Vec<Vec<WireView>>>,
}

impl Snapshot for WireMember {
    fn encode(&self, w: &mut SnapshotWriter) {
        self.element.encode(w);
        self.out_kind.encode(w);
        self.parent.encode(w);
        self.children.encode(w);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(WireMember {
            element: Element::decode(r)?,
            out_kind: EdgeKind::decode(r)?,
            parent: Option::decode(r)?,
            children: Vec::decode(r)?,
        })
    }
}

impl Snapshot for WireView {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.cluster);
        self.kind.encode(w);
        self.members.encode(w);
        w.put_usize(self.top);
        self.out_edge.encode(w);
        self.in_edge.encode(w);
        self.attach.encode(w);
        self.in_kind.encode(w);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(WireView {
            cluster: r.take_u64()?,
            kind: ElementKind::decode(r)?,
            members: Vec::decode(r)?,
            top: r.take_usize()?,
            out_edge: DirectedEdge::decode(r)?,
            in_edge: Option::decode(r)?,
            attach: Option::decode(r)?,
            in_kind: EdgeKind::decode(r)?,
        })
    }
}

impl Snapshot for WirePlan {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_u32(self.num_layers);
        w.put_usize(self.num_machines);
        w.put_u64(self.root);
        w.put_u64(self.top_cluster);
        w.put_usize(self.top_machine);
        self.aux_nodes.encode(w);
        self.layers.encode(w);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(WirePlan {
            num_layers: r.take_u32()?,
            num_machines: r.take_usize()?,
            root: r.take_u64()?,
            top_cluster: r.take_u64()?,
            top_machine: r.take_usize()?,
            aux_nodes: Vec::decode(r)?,
            layers: Vec::decode(r)?,
        })
    }
}

/// Write `view` of `plan` as a [`WireView`] would encode it, every derived field
/// spelled out.
fn encode_view(plan: &SolvePlan, view: &PlanView<'_>, w: &mut SnapshotWriter) {
    w.put_u64(view.cluster());
    view.kind().encode(w);
    w.put_usize(view.members().len());
    for (i, member) in view.members().iter().enumerate() {
        plan.element(view, i)
            .expect("a plan derives every element")
            .encode(w);
        member.out_kind().encode(w);
        member.parent().encode(w);
        let children = view.children(i);
        w.put_usize(children.len());
        for &c in children {
            w.put_usize(c as usize);
        }
    }
    w.put_usize(view.top());
    view.out_edge().encode(w);
    view.in_edge().encode(w);
    view.attach().encode(w);
    view.in_kind().encode(w);
}

impl WireView {
    /// `view` of `plan` with every field spelled out.
    #[cfg(test)]
    fn of(plan: &SolvePlan, view: &PlanView<'_>) -> WireView {
        let members = view
            .members()
            .iter()
            .enumerate()
            .map(|(i, member)| WireMember {
                element: plan.element(view, i).expect("a plan derives every element"),
                out_kind: member.out_kind(),
                parent: member.parent(),
                children: view.children(i).iter().map(|&c| c as usize).collect(),
            });
        WireView {
            cluster: view.cluster(),
            kind: view.kind(),
            members: members.collect(),
            top: view.top(),
            out_edge: view.out_edge(),
            in_edge: view.in_edge(),
            attach: view.attach(),
            in_kind: view.in_kind(),
        }
    }

    /// Check that every field of this written view reads as `plan` derives it for
    /// `view`, the view it was packed into.
    fn agrees_with(&self, plan: &SolvePlan, view: &PlanView<'_>) -> Result<(), &'static str> {
        let absorbed = (view.cluster(), view.layer());
        if self
            .members
            .iter()
            .any(|m| (m.element.absorbed_into, m.element.absorbed_at) != absorbed)
        {
            return Err("member absorbed_into/absorbed_at differs from its view");
        }
        let member_agrees = |(i, (written, member)): (usize, (&WireMember, &PlanMember))| {
            plan.element(view, i) == Some(written.element)
                && written.out_kind == member.out_kind()
                && written.parent == member.parent()
                && (written.children.iter().copied())
                    .eq(view.children(i).iter().map(|&c| c as usize))
        };
        let header = (self.cluster, self.kind, self.top, self.out_edge)
            == (view.cluster(), view.kind(), view.top(), view.out_edge())
            && (self.in_edge, self.attach, self.in_kind)
                == (view.in_edge(), view.attach(), view.in_kind());
        let members = self.members.len() == view.members().len()
            && (self.members.iter().zip(view.members()).enumerate()).all(member_agrees);
        if header && members {
            Ok(())
        } else {
            Err("view field differs from what its skeleton derives")
        }
    }

    /// Check that the member tree is one tree rooted at `top`: `top`, `attach` and
    /// every parent/child index in range, parent and child links mutual, and every
    /// member reached exactly once from the top member — what packing relies on.
    fn validate(&self) -> Result<(), &'static str> {
        let n = self.members.len();
        if self.top >= n || self.attach.is_some_and(|a| a >= n) {
            return Err("view top/attach index");
        }
        if n >= MAX_MEMBERS {
            return Err("view member count");
        }
        if self.members[self.top].parent.is_some() {
            return Err("view top member has a parent");
        }
        let mut reached = vec![false; n];
        let mut stack = vec![self.top];
        while let Some(i) = stack.pop() {
            if std::mem::replace(&mut reached[i], true) {
                return Err("view member tree");
            }
            for &c in &self.members[i].children {
                if self.members.get(c).map(|m| m.parent) != Some(Some(i)) {
                    return Err("view parent/child link");
                }
                stack.push(c);
            }
        }
        if reached.contains(&false) {
            return Err("view member tree");
        }
        Ok(())
    }

    /// The view packed for a machine's skeletons (after [`validate`](Self::validate)).
    fn linked(&self) -> Linked {
        let members = self.members.iter().map(|m| {
            // Packing records whether the edge enters the parent as its incoming edge;
            // the agreement check below refuses a snapshot where it does not.
            let enters = m
                .parent
                .is_some_and(|p| self.members[p].element.kind != ElementKind::Node);
            let e = &m.element;
            PlanMember::new(e.id, e.kind, m.out_kind, m.parent, enters)
        });
        Linked {
            members: members.collect(),
            top: self.top,
            kind: self.kind,
            out_parent: self.out_edge.parent,
            in_edge: self.in_edge.map(|e| (e, self.attach, self.in_kind)),
        }
    }
}

impl WirePlan {
    /// The plan spelled out.
    #[cfg(test)]
    pub(crate) fn of(plan: &SolvePlan) -> WirePlan {
        let mut layers: Vec<Vec<Vec<WireView>>> = (0..plan.num_layers)
            .map(|_| (0..plan.num_machines).map(|_| Vec::new()).collect())
            .collect();
        for (at, view) in plan.views() {
            layers[at.layer() as usize - 1][at.machine as usize].push(WireView::of(plan, &view));
        }
        WirePlan {
            num_layers: plan.num_layers,
            num_machines: plan.num_machines,
            root: plan.root,
            top_cluster: plan.top_cluster,
            top_machine: plan.top_machine,
            aux_nodes: plan.aux_nodes.clone(),
            layers,
        }
    }

    /// Pack the views into a plan, derive its routing indexes, and check it: the
    /// layer/machine shape and every member tree before packing, the plan's own
    /// invariants ([`SolvePlan::validate`]) after, and last that every field the
    /// compact layout derives reads back as the snapshot wrote it.
    fn into_plan(self) -> Result<SolvePlan, &'static str> {
        if self.num_machines == 0
            || self.layers.len() != self.num_layers as usize
            || self.layers.iter().any(|l| l.len() != self.num_machines)
        {
            return Err("plan layer/machine layout");
        }
        let mut skeletons: Vec<Skeletons> = (0..self.num_machines)
            .map(|_| Skeletons::new(self.num_layers))
            .collect();
        for (layer, machines) in (1u32..).zip(&self.layers) {
            for (held, views) in skeletons.iter_mut().zip(machines) {
                for view in views {
                    view.validate()?;
                    held.push(layer, view.linked());
                }
            }
        }
        skeletons.iter_mut().for_each(Skeletons::shrink_to_fit);
        let plan = SolvePlan {
            num_layers: self.num_layers,
            num_machines: self.num_machines,
            root: self.root,
            top_cluster: self.top_cluster,
            top_machine: self.top_machine,
            aux_nodes: self.aux_nodes,
            routing: Routing::of(&skeletons, self.num_layers),
            skeletons,
        };
        // What the evaluation pass and the splice rely on.
        plan.validate()?;
        for (at, view) in plan.views() {
            let li = at.layer() as usize - 1;
            self.layers[li][at.machine as usize][at.view as usize].agrees_with(&plan, &view)?;
        }
        Ok(plan)
    }
}

impl Snapshot for SolvePlan {
    fn encode(&self, w: &mut SnapshotWriter) {
        // The layout of `WirePlan`, written straight from the compact views.
        w.put_u32(self.num_layers);
        w.put_usize(self.num_machines);
        w.put_u64(self.root);
        w.put_u64(self.top_cluster);
        w.put_usize(self.top_machine);
        self.aux_nodes.encode(w);
        w.put_usize(self.num_layers as usize);
        for layer in 1..=self.num_layers {
            w.put_usize(self.num_machines);
            for machine in 0..self.num_machines {
                w.put_usize(self.skeletons[machine].len_at(layer));
                for view in self.views_at(layer, machine) {
                    encode_view(self, &view, w);
                }
            }
        }
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        // Checked here, once, for everything that carries a plan (tree, store, tenant).
        WirePlan::decode(r)?
            .into_plan()
            .map_err(SnapshotError::Malformed)
    }
}

impl Snapshot for PreparedTree {
    fn encode(&self, w: &mut SnapshotWriter) {
        self.clustering.encode(w);
        self.edges.encode(w);
        // The clustering's root and node count a second time: the layout keeps these
        // slots (so the kind stays), and decode checks them against the clustering.
        w.put_u64(self.clustering.root);
        w.put_usize(self.clustering.num_nodes);
        w.put_usize(self.original_nodes);
        self.aux_to_original.encode(w);
        // The cached plan travels with the tree when built; a tree snapshotted before
        // its first solve restores plan-less and rebuilds lazily (charged as usual).
        self.plan.get().cloned().encode(w);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let clustering = Clustering::decode(r)?;
        let edges = DistVec::decode(r)?;
        if (r.take_u64()?, r.take_usize()?) != (clustering.root, clustering.num_nodes) {
            return Err(SnapshotError::Malformed(
                "tree root or node count differs from its clustering's",
            ));
        }
        let original_nodes = r.take_usize()?;
        let aux_to_original = DistVec::decode(r)?;
        let plan_value: Option<SolvePlan> = Option::decode(r)?;
        let plan = OnceCell::new();
        if let Some(p) = plan_value {
            if (p.root, p.top_cluster, p.num_layers)
                != (
                    clustering.root,
                    clustering.top_cluster,
                    clustering.num_layers,
                )
            {
                return Err(SnapshotError::Malformed(
                    "cached plan of another clustering",
                ));
            }
            // A freshly created cell accepts exactly one value; ignore the Ok(()).
            let _ = plan.set(p);
        }
        Ok(PreparedTree {
            clustering,
            edges,
            original_nodes,
            aux_to_original,
            plan,
        })
    }
}

// ----- problem-state impls ----------------------------------------------------------

impl Snapshot for StateSummary {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.states);
        w.put_bool(self.has_attach);
        self.values.encode(w);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(StateSummary {
            states: r.take_usize()?,
            has_attach: r.take_bool()?,
            values: Vec::decode(r)?,
        })
    }
}

impl<I: Snapshot, S: Snapshot> Snapshot for Payload<I, S> {
    fn encode(&self, w: &mut SnapshotWriter) {
        match self {
            Payload::Input(i) => {
                w.put_u8(0);
                i.encode(w);
            }
            Payload::Summary(s) => {
                w.put_u8(1);
                s.encode(w);
            }
        }
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        match r.take_u8()? {
            0 => Ok(Payload::Input(I::decode(r)?)),
            1 => Ok(Payload::Summary(S::decode(r)?)),
            _ => Err(SnapshotError::Malformed("Payload tag")),
        }
    }
}

impl<P: ClusterDp> Snapshot for SlotState<P>
where
    P::NodeInput: Snapshot,
    P::EdgeInput: Snapshot,
    P::Summary: Snapshot,
{
    fn encode(&self, w: &mut SnapshotWriter) {
        self.payloads.encode(w);
        self.out_inputs.encode(w);
        self.in_input.encode(w);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(SlotState {
            payloads: Vec::decode(r)?,
            out_inputs: Vec::decode(r)?,
            in_input: Option::decode(r)?,
        })
    }
}

impl<P: ClusterDp> Snapshot for SolverStore<P>
where
    P::NodeInput: Snapshot,
    P::EdgeInput: Snapshot,
    P::Summary: Snapshot,
    P::Label: Snapshot,
{
    fn encode(&self, w: &mut SnapshotWriter) {
        self.plan.encode(w);
        self.state.encode(w);
        self.labels.encode(w);
        self.root_label.encode(w);
        self.root_summary.encode(w);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let store = SolverStore {
            plan: SolvePlan::decode(r)?,
            state: Vec::decode(r)?,
            labels: BTreeMap::decode(r)?,
            root_label: P::Label::decode(r)?,
            root_summary: P::Summary::decode(r)?,
        };
        match store.state_mismatch() {
            Some(what) => Err(SnapshotError::Malformed(what)),
            None => Ok(store),
        }
    }
}

// ----- inherent convenience APIs ----------------------------------------------------

impl PreparedTree {
    /// Serialize this prepared tree (clustering, edges, aux map, and the cached plan
    /// when built) as a complete [`KIND_PREPARED_TREE`] snapshot.
    pub fn to_snapshot(&self) -> Vec<u8> {
        snapshot_to_bytes(KIND_PREPARED_TREE, self)
    }

    /// Restore a prepared tree from [`to_snapshot`](Self::to_snapshot) bytes.
    pub fn from_snapshot(bytes: &[u8]) -> Result<Self, SnapshotError> {
        snapshot_from_bytes(KIND_PREPARED_TREE, bytes)
    }
}

impl SolvePlan {
    /// Serialize this plan as a complete [`KIND_PLAN`] snapshot.
    pub fn to_snapshot(&self) -> Vec<u8> {
        snapshot_to_bytes(KIND_PLAN, self)
    }

    /// Restore a plan from [`to_snapshot`](Self::to_snapshot) bytes.
    pub fn from_snapshot(bytes: &[u8]) -> Result<Self, SnapshotError> {
        snapshot_from_bytes(KIND_PLAN, bytes)
    }
}

impl<P: ClusterDp> SolverStore<P>
where
    P::NodeInput: Snapshot,
    P::EdgeInput: Snapshot,
    P::Summary: Snapshot,
    P::Label: Snapshot,
{
    /// Serialize this store as a complete [`KIND_STORE`] snapshot.
    pub fn to_snapshot(&self) -> Vec<u8> {
        snapshot_to_bytes(KIND_STORE, self)
    }

    /// Restore a store from [`to_snapshot`](Self::to_snapshot) bytes.
    pub fn from_snapshot(bytes: &[u8]) -> Result<Self, SnapshotError> {
        snapshot_from_bytes(KIND_STORE, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapshotWriter::new();
        42u8.encode(&mut w);
        7u32.encode(&mut w);
        u64::MAX.encode(&mut w);
        (-5i64).encode(&mut w);
        123usize.encode(&mut w);
        true.encode(&mut w);
        1.5f64.encode(&mut w);
        "héllo".to_string().encode(&mut w);
        Some(9u64).encode(&mut w);
        Option::<u64>::None.encode(&mut w);
        vec![1u64, 2, 3].encode(&mut w);
        let map: BTreeMap<u64, bool> = [(1, true), (2, false)].into_iter().collect();
        map.encode(&mut w);

        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(u8::decode(&mut r).unwrap(), 42);
        assert_eq!(u32::decode(&mut r).unwrap(), 7);
        assert_eq!(u64::decode(&mut r).unwrap(), u64::MAX);
        assert_eq!(i64::decode(&mut r).unwrap(), -5);
        assert_eq!(usize::decode(&mut r).unwrap(), 123);
        assert!(bool::decode(&mut r).unwrap());
        assert_eq!(f64::decode(&mut r).unwrap(), 1.5);
        assert_eq!(String::decode(&mut r).unwrap(), "héllo");
        assert_eq!(Option::<u64>::decode(&mut r).unwrap(), Some(9));
        assert_eq!(Option::<u64>::decode(&mut r).unwrap(), None);
        assert_eq!(Vec::<u64>::decode(&mut r).unwrap(), vec![1, 2, 3]);
        assert_eq!(BTreeMap::<u64, bool>::decode(&mut r).unwrap(), map);
        r.finish().unwrap();
    }

    #[test]
    fn header_round_trip_and_rejections() {
        let mut w = SnapshotWriter::new();
        vec![1u64, 2, 3].encode(&mut w);
        let sealed = seal(KIND_PLAN, w);

        // Good path.
        let mut r = open(&sealed, KIND_PLAN).unwrap();
        assert_eq!(Vec::<u64>::decode(&mut r).unwrap(), vec![1, 2, 3]);
        r.finish().unwrap();

        // Wrong kind.
        assert_eq!(
            open(&sealed, KIND_STORE).unwrap_err(),
            SnapshotError::WrongKind {
                found: KIND_PLAN,
                expected: KIND_STORE
            }
        );

        // Bad magic.
        let mut bad = sealed.clone();
        bad[0] ^= 0xff;
        assert_eq!(open(&bad, KIND_PLAN).unwrap_err(), SnapshotError::BadMagic);

        // Future version.
        let mut vers = sealed.clone();
        vers[8..12].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
        assert_eq!(
            open(&vers, KIND_PLAN).unwrap_err(),
            SnapshotError::UnsupportedVersion {
                found: SNAPSHOT_VERSION + 1
            }
        );

        // Truncated payload.
        let cut = &sealed[..sealed.len() - 3];
        assert_eq!(open(cut, KIND_PLAN).unwrap_err(), SnapshotError::Truncated);

        // Flipped payload byte.
        let mut flip = sealed.clone();
        let last = flip.len() - 1;
        flip[last] ^= 1;
        assert_eq!(
            open(&flip, KIND_PLAN).unwrap_err(),
            SnapshotError::ChecksumMismatch
        );

        // Trailing garbage.
        let mut long = sealed.clone();
        long.push(0);
        assert!(matches!(
            open(&long, KIND_PLAN).unwrap_err(),
            SnapshotError::Malformed(_)
        ));
    }

    #[test]
    fn truncated_header_is_an_error() {
        assert_eq!(
            open(&SNAPSHOT_MAGIC[..5], KIND_PLAN).unwrap_err(),
            SnapshotError::Truncated
        );
        assert_eq!(open(&[], KIND_PLAN).unwrap_err(), SnapshotError::Truncated);
    }

    #[test]
    fn corrupt_length_does_not_overallocate() {
        // A Vec whose recorded length far exceeds the remaining bytes must fail with
        // Truncated, not attempt the allocation.
        let mut w = SnapshotWriter::new();
        w.put_u64(u64::MAX / 2);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert!(matches!(
            Vec::<u64>::decode(&mut r),
            Err(SnapshotError::Truncated) | Err(SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_length_prefix_is_malformed_before_allocating() {
        // A Vec length claiming more elements than bytes remain is rejected up front
        // with the dedicated Malformed message, before any allocation or element walk.
        let mut w = SnapshotWriter::new();
        w.put_u64(1_000);
        w.put_u64(42); // only 8 bytes of element data follow
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(
            Vec::<u64>::decode(&mut r).unwrap_err(),
            SnapshotError::Malformed("length prefix exceeds buffer")
        );

        // Same guard on String byte lengths, map entry counts, and DistVec chunks.
        let mut w = SnapshotWriter::new();
        w.put_u64(u64::MAX / 2);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(
            String::decode(&mut r).unwrap_err(),
            SnapshotError::Malformed("length prefix exceeds buffer")
        );
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(
            BTreeMap::<u64, u64>::decode(&mut r).unwrap_err(),
            SnapshotError::Malformed("length prefix exceeds buffer")
        );
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(
            DistVec::<u64>::decode(&mut r).unwrap_err(),
            SnapshotError::Malformed("length prefix exceeds buffer")
        );
    }

    #[test]
    fn config_round_trips_bit_exact() {
        let cfg = MpcConfig::new(4096, 0.5)
            .with_memory_slack(64.0)
            .with_bandwidth_slack(64.0)
            .with_strict(true);
        let mut w = SnapshotWriter::new();
        cfg.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        let back = MpcConfig::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(cfg, back);
    }

    #[test]
    fn state_summary_round_trips() {
        let s = StateSummary {
            states: 4,
            has_attach: true,
            values: vec![Some(7), None, Some(-3), Some(0)],
        };
        let mut w = SnapshotWriter::new();
        s.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(StateSummary::decode(&mut r).unwrap(), s);
        r.finish().unwrap();
    }
}
