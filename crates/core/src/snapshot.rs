//! Hand-rolled binary snapshot codec for the serving layer: persist a
//! [`PreparedTree`] (with its cached [`SolvePlan`]) and a [`SolverStore`] to plain
//! bytes and restore them bit-identically — pure `std`, no external serialization
//! crates.
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
//! panics (the workspace's `clippy::unwrap_used` deny applies here like anywhere).
//!
//! A plan is its clustering plus its placement, so no snapshot carries a skeleton: a
//! tree writes its cached plan as the number of views every machine holds at every
//! layer ([`SolvePlan::view_counts`]), and a store writes those counts and its slot
//! columns and decodes against its tree ([`SolverStore::from_snapshot`]). Decoding
//! links the plan from the clustering as a plan build links it ([`SolvePlan::link`])
//! and derives the routing from the skeletons. A payload has no tag either: a node
//! member holds an input, a cluster member a summary. No snapshot holds an edge kind:
//! every kind is read off the edge's child id
//! ([`EdgeKind::leaving`](tree_clustering::EdgeKind::leaving)). What is left to write
//! wrong is the clustering, and a checksum only vouches for the bytes, so a decoded
//! tree's clustering is checked for what linking and evaluation rely on, plan or no
//! plan, and its auxiliary nodes against their `aux_to_original` records: a re-sealed
//! payload with one field out of place is
//! [`SnapshotError::Malformed`], not a panic on the next build, solve or update.
//!
//! The codec is versioned through [`SNAPSHOT_VERSION`]: a reader refuses payloads
//! written by a future version instead of misinterpreting them. Downstream users (the
//! `tree-dp-server` crate's tenant snapshots, which write the tree before the store)
//! layer their own kinds on top via [`seal`] / [`open`].

use crate::pipeline::PreparedTree;
use crate::plan::{link_views, SolvePlan};
use crate::problem::{ClusterDp, Payload, SlotColumns};
use crate::state_dp::StateSummary;
use crate::store::SolverStore;
use mpc_engine::{unmetered, DistVec, MpcConfig};
use std::cell::OnceCell;
use std::collections::BTreeMap;
use tree_clustering::{is_aux_node, Clustering, Element, ElementKind};
use tree_repr::{DirectedEdge, NodeId};

/// Magic bytes opening every snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"TREEDPSS";

/// Current format version written by [`seal`] and accepted by [`open`].
pub const SNAPSHOT_VERSION: u32 = 1;

/// Payload kind: a [`PreparedTree`] (with its cached plan, if built). Bumped 1 → 5
/// when plans stopped carrying their routing indexes, 5 → 8 when plans began to travel
/// as their compact skeletons and the tree lost its second root and node count, 8 → 9
/// when the edge list and the plan stopped carrying edge kinds, 9 → 10 when the plan
/// began to travel as its view counts alone. (Kinds 2, 6, 9 and 10 were bare plans,
/// which no longer travel: a plan is linked from its tree's clustering.)
pub const KIND_PREPARED_TREE: u32 = 10;
/// Payload kind: a [`SolverStore`]. Bumped 3 → 4 when the store became a plan plus
/// slot state (kind 3 held a cloned view per cluster and a payload map), 4 → 7 when
/// plans stopped carrying their routing indexes, 7 → 10 when they began to travel as
/// their compact skeletons, 10 → 11 when they stopped carrying edge kinds, 11 → 12
/// when the plan began to travel as its view counts and payloads lost their tag.
pub const KIND_STORE: u32 = 12;

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

impl<A: Snapshot, B: Snapshot, C: Snapshot> Snapshot for (A, B, C) {
    fn encode(&self, w: &mut SnapshotWriter) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
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

// ----- tree impls -------------------------------------------------------------------

impl Snapshot for PreparedTree {
    /// The cached plan travels as its placement alone, the number of views on every
    /// machine at every layer ([`SolvePlan::view_counts`]): the clustering fixes the
    /// rest.
    fn encode(&self, w: &mut SnapshotWriter) {
        self.clustering.encode(w);
        self.edges.encode(w);
        w.put_usize(self.original_nodes);
        self.aux_to_original.encode(w);
        // A tree snapshotted before its first solve restores plan-less and builds its
        // plan lazily (charged as usual).
        self.plan.get().map(SolvePlan::view_counts).encode(w);
    }

    /// Check the clustering for what linking and evaluation rely on and link the
    /// cached plan from it when the tree carries one ([`SolvePlan::link`]), then check
    /// that the auxiliary nodes are exactly those with an original — so a decoded
    /// tree, plan-less or not, builds, links and solves without a panic.
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let clustering = Clustering::decode(r)?;
        let edges = DistVec::decode(r)?;
        let original_nodes = r.take_usize()?;
        let aux_to_original: DistVec<(NodeId, NodeId)> = DistVec::decode(r)?;
        let plan = match Option::<Vec<usize>>::decode(r)? {
            Some(counts) => {
                let linked = SolvePlan::link(&clustering, &aux_to_original, &counts);
                OnceCell::from(linked.map_err(SnapshotError::Malformed)?)
            }
            None => {
                link_views(&clustering, &aux_to_original).map_err(SnapshotError::Malformed)?;
                OnceCell::new()
            }
        };
        // Every auxiliary node's input is its `aux_to_original` record's.
        let mut aux: Vec<NodeId> = aux_to_original.iter().map(|(aux, _)| *aux).collect();
        aux.sort_unstable();
        let nodes = (clustering.elements.iter()).filter(|e| e.kind == ElementKind::Node);
        let mut held: Vec<NodeId> = nodes.map(|e| e.id).filter(|&id| is_aux_node(id)).collect();
        held.sort_unstable();
        if aux != held {
            return Err(SnapshotError::Malformed("aux_to_original records"));
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

/// Write `value` as an `Option<T>` is written.
fn put_option<T: Snapshot>(w: &mut SnapshotWriter, value: Option<&T>) {
    w.put_u8(u8::from(value.is_some()));
    if let Some(value) = value {
        value.encode(w);
    }
}

impl<P: ClusterDp> SolverStore<P>
where
    P::NodeInput: Snapshot,
    P::EdgeInput: Snapshot,
    P::Summary: Snapshot,
    P::Label: Snapshot,
{
    /// Append this store's encoding to `w`: its plan's placement
    /// ([`SolvePlan::view_counts`]), then bucket by bucket, layer-major, its slot
    /// columns — every member's payload without a tag (a node member holds an input,
    /// a cluster member a summary), every member's out-edge input and every view's
    /// in-edge input as options — and the labels.
    pub fn encode(&self, w: &mut SnapshotWriter) {
        self.plan.view_counts().encode(w);
        for columns in &self.state {
            for payload in &columns.payloads {
                match payload
                    .as_ref()
                    .expect("a solved store fills every payload")
                {
                    Payload::Input(input) => input.encode(w),
                    Payload::Summary(summary) => summary.encode(w),
                }
            }
            let members = 0..columns.payloads.len();
            members.for_each(|i| put_option(w, columns.out_inputs.get(i)));
            let views = 0..columns.in_inputs.values.len();
            views.for_each(|v| put_option(w, columns.in_inputs.get(v)));
        }
        self.labels.encode(w);
        self.root_label.encode(w);
        self.root_summary.encode(w);
    }

    /// Decode a store [`encode`](Self::encode) wrote for `tree`: its plan is linked
    /// from the tree's clustering under the decoded placement ([`SolvePlan::link`]),
    /// and the columns are read in the shape that plan gives them.
    pub fn decode(r: &mut SnapshotReader<'_>, tree: &PreparedTree) -> Result<Self, SnapshotError> {
        let counts = Vec::<usize>::decode(r)?;
        let plan = SolvePlan::link(&tree.clustering, &tree.aux_to_original, &counts)
            .map_err(SnapshotError::Malformed)?;
        let mut state = Vec::with_capacity(counts.len());
        for layer in 1..=plan.num_layers {
            for held in &plan.skeletons {
                let mut columns = SlotColumns::new(held.members_at(layer), held.len_at(layer));
                let kinds = held.views(layer).flat_map(|view| view.members().iter());
                for (slot, member) in columns.payloads.iter_mut().zip(kinds) {
                    *slot = Some(match member.kind() {
                        ElementKind::Node => Payload::Input(P::NodeInput::decode(r)?),
                        _ => Payload::Summary(P::Summary::decode(r)?),
                    });
                }
                for i in 0..held.members_at(layer) {
                    columns.out_inputs.set(i, Option::decode(r)?);
                }
                for v in 0..held.len_at(layer) {
                    columns.in_inputs.set(v, Option::decode(r)?);
                }
                state.push(columns);
            }
        }
        Ok(SolverStore {
            plan,
            state,
            labels: BTreeMap::decode(r)?,
            root_label: P::Label::decode(r)?,
            root_summary: P::Summary::decode(r)?,
        })
    }

    /// Serialize this store as a complete [`KIND_STORE`] snapshot.
    pub fn to_snapshot(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        self.encode(&mut w);
        seal(KIND_STORE, w)
    }

    /// Restore a store from [`to_snapshot`](Self::to_snapshot) bytes written for
    /// `tree`.
    pub fn from_snapshot(bytes: &[u8], tree: &PreparedTree) -> Result<Self, SnapshotError> {
        let mut r = open(bytes, KIND_STORE)?;
        let store = Self::decode(&mut r, tree)?;
        r.finish()?;
        Ok(store)
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
        let sealed = seal(KIND_PREPARED_TREE, w);

        // Good path.
        let mut r = open(&sealed, KIND_PREPARED_TREE).unwrap();
        assert_eq!(Vec::<u64>::decode(&mut r).unwrap(), vec![1, 2, 3]);
        r.finish().unwrap();

        // Wrong kind.
        assert_eq!(
            open(&sealed, KIND_STORE).unwrap_err(),
            SnapshotError::WrongKind {
                found: KIND_PREPARED_TREE,
                expected: KIND_STORE
            }
        );

        // Bad magic.
        let mut bad = sealed.clone();
        bad[0] ^= 0xff;
        assert_eq!(
            open(&bad, KIND_PREPARED_TREE).unwrap_err(),
            SnapshotError::BadMagic
        );

        // Future version.
        let mut vers = sealed.clone();
        vers[8..12].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
        assert_eq!(
            open(&vers, KIND_PREPARED_TREE).unwrap_err(),
            SnapshotError::UnsupportedVersion {
                found: SNAPSHOT_VERSION + 1
            }
        );

        // Truncated payload.
        let cut = &sealed[..sealed.len() - 3];
        assert_eq!(
            open(cut, KIND_PREPARED_TREE).unwrap_err(),
            SnapshotError::Truncated
        );

        // Flipped payload byte.
        let mut flip = sealed.clone();
        let last = flip.len() - 1;
        flip[last] ^= 1;
        assert_eq!(
            open(&flip, KIND_PREPARED_TREE).unwrap_err(),
            SnapshotError::ChecksumMismatch
        );

        // Trailing garbage.
        let mut long = sealed.clone();
        long.push(0);
        assert!(matches!(
            open(&long, KIND_PREPARED_TREE).unwrap_err(),
            SnapshotError::Malformed(_)
        ));
    }

    #[test]
    fn truncated_header_is_an_error() {
        assert_eq!(
            open(&SNAPSHOT_MAGIC[..5], KIND_PREPARED_TREE).unwrap_err(),
            SnapshotError::Truncated
        );
        assert_eq!(
            open(&[], KIND_PREPARED_TREE).unwrap_err(),
            SnapshotError::Truncated
        );
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
