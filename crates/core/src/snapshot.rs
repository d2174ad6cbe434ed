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
//! plan travels as what its skeletons store ([`crate::skeleton`]) and nothing they
//! derive: per layer and machine the number of views, per view its kind, the parent
//! end of its outgoing edge, its top index and its incoming-edge record, per member
//! its id, kind, outgoing-edge kind and parent index. Decoding derives the rest — child
//! runs, enters-parent flags, routing indexes — as a plan build does. A checksum only
//! vouches for the bytes, so a decoded [`SolvePlan`] is also checked for member trees
//! its skeletons can hold and for what the evaluation pass relies on
//! ([`SolvePlan::validate`]), a decoded [`SolverStore`] for slot state that matches
//! its plan, and a decoded [`PreparedTree`] for a cached plan of its own clustering: a
//! re-sealed payload with one index out of place is [`SnapshotError::Malformed`], not a
//! panic on the next solve.
//!
//! The codec is versioned through [`SNAPSHOT_VERSION`]: a reader refuses payloads
//! written by a future version instead of misinterpreting them. Downstream users (the
//! `tree-dp-server` crate's tenant snapshots) layer their own kinds on top via
//! [`seal`] / [`open`].

use crate::pipeline::PreparedTree;
use crate::plan::{PlanMember, SolvePlan};
use crate::problem::{ClusterDp, Payload, SlotState};
use crate::routing::Routing;
use crate::skeleton::{Linked, Skeletons, MAX_MEMBERS};
use crate::state_dp::StateSummary;
use crate::store::SolverStore;
use mpc_engine::{unmetered, DistVec, MpcConfig};
use std::cell::OnceCell;
use std::collections::BTreeMap;
use tree_clustering::{Clustering, EdgeKind, Element, ElementKind};
use tree_repr::DirectedEdge;

/// Magic bytes opening every snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"TREEDPSS";

/// Current format version written by [`seal`] and accepted by [`open`].
pub const SNAPSHOT_VERSION: u32 = 1;

/// Payload kind: a [`PreparedTree`] (with its cached plan, if built). Bumped 1 → 5
/// when plans stopped carrying their routing indexes, 5 → 8 when plans began to travel
/// as their compact skeletons and the tree lost its second root and node count.
pub const KIND_PREPARED_TREE: u32 = 8;
/// Payload kind: a bare [`SolvePlan`]. Bumped 2 → 6 when plans stopped carrying their
/// routing indexes, 6 → 9 when they began to travel as their compact skeletons.
pub const KIND_PLAN: u32 = 9;
/// Payload kind: a [`SolverStore`]. Bumped 3 → 4 when the store became a plan plus
/// slot state (kind 3 held a cloned view per cluster and a payload map), 4 → 7 when
/// plans stopped carrying their routing indexes, 7 → 10 when they began to travel as
/// their compact skeletons.
pub const KIND_STORE: u32 = 10;

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

/// Write a plan in its snapshot layout: `plan`'s header fields and auxiliary nodes,
/// then, layer by layer and machine by machine, the number of views and each view
/// ([`write_view`]). `views` yields one `(layer, machine)` bucket after another — the
/// plan's own views when it is encoded.
pub(crate) fn write_plan(
    plan: &SolvePlan,
    views: impl Iterator<Item = Vec<Linked>>,
    w: &mut SnapshotWriter,
) {
    w.put_u32(plan.num_layers);
    w.put_usize(plan.num_machines);
    w.put_u64(plan.root);
    w.put_u64(plan.top_cluster);
    w.put_usize(plan.top_machine);
    plan.aux_nodes.encode(w);
    for bucket in views {
        w.put_usize(bucket.len());
        bucket.iter().for_each(|view| write_view(view, w));
    }
}

/// Write one view as its skeleton stores it and nothing it derives: its kind, the
/// parent end of its outgoing edge, its top index and its incoming-edge record, then
/// each member's id, kind, outgoing-edge kind and parent index.
fn write_view(view: &Linked, w: &mut SnapshotWriter) {
    view.kind.encode(w);
    w.put_u64(view.out_parent);
    w.put_usize(view.top);
    view.in_edge.encode(w);
    w.put_usize(view.members.len());
    for member in &view.members {
        w.put_u64(member.id());
        member.kind().encode(w);
        member.out_kind().encode(w);
        member.parent().encode(w);
    }
}

/// Read one view written by [`write_view`] and check its member tree, which
/// [`Skeletons::push`] relies on; an edge into a contracted parent is that parent's
/// incoming edge, as a plan build links them.
fn read_view(r: &mut SnapshotReader<'_>) -> Result<Linked, SnapshotError> {
    let kind = ElementKind::decode(r)?;
    let out_parent = r.take_u64()?;
    let top = r.take_usize()?;
    let in_edge: Option<(DirectedEdge, Option<usize>, EdgeKind)> = Option::decode(r)?;
    let len = r.take_len()?;
    let (mut written, mut parents) = (Vec::with_capacity(len), Vec::with_capacity(len));
    for _ in 0..len {
        written.push((r.take_u64()?, ElementKind::decode(r)?, EdgeKind::decode(r)?));
        parents.push(Option::<usize>::decode(r)?);
    }
    check_member_tree(&parents, top, in_edge.and_then(|(_, attach, _)| attach))
        .map_err(SnapshotError::Malformed)?;
    let members = written
        .iter()
        .zip(&parents)
        .map(|(&(id, kind, out_kind), &parent)| {
            let enters = parent.is_some_and(|p| written[p].1 != ElementKind::Node);
            PlanMember::new(id, kind, out_kind, parent, enters)
        });
    Ok(Linked {
        members: members.collect(),
        top,
        kind,
        out_parent,
        in_edge,
    })
}

/// Check that `parents` links one tree hanging from member `top`: `top`, `attach` and
/// every parent index in range, fewer than [`MAX_MEMBERS`] members, the top member
/// without a parent, and every member reached once from it — walking up from any
/// member ends at the top, not at a second root or in a cycle.
fn check_member_tree(
    parents: &[Option<usize>],
    top: usize,
    attach: Option<usize>,
) -> Result<(), &'static str> {
    let n = parents.len();
    if top >= n || attach.is_some_and(|a| a >= n) {
        return Err("view top/attach index");
    }
    if n >= MAX_MEMBERS {
        return Err("view member count");
    }
    if parents.iter().flatten().any(|&p| p >= n) {
        return Err("view parent index");
    }
    if parents[top].is_some() {
        return Err("view top member has a parent");
    }
    let mut hangs = vec![false; n];
    hangs[top] = true;
    let mut walk = Vec::new();
    for start in 0..n {
        let mut i = start;
        while !hangs[i] {
            // A walk through more than `n` members has gone round a cycle.
            if walk.len() == n {
                return Err("view member tree");
            }
            walk.push(i);
            i = parents[i].ok_or("view member tree")?;
        }
        walk.drain(..).for_each(|j| hangs[j] = true);
    }
    Ok(())
}

impl Snapshot for SolvePlan {
    fn encode(&self, w: &mut SnapshotWriter) {
        let buckets = (1..=self.num_layers).flat_map(|layer| {
            (0..self.num_machines).map(move |machine| {
                self.views_at(layer, machine)
                    .map(|v| v.linked())
                    .collect::<Vec<_>>()
            })
        });
        write_plan(self, buckets, w);
    }
    /// Read the views into skeletons, derive the routing indexes from them, as a plan
    /// build does, and check what the evaluation pass relies on
    /// ([`SolvePlan::validate`]) — here, once, for everything that carries a plan
    /// (tree, store, tenant).
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let num_layers = r.take_u32()?;
        let num_machines = r.take_usize()?;
        let root = r.take_u64()?;
        let top_cluster = r.take_u64()?;
        let top_machine = r.take_usize()?;
        let aux_nodes = Vec::decode(r)?;
        // Eight bytes of view count per layer and machine follow: a payload too short
        // to hold them is refused before any machine's skeletons are allocated.
        let buckets = (num_layers as usize).checked_mul(num_machines);
        if !buckets.is_some_and(|b| b > 0 && b <= r.remaining() / 8) {
            return Err(SnapshotError::Malformed("plan layer/machine layout"));
        }
        let mut skeletons: Vec<Skeletons> = (0..num_machines)
            .map(|_| Skeletons::new(num_layers))
            .collect();
        for layer in 1..=num_layers {
            for held in &mut skeletons {
                for _ in 0..r.take_len()? {
                    held.push(layer, read_view(r)?);
                }
            }
        }
        skeletons.iter_mut().for_each(Skeletons::shrink_to_fit);
        let plan = SolvePlan {
            num_layers,
            num_machines,
            root,
            top_cluster,
            top_machine,
            aux_nodes,
            routing: Routing::of(&skeletons, num_layers),
            skeletons,
        };
        plan.validate().map_err(SnapshotError::Malformed)?;
        Ok(plan)
    }
}

impl Snapshot for PreparedTree {
    fn encode(&self, w: &mut SnapshotWriter) {
        self.clustering.encode(w);
        self.edges.encode(w);
        w.put_usize(self.original_nodes);
        self.aux_to_original.encode(w);
        // The cached plan travels with the tree when built; a tree snapshotted before
        // its first solve restores plan-less and rebuilds lazily (charged as usual).
        self.plan.get().cloned().encode(w);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let clustering = Clustering::decode(r)?;
        let edges: DistVec<(DirectedEdge, EdgeKind)> = DistVec::decode(r)?;
        // Plan build reads every edge kind off the child id, never off this list.
        if edges
            .iter()
            .any(|(e, kind)| *kind != EdgeKind::leaving(e.child))
        {
            return Err(SnapshotError::Malformed(
                "edge kind other than its child id decides",
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
