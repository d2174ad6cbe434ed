//! The routing indexes of a solve plan: which member slot every payload reaches, which
//! slots carry every edge's input, and which views read every label. They are a pure
//! function of the plan's skeleton views ([`Routing::of`]) — the one derivation plan
//! build, snapshot decode and the drift audit share — kept flat beside them so that an
//! evaluation pass and a splice find every slot by key.
//!
//! Every index is a [`Run`]: one key-sorted vector of `(key, value)` entries, probed
//! through the engine's segmented bucket [`Directory`] — the one the engine's table
//! indexes use — never a tree walk. A key with several slots maps to a [`Span`] of one
//! flat slot vector ([`Lists`]). A structural splice patches a run in place, in
//! `O(touched)`: a removed key keeps its place with a vacant value (a tombstone), a new
//! key goes to a small sorted overflow run, and once the patches since the last rebuild
//! pass an eighth of the run it is rebuilt from its live entries — `O(run)` every
//! `run / 8` patches. Nothing is sized by key magnitude: an id linked anywhere costs
//! one entry, and node, auxiliary and cluster ids share one payload run because the
//! directory gives each id range segments of its own.

use crate::plan::{MemberSlot, PlanMember, PlanView, ViewSlot};
use mpc_engine::Directory;
use tree_clustering::{ElementId, VIRTUAL_NODE};
use tree_repr::NodeId;

/// A value of a [`Run`] that can mark its key as removed.
pub(crate) trait Value: Copy + PartialEq {
    /// The tombstone a removed key keeps in place.
    const VACANT: Self;
    /// `true` for a tombstone.
    fn is_vacant(&self) -> bool;
}

impl Value for MemberSlot {
    // Layers count from 1: no member lies at layer 0.
    const VACANT: Self = MemberSlot {
        layer: 0,
        machine: 0,
        view: 0,
        member: 0,
    };

    fn is_vacant(&self) -> bool {
        self.layer == 0
    }
}

/// A key's slots in a [`Lists`]: `slots[start..end]`. A removed key keeps an empty span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Span {
    start: u32,
    end: u32,
}

impl Value for Span {
    const VACANT: Self = Span { start: 0, end: 0 };

    fn is_vacant(&self) -> bool {
        self.start == self.end
    }
}

/// A key-sorted run of `(key, value)` entries probed through a [`Directory`], patched
/// in place (see the module docs). Equal to another run when both hold the same live
/// entries, however they are laid out.
#[derive(Debug, Clone)]
pub(crate) struct Run<V> {
    /// `(key, value)` in key order. Only a malformed plan repeats a key; a probe finds
    /// the first entry.
    entries: Vec<(u64, V)>,
    directory: Directory,
    /// Keys inserted since the last rebuild that had no tombstone to take, in key order.
    overflow: Vec<(u64, V)>,
    /// Insertions and removals since the last rebuild.
    patches: usize,
}

impl<V: Value> Run<V> {
    /// The run of `entries`, which are sorted by key.
    fn from_sorted(mut entries: Vec<(u64, V)>) -> Self {
        entries.shrink_to_fit();
        Run {
            directory: Directory::over(&entries, |e| e.0),
            entries,
            overflow: Vec::new(),
            patches: 0,
        }
    }

    /// The index of the first entry (tombstone or not) keyed `key`.
    #[inline]
    fn position(&self, key: u64) -> Option<usize> {
        let bucket = self.directory.bucket(key);
        let start = bucket.start;
        let entries = &self.entries[bucket];
        let at = entries.partition_point(|e| e.0 < key);
        (entries.get(at)?.0 == key).then_some(start + at)
    }

    /// The index of `key` in the overflow run.
    fn extra(&self, key: u64) -> Option<usize> {
        self.overflow.binary_search_by_key(&key, |e| e.0).ok()
    }

    /// The value filed under `key`.
    #[inline]
    pub(crate) fn get(&self, key: u64) -> Option<&V> {
        match self.position(key) {
            Some(i) => Some(&self.entries[i].1).filter(|v| !v.is_vacant()),
            None if self.overflow.is_empty() => None,
            None => self.extra(key).map(|i| &self.overflow[i].1),
        }
    }

    /// The value filed under `key`, to patch in place.
    pub(crate) fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        match self.position(key) {
            Some(i) => Some(&mut self.entries[i].1).filter(|v| !v.is_vacant()),
            None => self.extra(key).map(|i| &mut self.overflow[i].1),
        }
    }

    /// Remove `key`: its entry becomes a tombstone, or leaves the overflow run.
    fn remove(&mut self, key: u64) -> Option<V> {
        let old = match self.position(key) {
            Some(i) => Some(std::mem::replace(&mut self.entries[i].1, V::VACANT))
                .filter(|v| !v.is_vacant()),
            None => self.extra(key).map(|i| self.overflow.remove(i).1),
        };
        self.patches += usize::from(old.is_some());
        old
    }

    /// File `value` under `key`, replacing what it held: in the key's tombstone if it
    /// has one, else in the overflow run.
    fn insert(&mut self, key: u64, value: V) {
        if let Some(i) = self.position(key) {
            self.entries[i].1 = value;
        } else {
            match self.overflow.binary_search_by_key(&key, |e| e.0) {
                Ok(i) => self.overflow[i].1 = value,
                Err(i) => self.overflow.insert(i, (key, value)),
            }
        }
        self.patches += 1;
    }

    /// The live entries in key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &V)> + '_ {
        let mut base = self.entries.iter().filter(|e| !e.1.is_vacant()).peekable();
        let mut extra = self.overflow.iter().peekable();
        std::iter::from_fn(move || {
            let from_base = match (base.peek(), extra.peek()) {
                (Some(a), Some(b)) => a.0 <= b.0,
                (a, _) => a.is_some(),
            };
            let (key, value) = if from_base { base.next() } else { extra.next() }?;
            Some((*key, value))
        })
    }

    /// `true` once the patches since the last rebuild pass an eighth of the entries.
    fn rebuild_due(&self) -> bool {
        self.patches > self.entries.len() / 8
    }

    /// Rebuild from the live entries when [due](Self::rebuild_due).
    fn rebuild_if_due(&mut self) {
        if self.rebuild_due() {
            *self = Run::from_sorted(self.iter().map(|(key, v)| (key, *v)).collect());
        }
    }

    /// `true` when two entries share a key — the adjacent-duplicate scan of a sorted
    /// run; a map would have collapsed them.
    fn repeats_a_key(&self) -> bool {
        self.entries.windows(2).any(|w| w[0].0 == w[1].0)
    }

    /// Resident size in words: a key word plus `value_words` per entry, and the
    /// directory.
    fn words(&self, value_words: usize) -> usize {
        (self.entries.len() + self.overflow.len()) * (1 + value_words) + self.directory.words()
    }
}

impl<V: Value> PartialEq for Run<V> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

/// Keys with a list of slots each: a [`Run`] of spans over one flat slot vector (the
/// CSR layout). A key's list is in slot order — `(layer, machine, view, member)`, the
/// order the views lie in — so a spliced index equals one derived afresh.
#[derive(Debug, Clone)]
pub(crate) struct Lists<S> {
    run: Run<Span>,
    slots: Vec<S>,
}

impl<S: Copy + PartialEq> Lists<S> {
    /// The lists of `pairs`, which are sorted by key.
    fn from_sorted(pairs: &[(u64, S)]) -> Self {
        let offset = |i: usize| u32::try_from(i).expect("a routing index fits u32 offsets");
        let mut entries: Vec<(u64, Span)> = Vec::new();
        for (i, &(key, _)) in pairs.iter().enumerate() {
            match entries.last_mut() {
                Some((last, span)) if *last == key => span.end = offset(i + 1),
                _ => entries.push((
                    key,
                    Span {
                        start: offset(i),
                        end: offset(i + 1),
                    },
                )),
            }
        }
        Lists {
            run: Run::from_sorted(entries),
            slots: pairs.iter().map(|&(_, slot)| slot).collect(),
        }
    }

    /// The slots filed under `key` (none for an absent key).
    #[inline]
    pub(crate) fn get(&self, key: u64) -> &[S] {
        self.run
            .get(key)
            .map_or(&[], |s| &self.slots[s.start as usize..s.end as usize])
    }

    /// The slots filed under `key`, to patch in place.
    pub(crate) fn get_mut(&mut self, key: u64) -> &mut [S] {
        match self.run.get(key).copied() {
            Some(s) => &mut self.slots[s.start as usize..s.end as usize],
            None => &mut [],
        }
    }

    /// Remove `key` and its slots.
    fn remove(&mut self, key: u64) {
        self.run.remove(key);
    }

    /// File `slots` under `key`, which holds none.
    fn insert(&mut self, key: u64, slots: &[S]) {
        let offset = |i: usize| u32::try_from(i).expect("a routing index fits u32 offsets");
        let start = offset(self.slots.len());
        self.slots.extend_from_slice(slots);
        let end = offset(self.slots.len());
        self.run.insert(key, Span { start, end });
    }

    /// Every live key with its slots, in key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &[S])> + '_ {
        self.run
            .iter()
            .map(|(key, s)| (key, &self.slots[s.start as usize..s.end as usize]))
    }

    /// Rebuild keys and slots from the live lists when the run is due.
    fn rebuild_if_due(&mut self) {
        if self.run.rebuild_due() {
            let pairs: Vec<(u64, S)> = self
                .iter()
                .flat_map(|(key, slots)| slots.iter().map(move |&s| (key, s)))
                .collect();
            *self = Lists::from_sorted(&pairs);
        }
    }

    /// Resident size in words: the run (one word per span) and `slot_words` per slot.
    fn words(&self, slot_words: usize) -> usize {
        self.run.words(1) + self.slots.len() * slot_words
    }
}

impl<S: Copy + PartialEq> PartialEq for Lists<S> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

/// A view reading a label: as its out-label (the label of its outgoing edge) or as its
/// in-label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Reader {
    pub(crate) view: ViewSlot,
    pub(crate) as_out: bool,
}

/// The routing indexes of a plan (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Routing {
    /// Element id (original node, auxiliary node or cluster) → the member slot its
    /// payload must reach: a node's input, a cluster's summary. Only the top cluster
    /// is absent; its summary becomes the root summary.
    pub(crate) payloads: Run<MemberSlot>,
    /// Edge child → member slots whose `out_input` carries that edge's input.
    pub(crate) out_edges: Lists<MemberSlot>,
    /// Label key → the views reading it. A view reading an edge's label as its in-label
    /// also takes the edge's input as its `in_input` (every incoming edge is an edge of
    /// the degree-reduced tree). Unlike out-labels, an in-label may be produced at a
    /// layer *below* its reader, after that reader was labeled; the reader then sees
    /// `None`, so deliveries are filtered to readers strictly below the producer.
    pub(crate) readers: Lists<Reader>,
}

impl Routing {
    /// The routing indexes of `layers`, derived from the skeleton views alone. Every
    /// member takes a payload slot and, unless it leaves by the virtual root edge, an
    /// out-edge input slot; every view reads its outgoing edge's label, and a view with
    /// an incoming edge reads that edge's input and label. Each index is one sort of
    /// its `(key, slot)` pairs, so every per-key list comes out in slot order; the pairs
    /// of one index are dropped before the next one's are collected.
    pub(crate) fn of(layers: &[Vec<Vec<PlanView>>]) -> Routing {
        let views = || {
            layers.iter().zip(1u32..).flat_map(|(layer, li)| {
                layer.iter().zip(0u32..).flat_map(move |(views, machine)| {
                    views.iter().zip(0u32..).map(move |(view, index)| {
                        let at = ViewSlot {
                            layer: li,
                            machine,
                            view: index,
                        };
                        (at, view)
                    })
                })
            })
        };
        let members = || {
            views().flat_map(|(at, view)| {
                let slots = (0..).map(move |idx| at.member_slot(idx));
                view.members.iter().map(|m| m.element).zip(slots)
            })
        };
        let mut payloads: Vec<_> = members().map(|(e, slot)| (e.id, slot)).collect();
        payloads.sort_unstable();
        let out_edges = {
            let mut pairs: Vec<(NodeId, MemberSlot)> = members()
                .filter(|(element, _)| element.out_edge.parent != VIRTUAL_NODE)
                .map(|(element, slot)| (element.out_edge.child, slot))
                .collect();
            pairs.sort_unstable();
            Lists::from_sorted(&pairs)
        };
        let readers = {
            let mut pairs: Vec<(NodeId, Reader)> = Vec::new();
            for (at, view) in views() {
                let read = |as_out| Reader { view: at, as_out };
                pairs.push((view.out_edge.child, read(true)));
                if let Some(e) = view.in_edge {
                    pairs.push((e.child, read(false)));
                }
            }
            pairs.sort_unstable();
            Lists::from_sorted(&pairs)
        };
        Routing {
            payloads: Run::from_sorted(payloads),
            out_edges,
            readers,
        }
    }

    /// The member slot the payload of element `id` must reach.
    #[inline]
    pub(crate) fn payload(&self, id: ElementId) -> Option<&MemberSlot> {
        self.payloads.get(id)
    }

    /// The member slot of element `id`, to patch in place.
    pub(crate) fn payload_mut(&mut self, id: ElementId) -> Option<&mut MemberSlot> {
        self.payloads.get_mut(id)
    }

    /// Forget element `id`'s payload slot, returning it.
    pub(crate) fn remove_payload(&mut self, id: ElementId) -> Option<MemberSlot> {
        self.payloads.remove(id)
    }

    /// Forget every entry keyed by the edge whose child endpoint is `child`.
    pub(crate) fn remove_edge(&mut self, child: NodeId) {
        self.out_edges.remove(child);
        self.readers.remove(child);
    }

    /// Register a new leaf: its payload and its outgoing edge's input both go to `slot`
    /// (a fresh leaf tops no cluster, so it is the only element leaving by its edge, and
    /// no view reads its label as a boundary label).
    pub(crate) fn add_leaf(&mut self, leaf: NodeId, slot: MemberSlot) {
        self.payloads.insert(leaf, slot);
        self.out_edges.insert(leaf, &[slot]);
    }

    /// The views reading the label keyed `key` as their out-label (`as_out`) or as
    /// their in-label.
    pub(crate) fn readers_as(
        &self,
        key: NodeId,
        as_out: bool,
    ) -> impl Iterator<Item = ViewSlot> + '_ {
        self.readers
            .get(key)
            .iter()
            .filter(move |r| r.as_out == as_out)
            .map(|r| r.view)
    }

    /// Rebuild every index whose patches are due.
    pub(crate) fn rebuild_due(&mut self) {
        self.payloads.rebuild_if_due();
        self.out_edges.rebuild_if_due();
        self.readers.rebuild_if_due();
    }

    /// Where the entries of the payload, out-edge and reader indexes lie: a patch
    /// leaves them where they are, a rebuild moves them.
    #[cfg(test)]
    pub(crate) fn entry_addresses(&self) -> [usize; 3] {
        [
            self.payloads.entries.as_ptr() as usize,
            self.out_edges.run.entries.as_ptr() as usize,
            self.readers.run.entries.as_ptr() as usize,
        ]
    }

    /// Point the entries of `member`, registered at `from`, at `to`: its payload slot
    /// and its outgoing edge's input slot.
    pub(crate) fn move_member(&mut self, member: &PlanMember, from: MemberSlot, to: MemberSlot) {
        if let Some(slot) = self.payload_mut(member.element.id) {
            *slot = to;
        }
        if let Some(slot) = self
            .out_edges
            .get_mut(member.element.out_edge.child)
            .iter_mut()
            .find(|s| **s == from)
        {
            *slot = to;
        }
    }

    /// Point every index entry of `view` (registered at `from`) at view index `to` of
    /// the same bucket.
    pub(crate) fn readdress_view(&mut self, view: &PlanView, from: ViewSlot, to: u32) {
        let mut readdress = |key: NodeId, as_out: bool| {
            let was = Reader { view: from, as_out };
            if let Some(r) = self.readers.get_mut(key).iter_mut().find(|r| **r == was) {
                r.view.view = to;
            }
        };
        readdress(view.out_edge.child, true);
        if let Some(in_edge) = view.in_edge {
            readdress(in_edge.child, false);
        }
        let moved = ViewSlot { view: to, ..from };
        for (idx, member) in view.members.iter().enumerate() {
            self.move_member(member, from.member_slot(idx), moved.member_slot(idx));
        }
    }

    /// The name of the first index that differs from `fresh`'s, if any.
    pub(crate) fn drift_from(&self, fresh: &Routing) -> Option<&'static str> {
        if self.payloads != fresh.payloads {
            Some("payload_slot")
        } else if self.out_edges != fresh.out_edges {
            Some("out_edge_slots")
        } else if self.readers != fresh.readers {
            Some("label_readers")
        } else {
            None
        }
    }

    /// `true` when some element has two payload slots — one element on two members.
    pub(crate) fn repeats_a_payload(&self) -> bool {
        self.payloads.repeats_a_key()
    }

    /// Approximate resident size in words: a key word per entry, a word per slot
    /// coordinate (four for a member slot; three and the as-out flag for a reader), one
    /// per span, and the directories.
    pub(crate) fn resident_words(&self) -> usize {
        self.payloads.words(4) + self.out_edges.words(4) + self.readers.words(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot(member: u32) -> MemberSlot {
        MemberSlot {
            layer: 1,
            machine: 0,
            view: 0,
            member,
        }
    }

    /// Keys dense near zero, one far above, a block at an auxiliary-like base and one
    /// near the top of the word range.
    fn spread_keys() -> Vec<u64> {
        let mut keys: Vec<u64> = (0..500).map(|k| 3 * k).collect();
        keys.push(1 << 40);
        keys.extend((0..40).map(|k| (1 << 44) + k));
        keys.push(u64::MAX - 1);
        keys
    }

    #[test]
    fn patches_read_like_a_rebuilt_run() {
        let keys = spread_keys();
        let mut run = Run::from_sorted(keys.iter().map(|&k| (k, slot(1))).collect());
        let mut lists = Lists::from_sorted(&keys.iter().map(|&k| (k, slot(2))).collect::<Vec<_>>());
        let mut live: Vec<u64> = keys.clone();
        let mut rebuilt = 0;
        for step in 0..400u64 {
            // Remove an old key, re-insert a removed one or add a fresh far-off one.
            let key = match step % 3 {
                0 => live[(step as usize * 7) % live.len()],
                1 => keys[(step as usize * 11) % keys.len()],
                _ => (1 << 30) + step * 1_000_003,
            };
            if live.contains(&key) {
                assert_eq!(run.remove(key), Some(slot(1)));
                lists.remove(key);
                live.retain(|&k| k != key);
            } else {
                run.insert(key, slot(1));
                lists.insert(key, &[slot(2), slot(3)]);
                live.push(key);
            }
            run.rebuild_if_due();
            lists.rebuild_if_due();
            // One patch per step: none pending means the step rebuilt the run.
            rebuilt += usize::from(run.patches == 0);
            live.sort_unstable();
            let fresh = Run::from_sorted(live.iter().map(|&k| (k, slot(1))).collect());
            assert!(run == fresh, "step {step}");
            assert!(run.iter().map(|(k, _)| k).eq(live.iter().copied()));
            for &k in &live {
                assert_eq!(run.get(k), Some(&slot(1)));
                assert!(!lists.get(k).is_empty());
            }
            assert!(lists.iter().map(|(k, _)| k).eq(live.iter().copied()));
        }
        assert!(rebuilt >= 3, "{rebuilt} rebuilds");
    }
}
