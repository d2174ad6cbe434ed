//! The routing of a solve plan: which member slot every payload reaches, which slots
//! carry every edge's input, and which views read every label. Only what the skeleton
//! views cannot derive is stored — two key-sorted runs, a pure function of the views
//! ([`Routing::of`]), derived by one function at plan build and at link and
//! compared against by the drift audit:
//!
//! * `payloads`: element → the member slot it is (a node's input, a cluster's summary);
//! * `in_readers`: in-edge child → the lowest view that edge enters.
//!
//! Everything else is climbed from these (Sections 5.1–5.2: a cluster's outgoing edge
//! is its top element's). The slots carrying edge `c`'s input lie on one chain: node
//! `c`'s payload slot, then — while the member there tops its view — the payload slot
//! of that view's cluster, and so on up ([`SolvePlan::out_slots`]); the views reading
//! `c`'s label as their out-label are the views on that chain the member tops
//! ([`SolvePlan::out_readers`]). The views entered by edge `c` lie on the chain from
//! its `in_readers` view up through the payload slots of their clusters, as long as the
//! view there is still entered by `c` ([`SolvePlan::in_readers`]; [`SolvePlan::link`]
//! refuses a clustering with an entered view off that chain). Every climb runs bottom up, in
//! the `(layer, machine, view, member)` order the views lie in, and is at most a few
//! probes long — one per layer.
//!
//! A run is one key-sorted vector of `(key, value)` entries, probed through the
//! engine's segmented bucket [`Directory`] — the one the engine's table indexes use —
//! never a tree walk. A structural splice patches a run in place, in `O(touched)`: a
//! removed key keeps its place with a vacant value (a tombstone), a new key goes to a
//! small sorted overflow run, and once the patches since the last rebuild pass an
//! eighth of the run it is rebuilt from its live entries — `O(run)` every `run / 8`
//! patches. Nothing is sized by key magnitude: an id linked anywhere costs one entry,
//! and node, auxiliary and cluster ids share one payload run because the directory
//! gives each id range segments of its own.

use crate::plan::{all_views, MemberSlot, PlanMember, PlanView, SolvePlan, ViewSlot};
use crate::skeleton::Skeletons;
use mpc_engine::Directory;
use tree_clustering::{make_cluster_id, ElementId};
use tree_repr::NodeId;

/// A value of a [`Run`] that can mark its key as removed.
pub(crate) trait Value: Copy + PartialEq {
    /// The tombstone a removed key keeps in place.
    const VACANT: Self;
    /// `true` for a tombstone.
    fn is_vacant(&self) -> bool;
}

// Layers count from 1: no member or view lies at layer 0.
impl Value for MemberSlot {
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

impl Value for ViewSlot {
    const VACANT: Self = ViewSlot {
        layer: 0,
        machine: 0,
        view: 0,
    };

    fn is_vacant(&self) -> bool {
        self.layer == 0
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

    /// Rebuild from the live entries once the patches since the last rebuild pass an
    /// eighth of the entries.
    fn rebuild_if_due(&mut self) {
        if self.patches > self.entries.len() / 8 {
            *self = Run::from_sorted(self.iter().map(|(key, v)| (key, *v)).collect());
        }
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

/// The routing of a plan (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Routing {
    /// Element id (original node, auxiliary node or cluster) → the member slot its
    /// payload must reach: a node's input, a cluster's summary. Only the top cluster
    /// is absent; its summary becomes the root summary.
    pub(crate) payloads: Run<MemberSlot>,
    /// In-edge child → the lowest view with that incoming edge, where the climb to
    /// the others starts.
    pub(crate) in_readers: Run<ViewSlot>,
}

impl Routing {
    /// The routing of `skeletons`, derived from the skeleton views alone: every
    /// member's payload slot, and per incoming edge the first view it enters in slot
    /// order — the lowest, as views lie layer by layer.
    pub(crate) fn of(skeletons: &[Skeletons], num_layers: u32) -> Routing {
        let mut payloads = Vec::new();
        let mut in_readers = Vec::new();
        for (at, view) in all_views(skeletons, num_layers) {
            let members = view.members().iter().enumerate();
            payloads.extend(members.map(|(i, m)| (m.id(), at.member_slot(i))));
            if let Some(e) = view.in_edge() {
                in_readers.push((e.child, at));
            }
        }
        payloads.sort_unstable();
        in_readers.sort_unstable();
        in_readers.dedup_by_key(|(child, _)| *child);
        Routing {
            payloads: Run::from_sorted(payloads),
            in_readers: Run::from_sorted(in_readers),
        }
    }

    /// The member slot the payload of element `id` must reach.
    #[inline]
    pub(crate) fn payload(&self, id: ElementId) -> Option<&MemberSlot> {
        self.payloads.get(id)
    }

    /// Forget element `id`'s payload slot, returning it.
    pub(crate) fn remove_payload(&mut self, id: ElementId) -> Option<MemberSlot> {
        self.payloads.remove(id)
    }

    /// Forget the views the edge whose child endpoint is `child` enters.
    pub(crate) fn remove_edge(&mut self, child: NodeId) {
        self.in_readers.remove(child);
    }

    /// Register a new leaf at `slot`. A fresh leaf tops no cluster, so its slot is
    /// the only one its outgoing edge's input reaches, and no view reads its label as
    /// a boundary label.
    pub(crate) fn add_leaf(&mut self, leaf: NodeId, slot: MemberSlot) {
        self.payloads.insert(leaf, slot);
    }

    /// Rebuild every run whose patches are due.
    pub(crate) fn rebuild_due(&mut self) {
        self.payloads.rebuild_if_due();
        self.in_readers.rebuild_if_due();
    }

    /// Where the entries of the payload and in-reader runs lie: a patch leaves them
    /// where they are, a rebuild moves them.
    #[cfg(test)]
    pub(crate) fn entry_addresses(&self) -> [usize; 2] {
        [
            self.payloads.entries.as_ptr() as usize,
            self.in_readers.entries.as_ptr() as usize,
        ]
    }

    /// Point the payload slot of `member` at `to`.
    pub(crate) fn move_member(&mut self, member: PlanMember, to: MemberSlot) {
        if let Some(slot) = self.payloads.get_mut(member.id()) {
            *slot = to;
        }
    }

    /// Point every entry of `view` (registered at `from`) at view index `to` of the
    /// same bucket.
    pub(crate) fn readdress_view(&mut self, view: &PlanView<'_>, from: ViewSlot, to: u32) {
        let moved = ViewSlot { view: to, ..from };
        if let Some(entry) = view
            .in_edge()
            .and_then(|e| self.in_readers.get_mut(e.child))
            .filter(|at| **at == from)
        {
            *entry = moved;
        }
        for (idx, member) in view.members().iter().enumerate() {
            self.move_member(*member, moved.member_slot(idx));
        }
    }

    /// The name of the first run that differs from `fresh`'s, if any.
    pub(crate) fn drift_from(&self, fresh: &Routing) -> Option<&'static str> {
        if self.payloads != fresh.payloads {
            Some("payload_slot")
        } else if self.in_readers != fresh.in_readers {
            Some("in_readers")
        } else {
            None
        }
    }

    /// Approximate resident size in words: a key word per entry, a word per slot
    /// coordinate (four for a member slot, three for a view slot), and the directories.
    pub(crate) fn resident_words(&self) -> usize {
        self.payloads.words(4) + self.in_readers.words(3)
    }
}

impl SolvePlan {
    /// The member slots leaving by the edge whose child endpoint is `child`, bottom up,
    /// each with whether the member tops its view and whether it leaves by the virtual
    /// edge above the root: node `child`'s own slot, then, while the member tops its
    /// view, the payload slot of the view's cluster. The climb ends after the view of
    /// cluster `through`, or below the top cluster, which has no payload slot — and,
    /// in a malformed plan, at a slot that does not lie higher up.
    fn out_climb(
        &self,
        child: NodeId,
        through: ElementId,
    ) -> impl Iterator<Item = (MemberSlot, bool, bool)> + '_ {
        let mut next = self.routing.payload(child).copied();
        std::iter::from_fn(move || {
            let slot = next.take()?;
            let held = &self.skeletons[slot.machine as usize];
            let (top, member, leaves) = held.top_of(slot.layer, slot.view as usize);
            let tops = top == slot.member as usize;
            // The view's cluster, as `PlanView::cluster` names it.
            let cluster = make_cluster_id(slot.layer, member.id());
            if tops && cluster != through {
                next = (self.routing.payload(cluster).copied())
                    .filter(|above| above.layer > slot.layer);
            }
            Some((slot, tops, tops && leaves))
        })
    }

    /// The member slots whose `out_input` carries the input of the edge whose child
    /// endpoint is `child`, bottom up: the out-edge climb less the members leaving by
    /// the virtual edge above the root.
    pub(crate) fn out_slots(&self, child: NodeId) -> impl Iterator<Item = MemberSlot> + '_ {
        self.out_climb(child, self.top_cluster)
            .filter(|&(_, _, leaves)| !leaves)
            .map(|(slot, _, _)| slot)
    }

    /// The views reading the label keyed `child` as their out-label, bottom up, through
    /// the view of cluster `through` if the climb reaches it: the views on the out-edge
    /// climb whose top member the climb passes. The label a cluster member's view
    /// produces reaches the views through the member's own; the root label every one.
    pub(crate) fn out_readers(
        &self,
        child: NodeId,
        through: ElementId,
    ) -> impl Iterator<Item = ViewSlot> + '_ {
        self.out_climb(child, through)
            .filter(|&(_, tops, _)| tops)
            .map(|(slot, _, _)| slot.view_slot())
    }

    /// The views the edge whose child endpoint is `child` enters — each reads that
    /// edge's input as its `in_input` and its label as its in-label — bottom up: the
    /// lowest one, then the payload slot's view of each one's cluster while that view
    /// is entered by the same edge.
    pub(crate) fn in_readers(&self, child: NodeId) -> impl Iterator<Item = ViewSlot> + '_ {
        let mut next = self.routing.in_readers.get(child).copied();
        std::iter::from_fn(move || {
            let at = next.take()?;
            let view = self.view_at(at);
            if view.in_edge()?.child != child {
                return None;
            }
            next = (self.routing.payload(view.cluster()))
                .map(|above| above.view_slot())
                .filter(|above| above.layer > at.layer);
            Some(at)
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::pipeline::prepare;
    use mpc_engine::{MpcConfig, MpcContext};
    use std::collections::BTreeMap;
    use tree_clustering::is_cluster_id;
    use tree_gen::{shapes, standard_suite};
    use tree_repr::{ListOfEdges, TreeInput};

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
                live.retain(|&k| k != key);
            } else {
                run.insert(key, slot(1));
                live.push(key);
            }
            run.rebuild_if_due();
            // One patch per step: none pending means the step rebuilt the run.
            rebuilt += usize::from(run.patches == 0);
            live.sort_unstable();
            let fresh = Run::from_sorted(live.iter().map(|&k| (k, slot(1))).collect());
            assert!(run == fresh, "step {step}");
            assert!(run.iter().map(|(k, _)| k).eq(live.iter().copied()));
            for &k in &live {
                assert_eq!(run.get(k), Some(&slot(1)));
            }
        }
        assert!(rebuilt >= 3, "{rebuilt} rebuilds");
    }

    /// Per key, what a scan over every view finds: the member slots leaving by the
    /// key's edge (not by the virtual root edge), the views whose outgoing edge it is,
    /// and the views it enters — each in slot order, the order the scan meets them.
    #[derive(Default, Debug, PartialEq)]
    struct Scanned {
        out_slots: Vec<MemberSlot>,
        out_readers: Vec<ViewSlot>,
        in_readers: Vec<ViewSlot>,
    }

    fn scan(plan: &SolvePlan) -> BTreeMap<NodeId, Scanned> {
        let mut keys: BTreeMap<NodeId, Scanned> = BTreeMap::new();
        for (at, view) in plan.views() {
            for (i, member) in view.members().iter().enumerate() {
                if !view.leaves_tree(i) {
                    let key = keys.entry(member.out_child()).or_default();
                    key.out_slots.push(at.member_slot(i));
                }
            }
            let key = keys.entry(view.out_edge().child).or_default();
            key.out_readers.push(at);
            if let Some(e) = view.in_edge() {
                keys.entry(e.child).or_default().in_readers.push(at);
            }
        }
        keys
    }

    /// Every key's climbed out-edge slots, out-label readers and in-label readers equal
    /// a scan over all views, for the keys the scan finds and for every node key of
    /// the payload run (one the scan misses climbs to nothing). Returns the longest
    /// climb.
    pub(crate) fn assert_climbs_match_a_scan(plan: &SolvePlan) -> usize {
        let scanned = scan(plan);
        let payload_keys = (plan.routing.payloads.iter())
            .map(|(key, _)| key)
            .filter(|key| !is_cluster_id(*key));
        let keys: Vec<NodeId> = scanned.keys().copied().chain(payload_keys).collect();
        let mut longest = 0;
        for key in keys {
            let climbed = Scanned {
                out_slots: plan.out_slots(key).collect(),
                out_readers: plan.out_readers(key, plan.top_cluster).collect(),
                in_readers: plan.in_readers(key).collect(),
            };
            longest = longest.max(plan.out_climb(key, plan.top_cluster).count());
            let empty = Scanned::default();
            assert_eq!(&climbed, scanned.get(&key).unwrap_or(&empty), "key {key}");
        }
        longest
    }

    /// The climbs equal a scan over the views on 39 plans: the standard suite at
    /// n = 4096 and four shapes with hubs that degree reduction splits, each at three
    /// δ. Every climb is a few steps long — one per layer at most.
    #[test]
    fn climbs_equal_a_scan_over_the_views() {
        let mut trees: Vec<_> = (standard_suite(4096, 7).into_iter())
            .map(|entry| entry.tree)
            .collect();
        trees.extend([
            shapes::star(4096),
            shapes::broom(1024, 3072),
            shapes::caterpillar(256, 15),
            shapes::spider(512, 8),
        ]);
        let mut plans = 0;
        for tree in &trees {
            for delta in [0.3, 0.5, 0.7] {
                let mut ctx = MpcContext::new(MpcConfig::new(2 * tree.len(), delta));
                let input = TreeInput::ListOfEdges(ListOfEdges::from_tree(tree));
                let prepared = prepare(&mut ctx, input, None).expect("well-formed tree");
                let plan = prepared.plan(&mut ctx);
                let longest = assert_climbs_match_a_scan(plan);
                assert!(
                    longest <= plan.num_layers() as usize,
                    "{longest}-step climb"
                );
                plans += 1;
            }
        }
        assert_eq!(plans, 39);
    }
}
