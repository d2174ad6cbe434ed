//! The `O(log D)`-round subroutines the clustering construction is built from.
//!
//! The paper uses `CountSubtreeSizes`, `GatherSubtrees` and `CountDistances` from
//! Balliu et al. (SODA 2023) as black boxes. This module re-implements them on top of
//! the `mpc-engine` primitives:
//!
//! * [`count_subtree_sizes`] — capped **rim doubling**. After step `k` a node `u` holds
//!   its ball `B_k(u)`: its descendants within distance `2^k` in the uncolored
//!   subgraph, `u` first, with the *rim* — the members at distance exactly `2^k` — as
//!   the ball's suffix. One step fetches the balls of the rim nodes only. Those balls
//!   are pairwise disjoint and each meets `B_k(u)` in its own center alone, so
//!   `|B_{k+1}(u)| = |B_k(u)| + Σ_w (|B_k(w)| − 1)` is known from the answers'
//!   *lengths*: the cap `n^{δ/2}` is tested before one id is copied, a node whose ball
//!   would pass it turns *heavy* and drops its ball, and otherwise the union is a
//!   concatenation (the answers' inner parts, then their rims as the new suffix) — no
//!   sort, no dedup, no set ever longer than the cap. A heavy descendant strictly
//!   inside the ball cannot be missed: its ball lies inside `B_{k+1}(u)`, so the
//!   length sum passes the cap in the same step. An empty rim means the ball is the
//!   whole subtree and the node stops asking. After `⌈log₂ cap⌉ + 1` steps at most
//!   (and `⌈log₂ h⌉` for uncolored height `h ≤ D`) every node knows its subtree
//!   exactly or knows that it is heavy — which is all `CountSubtreeSizes`
//!   (Lemma 6.13 of Balliu et al.) has to tell the builder — within `cap + 4` words per node.
//! * [`path_distances`] — pointer doubling along degree-2 paths (Lemma 6.17 of Balliu et al.).
//!   Any path in a tree has length at most `D`, so `⌈log₂ D⌉` jump rounds suffice.
//!
//! `GatherSubtrees` (Lemma 6.14) needs no separate routine here: once a light node knows
//! its exact descendant set, membership assignments are distributed with one join.
//!
//! ## Fused convergence-aware execution
//!
//! Both subroutines run on [`MpcContext::try_converge`]: the state table is
//! indexed once, each doubling step is one fused emit/probe/update exchange (priced as
//! a join on the first step and a lookup afterwards), converged elements stop emitting
//! requests — so machines whose records have all settled drop out of later exchanges —
//! and the final "nothing left to ask" step costs no rounds at all. Both directions of
//! the path pointer-doubling advance in the *same* exchange instead of two sequential
//! jump loops. The loops this replaced live on in this module's tests as reference
//! implementations: bit-identical outputs, never fewer rounds or words.

use crate::element::ElementId;
use mpc_engine::{ConvergeError, DistVec, MpcContext, Words};
use tree_repr::DirectedEdge;

/// Result of [`count_subtree_sizes`] for one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubtreeInfo {
    /// The node this record describes.
    pub id: ElementId,
    /// `true` when the node has strictly more than `cap` descendants (itself included).
    pub heavy: bool,
    /// The node's full descendant set (itself included) in ascending id order, exact
    /// whenever `heavy == false` and empty otherwise.
    pub descendants: Vec<ElementId>,
}

impl Words for SubtreeInfo {
    fn words(&self) -> usize {
        3 + self.descendants.len()
    }
}

/// One node's doubling state. A heavy node's ball is dead weight — nothing ever reads
/// it (the output drops it, and whoever fetches a heavy node turns heavy itself) — so
/// heavy states carry an empty ball instead of shipping useless ids around.
#[derive(Debug, Clone)]
struct SizeState {
    id: ElementId,
    heavy: bool,
    /// `B_k(id)` after step `k`: `id` first, the rim last. At most `cap` ids.
    ball: Vec<ElementId>,
    /// Length of the rim, the suffix of `ball` at distance exactly `2^k`: the only
    /// nodes the next step asks. Zero once the ball is the whole subtree or was
    /// dropped, which is when the node stops emitting.
    rim: usize,
}

impl Words for SizeState {
    fn words(&self) -> usize {
        4 + self.ball.len()
    }
}

/// What one doubling step ships back per rim node: its heaviness and its ball without
/// the center (the asker holds that already), rim last.
struct BallAnswer {
    heavy: bool,
    below: Vec<ElementId>,
    rim: usize,
}

impl Words for BallAnswer {
    fn words(&self) -> usize {
        3 + self.below.len()
    }
}

/// Seed (`k = 0`): a node's ball is itself and its children, every child on the rim.
fn seed_size_state(id: ElementId, children: &[ElementId], cap: usize) -> SizeState {
    if children.len() + 1 > cap {
        return SizeState {
            id,
            heavy: true,
            ball: Vec::new(),
            rim: 0,
        };
    }
    let mut ball = Vec::with_capacity(children.len() + 1);
    ball.push(id);
    ball.extend_from_slice(children);
    SizeState {
        id,
        heavy: false,
        ball,
        rim: children.len(),
    }
}

/// One node's share of a doubling step: size the next ball from the answers' lengths,
/// and only if it stays within `cap` append the fetched balls — inner parts first, so
/// the new rim (the answers' rims) ends up as the suffix. A rim node without a state
/// of its own is a leaf: it adds nothing.
fn grow_ball(state: &mut SizeState, answers: &[(ElementId, Option<BallAnswer>)], cap: usize) {
    if state.rim == 0 {
        return;
    }
    let fetched = || answers.iter().filter_map(|(_, a)| a.as_ref());
    let (mut size, mut rim, mut heavy) = (state.ball.len(), 0, false);
    for a in fetched() {
        size += a.below.len();
        rim += a.rim;
        heavy |= a.heavy;
    }
    if heavy || size > cap {
        state.heavy = true;
        state.ball = Vec::new();
        state.rim = 0;
        return;
    }
    state.ball.reserve_exact(size - state.ball.len());
    for a in fetched() {
        state
            .ball
            .extend_from_slice(&a.below[..a.below.len() - a.rim]);
    }
    for a in fetched() {
        state
            .ball
            .extend_from_slice(&a.below[a.below.len() - a.rim..]);
    }
    state.rim = rim;
}

/// For every node of a rooted forest (given as `(node, children)` adjacency), determine
/// whether its subtree holds more than `cap` nodes, and if not, its exact descendant set.
///
/// `children` must list, for every participating node, its children *within the
/// participating node set* (nodes absent from the map are treated as leaves).
/// Runs `O(log min(h, cap))` doubling iterations where `h` is the forest height, as one
/// [`MpcContext::try_converge`] call: each step fetches the balls of the rim nodes and
/// appends them in place, the whole loop costs `join + (steps − 1) · lookup` rounds,
/// and settled nodes emit nothing, so fully-settled machines leave the exchange
/// entirely. No state ever holds more than `cap + 4` words.
///
/// # Errors
///
/// [`ConvergeError::StepBound`] when the adjacency is not a forest of the stated
/// kind and the doubling fails to settle.
// mpc-cost: rounds(log)
pub fn count_subtree_sizes(
    ctx: &mut MpcContext,
    adjacency: DistVec<(ElementId, Vec<ElementId>)>,
    cap: usize,
) -> Result<DistVec<SubtreeInfo>, ConvergeError> {
    let mut states = adjacency.map_local(|(id, children)| seed_size_state(*id, children, cap));
    ctx.check_memory(&states, "count_subtree_sizes/seed");
    ctx.try_converge(
        &mut states,
        |s| s.id,
        |s, out| out.extend_from_slice(&s.ball[s.ball.len() - s.rim..]),
        |s| BallAnswer {
            heavy: s.heavy,
            below: s.ball.get(1..).unwrap_or_default().to_vec(),
            rim: s.rim,
        },
        |s, answers| grow_ball(s, answers, cap),
        "count_subtree_sizes",
    )?;
    Ok(states.flat_map_local(|s| {
        let mut descendants = s.ball;
        descendants.sort_unstable();
        Some(SubtreeInfo {
            id: s.id,
            heavy: s.heavy,
            descendants,
        })
    }))
}

/// Input record for [`path_distances`]: one node of a degree-2 path, with its neighbor
/// above and below, each tagged with whether that neighbor is itself a path node, plus
/// the two original-tree edges the node attaches through (carried as inert payload so
/// the caller can assemble path fragments join-free from the output).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathNode {
    /// The path node.
    pub id: ElementId,
    /// Its parent (always exists; a path node is never the root).
    pub up: ElementId,
    /// Whether the parent is also a degree-2 path node.
    pub up_is_path: bool,
    /// Its unique uncolored child.
    pub down: ElementId,
    /// Whether that child is also a degree-2 path node.
    pub down_is_path: bool,
    /// The original-tree edge from this element towards its parent.
    pub out_edge: DirectedEdge,
    /// The original-tree edge from the unique uncolored child towards this element.
    pub child_edge: DirectedEdge,
}

impl Words for PathNode {
    fn words(&self) -> usize {
        9
    }
}

/// Output of [`path_distances`] for one path node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathPosition {
    /// The path node.
    pub id: ElementId,
    /// First non-path ancestor (the node the topmost path node hangs from).
    pub top_anchor: ElementId,
    /// Distance (in edges) to `top_anchor` — the paper's "upwards position".
    pub dist_up: u64,
    /// First non-path descendant below the path — unique per path, used as the path id.
    pub bottom_anchor: ElementId,
    /// Distance (in edges) to `bottom_anchor` — the paper's "downwards position".
    pub dist_down: u64,
    /// The node's immediate parent element (input [`PathNode::up`], passed through).
    pub up: ElementId,
    /// The node's outgoing original-tree edge (input payload, passed through).
    pub out_edge: DirectedEdge,
    /// The unique uncolored child's outgoing edge (input payload, passed through).
    pub child_edge: DirectedEdge,
}

impl Words for PathPosition {
    fn words(&self) -> usize {
        10
    }
}

/// Fused per-node state: both pointer-doubling directions advance in the same
/// exchange. A direction is done when its pointer is `None`; a node with both
/// directions done emits nothing, and a machine whose nodes are all done drops out.
#[derive(Debug, Clone, Copy)]
struct PathState {
    node: PathNode,
    up_ptr: Option<ElementId>,
    dist_up: u64,
    top_anchor: ElementId,
    down_ptr: Option<ElementId>,
    dist_down: u64,
    bottom_anchor: ElementId,
}

impl Words for PathState {
    fn words(&self) -> usize {
        self.node.words() + self.up_ptr.words() + self.down_ptr.words() + 4
    }
}

/// One jump answer: the probed node's pre-step pointers, distances and anchors for
/// both directions (the prober consumes the half matching the direction it asked for).
#[derive(Debug, Clone, Copy)]
struct JumpAnswer {
    up_ptr: Option<ElementId>,
    dist_up: u64,
    top_anchor: ElementId,
    down_ptr: Option<ElementId>,
    dist_down: u64,
    bottom_anchor: ElementId,
}

impl Words for JumpAnswer {
    fn words(&self) -> usize {
        self.up_ptr.words() + self.down_ptr.words() + 4
    }
}

fn seed_path_state(n: &PathNode) -> PathState {
    PathState {
        node: *n,
        up_ptr: if n.up_is_path { Some(n.up) } else { None },
        dist_up: 1,
        top_anchor: n.up,
        down_ptr: if n.down_is_path { Some(n.down) } else { None },
        dist_down: 1,
        bottom_anchor: n.down,
    }
}

/// Merge one probed answer into one direction of a state: follow the target's pointer,
/// accumulate its distance, adopt its anchor. A miss leaves the direction untouched
/// (by the path invariant every live pointer resolves).
fn merge_jump(
    ptr: &mut Option<ElementId>,
    dist: &mut u64,
    anchor: &mut ElementId,
    next: Option<(Option<ElementId>, u64, ElementId)>,
) {
    if let Some((t_ptr, t_dist, t_anchor)) = next {
        *ptr = t_ptr;
        *dist += t_dist;
        *anchor = t_anchor;
    }
}

/// Compute, for every degree-2 path node, its distance to both endpoints of its maximal
/// path (the paper's `CountDistances`). `O(log D)` rounds: one
/// [`MpcContext::try_converge`] call doubles both directions in the same exchange, so the
/// loop costs `join + (steps − 1) · lookup` rounds. Probes observe pre-step states (the
/// exchange probes before any update).
///
/// # Errors
///
/// [`ConvergeError::StepBound`] when the `up`/`down` pointers do not describe
/// disjoint paths (a pointer cycle never settles).
// mpc-cost: rounds(log)
pub fn path_distances(
    ctx: &mut MpcContext,
    nodes: DistVec<PathNode>,
) -> Result<DistVec<PathPosition>, ConvergeError> {
    if nodes.is_empty() {
        return Ok(ctx.empty());
    }
    let mut states: DistVec<PathState> = nodes.map_local(seed_path_state);
    ctx.try_converge(
        &mut states,
        |s| s.node.id,
        |s, out| {
            // Up before down: the update pass consumes answers positionally.
            if let Some(p) = s.up_ptr {
                out.push(p);
            }
            if let Some(p) = s.down_ptr {
                out.push(p);
            }
        },
        |s| JumpAnswer {
            up_ptr: s.up_ptr,
            dist_up: s.dist_up,
            top_anchor: s.top_anchor,
            down_ptr: s.down_ptr,
            dist_down: s.dist_down,
            bottom_anchor: s.bottom_anchor,
        },
        |s, answers| {
            let mut next = answers.iter();
            if s.up_ptr.is_some() {
                let (_, found) = next.next().expect("answer per live direction");
                merge_jump(
                    &mut s.up_ptr,
                    &mut s.dist_up,
                    &mut s.top_anchor,
                    found.as_ref().map(|t| (t.up_ptr, t.dist_up, t.top_anchor)),
                );
            }
            if s.down_ptr.is_some() {
                let (_, found) = next.next().expect("answer per live direction");
                merge_jump(
                    &mut s.down_ptr,
                    &mut s.dist_down,
                    &mut s.bottom_anchor,
                    found
                        .as_ref()
                        .map(|t| (t.down_ptr, t.dist_down, t.bottom_anchor)),
                );
            }
            debug_assert!(next.next().is_none(), "all answers consumed");
        },
        "path_distances",
    )?;
    Ok(states.map_local(|s| PathPosition {
        id: s.node.id,
        top_anchor: s.top_anchor,
        dist_up: s.dist_up,
        bottom_anchor: s.bottom_anchor,
        dist_down: s.dist_down,
        up: s.node.up,
        out_edge: s.node.out_edge,
        child_edge: s.node.child_edge,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_engine::{Metrics, MpcConfig};
    use tree_gen::shapes;
    use tree_repr::Tree;

    fn ctx(n: usize) -> MpcContext {
        MpcContext::new(MpcConfig::new(n.max(16), 0.5))
    }

    #[derive(Debug, Clone)]
    struct BandState {
        id: ElementId,
        heavy: bool,
        set: Vec<ElementId>,
        /// `true` once the set can no longer grow (either heavy or a fixpoint was reached).
        stable: bool,
        /// Descendants discovered in the *previous* step: the whole band at distance
        /// `(2^(k-1), 2^k]`, every member of which the next step fetches. Simulator
        /// bookkeeping derived from two consecutive sets, hence excluded from `words()`.
        frontier: Vec<ElementId>,
    }

    impl Words for BandState {
        fn words(&self) -> usize {
            4 + self.set.len()
        }
    }

    /// What one band step ships back per fetched descendant.
    struct BandAnswer {
        heavy: bool,
        set: Vec<ElementId>,
    }

    impl Words for BandAnswer {
        fn words(&self) -> usize {
            2 + self.set.len()
        }
    }

    /// Seed: every node knows itself and its children (distance ≤ 1), as a sorted set. A
    /// heavy node's descendant set is dead weight — nothing ever reads it (the final
    /// output drops it, and any node that unions a heavy descendant becomes heavy itself)
    /// — so heavy states carry an empty set instead of shipping useless ids around.
    fn seed_band_states(
        adjacency: DistVec<(ElementId, Vec<ElementId>)>,
        cap: usize,
    ) -> DistVec<BandState> {
        adjacency.map_local(|(id, children)| {
            let mut set = Vec::with_capacity(children.len() + 1);
            set.push(*id);
            set.extend(children.iter().copied());
            set.sort_unstable();
            set.dedup();
            let heavy = set.len() > cap;
            if heavy {
                set = Vec::new();
            }
            let frontier: Vec<ElementId> = if heavy {
                Vec::new()
            } else {
                set.iter().copied().filter(|&d| d != *id).collect()
            };
            BandState {
                id: *id,
                heavy,
                stable: heavy,
                set,
                frontier,
            }
        })
    }

    /// One node's share of a band step: union the fetched balls (as `(heavy, set)`
    /// views) into its own, re-check the cap, and derive the next frontier
    /// (`union \ old set`, both sorted). A heavy answer decides the state without
    /// touching the sets; one answer is a linear two-way merge that bails as soon as
    /// `cap` is exceeded; several answers (whose balls may overlap) pay sort + dedup.
    fn union_step<'a>(
        state: &mut BandState,
        found: impl Iterator<Item = Option<(bool, &'a [ElementId])>>,
        cap: usize,
    ) {
        let mut heavy = false;
        let mut first: Option<&[ElementId]> = None;
        let mut rest: Vec<ElementId> = Vec::new();
        for (child_heavy, child_set) in found.flatten() {
            if child_heavy {
                heavy = true;
            }
            match first {
                None => first = Some(child_set),
                Some(f) => {
                    if rest.is_empty() {
                        rest.reserve(f.len() + child_set.len());
                        rest.extend_from_slice(f);
                    }
                    rest.extend_from_slice(child_set);
                }
            }
        }
        state.frontier.clear();
        // A heavy ball anywhere below makes this subtree heavy — no union needed.
        if heavy {
            state.heavy = true;
            state.stable = true;
            state.set.clear();
            return;
        }
        let Some(first) = first else {
            // Nothing came back (an empty frontier's no-op step): the set is final.
            state.stable = true;
            return;
        };
        if rest.is_empty() {
            // One ball: both sides are sorted and duplicate-free, so merge linearly,
            // recording the genuinely new elements as the next frontier and bailing
            // the moment the union exceeds the cap.
            let old_len = state.set.len();
            let (mut i, mut j) = (0usize, 0usize);
            let mut merged: Vec<ElementId> =
                Vec::with_capacity((old_len + first.len()).min(cap + 1));
            while merged.len() <= cap {
                match (state.set.get(i), first.get(j)) {
                    (Some(&a), Some(&b)) if a == b => {
                        merged.push(a);
                        i += 1;
                        j += 1;
                    }
                    (Some(&a), Some(&b)) if a < b => {
                        merged.push(a);
                        i += 1;
                    }
                    (_, Some(&b)) => {
                        merged.push(b);
                        state.frontier.push(b);
                        j += 1;
                    }
                    (Some(&a), None) => {
                        merged.push(a);
                        i += 1;
                    }
                    (None, None) => break,
                }
            }
            if merged.len() > cap {
                state.heavy = true;
                state.stable = true;
                state.frontier.clear();
                state.set.clear();
            } else {
                state.set = merged;
                state.stable = state.frontier.is_empty();
            }
            return;
        }
        // Several balls: they may overlap each other (a frontier element can be an
        // ancestor of another), so fall back to sort + dedup over the concatenation.
        let mut union = rest;
        union.extend_from_slice(&state.set);
        union.sort_unstable();
        union.dedup();
        if union.len() > cap {
            state.heavy = true;
            state.stable = true;
            state.set.clear();
            return;
        }
        // New frontier: union \ old set (both sorted ascending).
        let mut old = state.set.iter().copied().peekable();
        for &u in &union {
            match old.peek() {
                Some(&o) if o == u => {
                    old.next();
                }
                _ => state.frontier.push(u),
            }
        }
        state.set = union;
        state.stable = state.frontier.is_empty();
    }

    /// Reference for [`count_subtree_sizes`], the loop it replaced: frontier-*band*
    /// doubling on the same fused primitive. A node re-fetches the sorted set of every
    /// descendant it found in the previous step — `2^(k-1)` overlapping `2^k`-word
    /// answers per path node — and unions them before the cap can bind.
    fn count_subtree_sizes_legacy(
        ctx: &mut MpcContext,
        adjacency: DistVec<(ElementId, Vec<ElementId>)>,
        cap: usize,
    ) -> DistVec<SubtreeInfo> {
        let mut states = seed_band_states(adjacency, cap);
        ctx.check_memory(&states, "count_subtree_sizes/seed");
        ctx.converge(
            &mut states,
            |s| s.id,
            |s, out| out.extend(s.frontier.iter().copied()),
            |s| BandAnswer {
                heavy: s.heavy,
                set: s.set.clone(),
            },
            |s, answers| {
                if s.stable {
                    assert!(answers.is_empty(), "stable nodes emit no requests");
                    return;
                }
                union_step(
                    s,
                    answers
                        .iter()
                        .map(|(_, a)| a.as_ref().map(|a| (a.heavy, a.set.as_slice()))),
                    cap,
                );
            },
            "count_subtree_sizes",
        );
        states.map_local(|s| SubtreeInfo {
            id: s.id,
            heavy: s.heavy,
            descendants: if s.heavy { Vec::new() } else { s.set.clone() },
        })
    }

    #[derive(Debug, Clone, Copy)]
    struct JumpState {
        id: ElementId,
        ptr: Option<ElementId>,
        dist: u64,
        anchor: ElementId,
    }

    impl Words for JumpState {
        fn words(&self) -> usize {
            5
        }
    }

    /// Pointer-doubling along one direction of the path: every node ends up knowing the
    /// first non-path node in that direction and its distance to it.
    fn jump(ctx: &mut MpcContext, init: Vec<JumpState>) -> Vec<(ElementId, ElementId, u64)> {
        let mut states: DistVec<JumpState> = ctx.from_vec(init);
        loop {
            let pending = ctx.all_reduce(
                &states,
                0u64,
                |acc, s| acc + u64::from(s.ptr.is_some()),
                |a, b| a + b,
            );
            if pending == 0 {
                break;
            }
            let snapshot = states.clone();
            let joined =
                ctx.join_lookup(states, |s| s.ptr.unwrap_or(u64::MAX), &snapshot, |s| s.id);
            states = joined.map_local(|(s, found)| match (s.ptr, found) {
                (Some(_), Some(t)) => JumpState {
                    id: s.id,
                    ptr: t.ptr,
                    dist: s.dist + t.dist,
                    anchor: t.anchor,
                },
                _ => *s,
            });
            ctx.check_memory(&states, "path_distances/jump");
        }
        states.iter().map(|s| (s.id, s.anchor, s.dist)).collect()
    }

    /// Reference for [`path_distances`], the loops it replaced: two sequential jump
    /// loops, one per direction, each a full `all_reduce` + `join_lookup` per doubling step.
    fn path_distances_legacy(
        ctx: &mut MpcContext,
        nodes: DistVec<PathNode>,
    ) -> DistVec<PathPosition> {
        let payload: Vec<PathNode> = nodes.iter().copied().collect();
        let up_init: Vec<JumpState> = payload
            .iter()
            .map(|n| JumpState {
                id: n.id,
                ptr: if n.up_is_path { Some(n.up) } else { None },
                dist: 1,
                anchor: n.up,
            })
            .collect();
        let down_init: Vec<JumpState> = payload
            .iter()
            .map(|n| JumpState {
                id: n.id,
                ptr: if n.down_is_path { Some(n.down) } else { None },
                dist: 1,
                anchor: n.down,
            })
            .collect();
        let ups = jump(ctx, up_init);
        let downs = jump(ctx, down_init);
        // Both jump passes preserve the input record order (their states only ever act
        // as join *requests*), so the two result lists are aligned with the input: the
        // combination is a machine-local zip, not another join.
        let positions: Vec<PathPosition> = ups
            .into_iter()
            .zip(downs)
            .zip(payload)
            .map(|((up, down), node)| {
                debug_assert_eq!(up.0, down.0, "jump passes stay aligned");
                debug_assert_eq!(up.0, node.id, "jump passes stay aligned with the input");
                PathPosition {
                    id: up.0,
                    top_anchor: up.1,
                    dist_up: up.2,
                    bottom_anchor: down.1,
                    dist_down: down.2,
                    up: node.up,
                    out_edge: node.out_edge,
                    child_edge: node.child_edge,
                }
            })
            .collect();
        ctx.from_vec(positions)
    }

    fn adjacency_of(tree: &Tree) -> Vec<(ElementId, Vec<ElementId>)> {
        (0..tree.len())
            .map(|v| {
                (
                    v as u64,
                    tree.children(v).iter().map(|&c| c as u64).collect(),
                )
            })
            .collect()
    }

    fn path_nodes_of(tree: &Tree) -> Vec<PathNode> {
        let mut path_nodes = Vec::new();
        for v in 0..tree.len() {
            let is_path = tree.children(v).len() == 1 && tree.parent(v).is_some();
            if !is_path {
                continue;
            }
            let up = tree.parent(v).unwrap();
            let down = tree.children(v)[0];
            path_nodes.push(PathNode {
                id: v as u64,
                up: up as u64,
                up_is_path: tree.children(up).len() == 1 && tree.parent(up).is_some(),
                down: down as u64,
                down_is_path: tree.children(down).len() == 1,
                out_edge: DirectedEdge::new(v as u64, up as u64),
                child_edge: DirectedEdge::new(down as u64, v as u64),
            });
        }
        path_nodes
    }

    #[test]
    fn subtree_sizes_exact_below_cap() {
        let tree = shapes::balanced_kary(31, 2);
        let mut c = ctx(64);
        let adj = c.from_vec(adjacency_of(&tree));
        let info = count_subtree_sizes(&mut c, adj, 100).unwrap();
        let sizes = tree.subtree_sizes();
        for rec in info.into_vec() {
            assert!(!rec.heavy);
            assert_eq!(
                rec.descendants.len(),
                sizes[rec.id as usize],
                "node {}",
                rec.id
            );
        }
    }

    #[test]
    fn subtree_sizes_heavy_above_cap() {
        let tree = shapes::path(64);
        let mut c = ctx(64);
        let adj = c.from_vec(adjacency_of(&tree));
        let cap = 10;
        let info = count_subtree_sizes(&mut c, adj, cap).unwrap();
        let sizes = tree.subtree_sizes();
        for rec in info.into_vec() {
            let expected_heavy = sizes[rec.id as usize] > cap;
            assert_eq!(rec.heavy, expected_heavy, "node {}", rec.id);
            if !rec.heavy {
                assert_eq!(rec.descendants.len(), sizes[rec.id as usize]);
            }
        }
    }

    #[test]
    fn subtree_size_rounds_scale_with_height_not_size() {
        // A shallow wide tree and a deep path of the same size: the shallow tree must
        // need far fewer rounds.
        let shallow = shapes::star(256);
        let deep = shapes::path(256);
        let mut rounds = Vec::new();
        for tree in [&shallow, &deep] {
            let mut c = ctx(256);
            let adj = c.from_vec(adjacency_of(tree));
            count_subtree_sizes(&mut c, adj, 8).unwrap();
            rounds.push(c.metrics().rounds);
        }
        assert!(
            rounds[0] < rounds[1],
            "star {} vs path {}",
            rounds[0],
            rounds[1]
        );
    }

    /// The shapes the fused subroutines are held against their reference loops on.
    fn reference_shapes() -> [Tree; 6] {
        [
            shapes::path(1500),
            shapes::balanced_kary(1023, 2),
            shapes::caterpillar(400, 2),
            shapes::spider(6, 150),
            shapes::random_recursive(1200, 2),
            shapes::random_recursive(1200, 9),
        ]
    }

    /// Output and metrics of one loop.
    type Run = (Vec<SubtreeInfo>, Metrics);

    /// Both loops on the same adjacency: the rim loop, then the band reference.
    fn rim_and_band(tree: &Tree, cap: usize) -> (Run, Run) {
        let mut rim_ctx = ctx(2 * tree.len());
        let adj = rim_ctx.from_vec(adjacency_of(tree));
        let rim = count_subtree_sizes(&mut rim_ctx, adj, cap)
            .unwrap()
            .into_vec();

        let mut band_ctx = ctx(2 * tree.len());
        let adj = band_ctx.from_vec(adjacency_of(tree));
        let band = count_subtree_sizes_legacy(&mut band_ctx, adj, cap).into_vec();
        (
            (rim, rim_ctx.metrics().clone()),
            (band, band_ctx.metrics().clone()),
        )
    }

    #[test]
    fn subtree_sizes_fused_matches_legacy() {
        // Identical outputs, and rim doubling never pays more rounds, steps or words
        // than the band doubling it replaced.
        for (tree, cap) in reference_shapes().into_iter().zip([7, 5, 6, 9, 8, 39]) {
            let ((rim, rim_m), (band, band_m)) = rim_and_band(&tree, cap);
            assert_eq!(rim, band, "{}-node tree, cap {cap}", tree.len());
            assert!(
                rim_m.rounds <= band_m.rounds,
                "rim {} vs band {} rounds",
                rim_m.rounds,
                band_m.rounds
            );
            assert!(
                rim_m.convergence[0].active_machines.len()
                    <= band_m.convergence[0].active_machines.len()
            );
            assert!(rim_m.total_words_sent <= band_m.total_words_sent);
        }
    }

    #[test]
    fn rim_doubling_moves_strictly_fewer_words_than_band_doubling_on_a_path() {
        // One request per path node and step instead of 2^(k-1): same output, same
        // pricing formula, strictly less traffic from the second step on.
        let ((rim, rim_m), (band, band_m)) = rim_and_band(&shapes::path(1024), 16);
        assert_eq!(rim, band);
        assert!(
            rim_m.total_words_sent < band_m.total_words_sent,
            "rim {} vs band {} words",
            rim_m.total_words_sent,
            band_m.total_words_sent
        );
        assert!(rim_m.rounds < band_m.rounds);
        assert!(rim_m.violations.len() <= band_m.violations.len());
    }

    #[test]
    fn no_doubling_state_outgrows_the_cap() {
        // The states are all `count_subtree_sizes` keeps resident, so the memory
        // peak it records is at most a full chunk of full balls.
        let cap = 8;
        for tree in [
            shapes::path(4096),
            shapes::spider(8, 512),
            shapes::caterpillar(1366, 2),
            shapes::random_recursive(4096, 5),
        ] {
            let mut c = ctx(2 * tree.len());
            let adj = c.from_vec(adjacency_of(&tree));
            let longest_chunk = adj.chunks().iter().map(Vec::len).max().unwrap();
            let info = count_subtree_sizes(&mut c, adj, cap).unwrap();
            assert!(
                c.metrics().peak_local_memory <= longest_chunk * (cap + 4),
                "{}-node tree: peak {} words, {longest_chunk} states of at most {} words",
                tree.len(),
                c.metrics().peak_local_memory,
                cap + 4
            );
            let sizes = tree.subtree_sizes();
            for rec in info.iter() {
                assert_eq!(rec.heavy, sizes[rec.id as usize] > cap);
            }
        }
    }

    #[test]
    fn subtree_sizes_machines_retire_as_they_stabilize() {
        // On a broom (star glued onto a path end) the star side stabilizes in one
        // step while the path keeps doubling: the active-machine trajectory must
        // strictly drop below its starting level before the loop ends.
        let tree = shapes::path(200);
        let mut c = ctx(200);
        let adj = c.from_vec(adjacency_of(&tree));
        count_subtree_sizes(&mut c, adj, 4).unwrap();
        let trace = c
            .metrics()
            .convergence
            .iter()
            .find(|t| t.name == "count_subtree_sizes")
            .expect("fused run records a trace")
            .clone();
        assert!(!trace.active_machines.is_empty());
        // Heavy nodes stabilize immediately (cap 4 on a 200-path), so participation
        // falls off after the first steps.
        assert!(
            trace.active_machines.last().unwrap() <= trace.active_machines.first().unwrap(),
            "trajectory {:?}",
            trace.active_machines
        );
    }

    #[test]
    fn path_distances_on_pure_path() {
        // Path 0→1→…→9 rooted at 0; nodes 1..=8 are degree-2 (node 9 is a leaf, node 0
        // is the root). Path nodes: 1..=8, top anchor 0, bottom anchor 9.
        let mut c = ctx(32);
        let nodes: Vec<PathNode> = (1..=8u64)
            .map(|v| PathNode {
                id: v,
                up: v - 1,
                up_is_path: v > 1,
                down: v + 1,
                down_is_path: v < 8,
                out_edge: DirectedEdge::new(v, v - 1),
                child_edge: DirectedEdge::new(v + 1, v),
            })
            .collect();
        let dv = c.from_vec(nodes);
        let out = path_distances(&mut c, dv).unwrap().into_vec();
        for p in out {
            assert_eq!(p.top_anchor, 0, "node {}", p.id);
            assert_eq!(p.bottom_anchor, 9, "node {}", p.id);
            assert_eq!(p.dist_up, p.id, "node {}", p.id);
            assert_eq!(p.dist_down, 9 - p.id, "node {}", p.id);
            // Payload fields ride through untouched.
            assert_eq!(p.up, p.id - 1, "node {}", p.id);
            assert_eq!(p.out_edge, DirectedEdge::new(p.id, p.id - 1));
            assert_eq!(p.child_edge, DirectedEdge::new(p.id + 1, p.id));
        }
    }

    #[test]
    fn path_distances_multiple_paths() {
        // A spider with 3 legs of length 6: each leg's internal nodes form a separate
        // degree-2 path with the center as top anchor and the leaf as bottom anchor.
        let tree = shapes::spider(3, 6);
        let mut c = ctx(64);
        let depths = tree.depths();
        let path_nodes = path_nodes_of(&tree);
        let dv = c.from_vec(path_nodes.clone());
        let out = path_distances(&mut c, dv).unwrap().into_vec();
        assert_eq!(out.len(), path_nodes.len());
        for p in &out {
            assert_eq!(p.top_anchor, 0);
            assert_eq!(p.dist_up, depths[p.id as usize] as u64);
            assert_eq!(p.dist_up + p.dist_down, 6);
            // Bottom anchor must be the leg's leaf.
            assert!(tree.children(p.bottom_anchor as usize).is_empty());
        }
        // Distinct legs have distinct bottom anchors (the path identifier property).
        let mut anchors: Vec<u64> = out.iter().map(|p| p.bottom_anchor).collect();
        anchors.sort();
        anchors.dedup();
        assert_eq!(anchors.len(), 3);
    }

    #[test]
    fn path_distances_fused_matches_legacy() {
        for tree in reference_shapes() {
            let path_nodes = path_nodes_of(&tree);
            let mut fused_ctx = ctx(2 * tree.len());
            let dv = fused_ctx.from_vec(path_nodes.clone());
            let fused = path_distances(&mut fused_ctx, dv).unwrap().into_vec();

            let mut legacy_ctx = ctx(2 * tree.len());
            let dv = legacy_ctx.from_vec(path_nodes);
            let legacy = path_distances_legacy(&mut legacy_ctx, dv).into_vec();

            assert_eq!(fused, legacy, "{}-node tree", tree.len());
            assert!(
                fused_ctx.metrics().rounds <= legacy_ctx.metrics().rounds,
                "fused {} vs legacy {} rounds",
                fused_ctx.metrics().rounds,
                legacy_ctx.metrics().rounds
            );
        }
    }

    #[test]
    fn empty_inputs() {
        let mut c = ctx(16);
        let empty_nodes: DistVec<PathNode> = c.empty();
        assert!(path_distances(&mut c, empty_nodes).unwrap().is_empty());
    }
}
