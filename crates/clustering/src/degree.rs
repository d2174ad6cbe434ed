//! Degree reduction: replacing high-degree nodes with `O(1)`-depth trees
//! (Section 4.4 of the paper).
//!
//! The clustering construction assumes maximum degree `m = n^{δ/2}`. The `K` children
//! of a wider node are cut, in input order, into chunks of `m`, each hung below a fresh
//! *auxiliary* node of level 1; the level-1 nodes are cut into chunks of `m` below
//! level-2 nodes, and so on, until at most `m` remain below the node. The child of
//! rank `r` therefore has the level-`ℓ` ancestor `⌊r/m^ℓ⌋`, and the family has `λ`
//! levels, the first `λ` at which `⌈K/m^λ⌉ ≤ m` — fewer than `2/δ`, since `K < n`.
//!
//! Nothing is gathered by parent. One stable sort by parent lays every family over
//! consecutive machines; one [`scan`](mpc_engine::MpcContext::scan) tells each machine
//! the start and size of every family run crossing its edges, and the per-level counts
//! of auxiliary nodes and edges of all families before its own. From these each child
//! computes its rank, every auxiliary node it is the first descendant of, their ids and
//! the final position of every record by arithmetic; one routing round places the
//! edges and the auxiliary-to-original records. The result is exactly what repeating
//! "gather by parent, chunk every oversized family" level by level produces.
//!
//! Edges from an original child to its (possibly auxiliary) parent are of the kind
//! [`EdgeKind::Original`]; edges out of auxiliary nodes are [`EdgeKind::Auxiliary`],
//! and DP rules must force both endpoints of an auxiliary edge to represent the same
//! original node (Section 5.3). The child id decides the kind
//! ([`EdgeKind::leaving`]), so the edge list does not carry it.

#[cfg(doc)]
use crate::element::EdgeKind;
use mpc_engine::{Deal, DistVec, MpcContext, Words};
use tree_repr::{DirectedEdge, NodeId};

/// Base for auxiliary node ids (far above any original node id used in this workspace,
/// but below the 2^48 limit required by cluster-id packing). Public so that structural
/// repair and the serving layer can distinguish original from auxiliary nodes and reject
/// user-supplied ids that would collide with the auxiliary range.
pub const AUX_BASE: NodeId = 1 << 44;

/// `true` if `id` denotes an auxiliary node introduced by [`reduce_degrees`]. It also
/// decides every edge kind: the edge leaving an auxiliary node is
/// [`EdgeKind::Auxiliary`], every other edge [`EdgeKind::Original`]
/// ([`EdgeKind::leaving`]).
pub fn is_aux_node(id: NodeId) -> bool {
    id >= AUX_BASE && id != tree_repr::NodeId::MAX
}

/// Result of [`reduce_degrees`]: a tree in which no node has more children than the
/// bound it records, the input [`build_clustering`](crate::build_clustering) takes.
#[derive(Debug, Clone)]
pub struct DegreeReduced {
    /// The transformed edge list; an edge is auxiliary exactly when its child is.
    pub(crate) edges: DistVec<DirectedEdge>,
    /// The root (unchanged).
    pub(crate) root: NodeId,
    /// Total number of nodes after the transformation (original + auxiliary).
    pub(crate) num_nodes: usize,
    /// Number of original nodes.
    pub(crate) original_nodes: usize,
    /// Mapping from every auxiliary node to the original node it stands in for.
    pub(crate) aux_to_original: DistVec<(NodeId, NodeId)>,
    /// The degree bound every node of `edges` meets.
    pub(crate) max_children: usize,
}

impl DegreeReduced {
    /// Move the reduced tree out: its edge list, original node count, and the
    /// auxiliary-to-original map. Its root and node count (original + auxiliary) are
    /// the clustering's, which [`build_clustering`](crate::build_clustering) records.
    pub fn into_parts(self) -> (DistVec<DirectedEdge>, usize, DistVec<(NodeId, NodeId)>) {
        (self.edges, self.original_nodes, self.aux_to_original)
    }
}

/// The chunk counts `⌈K/m^ℓ⌉` of a family of `k` children for `ℓ = 0..=λ`: level 0 is
/// the children themselves, and the last level is the first with at most `m` nodes.
fn chunk_counts(k: u64, m: u64) -> impl Iterator<Item = u64> {
    std::iter::successors(Some(k), move |&c| (c > m).then(|| c.div_ceil(m)))
}

/// `v[i]`, or 0 past the end: level vectors are as long as their deepest family.
fn at(v: &[u64], i: usize) -> u64 {
    v.get(i).copied().unwrap_or(0)
}

/// Level-by-level totals over a set of whole families.
#[derive(Debug, Clone, Default)]
struct Counts {
    /// `nodes[ℓ]`: the level-`ℓ` nodes of the families with at least `ℓ` levels
    /// (level 0: every child). Each is the child end of one edge of the result.
    nodes: Vec<u64>,
    /// `regrouped[ℓ]` (`ℓ ≥ 1`): the level-`ℓ−1` nodes of the families with at least
    /// `ℓ` levels, i.e. those hung below a level-`ℓ` node.
    regrouped: Vec<u64>,
}

impl Counts {
    fn add_family(&mut self, k: u64, m: u64) {
        let mut below = 0;
        for (level, c) in chunk_counts(k, m).enumerate() {
            if self.nodes.len() == level {
                self.nodes.push(0);
                self.regrouped.push(0);
            }
            self.nodes[level] += c;
            self.regrouped[level] += below;
            below = c;
        }
    }

    fn add(&mut self, other: &Counts) {
        if self.nodes.len() < other.nodes.len() {
            self.nodes.resize(other.nodes.len(), 0);
            self.regrouped.resize(other.nodes.len(), 0);
        }
        for (level, (n, r)) in other.nodes.iter().zip(&other.regrouped).enumerate() {
            self.nodes[level] += n;
            self.regrouped[level] += r;
        }
    }

    /// Edges of the result whose child is one of these nodes.
    fn edges(&self) -> u64 {
        self.nodes.iter().sum()
    }

    /// Edges of these families below an auxiliary node of a level under `levels`: the
    /// ones the level-by-level construction places after every original parent's
    /// family, in auxiliary-id order.
    fn regrouped_below(&self, levels: usize) -> u64 {
        (1..levels).map(|level| at(&self.regrouped, level)).sum()
    }
}

/// A family's run of consecutive children in the parent-sorted edge order.
#[derive(Debug, Clone, Copy)]
struct Run {
    parent: NodeId,
    len: u64,
}

impl Words for Run {}

/// The scan summary of a stretch of the parent-sorted edges: its first and last
/// family runs, which may continue beyond it, and the totals of the whole families
/// strictly between them.
#[derive(Debug, Clone, Default)]
struct Families {
    head: Option<Run>,
    /// The last run, when it belongs to another family than `head`.
    tail: Option<Run>,
    inner: Counts,
}

impl Words for Families {
    fn words(&self) -> usize {
        self.head.words()
            + self.tail.words()
            + self.inner.nodes.words()
            + self.inner.regrouped.words()
    }
}

impl Families {
    /// The summary of one edge below `parent`.
    fn of(parent: NodeId) -> Self {
        let head = Some(Run { parent, len: 1 });
        Families {
            head,
            ..Families::default()
        }
    }

    fn last(&self) -> Option<Run> {
        self.tail.or(self.head)
    }

    /// The summary of `self` followed by `next` (associative, `default` its identity):
    /// the two runs at the seam join when they share a parent, and runs that end up
    /// strictly inside become whole families.
    fn then(self, next: Families, m: u64) -> Families {
        let (Some(head), Some(first)) = (self.head, next.head) else {
            return if self.head.is_some() { self } else { next };
        };
        let mut inner = self.inner;
        inner.add(&next.inner);
        let last = self.tail.unwrap_or(head);
        if last.parent == first.parent {
            let joined = Run {
                parent: first.parent,
                len: last.len + first.len,
            };
            let (head, tail) = match (self.tail, next.tail) {
                (None, None) => (joined, None),
                (None, tail) => (joined, tail),
                (Some(_), None) => (head, Some(joined)),
                (Some(_), tail) => {
                    inner.add_family(joined.len, m);
                    (head, tail)
                }
            };
            return Families {
                head: Some(head),
                tail,
                inner,
            };
        }
        if let Some(tail) = self.tail {
            inner.add_family(tail.len, m);
        }
        if next.tail.is_some() {
            inner.add_family(first.len, m);
        }
        Families {
            head: Some(head),
            tail: Some(next.tail.unwrap_or(first)),
            inner,
        }
    }

    /// Totals of every family of the stretch, except the one of `open` — the family
    /// the next machine continues, which only the stretch's last run can belong to.
    fn closed(&self, open: Option<NodeId>, m: u64) -> Counts {
        let mut counts = self.inner.clone();
        for run in [self.head, self.tail].into_iter().flatten() {
            if Some(run.parent) != open {
                counts.add_family(run.len, m);
            }
        }
        counts
    }
}

/// Where the records of the reduced tree go, from the totals over all families.
struct Layout {
    m: u64,
    /// `L`: the most levels any family has.
    levels: usize,
    /// `aux_start[ℓ]`: auxiliary ids (less [`AUX_BASE`]) of levels under `ℓ` — ids are
    /// dealt level by level, in parent order within a level.
    aux_start: Vec<u64>,
    /// `block_start[ℓ]` (`1 ≤ ℓ < L`): the position of the first edge below a level-`ℓ`
    /// node. Those edges follow every original parent's family, level by level.
    block_start: Vec<u64>,
    edges: u64,
    aux: u64,
}

impl Layout {
    fn new(total: &Counts, m: u64) -> Self {
        let levels = total.nodes.len().saturating_sub(1);
        let prefix = |v: &[u64], base: u64| -> Vec<u64> {
            (0..=levels)
                .map(|level| base + (1..level).map(|l| at(v, l)).sum::<u64>())
                .collect()
        };
        let edges = total.edges();
        Layout {
            m,
            levels,
            aux_start: prefix(&total.nodes, 0),
            block_start: prefix(&total.regrouped, edges - total.regrouped_below(levels)),
            edges,
            aux: edges - at(&total.nodes, 0),
        }
    }
}

/// One record of the result on its way to its machine: its position in its table and
/// two ids — an edge's child and parent, or an auxiliary node and the original node it
/// stands in for. The table is the top bit of the position ([`AUX_RECORD`]); an edge's
/// kind is its child's ([`EdgeKind::leaving`]), so nothing records it.
type Placed = (u64, NodeId, NodeId);

/// Position bit marking an auxiliary-to-original record.
const AUX_RECORD: u64 = 1 << 63;

/// Emit the records the child of rank `rank` below `parent` is responsible for: its own
/// edge, and for every auxiliary node it is the first descendant of (rank a multiple of
/// `m^ℓ`) that node's edge and its auxiliary-to-original record. `counts` are the
/// family's [`chunk_counts`], `before` the totals of the families of smaller parents.
fn place_child(
    layout: &Layout,
    (child, parent): (NodeId, NodeId),
    rank: u64,
    counts: &[u64],
    before: &Counts,
    out: &mut Vec<Placed>,
) {
    let (m, levels) = (layout.m, layout.levels);
    let top = counts.len() - 1;
    // The family's first edge among the original parents' families: those before it
    // hold all their edges but the ones below auxiliary nodes of levels under `L`.
    // There the family holds its top level and, when it has `L` levels, the level
    // below, each chunk before its node.
    let start = before.edges() - before.regrouped_below(levels);
    let id = |level: usize, i: u64| match level {
        0 => child,
        _ => AUX_BASE + layout.aux_start[level] + at(&before.nodes, level) + i,
    };
    let mut span = 1u64;
    for level in 0..=top {
        if rank % span != 0 {
            break;
        }
        let i = rank / span;
        let (up, pos) = if level < top {
            let pos = if level + 1 < levels {
                layout.block_start[level + 1] + at(&before.regrouped, level + 1) + i
            } else {
                start + i + i / m
            };
            (id(level + 1, i / m), pos)
        } else if top < levels {
            (parent, start + i)
        } else {
            (parent, start + ((i + 1) * m).min(counts[top - 1]) + i)
        };
        out.push((pos, id(level, i), up));
        if level > 0 {
            out.push((AUX_RECORD | (id(level, i) - AUX_BASE), id(level, i), parent));
        }
        span = span.saturating_mul(m);
    }
}

/// Strip the positions of one table's records, in position order on every machine.
fn in_position_order<T>(placed: DistVec<(u64, T)>) -> DistVec<T> {
    placed.map_chunks_local(|_, mut chunk| {
        chunk.sort_unstable_by_key(|(pos, _)| *pos);
        chunk.into_iter().map(|(_, record)| record).collect()
    })
}

/// Replace every node with more than `max_children` children by an `O(1)`-depth tree of
/// auxiliary nodes: no node of the result has more than `max_children` children.
///
/// One stable sort by parent, one [`scan`](MpcContext::scan) of the family runs and,
/// when some family is wider than the bound, one routing round that places every edge
/// and auxiliary record where the level-by-level construction puts it (edges in parent
/// order with each chunk before its auxiliary node, then the edges below auxiliary
/// nodes in id order; both tables dealt by [`Deal`], as `from_vec` deals). The rounds do
/// not depend on the number of levels, and no machine holds more than its share of
/// the sorted edges and of the records they emit. A tree within the bound keeps its
/// input layout.
///
/// Returns `None` when `max_children < 2` (the transformation cannot terminate).
pub fn reduce_degrees(
    ctx: &mut MpcContext,
    edges: &DistVec<DirectedEdge>,
    root: NodeId,
    num_nodes: usize,
    max_children: usize,
) -> Option<DegreeReduced> {
    if max_children < 2 {
        return None;
    }
    let m = max_children as u64;
    let sorted = ctx.sort_by_key(edges.clone(), |e| e.parent);
    let summary = |families: Families, e: &DirectedEdge| families.then(Families::of(e.parent), m);
    let around = ctx.scan(&sorted, Families::default(), summary, |a, b| a.then(b, m));
    // What every machine knows once it puts its own summary between the two it got.
    let own = sorted.chunks()[0].iter().fold(Families::default(), summary);
    let total = own.then(around[0].1.clone(), m).closed(None, m);
    let layout = Layout::new(&total, m);
    if layout.levels == 0 {
        return Some(DegreeReduced {
            edges: edges.clone(),
            root,
            num_nodes,
            original_nodes: num_nodes,
            aux_to_original: ctx.empty(),
            max_children,
        });
    }

    let placed = sorted.map_chunks_local(|machine, chunk| {
        let (before, after) = &around[machine];
        let mut out = Vec::with_capacity(2 * chunk.len());
        let Some(first) = chunk.first() else {
            return out;
        };
        // The runs of this machine's first and last family that lie beyond it.
        let beyond = |run: Option<Run>, parent: NodeId| {
            run.filter(|run| run.parent == parent)
                .map_or(0, |run| run.len)
        };
        let mut preceding = before.closed(Some(first.parent), m);
        let mut start = 0;
        while start < chunk.len() {
            let parent = chunk[start].parent;
            let family = &chunk[start..];
            let family = &family[..family.iter().take_while(|e| e.parent == parent).count()];
            let offset = match start {
                0 => beyond(before.last(), parent),
                _ => 0,
            };
            start += family.len();
            let rest = match start == chunk.len() {
                true => beyond(after.head, parent),
                false => 0,
            };
            let k = offset + family.len() as u64 + rest;
            let counts: Vec<u64> = chunk_counts(k, m).collect();
            for (rank, e) in (offset..).zip(family) {
                place_child(
                    &layout,
                    (e.child, parent),
                    rank,
                    &counts,
                    &preceding,
                    &mut out,
                );
            }
            preceding.add_family(k, m);
        }
        out
    });
    let machines = ctx.config().num_machines();
    let (edge_deal, aux_deal) = (
        Deal::over(layout.edges as usize, machines),
        Deal::over(layout.aux as usize, machines),
    );
    let placed = ctx.route(placed, |&(pos, ..)| match pos & AUX_RECORD {
        0 => edge_deal.machine(pos as usize),
        _ => aux_deal.machine((pos ^ AUX_RECORD) as usize),
    });
    let reduced = placed.filter_map_local(|&(pos, child, parent)| {
        (pos & AUX_RECORD == 0).then_some((pos, DirectedEdge::new(child, parent)))
    });
    let aux_to_original = placed.filter_map_local(|&(pos, aux, original)| {
        (pos & AUX_RECORD != 0).then_some((pos, (aux, original)))
    });

    Some(DegreeReduced {
        edges: in_position_order(reduced),
        root,
        num_nodes: num_nodes + layout.aux as usize,
        original_nodes: num_nodes,
        aux_to_original: in_position_order(aux_to_original),
        max_children,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_engine::MpcConfig;
    use tree_gen::shapes;
    use tree_repr::Tree;

    fn reduce(tree: &Tree, max_children: usize) -> DegreeReduced {
        let mut ctx = MpcContext::new(MpcConfig::new(tree.len().max(16), 0.5));
        let edges = ctx.from_vec(tree.edges());
        reduce_degrees(
            &mut ctx,
            &edges,
            tree.root() as u64,
            tree.len(),
            max_children,
        )
        .expect("valid bound")
    }

    /// The reduction as it stood before the pass count was derived: after every pass,
    /// gather by parent and `all_reduce` the widest family, and stop once it is within
    /// the bound. [`reduce_degrees`] must produce exactly its output.
    fn reduce_degrees_reference(
        ctx: &mut MpcContext,
        edges: &DistVec<DirectedEdge>,
        root: NodeId,
        num_nodes: usize,
        max_children: usize,
    ) -> DegreeReduced {
        let mut current: DistVec<DirectedEdge> = edges.clone();
        let mut aux_map: Vec<(NodeId, NodeId)> = Vec::new();
        let mut next_aux = AUX_BASE;
        let mut total_nodes = num_nodes;
        for _ in 0..64 {
            let grouped = ctx.gather_groups(current.clone(), |e| e.parent);
            let oversized = ctx.all_reduce(
                &grouped,
                0u64,
                |acc, (_, g)| acc.max(g.len() as u64),
                |a, b| a.max(b),
            );
            if oversized <= max_children as u64 {
                break;
            }
            let mut rewritten: Vec<DirectedEdge> = Vec::new();
            for (parent, family) in grouped.iter() {
                if family.len() <= max_children {
                    rewritten.extend(family.iter().copied());
                    continue;
                }
                let represented = aux_map
                    .iter()
                    .find(|(aux, _)| aux == parent)
                    .map(|(_, orig)| *orig)
                    .unwrap_or(*parent);
                for chunk in family.chunks(max_children) {
                    let aux = next_aux;
                    next_aux += 1;
                    total_nodes += 1;
                    aux_map.push((aux, represented));
                    for edge in chunk {
                        rewritten.push(DirectedEdge::new(edge.child, aux));
                    }
                    rewritten.push(DirectedEdge::new(aux, *parent));
                }
            }
            current = ctx.from_vec(rewritten);
            current = ctx.rebalance(current);
            ctx.check_memory(&current, "degree-reduction");
        }
        let aux_to_original = ctx.from_vec(aux_map);
        DegreeReduced {
            edges: current,
            root,
            num_nodes: total_nodes,
            original_nodes: num_nodes,
            aux_to_original,
            max_children,
        }
    }

    /// A root whose children `1..=k` (numbered in reverse) have `sizes[i]` leaves each,
    /// the leaves numbered round-robin across the families: in input order every
    /// family's edges interleave with the others', and once sorted by parent its run
    /// crosses machine edges.
    fn interleaved_families(sizes: &[usize]) -> Tree {
        let k = sizes.len();
        let mut parents: Vec<Option<usize>> = vec![None];
        parents.extend((0..k).map(|_| Some(0)));
        for round in 0..sizes.iter().copied().max().unwrap_or(0) {
            for (i, &size) in sizes.iter().enumerate() {
                if round < size {
                    parents.push(Some(k - i));
                }
            }
        }
        Tree::from_parents(parents)
    }

    /// Reduce `tree` at `cfg` and with the reference at the same machine count but
    /// non-strict accounting (the reference gathers whole families).
    fn reduce_both(tree: &Tree, cfg: MpcConfig, max_children: usize) -> [DegreeReduced; 2] {
        let root = tree.root() as u64;
        let mut ctx = MpcContext::new(cfg);
        let edges = ctx.from_vec(tree.edges());
        let got =
            reduce_degrees(&mut ctx, &edges, root, tree.len(), max_children).expect("valid bound");
        assert!(
            ctx.metrics().violations.is_empty(),
            "{:?}",
            ctx.metrics().violations.first()
        );
        let mut ctx = MpcContext::new(cfg.with_strict(false));
        let edges = ctx.from_vec(tree.edges());
        let want = reduce_degrees_reference(&mut ctx, &edges, root, tree.len(), max_children);
        [got, want]
    }

    #[test]
    fn output_matches_the_per_pass_checking_reference() {
        let mut trees: Vec<Tree> = tree_gen::standard_suite(256, 3)
            .into_iter()
            .map(|entry| entry.tree)
            .collect();
        for leaves in [3, 4, 5, 7, 9, 16, 17, 21, 64, 65, 199, 400, 1000, 5000] {
            trees.push(shapes::star(leaves + 1));
            trees.push(shapes::broom(10, leaves));
        }
        for (n, seed) in [(50, 1), (300, 2), (1000, 3), (3000, 4), (5000, 5)] {
            trees.push(shapes::random_recursive(n, seed));
        }
        for m in [2, 3, 4, 5, 8, 20] {
            // Family sizes at the edges of one, two and three levels, interleaved.
            trees.push(interleaved_families(&[
                m,
                m + 1,
                m * m,
                m * m + 1,
                m * m * m + 1,
            ]));
            // The widest family needs three levels while the others need one: the
            // level-by-level construction is global, so this pins the output order.
            trees.push(interleaved_families(&[
                m + 1,
                m * m * m + 1,
                2 * m,
                m + 2,
                1,
            ]));
        }
        for tree in &trees {
            for max_children in [2, 3, 4, 5, 8, 20] {
                let cfg = MpcConfig::new(tree.len().max(16), 0.5);
                let [got, want] = reduce_both(tree, cfg, max_children);
                let case = format!("{} nodes at bound {max_children}", tree.len());
                assert_eq!(got.edges.chunks(), want.edges.chunks(), "{case}");
                assert_eq!(
                    got.aux_to_original.chunks(),
                    want.aux_to_original.chunks(),
                    "{case}"
                );
                assert_eq!(got.num_nodes, want.num_nodes, "{case}");
                assert_eq!(got.original_nodes, want.original_nodes, "{case}");
            }
        }
    }

    /// The reduction itself keeps every machine within `Θ(n^δ)` words: a star and a
    /// broom of 8192 nodes run under strict accounting at δ = 1/4 and 1/2 (the
    /// reference gathers the 8191- and 4096-child families onto one machine) with the
    /// bound the pipeline uses, and still produce the reference's output.
    #[test]
    fn strict_memory_holds_for_wide_families() {
        let n = 8192;
        for tree in [shapes::star(n), shapes::broom(n / 2, n / 2)] {
            for delta in [0.25, 0.5] {
                let cfg = MpcConfig::strict(2 * n, delta);
                let [got, want] = reduce_both(&tree, cfg, cfg.n_half_delta());
                let case = format!("{} nodes at δ = {delta}", tree.len());
                assert!(got.num_nodes > n, "{case}: nothing reduced");
                assert_eq!(got.edges.chunks(), want.edges.chunks(), "{case}");
                assert_eq!(
                    got.aux_to_original.chunks(),
                    want.aux_to_original.chunks(),
                    "{case}"
                );
                assert_eq!(got.num_nodes, want.num_nodes, "{case}");
            }
        }
    }

    #[test]
    fn charges_one_sort_one_scan_and_one_route() {
        let charged = |tree: &Tree, max_children: usize| {
            let mut ctx = MpcContext::new(MpcConfig::new(tree.len().max(16), 0.5));
            let edges = ctx.from_vec(tree.edges());
            let before = ctx.metrics().rounds;
            reduce_degrees(&mut ctx, &edges, 0, tree.len(), max_children).expect("valid bound");
            let scan = 2 * ctx.agg_rounds();
            (ctx.metrics().rounds - before, ctx.sort_rounds() + scan)
        };
        // Within the bound: the sort and the scan that find no wide family.
        let (rounds, sort_and_scan) = charged(&shapes::balanced_kary(127, 2), 4);
        assert_eq!(rounds, sort_and_scan);
        // One level (K = 9 → 3) and three (K = 199 → 50 → 13 → 4) both add one
        // routing round: the charge does not depend on the level count.
        for tree in [shapes::star(10), shapes::star(200)] {
            let (rounds, sort_and_scan) = charged(&tree, 4);
            assert_eq!(rounds, sort_and_scan + 1);
        }
    }

    /// Rebuild a host-side tree over remapped contiguous ids for structural checks.
    fn rebuild(reduced: &DegreeReduced) -> (Tree, Vec<u64>) {
        let edges = reduced.edges.to_vec();
        let mut ids: Vec<u64> = edges.iter().flat_map(|e| [e.child, e.parent]).collect();
        ids.push(reduced.root);
        ids.sort();
        ids.dedup();
        let index_of = |id: u64| ids.binary_search(&id).unwrap();
        let mut parents = vec![None; ids.len()];
        for e in &edges {
            parents[index_of(e.child)] = Some(index_of(e.parent));
        }
        (Tree::from_parents(parents), ids)
    }

    #[test]
    fn star_is_reduced_to_bounded_degree() {
        let tree = shapes::star(200);
        let reduced = reduce(&tree, 4);
        let (rebuilt, _) = rebuild(&reduced);
        assert_eq!(reduced.num_nodes, rebuilt.len());
        assert!(rebuilt.max_degree() <= 5, "degree {}", rebuilt.max_degree());
        // All original nodes survive.
        assert!(reduced.num_nodes >= 200);
        assert_eq!(reduced.original_nodes, 200);
    }

    #[test]
    fn diameter_grows_only_by_constant_factor() {
        let tree = shapes::broom(10, 500);
        let reduced = reduce(&tree, 8);
        let (rebuilt, _) = rebuild(&reduced);
        // Section 4.4: the number of nodes and the diameter grow by at most a constant
        // factor; with threshold 8 and 500 leaves the auxiliary tree has depth ≤ 3.
        assert!(rebuilt.diameter() <= tree.diameter() + 8);
        assert!(reduced.num_nodes <= 2 * tree.len());
    }

    #[test]
    fn bounded_tree_is_unchanged() {
        let tree = shapes::balanced_kary(127, 2);
        let reduced = reduce(&tree, 4);
        assert_eq!(reduced.num_nodes, 127);
        assert!(reduced.aux_to_original.is_empty());
        // Every edge is original: no child is an auxiliary node.
        assert!(reduced.edges.iter().all(|e| !is_aux_node(e.child)));
        assert_eq!(reduced.edges.to_vec(), tree.edges());
    }

    #[test]
    fn aux_edges_marked_and_mapped() {
        let tree = shapes::star(50);
        let reduced = reduce(&tree, 4);
        let aux_edges: Vec<_> = reduced
            .edges
            .iter()
            .filter(|e| is_aux_node(e.child))
            .collect();
        assert!(!aux_edges.is_empty());
        // Every auxiliary node maps back to the star's center (node 0).
        for (aux, orig) in reduced.aux_to_original.iter() {
            assert!(*aux >= AUX_BASE);
            assert_eq!(*orig, 0);
        }
        // Original edges always have an original child, auxiliary ones a mapped
        // auxiliary child.
        let mapped: Vec<NodeId> = reduced.aux_to_original.iter().map(|(a, _)| *a).collect();
        for e in reduced.edges.iter() {
            assert_eq!(is_aux_node(e.child), e.child >= AUX_BASE);
            assert_eq!(is_aux_node(e.child), mapped.contains(&e.child));
        }
    }

    #[test]
    fn rejects_degenerate_bound() {
        let tree = shapes::star(10);
        let mut ctx = MpcContext::new(MpcConfig::new(16, 0.5));
        let edges = ctx.from_vec(tree.edges());
        assert!(reduce_degrees(&mut ctx, &edges, 0, 10, 1).is_none());
    }
}
