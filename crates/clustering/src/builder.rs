//! Construction of the hierarchical clustering (Section 4.2 of the paper).
//!
//! The builder alternates two kinds of contraction steps on the *active* tree (whose
//! vertices are original nodes, colored indegree-0 cluster elements, and uncolored
//! indegree-1 cluster elements):
//!
//! 1. **Indegree-zero step** (Section 4.2.2): `CountSubtreeSizes` classifies uncolored
//!    elements as *heavy* (more than `n^{δ/2}` uncolored elements in their subtree) or
//!    *light*; every light element whose parent is heavy has its entire remaining
//!    subtree — including attached colored elements — contracted into an indegree-0
//!    cluster, which stays in the tree as a *colored* leaf.
//! 2. **Indegree-one step** (Section 4.2.3): maximal paths of degree-2 elements in the
//!    uncolored subgraph are located with `CountDistances`, split into fragments of at
//!    most `n^{δ/2}` elements, and every fragment together with its attached colored
//!    elements becomes an indegree-1 (caterpillar) cluster, contracted into a single
//!    uncolored degree-2 element.
//!
//! When at most `n^{δ/2}` uncolored elements remain, everything left becomes a member
//! of the single top cluster, recorded in place by the machine that holds it. Lemma 4
//! of the paper bounds the number of iterations by a constant (≈ `2/δ`); the builder
//! enforces a generous safety cap and reports an error if it is ever exceeded.
//!
//! ## Batched per-level passes
//!
//! Each contraction level used to spend a long tail of separate primitives on probing
//! and bookkeeping around the two subroutine calls. Those are now absorbed into a
//! constant number of fused passes per level:
//!
//! * both size probes (own size, parent's size) are one [`MpcContext::join_lookup2`]
//!   call instead of a `sort_table` plus two probe rounds, and the path-flag probe
//!   (the child's flag) is one [`MpcContext::join_lookup`];
//! * every probe ships keys, not records: the size and absorption probes send
//!   `(id, parent)` pairs, the path-flag probe the child's id against a table of
//!   `(id, degree-2 flag)` pairs, and the answers — which come back in request order —
//!   rejoin their records with [`DistVec::zip_local`] on the machine that holds them;
//! * the indegree-1 adjacency carries each node's parent, outgoing edge, and per-child
//!   attachment edge, so degree-2 flags and fragment assembly need no further joins —
//!   the path payload rides through [`path_distances`] and the incoming edge of every
//!   fragment cluster is read off the bottom member's `child_edge` locally;
//! * absorption, colored-children follow-up, and parent re-targeting collapse into one
//!   two-column probe of the assignment table per level ([`absorb_and_retarget`]),
//!   replacing the former three-join sequence.

use crate::clustering::Clustering;
use crate::degree::DegreeReduced;
use crate::element::{make_cluster_id, Element, ElementId, ElementKind, UNABSORBED, VIRTUAL_NODE};
use crate::subroutines::{count_subtree_sizes, path_distances, PathNode, PathPosition};
use mpc_engine::{ConvergeError, DistVec, MpcContext, Words};
use std::fmt;
use tree_repr::DirectedEdge;

/// Error produced when the clustering cannot be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterError(pub String);

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "clustering construction failed: {}", self.0)
    }
}

impl std::error::Error for ClusterError {}

impl From<ConvergeError> for ClusterError {
    fn from(e: ConvergeError) -> Self {
        ClusterError(e.to_string())
    }
}

/// One element of the *active* (partially contracted) tree during construction.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Active {
    id: ElementId,
    kind: ElementKind,
    colored: bool,
    parent: ElementId,
    out_edge: DirectedEdge,
    in_edge: Option<DirectedEdge>,
    formed_at: u32,
}

/// Per-fragment product of the indegree-1 contraction pass: the membership
/// assignments and the new cluster's active element (complete with its incoming edge,
/// resolved locally from the bottom member's child edge).
type FragProduct = (Vec<(ElementId, ElementId)>, Active);

impl Words for Active {
    fn words(&self) -> usize {
        12
    }
}

/// Enriched uncolored-subgraph adjacency record for the indegree-one step: the node's
/// parent and outgoing edge plus its uncolored children, each tagged with the
/// original-tree edge through which it attaches.
#[derive(Debug, Clone)]
struct AdjRec {
    id: ElementId,
    parent: ElementId,
    out_edge: DirectedEdge,
    children: Vec<(ElementId, DirectedEdge)>,
}

impl Words for AdjRec {
    fn words(&self) -> usize {
        4 + 3 * self.children.len()
    }
}

/// Build the hierarchical clustering of a degree-reduced tree.
///
/// The cluster-size threshold `n^{δ/2}` is the degree bound the reduction established,
/// so Section 4.2's precondition (no node has more children) holds by construction.
pub fn build_clustering(
    ctx: &mut MpcContext,
    reduced: &DegreeReduced,
) -> Result<Clustering, ClusterError> {
    let (root, num_nodes, threshold) = (reduced.root, reduced.num_nodes, reduced.max_children);
    if num_nodes == 0 {
        return Err(ClusterError("empty tree".to_string()));
    }

    // Initial active elements: every original node, with the root pointing at the
    // virtual node through the virtual edge (Section 1.5).
    let mut initial: Vec<Active> = reduced
        .edges
        .iter()
        .map(|e| Active {
            id: e.child,
            kind: ElementKind::Node,
            colored: false,
            parent: e.parent,
            out_edge: *e,
            in_edge: None,
            formed_at: 0,
        })
        .collect();
    initial.push(Active {
        id: root,
        kind: ElementKind::Node,
        colored: false,
        parent: VIRTUAL_NODE,
        out_edge: DirectedEdge::new(root, VIRTUAL_NODE),
        in_edge: None,
        formed_at: 0,
    });
    if initial.len() != num_nodes {
        return Err(ClusterError(format!(
            "edge list has {} nodes but num_nodes = {num_nodes}",
            initial.len()
        )));
    }
    let mut actives: DistVec<Active> = ctx.from_vec(initial);
    ctx.check_memory(&actives, "clustering/init");

    let mut finished: Vec<Element> = Vec::new();
    let mut layer: u32 = 0;
    let delta = ctx.config().delta;
    let max_iterations = ((2.0 / delta).ceil() as u32) * 4 + 16;
    let mut top_cluster = 0;

    for iteration in 0..=max_iterations {
        if iteration == max_iterations {
            return Err(ClusterError(format!(
                "no convergence after {max_iterations} iterations (Lemma 4 predicts O(1))"
            )));
        }
        let uncolored_count = ctx.all_reduce(
            &actives,
            0u64,
            |acc, a| acc + u64::from(!a.colored),
            |a, b| a + b,
        );

        // ----- termination: everything left fits into one top cluster -----------------
        if uncolored_count <= threshold as u64 {
            layer += 1;
            top_cluster = make_cluster_id(layer, root);
            // Nothing to bring together: every machine records its own actives as
            // members of the top cluster, where they lie.
            finished.extend(actives.iter().map(|a| Element {
                id: a.id,
                kind: a.kind,
                formed_at: a.formed_at,
                absorbed_into: top_cluster,
                absorbed_at: layer,
                out_edge: a.out_edge,
                in_edge: a.in_edge,
            }));
            finished.push(Element {
                id: top_cluster,
                kind: ElementKind::TopCluster,
                formed_at: layer,
                absorbed_into: VIRTUAL_NODE,
                absorbed_at: UNABSORBED,
                out_edge: DirectedEdge::new(root, VIRTUAL_NODE),
                in_edge: None,
            });
            break;
        }

        // ----- indegree-zero step -----------------------------------------------------
        layer += 1;
        let indeg0_layer = layer;
        let sizes = ctx.phase("cluster-sizes", |ctx| {
            let adjacency = uncolored_children(ctx, &actives);
            count_subtree_sizes(ctx, adjacency, threshold)
        })?;
        // One fused two-column probe answers both size questions (own size, parent's
        // size) in a single join round. It ships the `(id, parent)` keys alone; the
        // answers come back in request order and rejoin their records locally.
        let uncolored = actives.filter_map_local(|a| (!a.colored).then_some(*a));
        let keys = uncolored.filter_map_local(|a| Some((a.id, a.parent)));
        let answers = ctx.join_lookup2(keys, |k| k.0, |k| k.1, &sizes, |s| s.id);
        let probed = uncolored.zip_local(answers, |a, (_, own, parent)| (a, own, parent));
        let selected = probed.filter_local(|(a, own, parent)| {
            let light = own.as_ref().map(|o| !o.heavy).unwrap_or(false);
            let parent_heavy = parent.as_ref().map(|p| p.heavy).unwrap_or(false);
            light && parent_heavy && a.parent != VIRTUAL_NODE
        });
        // Membership assignments (member element → absorbing cluster) and the new
        // colored cluster elements, one per selected subtree root.
        let assignments: DistVec<(ElementId, ElementId)> =
            selected.clone().flat_map_local(|(a, own, _)| {
                let cid = make_cluster_id(indeg0_layer, a.id);
                own.map(|o| o.descendants.iter().map(|&d| (d, cid)).collect::<Vec<_>>())
                    .unwrap_or_default()
            });
        let new_clusters: DistVec<Active> = selected.map_local(|(a, _, _)| Active {
            id: make_cluster_id(indeg0_layer, a.id),
            kind: ElementKind::ClusterIndeg0,
            colored: true,
            parent: a.parent,
            out_edge: a.out_edge,
            in_edge: None,
            formed_at: indeg0_layer,
        });
        // No re-targeting in this step: absorbed subtrees consist of light elements
        // only, so no surviving element's parent pointer dangles.
        actives = absorb_and_retarget(
            ctx,
            actives,
            &assignments,
            false,
            indeg0_layer,
            &mut finished,
        )
        .concat_local(new_clusters);
        ctx.check_memory(&actives, "clustering/after-indeg0");

        // ----- indegree-one step ------------------------------------------------------
        layer += 1;
        let indeg1_layer = layer;
        let adjacency = uncolored_adjacency(ctx, &actives);
        // Degree-2 flags: exactly one uncolored child and a real (non-virtual) parent.
        // The enriched adjacency already carries parent and edges, so this is local.
        let on_path = |r: &AdjRec| r.children.len() == 1 && r.parent != VIRTUAL_NODE;
        let flags: DistVec<(ElementId, bool)> =
            adjacency.filter_map_local(|r| Some((r.id, on_path(r))));
        // The child's flag in one probe: the downward walk needs nothing of the parent.
        // The request is the child's id alone.
        let path_candidates = adjacency.filter_local(on_path);
        let children = path_candidates.filter_map_local(|r| Some(r.children[0].0));
        let down = ctx.join_lookup(children, |child| *child, &flags, |f| f.0);
        let path_nodes: DistVec<PathNode> =
            path_candidates.zip_local(down, |r, (_, down)| PathNode {
                id: r.id,
                up: r.parent,
                down: r.children[0].0,
                down_is_path: down.is_some_and(|(_, is_path)| is_path),
                out_edge: r.out_edge,
                child_edge: r.children[0].1,
            });
        let positions = ctx.phase("cluster-paths", |ctx| path_distances(ctx, path_nodes))?;

        // Fragments of at most `threshold` consecutive path nodes; the bottom anchor of
        // the path uniquely identifies the path, the quotient of the downward distance
        // identifies the fragment. The payload carried through `path_distances` makes
        // the whole assembly — assignments, cluster element, incoming edge — local to
        // the fragment's machine.
        let frag_key =
            move |p: &PathPosition| (p.bottom_anchor, (p.dist_down - 1) / threshold as u64);
        let groups = ctx.gather_groups(positions, move |p| frag_key(p));
        let frag_products: DistVec<FragProduct> = groups.flat_map_local(|(_, members)| {
            let mut members = members;
            if members.is_empty() {
                return Vec::new();
            }
            members.sort_by_key(|p| p.dist_down);
            let bottom = members[0];
            let top = *members.last().expect("non-empty fragment");
            let cid = make_cluster_id(indeg1_layer, top.id);
            let assignments: Vec<(ElementId, ElementId)> =
                members.iter().map(|p| (p.id, cid)).collect();
            // The unique uncolored child of the fragment's bottom member contributes
            // its outgoing edge as the fragment's incoming edge.
            let cluster = Active {
                id: cid,
                kind: ElementKind::ClusterIndeg1,
                colored: false,
                parent: top.up,
                out_edge: top.out_edge,
                in_edge: Some(bottom.child_edge),
                formed_at: indeg1_layer,
            };
            vec![(assignments, cluster)]
        });
        let assignments: DistVec<(ElementId, ElementId)> =
            frag_products.clone().flat_map_local(|(assign, _)| assign);
        let new_clusters: DistVec<Active> = frag_products.map_local(|(_, cluster)| *cluster);

        // Absorption and parent re-targeting over old and new elements in one pass
        // (the new clusters are never absorbed — their ids are fresh — but their
        // parents may point into an absorbed fragment and need re-targeting).
        let merged = actives.concat_local(new_clusters);
        actives = absorb_and_retarget(ctx, merged, &assignments, true, indeg1_layer, &mut finished);
        ctx.check_memory(&actives, "clustering/after-indeg1");
    }

    let elements = ctx.from_vec(finished);
    let elements = ctx.rebalance(elements);
    ctx.check_memory(&elements, "clustering/elements");
    Ok(Clustering {
        num_nodes,
        root,
        num_layers: layer,
        threshold,
        elements,
        top_cluster,
    })
}

/// The announcement pairs both adjacency gathers group by their first field: on every
/// machine, one `to_parent` pair per uncolored element below a real parent, then one
/// `own` pair per uncolored element (which is what gives childless elements a group).
fn announcements<P>(
    actives: &DistVec<Active>,
    to_parent: impl Fn(&Active) -> P,
    own: impl Fn(&Active) -> P,
) -> DistVec<P> {
    actives
        .filter_map_local(|a| (!a.colored && a.parent != VIRTUAL_NODE).then(|| to_parent(a)))
        .concat_local(actives.filter_map_local(|a| (!a.colored).then(|| own(a))))
}

/// Uncolored-subgraph adjacency: for every uncolored element, the list of its uncolored
/// children (possibly empty). One `gather_groups` (`O(1)` rounds).
fn uncolored_children(
    ctx: &mut MpcContext,
    actives: &DistVec<Active>,
) -> DistVec<(ElementId, Vec<ElementId>)> {
    let pairs = announcements(actives, |a| (a.parent, a.id), |a| (a.id, VIRTUAL_NODE));
    let grouped = ctx.gather_groups(pairs, |p| p.0);
    grouped.map_local(|(id, pairs)| {
        let children: Vec<ElementId> = pairs
            .iter()
            .map(|(_, c)| *c)
            .filter(|&c| c != VIRTUAL_NODE)
            .collect();
        (*id, children)
    })
}

/// Enriched adjacency for the indegree-one step: one `gather_groups` (`O(1)` rounds)
/// over child and self announcement pairs. Child pairs ship `(child id, child's
/// outgoing edge)` to the parent; the self pair carries the node's own parent pointer
/// and outgoing edge, so every downstream consumer works without further joins.
fn uncolored_adjacency(ctx: &mut MpcContext, actives: &DistVec<Active>) -> DistVec<AdjRec> {
    let pairs = announcements(
        actives,
        |a| (a.parent, a.id, VIRTUAL_NODE, a.out_edge),
        |a| (a.id, VIRTUAL_NODE, a.parent, a.out_edge),
    );
    let grouped = ctx.gather_groups(pairs, |p| p.0);
    grouped.map_local(|(id, pairs)| {
        // Every uncolored element emits a self pair, so the parent and out-edge
        // fields are always overwritten below (colored elements are leaves, hence
        // child pairs never target a colored parent).
        let mut rec = AdjRec {
            id: *id,
            parent: VIRTUAL_NODE,
            out_edge: DirectedEdge::new(*id, VIRTUAL_NODE),
            children: Vec::new(),
        };
        for (_, child, parent, edge) in pairs {
            if *child == VIRTUAL_NODE {
                rec.parent = *parent;
                rec.out_edge = *edge;
            } else {
                rec.children.push((*child, *edge));
            }
        }
        rec
    })
}

/// Remove absorbed elements from the active set in one fused two-column probe of the
/// assignment table: the first column resolves each element's own absorption, the
/// second its parent's. The probe ships each element's `(id, parent)` key pair, not
/// the element, and the answers rejoin the elements where they already lie. A colored
/// element whose parent was absorbed follows it into the same cluster (colored
/// elements always ride along); when `retarget` is set, a surviving element whose
/// parent was absorbed re-points at the absorbing cluster.
/// Absorbed elements are recorded in `finished`; the iteration over the probe results
/// models the machine-local write-out of finalized elements.
fn absorb_and_retarget(
    ctx: &mut MpcContext,
    actives: DistVec<Active>,
    assignments: &DistVec<(ElementId, ElementId)>,
    retarget: bool,
    layer: u32,
    finished: &mut Vec<Element>,
) -> DistVec<Active> {
    let keys = actives.filter_map_local(|a| Some((a.id, a.parent)));
    let answers = ctx.join_lookup2(keys, |k| k.0, |k| k.1, assignments, |x| x.0);
    let tagged = actives.zip_local(answers, |a, (_, own, parent)| (a, own, parent));
    for (a, own, parent_hit) in tagged.iter() {
        let absorbed_into = match (own, parent_hit) {
            (Some((_, cid)), _) => Some(*cid),
            (None, Some((_, cid))) if a.colored => Some(*cid),
            _ => None,
        };
        if let Some(cid) = absorbed_into {
            finished.push(Element {
                id: a.id,
                kind: a.kind,
                formed_at: a.formed_at,
                absorbed_into: cid,
                absorbed_at: layer,
                out_edge: a.out_edge,
                in_edge: a.in_edge,
            });
        }
    }
    tagged
        .filter_local(|(a, own, parent_hit)| own.is_none() && !(a.colored && parent_hit.is_some()))
        .map_local(|(a, _, parent_hit)| match parent_hit {
            Some((_, cid)) if retarget => Active { parent: *cid, ..*a },
            _ => *a,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degree::reduce_degrees;
    use crate::element::cluster_layer;
    use mpc_engine::MpcConfig;
    use tree_gen::shapes;
    use tree_repr::Tree;

    /// Degree-reduce `tree` and cluster it; returns the clustering, the reduced edge
    /// list it clusters, and the rounds the construction alone charged.
    fn cluster_tree(
        tree: &Tree,
        delta: f64,
        threshold: Option<usize>,
    ) -> (Clustering, Vec<DirectedEdge>, u64) {
        let n = tree.len().max(16);
        let mut ctx = MpcContext::new(MpcConfig::new(n, delta));
        let edges = ctx.from_vec(tree.edges());
        let threshold = threshold
            .unwrap_or_else(|| ctx.config().n_half_delta())
            .max(2);
        let reduced =
            reduce_degrees(&mut ctx, &edges, tree.root() as u64, tree.len(), threshold).unwrap();
        let before = ctx.metrics().rounds;
        let clustering = build_clustering(&mut ctx, &reduced).expect("clustering succeeds");
        let edges = reduced.edges.to_vec();
        (clustering, edges, ctx.metrics().rounds - before)
    }

    /// Two clusters absorbed into each other, each at the other's layer, make the
    /// absorption a cycle: the validator reports it instead of expanding the cycle
    /// until the stack runs out.
    #[test]
    fn validate_reports_a_cyclic_absorption_without_expanding_it() {
        let tree = shapes::caterpillar(20, 3);
        let (mut clustering, edges, _) = cluster_tree(&tree, 0.5, Some(3));
        assert_valid(&clustering, &edges);
        let clusters: Vec<ElementId> = (clustering.elements.iter())
            .filter(|e| {
                matches!(
                    e.kind,
                    ElementKind::ClusterIndeg0 | ElementKind::ClusterIndeg1
                )
            })
            .map(|e| e.id)
            .take(2)
            .collect();
        let (a, b) = (clusters[0], clusters[1]);
        clustering.elements = clustering.elements.clone().map_local(|e| {
            let mut e = *e;
            if e.id == a || e.id == b {
                let into = if e.id == a { b } else { a };
                (e.absorbed_into, e.absorbed_at) = (into, cluster_layer(into));
            }
            e
        });
        assert!(!clustering.validate(&edges).is_empty());
    }

    fn assert_valid(clustering: &Clustering, edges: &[DirectedEdge]) {
        let violations = clustering.validate(edges);
        assert!(
            violations.is_empty(),
            "clustering violations on a {}-node tree: {:?}",
            clustering.num_nodes,
            &violations[..violations.len().min(5)]
        );
    }

    #[test]
    fn clusters_a_path() {
        let tree = shapes::path(200);
        let (clustering, edges, _) = cluster_tree(&tree, 0.5, Some(6));
        assert_valid(&clustering, &edges);
        assert!(clustering.num_clusters() > 1);
        assert!(clustering.max_cluster_size() <= 6 * 7);
    }

    #[test]
    fn clusters_a_star_within_threshold() {
        let tree = shapes::star(7);
        let (clustering, edges, _) = cluster_tree(&tree, 0.5, Some(8));
        assert_valid(&clustering, &edges);
    }

    #[test]
    fn clusters_balanced_binary() {
        let tree = shapes::balanced_kary(511, 2);
        let (clustering, edges, _) = cluster_tree(&tree, 0.5, None);
        assert_valid(&clustering, &edges);
    }

    #[test]
    fn clusters_caterpillar() {
        let tree = shapes::caterpillar(80, 3);
        let (clustering, edges, _) = cluster_tree(&tree, 0.5, Some(5));
        assert_valid(&clustering, &edges);
    }

    #[test]
    fn clusters_random_trees() {
        // The star, like some of the random trees, is wider than the threshold, so
        // degree reduction adds auxiliary nodes before the construction runs.
        let trees = (0..5).map(|seed| shapes::random_recursive(300, seed));
        for tree in trees.chain([shapes::star(100)]) {
            let (clustering, edges, _) = cluster_tree(&tree, 0.5, Some(8));
            assert_valid(&clustering, &edges);
        }
    }

    #[test]
    fn single_node_tree() {
        let tree = Tree::singleton();
        let (clustering, edges, _) = cluster_tree(&tree, 0.5, None);
        assert_valid(&clustering, &edges);
        assert_eq!(clustering.num_clusters(), 1);
    }

    #[test]
    fn layer_count_is_small() {
        // Lemma 4: O(1) layers. With threshold t the layer count should stay well below
        // a small constant multiple of log_t(n).
        for shape in [
            shapes::path(400),
            shapes::balanced_kary(400, 2),
            shapes::spider(4, 100),
        ] {
            let (clustering, edges, _) = cluster_tree(&shape, 0.5, Some(5));
            assert!(
                clustering.num_layers <= 20,
                "too many layers: {}",
                clustering.num_layers
            );
            assert_valid(&clustering, &edges);
        }
    }

    /// Words the builder moves itself — the `clustering` phase less its
    /// `cluster-sizes` and `cluster-paths` subroutines — per tree node.
    fn builder_words_per_node(tree: &Tree) -> f64 {
        let mut ctx = MpcContext::new(MpcConfig::new(8192, 0.5));
        let edges = ctx.from_vec(tree.edges());
        let threshold = ctx.config().n_half_delta().max(2);
        let reduced =
            reduce_degrees(&mut ctx, &edges, tree.root() as u64, tree.len(), threshold).unwrap();
        ctx.phase("clustering", |ctx| build_clustering(ctx, &reduced))
            .expect("clustering succeeds");
        let words = |name: &str| -> u64 {
            let phases = ctx.metrics().phases.iter().filter(|p| p.name == name);
            phases.map(|p| p.words_sent).sum()
        };
        let own = words("clustering") - words("cluster-sizes") - words("cluster-paths");
        own as f64 / tree.len() as f64
    }

    #[test]
    fn probes_ship_keys_not_records() {
        // Shipping whole records (a 12-word `Active` per key column of the two-column
        // probes, an 8-word flag record each way) the builder moved 121.6 words per
        // node on the path and 125.3 on the broom; with key-only probes it moves 38.6
        // and 35.4.
        for tree in [shapes::path(4096), shapes::broom(2048, 2048)] {
            let per_node = builder_words_per_node(&tree);
            assert!(per_node < 64.0, "{per_node:.1} builder words per node");
        }
    }

    #[test]
    fn rounds_grow_with_diameter_not_size() {
        // Same node count, very different diameters: the deep tree must use more rounds.
        let deep = shapes::path(512);
        let shallow = shapes::balanced_kary(512, 4);
        let (_, _, rounds_deep) = cluster_tree(&deep, 0.5, Some(11));
        let (_, _, rounds_shallow) = cluster_tree(&shallow, 0.5, Some(11));
        assert!(
            rounds_shallow < rounds_deep,
            "shallow {rounds_shallow} vs deep {rounds_deep}"
        );
    }
}
