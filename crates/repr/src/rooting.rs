//! Rooting an *unrooted* tree given as a list of undirected edges.
//!
//! The paper delegates this step to the rooting algorithm of Balliu, Latypov, Maus,
//! Olivetti and Uitto (SODA 2023), which runs in `O(log D)` rounds. That algorithm is a
//! substantial result of its own; this module substitutes a deterministic
//! **Euler-tour list-ranking** rooting that runs in `O(log n)` rounds, built on the
//! same fused [`MpcContext::try_converge`] engine as the clustering subroutines:
//!
//! 1. edge `e = {u, v}`, numbered `i · machines + machine` when it is the `i`-th edge
//!    on its machine — unique, known without communication, and dense when the input
//!    is balanced, which keeps the ranking's probes fast — becomes the two arcs
//!    `2e = (u → v)` and `2e + 1 = (v → u)`, so an arc's twin is `id ^ 1`;
//! 2. one stable sort by head lays the arcs into every node over consecutive machines,
//!    in input order, and one [`scan`](MpcContext::scan) hands every machine the first
//!    arc, the first arc of the last run of equal heads before it, and the arc and run
//!    counts. The successor of an arc is the twin of the next arc in its run (any fixed
//!    cyclic order around a node yields an Euler tour); a run's last arc wraps to the
//!    twin of the run's first, except in the root's run — the first, since the root is
//!    the smallest id — where the tour is cut. An input whose runs do not number `m + 1`
//!    is not a tree and stops here;
//! 3. one sort puts the arcs back in input order — by machine, index there and
//!    direction, all read off the id — twins side by side, and pointer
//!    doubling ranks the tour: every arc chases `succ` and accumulates its distance to
//!    the end, a finished arc asks for nothing;
//! 4. of two twins, the arc farther from the end comes earlier in the tour and so
//!    points away from the root, which orients the edge child→parent — a machine-local
//!    pass over adjacent twins, plus one neighbour exchange for a pair that a chunk
//!    boundary splits.
//!
//! With `a = agg_rounds`, `s = sort_rounds` and `k = ⌊log₂(2m − 1)⌋ + 1` doubling steps
//! this charges `s` (sort by head) `+ 2a` (scan) `+ s` (sort back)
//! `+ join_rounds + 2(k − 1)` (ranking) `+ 1` (exchange) rounds. No node's arcs are
//! gathered: every machine holds its share of the sorted arcs.
//!
//! All other input representations are already rooted, so the `O(log D)` end-to-end
//! guarantee of the paper is exercised through those (see Section 3 / `normalize`).

use crate::ids::{DirectedEdge, NodeId};
use crate::normalize::NormalizedTree;
use mpc_engine::{DistVec, MpcContext, Words};

/// `succ` of an arc with nothing left to chase: the tour's last arc, and every arc
/// once it has been ranked.
const END: u64 = u64::MAX;

/// One Euler-tour arc during pointer doubling. The tail is not stored: it is the
/// twin's head.
#[derive(Debug, Clone, Copy)]
struct ArcState {
    /// `2e` or `2e + 1` for edge number `e`.
    id: u64,
    /// Current successor pointer, [`END`] once the end of the tour is reached.
    succ: u64,
    /// Accumulated distance to `succ` (to the end of the tour once ranked).
    dist: u64,
    /// The node the arc points at.
    head: NodeId,
}

impl Words for ArcState {}

/// An arc as `(id, head)`.
type Incoming = (u64, NodeId);

/// The scan summary of a stretch of the head-sorted arcs: its first arc, the first
/// arc of its last run of equal heads, and its numbers of arcs and of runs.
#[derive(Debug, Clone, Copy, Default)]
struct Runs {
    first: Option<Incoming>,
    last_run: Option<Incoming>,
    arcs: u64,
    runs: u64,
}

impl Words for Runs {}

impl Runs {
    /// `self` with the arc `arc` appended.
    fn push(self, arc: &Incoming) -> Runs {
        self.then(Runs {
            first: Some(*arc),
            last_run: Some(*arc),
            arcs: 1,
            runs: 1,
        })
    }

    /// `self` followed by `next` (associative, `default` its identity): the runs at
    /// the seam join when they share a head.
    fn then(self, next: Runs) -> Runs {
        let (Some(last), Some(first)) = (self.last_run, next.first) else {
            return if self.first.is_some() { self } else { next };
        };
        let seam = last.1 == first.1;
        // `next` is one run, which continues the last run of `self`.
        let continued = seam && next.last_run.is_some_and(|arc| arc.1 == first.1);
        Runs {
            first: self.first,
            last_run: if continued {
                self.last_run
            } else {
                next.last_run
            },
            arcs: self.arcs + next.arcs,
            runs: self.runs + next.runs - u64::from(seam),
        }
    }
}

/// Root an undirected edge list at its smallest node id and orient all edges
/// child→parent, in input edge order. Returns `None` for an empty edge list or if the
/// edges do not form a single tree: the input must have one node more than it has
/// edges, and the arcs of a forest or of a graph with a cycle then fall into more than
/// one successor cycle, of which only the root's is cut — the ranking of the others
/// never settles.
pub fn root_undirected(
    ctx: &mut MpcContext,
    edges: DistVec<(NodeId, NodeId)>,
) -> Option<NormalizedTree> {
    if edges.is_empty() {
        return None;
    }
    // Arcs in both directions, into every node in input order; the i-th edge on a
    // machine is numbered `i · machines + machine` (step 1 of the module docs).
    let machines = edges.num_chunks() as u64;
    let arcs: DistVec<Incoming> = edges.map_chunks_local(|machine, chunk| {
        let ids = (machine as u64..).step_by(machines as usize);
        (chunk.into_iter().zip(ids))
            .flat_map(|((u, v), e)| [(2 * e, v), (2 * e + 1, u)])
            .collect()
    });
    // An arc's place in the input: its edge's machine, its edge's index there and
    // its direction.
    let input_order = |id: u64| {
        let e = id >> 1;
        (e % machines) << 33 | (e / machines) << 1 | (id & 1)
    };
    let arcs = ctx.sort_by_key(arcs, |&(_, head)| head);
    let around = ctx.scan(&arcs, Runs::default(), Runs::push, Runs::then);
    // What every machine knows once it puts its own summary between the two it got.
    let whole = arcs.chunks()[0]
        .iter()
        .fold(Runs::default(), Runs::push)
        .then(around[0].1);
    let root = whole.first?.1;
    let num_edges = whole.arcs / 2;
    // One run per node. A connected graph with a cycle can still link all its arcs
    // into a single successor cycle, which would rank like a tree's tour; with
    // m + 1 nodes a single cycle leaves room for a tree only.
    if whole.runs != num_edges + 1 {
        return None;
    }
    let states: DistVec<ArcState> = arcs.map_chunks_local(|machine, chunk| {
        let (before, after) = around[machine];
        let mut run = before.last_run;
        chunk
            .iter()
            .enumerate()
            .map(|(i, &(id, head))| {
                let first = match run {
                    Some(arc) if arc.1 == head => arc,
                    _ => (id, head),
                };
                run = Some(first);
                let next = chunk.get(i + 1).copied().or(after.first);
                let succ = match next.filter(|next| next.1 == head) {
                    Some((next, _)) => next ^ 1,
                    None if head == root => END,
                    None => first.0 ^ 1,
                };
                ArcState {
                    id,
                    succ,
                    dist: u64::from(succ != END),
                    head,
                }
            })
            .collect()
    });

    // Back to input order, twins side by side, then rank: afterwards `dist` is the
    // distance to the end of the tour. An arc on a cycle that was not cut never
    // reaches END.
    let mut states = ctx.sort_by_key(states, |a| input_order(a.id));
    ctx.try_converge(
        &mut states,
        |a| a.id,
        |a, out| {
            if a.succ != END {
                out.push(a.succ);
            }
        },
        |a| (a.succ, a.dist),
        |a, answers| {
            if let Some((_, Some((succ, dist)))) = answers.first() {
                a.succ = *succ;
                a.dist += *dist;
            }
        },
        "root_undirected",
    )
    .ok()?;

    // The even arc of every pair orients its edge. A machine whose first arc is odd
    // sends it to the machine before, which holds the even twin as its last record.
    let mut heads: Vec<Option<(u64, NodeId)>> = states
        .chunks()
        .iter()
        .map(|chunk| {
            let odd = chunk.first().filter(|a| a.id & 1 == 1);
            odd.map(|a| (a.dist, a.head))
        })
        .collect();
    let inboxes = ctx.communicate(&mut heads, |machine, head, out| {
        if let Some(twin) = *head {
            out.send(machine - 1, twin);
        }
    });
    let oriented: DistVec<DirectedEdge> = states.map_chunks_local(|machine, chunk| {
        let own = &chunk[usize::from(heads[machine].is_some())..];
        own.chunks(2)
            .map(|pair| {
                let (twin_dist, twin_head) = match pair.get(1) {
                    Some(twin) => (twin.dist, twin.head),
                    None => inboxes[machine][0],
                };
                // (u → v) farther from the end than (v → u): it leads down, u is
                // the parent.
                let (u, v) = (twin_head, pair[0].head);
                if pair[0].dist > twin_dist {
                    DirectedEdge::new(v, u)
                } else {
                    DirectedEdge::new(u, v)
                }
            })
            .collect()
    });

    Some(NormalizedTree {
        edges: oriented,
        root,
        num_nodes: num_edges as usize + 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::representations::UndirectedEdges;
    use crate::tree::Tree;
    use mpc_engine::MpcConfig;

    /// Root `tree` under strict accounting: a memory or bandwidth breach panics.
    fn root_tree(tree: &Tree, delta: f64) -> NormalizedTree {
        let und = UndirectedEdges::from_tree(tree);
        let n = (2 * tree.len()).max(8);
        let mut ctx = MpcContext::new(MpcConfig::strict(n, delta));
        let dv = ctx.from_vec(und.0.clone());
        root_undirected(&mut ctx, dv).expect("valid tree")
    }

    fn check_matches(tree: &Tree, delta: f64) {
        let rooted = root_tree(tree, delta);
        // Root must be node 0 (smallest id); with node 0 as root the orientation must
        // match the tree re-rooted at 0.
        assert_eq!(rooted.root, 0);
        assert_eq!(rooted.num_nodes, tree.len());
        let edges = rooted.edges.into_vec();
        assert_eq!(edges.len(), tree.len() - 1);
        let rebuilt = Tree::from_edges(tree.len(), &edges);
        assert_eq!(rebuilt.root(), 0);
        // Same undirected edge set.
        let mut orig: Vec<(u64, u64)> = tree
            .edges()
            .iter()
            .map(|e| (e.child.min(e.parent), e.child.max(e.parent)))
            .collect();
        let mut got: Vec<(u64, u64)> = edges
            .iter()
            .map(|e| (e.child.min(e.parent), e.child.max(e.parent)))
            .collect();
        orig.sort();
        got.sort();
        assert_eq!(orig, got);
    }

    #[test]
    fn roots_a_path() {
        let n = 40;
        let parents: Vec<Option<usize>> = (0..n)
            .map(|v| if v == 0 { None } else { Some(v - 1) })
            .collect();
        check_matches(&Tree::from_parents(parents), 0.5);
    }

    #[test]
    fn roots_a_star() {
        let n = 50;
        let parents: Vec<Option<usize>> = (0..n)
            .map(|v| if v == 0 { None } else { Some(0) })
            .collect();
        check_matches(&Tree::from_parents(parents), 0.5);
    }

    #[test]
    fn roots_random_trees() {
        let mut state = 999u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(99);
            state >> 33
        };
        for _ in 0..8 {
            let n = 20 + (next() % 80) as usize;
            let parents: Vec<Option<usize>> = (0..n)
                .map(|v| {
                    if v == 0 {
                        None
                    } else {
                        Some((next() as usize) % v)
                    }
                })
                .collect();
            check_matches(&Tree::from_parents(parents), 0.5);
        }
    }

    #[test]
    fn single_edge() {
        let tree = Tree::from_parents(vec![None, Some(0)]);
        check_matches(&tree, 0.5);
    }

    fn root_edges(edges: Vec<(u64, u64)>) -> Option<NormalizedTree> {
        let mut ctx = MpcContext::new(MpcConfig::new((2 * edges.len()).max(8), 0.5));
        let dv = ctx.from_vec(edges);
        root_undirected(&mut ctx, dv)
    }

    #[test]
    fn non_trees_are_rejected_without_looping() {
        // m = n − 1 edges, but a triangle beside a disjoint edge.
        assert!(root_edges(vec![(0, 1), (1, 2), (2, 0), (3, 4)]).is_none());
        // A single cycle.
        assert!(root_edges(vec![(0, 1), (1, 2), (2, 3), (3, 0)]).is_none());
        // A duplicated edge, alone and inside a tree.
        assert!(root_edges(vec![(0, 1), (0, 1)]).is_none());
        assert!(root_edges(vec![(0, 1), (1, 2), (2, 1), (2, 3)]).is_none());
        // A self-loop, alone, at the root and below it.
        assert!(root_edges(vec![(5, 5)]).is_none());
        assert!(root_edges(vec![(0, 0), (0, 1)]).is_none());
        assert!(root_edges(vec![(0, 1), (1, 1), (1, 2)]).is_none());
        // A forest of two trees, and one of two paths whose smallest ids, 0 and 64,
        // sort onto different machines.
        assert!(root_edges(vec![(0, 1), (1, 2), (3, 4), (4, 5)]).is_none());
        let path = |from: u64| (from + 1..from + 64).map(move |v| (v - 1, v));
        assert!(root_edges(path(0).chain(path(64)).collect()).is_none());
        // K4 minus an edge, in an order whose arcs form one successor cycle (a
        // one-face embedding of genus 1): the ranking settles, the node count is off.
        assert!(root_edges(vec![(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).is_none());
    }

    #[test]
    fn orientation_keeps_input_edge_order_and_any_ids() {
        // Sparse ids, endpoints in either order: edge i of the output is edge i of
        // the input, turned child→parent towards the smallest id.
        let rooted = root_edges(vec![(900, 40), (7, 900), (40, 12), (31, 40)]).expect("a tree");
        assert_eq!(rooted.root, 7);
        assert_eq!(rooted.num_nodes, 5);
        assert_eq!(
            rooted.edges.into_vec(),
            vec![
                DirectedEdge::new(40, 900),
                DirectedEdge::new(900, 7),
                DirectedEdge::new(12, 40),
                DirectedEdge::new(31, 40),
            ]
        );
    }

    #[test]
    fn roots_a_star_4096_within_memory() {
        let parents: Vec<Option<usize>> = (0..4096).map(|v| (v > 0).then_some(0)).collect();
        for delta in [0.5, 0.3] {
            check_matches(&Tree::from_parents(parents.clone()), delta);
        }
    }

    #[test]
    fn roots_a_broom_4096_within_memory() {
        // A handle of 2048 nodes from the root, 2048 bristles on its last node.
        let parents: Vec<Option<usize>> = (0..4096)
            .map(|v| (v > 0).then(|| (v - 1).min(2047)))
            .collect();
        for delta in [0.5, 0.3] {
            check_matches(&Tree::from_parents(parents.clone()), delta);
        }
    }

    /// Words the tuple-keyed join loop this module replaced moved to root
    /// `path-4096` at `MpcConfig::new(8192, 0.5)` (138 rounds).
    const OLD_PATH_4096_WORDS: u64 = 1_467_862;

    #[test]
    fn path_4096_rounds_follow_the_module_formula() {
        let n = 4096usize;
        let edges: Vec<(u64, u64)> = (1..n as u64).map(|v| (v - 1, v)).collect();
        let arcs = 2 * edges.len() as u64;
        // δ = 0.5 needs two aggregation levels at this size, δ = 0.6 one.
        for delta in [0.5, 0.6] {
            let mut ctx = MpcContext::new(MpcConfig::new(2 * n, delta));
            let dv = ctx.from_vec(edges.clone());
            let rooted = root_undirected(&mut ctx, dv).expect("a path is a tree");
            assert_eq!(rooted.edges.len(), n - 1);
            let (agg, sort, join) = (ctx.agg_rounds(), ctx.sort_rounds(), ctx.join_rounds());
            let steps = u64::from((arcs - 1).ilog2()) + 1;
            let rounds = ctx.metrics().rounds;
            assert_eq!(rounds, 2 * agg + 2 * sort + join + 2 * (steps - 1) + 1);
            let log_arcs = u64::from(arcs.next_power_of_two().ilog2());
            if agg == 1 {
                assert!(rounds <= join + 2 * log_arcs + 16, "{rounds} rounds");
            } else {
                assert!(ctx.metrics().total_words_sent < OLD_PATH_4096_WORDS);
            }
        }
    }

    #[test]
    fn empty_input_rejected() {
        let mut ctx = MpcContext::new(MpcConfig::new(8, 0.5));
        let dv: DistVec<(u64, u64)> = ctx.empty();
        assert!(root_undirected(&mut ctx, dv).is_none());
    }
}
