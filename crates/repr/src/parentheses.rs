//! MPC parentheses matching (Section 3.2 and 3.2.1 of the paper).
//!
//! The input is a properly nested string of parentheses distributed over the machines;
//! the output is the standard representation: one directed child→parent edge per
//! non-root node, where a node's id is the array position of its opening parenthesis.
//!
//! The algorithm follows the paper:
//!
//! 1. **Local cancellation.** Every machine matches parentheses inside its own chunk
//!    with a stack. This immediately yields the parent of every opening parenthesis
//!    whose parent lies in the same chunk, and leaves a reduced sequence of the form
//!    `)…)(…(` summarized by a pair `(cᵢ, oᵢ)`.
//! 2. **Hierarchical resolution.** Opens whose parent lies in an earlier chunk carry the
//!    number `l` of unmatched closing parentheses to their left. Chunks are grouped into
//!    super-chunks of `n^δ` sub-chunks; inside one super-chunk the sub-chunk summaries
//!    fit into a single machine, which can resolve each pending open to a pair
//!    *(sub-chunk, index among that sub-chunk's surviving opens)* or defer it to the
//!    next level with an adjusted `l`. With `O(1)` levels (`⌈(1-δ)/δ⌉`), every pending
//!    open except the global root is resolved — this is exactly the `k`-level scheme of
//!    Section 3.2.1, and the `δ = 1/2` case of Section 3.2 is the one-level special case.
//! 3. **Pairing.** Resolved references are turned into actual node ids by sorting
//!    "type 1" tuples (*machine, index, node id of that surviving open*) together with
//!    "type 2" tuples (*machine, index, child node id*), exactly as in the paper.

use crate::ids::{DirectedEdge, NodeId};
use crate::representations::Paren;
use mpc_engine::{DistVec, MpcContext};

/// Per-chunk summary after local cancellation: `c` unmatched closing parentheses
/// followed by `o` unmatched opening parentheses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Summary {
    c: u64,
    o: u64,
}

/// A chunk at some level of the hierarchy: its summary plus, for levels above 0, which
/// prefix of each child chunk's surviving opens is still alive inside this chunk.
#[derive(Debug, Clone)]
struct ChunkInfo {
    summary: Summary,
    /// `(child chunk index at the previous level, number of its surviving opens that
    /// survive within this chunk)`, in left-to-right order. Empty at level 0.
    segments: Vec<(usize, u64)>,
}

/// A pending open parenthesis: its node id and the number of unmatched closing
/// parentheses to its left within its current chunk.
#[derive(Debug, Clone, Copy)]
struct Pending {
    node: NodeId,
    skip: u64,
    /// Index of the chunk (at the current level) this pending currently belongs to.
    chunk: usize,
}

/// Result of matching: the edges, the root node id, and the number of nodes.
#[derive(Debug, Clone)]
pub struct MatchedParentheses {
    /// Child→parent edges over parenthesis-position node ids.
    pub edges: DistVec<DirectedEdge>,
    /// Node id (= position of the opening parenthesis) of the root.
    pub root: NodeId,
    /// Number of nodes (= half the string length).
    pub num_nodes: usize,
}

/// Match a distributed parentheses string and return the standard representation.
///
/// Returns `None` when the string is empty, unbalanced, or describes a forest rather
/// than a single tree.
pub fn match_parentheses_mpc(
    ctx: &mut MpcContext,
    parens: DistVec<Paren>,
) -> Option<MatchedParentheses> {
    if parens.is_empty() {
        return None;
    }
    let total = parens.len();
    if total % 2 != 0 {
        return None;
    }

    // Step 0: global positions become node ids of opening parentheses.
    let indexed = ctx.with_index(parens);

    // Step 1: machine-local cancellation (no communication).
    let mut local_edges: Vec<Vec<DirectedEdge>> = Vec::new();
    let mut survivors: Vec<Vec<NodeId>> = Vec::new();
    let mut level0: Vec<ChunkInfo> = Vec::new();
    let mut pendings: Vec<Pending> = Vec::new();
    for (machine, chunk) in indexed.chunks().iter().enumerate() {
        let mut stack: Vec<NodeId> = Vec::new();
        let mut pops = 0u64;
        let mut edges = Vec::new();
        for &(pos, p) in chunk {
            match p {
                Paren::Open => {
                    if let Some(&top) = stack.last() {
                        edges.push(DirectedEdge::new(pos, top));
                    } else {
                        pendings.push(Pending {
                            node: pos,
                            skip: pops,
                            chunk: machine,
                        });
                    }
                    stack.push(pos);
                }
                Paren::Close => {
                    if stack.pop().is_none() {
                        pops += 1;
                    }
                }
            }
        }
        level0.push(ChunkInfo {
            summary: Summary {
                c: pops,
                o: stack.len() as u64,
            },
            segments: Vec::new(),
        });
        local_edges.push(edges);
        survivors.push(stack);
    }

    // Step 2: hierarchical resolution. Group size = n^δ sub-chunk summaries per machine.
    let group_size = ctx.config().n_delta().max(2);
    let mut levels: Vec<Vec<ChunkInfo>> = vec![level0];
    let mut resolved: Vec<(usize, u64, NodeId)> = Vec::new(); // (machine, survivor idx, child)
    let mut unresolved = pendings;

    while levels.last().expect("at least level 0").len() > 1 {
        let prev = levels.last().expect("level exists").clone();
        let num_groups = prev.len().div_ceil(group_size);

        // Resolve pendings whose parent lies inside their group at this level.
        let mut still_unresolved = Vec::new();
        for mut p in unresolved {
            let group = p.chunk / group_size;
            let start = group * group_size;
            let mut skip = p.skip;
            let mut found: Option<(usize, u64)> = None;
            for a in (start..p.chunk).rev() {
                let s = prev[a].summary;
                if skip < s.o {
                    found = Some((a, s.o - 1 - skip));
                    break;
                }
                skip = skip - s.o + s.c;
            }
            match found {
                Some((chunk_idx, idx)) => {
                    // Translate (chunk at this level, survivor index) down to
                    // (level-0 machine, survivor index).
                    let (machine, idx) = descend(&levels, levels.len() - 1, chunk_idx, idx);
                    resolved.push((machine, idx, p.node));
                }
                None => {
                    p.skip = skip;
                    p.chunk = group;
                    still_unresolved.push(p);
                }
            }
        }
        unresolved = still_unresolved;

        // Build the next level of summaries (one super-chunk per group).
        let mut next: Vec<ChunkInfo> = Vec::with_capacity(num_groups);
        for group in 0..num_groups {
            let start = group * group_size;
            let end = (start + group_size).min(prev.len());
            let mut c_total = 0u64;
            let mut segments: Vec<(usize, u64)> = Vec::new();
            for (x, info) in prev.iter().enumerate().take(end).skip(start) {
                let s = info.summary;
                // The closes of x pop survivors of earlier sub-chunks in this group.
                let mut to_pop = s.c;
                while to_pop > 0 {
                    match segments.last_mut() {
                        Some((_, cnt)) => {
                            let take = to_pop.min(*cnt);
                            *cnt -= take;
                            to_pop -= take;
                            if *cnt == 0 {
                                segments.pop();
                            }
                        }
                        None => {
                            c_total += to_pop;
                            to_pop = 0;
                        }
                    }
                }
                if s.o > 0 {
                    segments.push((x, s.o));
                }
            }
            let o_total = segments.iter().map(|(_, cnt)| cnt).sum();
            next.push(ChunkInfo {
                summary: Summary {
                    c: c_total,
                    o: o_total,
                },
                segments,
            });
        }
        levels.push(next);

        // Communication cost of one level: every group gathers the (c, o) summaries of
        // its sub-chunks into one machine and sends back one resolution answer per
        // pending open; 2 rounds and O(group_size) words per machine.
        ctx.charge_rounds(2);
        ctx.record_uniform_comm(2 * group_size.min(prev.len()), "paren-resolution-level");
    }
    // Every level divides the chunk count by `group_size`, so the loop charged its 2
    // rounds ⌈log_{group_size}(chunks)⌉ times: `O(1)` levels for a fixed δ.
    debug_assert!(
        levels.len() - 1
            <= std::iter::successors(Some(1usize), |p| Some(p.saturating_mul(group_size)))
                .take_while(|&p| p < levels[0].len())
                .count(),
        "parentheses resolution ran more levels than the group size allows"
    );

    // Validity: the fully reduced string must be empty and exactly one open (the root)
    // must have remained unresolved.
    let top = levels.last().expect("top level")[0].summary;
    if top.c != 0 || top.o != 0 {
        return None;
    }
    if unresolved.len() != 1 {
        return None;
    }
    let root = unresolved[0].node;

    // Step 3: pairing via type-1 / type-2 tuples (one sort + group gathering).
    // Tuple layout: (machine, survivor index, type, node id).
    let mut tuples: Vec<(u64, u64, u64, NodeId)> = Vec::new();
    for (machine, surv) in survivors.iter().enumerate() {
        for (idx, &node) in surv.iter().enumerate() {
            tuples.push((machine as u64, idx as u64, 1, node));
        }
    }
    for &(machine, idx, child) in &resolved {
        tuples.push((machine as u64, idx, 2, child));
    }
    let tuple_dv = ctx.from_vec(tuples);
    let grouped = ctx.gather_groups(tuple_dv, |t| (t.0, t.1));
    let cross_edges: DistVec<DirectedEdge> = grouped.flat_map_local(|(_, mut items)| {
        items.sort_by_key(|t| t.2);
        let parent = items
            .iter()
            .find(|t| t.2 == 1)
            .map(|t| t.3)
            .expect("every referenced survivor exists");
        items
            .into_iter()
            .filter(|t| t.2 == 2)
            .map(|t| DirectedEdge::new(t.3, parent))
            .collect::<Vec<_>>()
    });

    // Combine machine-local edges with the cross-machine edges (one balancing round).
    let mut all_edges: Vec<DirectedEdge> = local_edges.into_iter().flatten().collect();
    all_edges.extend(cross_edges.iter().copied());
    if all_edges.len() != total / 2 - 1 {
        return None;
    }
    let edges = ctx.from_vec(all_edges);
    let edges = ctx.rebalance(edges);

    Some(MatchedParentheses {
        edges,
        root,
        num_nodes: total / 2,
    })
}

/// Translate a survivor reference `(chunk index at `level`, survivor index)` down the
/// hierarchy to a `(level-0 machine, survivor index)` pair using the per-chunk segment
/// lists.
fn descend(
    levels: &[Vec<ChunkInfo>],
    mut level: usize,
    mut chunk: usize,
    mut idx: u64,
) -> (usize, u64) {
    while level > 0 {
        let info = &levels[level][chunk];
        let mut remaining = idx;
        let mut target = None;
        for &(child, cnt) in &info.segments {
            if remaining < cnt {
                target = Some((child, remaining));
                break;
            }
            remaining -= cnt;
        }
        let (child, inner) = target.expect("survivor index within range");
        chunk = child;
        idx = inner;
        level -= 1;
    }
    (chunk, idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::representations::StringOfParentheses;
    use crate::tree::Tree;
    use mpc_engine::MpcConfig;

    fn run(s: &str, delta: f64) -> Option<(Vec<DirectedEdge>, NodeId)> {
        let parens = StringOfParentheses::parse(s).unwrap();
        let n = parens.0.len().max(4);
        let mut ctx = MpcContext::new(MpcConfig::new(n, delta));
        let dv = ctx.from_vec(parens.0.clone());
        match_parentheses_mpc(&mut ctx, dv).map(|m| {
            let mut edges = m.edges.into_vec();
            edges.sort();
            (edges, m.root)
        })
    }

    fn reference(s: &str) -> Option<(Vec<DirectedEdge>, NodeId)> {
        StringOfParentheses::parse(s)
            .unwrap()
            .to_edges_sequential()
            .map(|(mut e, r)| {
                e.sort();
                (e, r)
            })
    }

    #[test]
    fn paper_example_matches_reference() {
        let s = "((()())(()))";
        assert_eq!(run(s, 0.5), reference(s));
    }

    #[test]
    fn single_node() {
        let (edges, root) = run("()", 0.5).unwrap();
        assert!(edges.is_empty());
        assert_eq!(root, 0);
    }

    #[test]
    fn deep_path_crosses_machines() {
        let n = 200;
        let s: String = "(".repeat(n) + &")".repeat(n);
        assert_eq!(run(&s, 0.5), reference(&s));
    }

    #[test]
    fn wide_star_crosses_machines() {
        let n = 200;
        let s: String = "(".to_string() + &"()".repeat(n) + ")";
        assert_eq!(run(&s, 0.5), reference(&s));
    }

    #[test]
    fn low_memory_multilevel_matches() {
        // Small delta forces several resolution levels (the Section 3.2.1 case).
        let mut s = String::new();
        for i in 0..60 {
            if i % 3 == 0 {
                s.push_str("(()())");
            } else {
                s.push_str("((())())");
            }
        }
        let s = format!("({s})");
        assert_eq!(run(&s, 0.25), reference(&s));
        assert_eq!(run(&s, 0.34), reference(&s));
    }

    #[test]
    fn random_trees_match_reference() {
        // Deterministic pseudo-random trees via a simple LCG, checked against the
        // sequential matcher and rebuilt as a Tree for structural validation.
        let mut state = 12345u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for trial in 0..10 {
            let n = 30 + (next() % 100) as usize;
            let parents: Vec<Option<usize>> = (0..n)
                .map(|v| {
                    if v == 0 {
                        None
                    } else {
                        Some((next() as usize) % v)
                    }
                })
                .collect();
            let tree = Tree::from_parents(parents);
            let s = StringOfParentheses::from_tree(&tree).render();
            let got = run(&s, 0.5);
            assert_eq!(got, reference(&s), "trial {trial} failed");
            // The edge set must form a tree on n nodes.
            let (edges, root) = got.unwrap();
            assert_eq!(edges.len(), n - 1);
            let mut ids: Vec<u64> = edges.iter().flat_map(|e| [e.child, e.parent]).collect();
            ids.push(root);
            ids.sort();
            ids.dedup();
            assert_eq!(ids.len(), n);
        }
    }

    #[test]
    fn rejects_malformed_inputs() {
        assert!(run("(()", 0.5).is_none());
        assert!(run(")(", 0.5).is_none());
        assert!(run("()()", 0.5).is_none());
        assert!(run("())(()", 0.5).is_none());
    }

    #[test]
    fn charges_constant_rounds_for_fixed_delta() {
        // Rounds must not depend on the tree's shape, only on n and delta.
        let deep: String = "(".repeat(128) + &")".repeat(128);
        let wide: String = "(".to_string() + &"()".repeat(127) + ")";
        let mut rounds = Vec::new();
        for s in [deep, wide] {
            let parens = StringOfParentheses::parse(&s).unwrap();
            let mut ctx = MpcContext::new(MpcConfig::new(parens.0.len(), 0.5));
            let dv = ctx.from_vec(parens.0.clone());
            match_parentheses_mpc(&mut ctx, dv).unwrap();
            rounds.push(ctx.metrics().rounds);
        }
        assert_eq!(rounds[0], rounds[1]);
    }
}
