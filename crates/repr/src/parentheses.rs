//! MPC parentheses matching (Sections 3.2 and 3.2.1 of the paper).
//!
//! The input is a properly nested string of parentheses distributed over the machines;
//! the output is the standard representation: one directed child→parent edge per
//! non-root node, where a node's id is the array position of its opening parenthesis.
//! Matching is one scan, one sort and one scan, the pattern degree reduction follows:
//!
//! 1. **Chunk summaries.** Once its matched pairs cancel, a stretch of the string is
//!    `)…)(…(`: with its length `l`, `c` unmatched closes and `o` unmatched opens, the
//!    summary `(l, c, o)` of two stretches in a row is
//!    `(l₁ + l₂, c₁ + (c₂ ∸ o₁), o₂ + (o₁ ∸ c₂))`. One [`MpcContext::scan`] combines the
//!    chunk summaries up a fan-in `n^δ` tree — Section 3.2.1's hierarchy — and hands
//!    machine `k` its global offset, which numbers its opens, and `O_k`, the opens still
//!    unclosed where it starts. A string whose whole summary is not `(L, 0, 0)` is
//!    unbalanced and is refused.
//! 2. **Local cancellation.** Every machine matches its chunk with a stack. An open met
//!    while the stack holds another gets its parent, the stack's top, at once. The
//!    *survivors* are the stack left at the chunk's end; the *pendings* are the opens
//!    met with an empty stack. A pending after `s` unmatched closes of its chunk has
//!    depth `O_k − s`, and the survivor at stack index `i` on machine `j` depth
//!    `O_j − c_j + i`. A pending's parent is the last open before it one level up, which
//!    is always a survivor of an earlier chunk.
//! 3. **Pairing.** A survivor becomes a type-1 tuple keyed `(depth + 1, position)`, a
//!    pending a type-2 tuple keyed `(depth, position)`, and one sort orders them
//!    together: Section 3.2's joint sort, keyed by depth instead of by
//!    *(machine, index)*. A tuple of key 0 is a root, and the string is a tree exactly
//!    when it has one — the root is then position 0.
//! 4. **Parents.** One scan over the sorted tuples hands every machine the last type-1
//!    tuple before it, and counts the roots. Every other type-2 tuple takes the last
//!    type-1 tuple before it, which has its key: no open of the parent's depth lies
//!    between the parent and its child.
//!
//! With `a = agg_rounds` and `s = sort_rounds` this charges `2a + s + 2a` rounds,
//! whatever the tree's shape. Edges stay on the machine that makes them: machine `k`
//! holds the edges matched inside its chunk, in child order, followed by those of the
//! type-2 tuples the sort dealt it, in (depth, child) order. No machine holds more than
//! its chunk and its share of the tuples.

use crate::ids::{DirectedEdge, NodeId};
use crate::normalize::NormalizedTree;
use crate::representations::Paren;
use mpc_engine::{DistVec, MpcContext, Words};

/// A stretch of the string once its matched pairs cancel: `len` symbols that reduce to
/// `closes` closing parentheses followed by `opens` opening ones.
#[derive(Debug, Clone, Copy, Default)]
struct Reduced {
    len: u64,
    closes: u64,
    opens: u64,
}

impl Words for Reduced {}

impl Reduced {
    /// `self` with the symbol `p` appended.
    fn push(self, p: &Paren) -> Reduced {
        let (closes, opens) = match p {
            Paren::Open => (0, 1),
            Paren::Close => (1, 0),
        };
        self.then(Reduced {
            len: 1,
            closes,
            opens,
        })
    }

    /// `self` followed by `next` (associative, `default` its identity): the opens of
    /// `self` close as many closes of `next` as they can.
    fn then(self, next: Reduced) -> Reduced {
        let matched = self.opens.min(next.closes);
        Reduced {
            len: self.len + next.len,
            closes: self.closes + next.closes - matched,
            opens: self.opens + next.opens - matched,
        }
    }
}

/// A tuple of the joint sort. A survivor (type 1) is keyed one level below its own
/// depth, where its children are; a pending (type 2) at its own depth. `node` is the
/// open's position.
#[derive(Debug, Clone, Copy)]
struct Tuple {
    depth: u64,
    node: NodeId,
    survivor: bool,
}

impl Words for Tuple {}

/// What local cancellation leaves: an edge matched inside the chunk, or a tuple.
enum Cancelled {
    Edge(DirectedEdge),
    Tuple(Tuple),
}

/// The scan summary of a stretch of the sorted tuples: its last type-1 tuple and its
/// number of roots.
#[derive(Debug, Clone, Copy, Default)]
struct Pairing {
    last: Option<Tuple>,
    roots: u64,
}

impl Words for Pairing {}

impl Pairing {
    /// `self` with the tuple `t` appended.
    fn push(self, t: &Tuple) -> Pairing {
        Pairing {
            last: if t.survivor { Some(*t) } else { self.last },
            roots: self.roots + u64::from(t.depth == 0),
        }
    }

    /// `self` followed by `next` (associative, `default` its identity).
    fn then(self, next: Pairing) -> Pairing {
        Pairing {
            last: next.last.or(self.last),
            roots: self.roots + next.roots,
        }
    }
}

/// Match one machine's chunk, which starts after the stretch `before`: the edges inside
/// the chunk, a type-2 tuple per pending and a type-1 tuple per survivor. `before` and
/// the chunk belong to a balanced string, so no depth is negative.
fn cancel(before: Reduced, chunk: &[Paren]) -> Vec<Cancelled> {
    let mut out = Vec::with_capacity(chunk.len());
    let mut stack: Vec<NodeId> = Vec::new();
    let mut closes = 0u64;
    for (node, p) in (before.len..).zip(chunk) {
        match p {
            Paren::Open => {
                out.push(match stack.last() {
                    Some(&parent) => Cancelled::Edge(DirectedEdge::new(node, parent)),
                    None => Cancelled::Tuple(Tuple {
                        depth: before.opens - closes,
                        node,
                        survivor: false,
                    }),
                });
                stack.push(node);
            }
            Paren::Close => {
                if stack.pop().is_none() {
                    closes += 1;
                }
            }
        }
    }
    let below = before.opens - closes;
    out.extend(stack.into_iter().zip(below + 1..).map(|(node, depth)| {
        Cancelled::Tuple(Tuple {
            depth,
            node,
            survivor: true,
        })
    }));
    out
}

/// Match a distributed parentheses string and return the standard representation,
/// rooted at position 0.
///
/// Returns `None` when the string is empty, unbalanced, or describes a forest rather
/// than a single tree.
pub fn match_parentheses_mpc(
    ctx: &mut MpcContext,
    parens: DistVec<Paren>,
) -> Option<NormalizedTree> {
    if parens.is_empty() {
        return None;
    }
    let around = ctx.scan(&parens, Reduced::default(), Reduced::push, Reduced::then);
    // What every machine knows once it puts its own summary between the two it got.
    let whole = parens.chunks()[0]
        .iter()
        .fold(Reduced::default(), Reduced::push)
        .then(around[0].1);
    if whole.closes != 0 || whole.opens != 0 {
        return None;
    }

    let cancelled = parens.map_chunks_local(|machine, chunk| cancel(around[machine].0, &chunk));
    let local = cancelled.filter_map_local(|c| match c {
        Cancelled::Edge(e) => Some(*e),
        Cancelled::Tuple(_) => None,
    });
    let tuples = cancelled.filter_map_local(|c| match c {
        Cancelled::Tuple(t) => Some(*t),
        Cancelled::Edge(_) => None,
    });

    let sorted = ctx.sort_by_key(tuples, |t| (t.depth, t.node));
    let around = ctx.scan(&sorted, Pairing::default(), Pairing::push, Pairing::then);
    let roots = sorted.chunks()[0]
        .iter()
        .fold(Pairing::default(), Pairing::push)
        .then(around[0].1)
        .roots;
    if roots != 1 {
        return None;
    }
    let crossing = sorted.map_chunks_local(|machine, chunk| {
        let mut last = around[machine].0.last;
        chunk
            .into_iter()
            .filter_map(|t| {
                if t.survivor {
                    last = Some(t);
                    return None;
                }
                // The root, of key 0, finds no type-1 tuple of its key.
                let parent = last.filter(|p| p.depth == t.depth)?;
                Some(DirectedEdge::new(t.node, parent.node))
            })
            .collect()
    });
    let edges = local.concat_local(crossing);
    ctx.check_memory(&edges, "match_parentheses");
    Some(NormalizedTree {
        edges,
        root: 0,
        num_nodes: (whole.len / 2) as usize,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::representations::StringOfParentheses;
    use crate::tree::Tree;
    use mpc_engine::MpcConfig;

    /// Match `s` under strict accounting: a memory or bandwidth breach panics.
    fn run(s: &str, delta: f64) -> Option<(Vec<DirectedEdge>, NodeId)> {
        let parens = StringOfParentheses::parse(s).unwrap();
        let n = parens.0.len().max(4);
        let mut ctx = MpcContext::new(MpcConfig::strict(n, delta));
        let dv = ctx.from_vec(parens.0.clone());
        match_parentheses_mpc(&mut ctx, dv).map(|m| {
            assert_eq!(m.num_nodes, parens.0.len() / 2);
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
        // A forest of two 64-node paths: the second root, at position 128, lies on
        // another machine than the first.
        let path = "(".repeat(64) + &")".repeat(64);
        assert!(run(&path.repeat(2), 0.5).is_none());
        assert!(run(&(path.clone() + "()" + &path), 0.3).is_none());
    }

    #[test]
    fn refuses_an_imbalance_only_a_chunk_boundary_shows() {
        // Machine 0 holds a balanced chunk, and machine 1 starts with a close that
        // nothing before it opened; opens and closes are equal in number.
        let len = 64;
        let mut ctx = MpcContext::new(MpcConfig::strict(len, 0.5));
        let first = ctx.from_vec(vec![Paren::Open; len]).chunks()[0].len();
        assert!(first % 2 == 0 && first + 2 < len);
        let s = "()".repeat(first / 2) + ")" + &"()".repeat((len - first - 2) / 2) + "(";
        let parens = StringOfParentheses::parse(&s).unwrap().0;
        assert_eq!(parens.len(), len);
        let dv = ctx.from_vec(parens);
        assert_eq!(dv.chunks()[1].first(), Some(&Paren::Close));
        assert!(match_parentheses_mpc(&mut ctx, dv).is_none());
    }

    #[test]
    fn rounds_follow_the_module_formula() {
        let n = 4096;
        let deep: String = "(".repeat(n) + &")".repeat(n);
        let wide: String = "(".to_string() + &"()".repeat(n - 1) + ")";
        // δ = 0.5 needs two aggregation levels at this size, δ = 0.6 one.
        for (delta, levels) in [(0.5, 2), (0.6, 1)] {
            for s in [&deep, &wide] {
                let parens = StringOfParentheses::parse(s).unwrap();
                let mut ctx = MpcContext::new(MpcConfig::strict(parens.0.len(), delta));
                let dv = ctx.from_vec(parens.0);
                let matched = match_parentheses_mpc(&mut ctx, dv).expect("a tree");
                assert_eq!(matched.edges.len(), n - 1);
                let (agg, sort) = (ctx.agg_rounds(), ctx.sort_rounds());
                assert_eq!(agg, levels, "δ = {delta}");
                assert_eq!(ctx.metrics().rounds, 4 * agg + sort, "δ = {delta}");
            }
        }
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
