//! Process a large synthetic XML-like document given as a parentheses string: validate
//! its structure and compute per-subtree statistics (the introduction's motivating
//! text-analytics scenario).

use mpc_tree_dp::clustering::{is_aux_node, EdgeKind};
use mpc_tree_dp::core::solve_sequential;
use mpc_tree_dp::gen::{labels, shapes};
use mpc_tree_dp::problems::{SubtreeAggregate, XmlValidation};
use mpc_tree_dp::{prepare, MpcConfig, MpcContext, StateEngine, StringOfParentheses, TreeInput};
use std::collections::BTreeMap;
use tree_repr::{DirectedEdge, Tree};

fn main() {
    // Generate a random document with 3000 elements and render it as tags/parentheses.
    let tree: Tree = shapes::random_recursive(3000, 11);
    let doc = StringOfParentheses::from_tree(&tree);
    println!(
        "document: {} parentheses ({} elements)",
        doc.0.len(),
        tree.len()
    );

    let mut ctx = MpcContext::new(MpcConfig::new(doc.0.len(), 0.5));
    let prepared =
        prepare(&mut ctx, TreeInput::StringOfParentheses(doc), None).expect("well-formed document");
    println!("parsed + clustered in {} rounds", ctx.metrics().rounds);

    // Node ids of a parsed parentheses document are the positions of the opening
    // parentheses; degree reduction adds auxiliary copies above wide elements, which
    // are not elements of the document.
    let elements: Vec<u64> = prepared
        .clustering
        .elements
        .iter()
        .filter(|e| !e.kind.is_cluster() && !is_aux_node(e.id))
        .map(|e| e.id)
        .collect();
    assert_eq!(elements.len(), tree.len());

    // Tag every element and validate the schema (a violation costs 1). Auxiliary
    // copies take the wildcard tag and inherit their element's tag.
    let tags = labels::random_labels(elements.len(), 3, 5);
    let tag_of: BTreeMap<u64, u64> = elements.iter().copied().zip(tags).collect();
    let schema = StateEngine::new(XmlValidation::chain_schema(3));
    let tag_inputs = ctx.from_vec(tag_of.iter().map(|(&v, &t)| (v, t)).collect());
    let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
    let sol = prepared.solve(
        &mut ctx,
        &schema,
        &tag_inputs,
        XmlValidation::ANY_TAG,
        &no_edges,
    );
    let violations = -sol.root_summary.best(schema.problem()).unwrap();
    println!("schema violations: {violations}");

    // The same count, sequentially, on the parsed document: every element below its
    // parent element (an auxiliary parent replaced by the element it stands in for).
    let original_of: BTreeMap<u64, u64> = prepared.aux_to_original.iter().copied().collect();
    let parsed: Vec<DirectedEdge> = prepared
        .edges
        .iter()
        .filter(|(e, _)| !is_aux_node(e.child))
        .map(|(e, _)| DirectedEdge::new(e.child, *original_of.get(&e.parent).unwrap_or(&e.parent)))
        .collect();
    let expected = solve_sequential(
        &schema,
        &parsed,
        prepared.clustering.root,
        |v| tag_of[&v],
        |_| (EdgeKind::Original, ()),
    );
    assert_eq!(
        Some(-violations),
        expected.root_summary.best(schema.problem()),
        "violation count diverges from the sequential count"
    );

    // Subtree sizes via the accumulation DP (sum of 1 per element).
    let ones = ctx.from_vec(elements.iter().map(|&v| (v, 1i64)).collect());
    let sol = prepared.solve(&mut ctx, &SubtreeAggregate::sum(), &ones, 0, &no_edges);
    println!("total elements (root subtree sum): {}", sol.root_label);
    assert_eq!(sol.root_label, tree.len() as i64);
    println!("total rounds: {}", ctx.metrics().rounds);
}
