//@ path: crates/core/src/plan.rs
// R1: fresh allocation inside hot-path loops (this pretend-path is on the
// configured hot list). The same patterns outside a loop are fine.

fn eval(layers: &[Layer]) -> Vec<u64> {
    let mut acc = Vec::new();
    let warm: Vec<u64> = layers.iter().map(|l| l.id).collect();
    for layer in layers {
        let probes: Vec<u64> = layer.nodes.iter().map(|n| n.key).collect(); //~ alloc-hygiene
        let mut out = Vec::new(); //~ alloc-hygiene
        let pair = vec![layer.id, layer.id + 1]; //~ alloc-hygiene
        acc.extend(out.drain(..));
    }
    acc.extend(warm);
    acc
}
