//@ path: crates/incremental/src/fixture.rs
// R3 violations: an annotated fn calling into a strictly higher class, a pub fn
// in a cost-required layer with no annotation, an unknown class name, and a note
// that binds to nothing.

struct Store {
    epoch: u64,
}

fn touch(store: &mut Store) {
    store.epoch += 1;
}

// mpc-cost: rounds(layers)
fn rebuild_all(store: &mut Store) {
    touch(store);
}

// mpc-cost: rounds(const)
fn peek(store: &mut Store) -> u64 {
    rebuild_all(store); //~ cost-annotation
    store.epoch
}

pub fn refresh(store: &mut Store) { //~ cost-annotation
    touch(store);
}

// mpc-cost: rounds(quadratic) //~ cost-annotation
fn mystery(x: u64) -> u64 {
    x
}

// mpc-cost: rounds(log) //~ cost-annotation
const UNBOUND: usize = 4;
