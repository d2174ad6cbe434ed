//@ path: crates/incremental/src/fixture_ok.rs
// R3 compliant: every pub fn in this cost-required layer declares its round
// class, and no call site costs more than its caller's declared budget.

struct Store {
    epoch: u64,
}

fn touch(store: &mut Store) {
    store.epoch += 1;
}

// mpc-cost: rounds(layers)
pub fn rebuild_all(store: &mut Store) {
    touch(store);
}

// mpc-cost: rounds(const)
pub fn epoch(store: &Store) -> u64 {
    store.epoch
}

// mpc-cost: rounds(prepare)
pub fn build_then_rebuild(store: &mut Store) {
    rebuild_all(store);
}
