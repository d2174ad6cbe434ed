//@ path: crates/core/src/snapfix_ok.rs
//@ lock: fresh
// R4 compliant: the lock matches the extracted surface exactly. `//@ lock: fresh`
// makes the driver regenerate the lock from this very file — the same thing
// `cargo run -p mpc-lint -- --write-abi-lock snapshot-abi.lock` does after an
// intentional ABI change.

const SNAPSHOT_VERSION: u16 = 1;
const KIND_DEMO: u32 = 7;

struct DemoRecord {
    bits: u64,
}

impl Snapshot for DemoRecord {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.bits);
    }

    fn decode(r: &mut SnapshotReader) -> Self {
        DemoRecord { bits: r.take_u64() }
    }
}
