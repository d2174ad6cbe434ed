//@ path: crates/core/src/snapfix.rs
//@ lock: version 1
//@ lock: kind KIND_DEMO 7
//@ lock: impl DemoRecord 0000000000000000
// R4: the committed lock (the `//@ lock:` lines above) disagrees with this file
// twice — the kind value changed and the impl body no longer matches its
// recorded fingerprint — and neither change bumped SNAPSHOT_VERSION.

const SNAPSHOT_VERSION: u16 = 1;
const KIND_DEMO: u32 = 9; //~ snapshot-abi

struct DemoRecord {
    bits: u64,
}

impl Snapshot for DemoRecord { //~ snapshot-abi
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.bits);
    }

    fn decode(r: &mut SnapshotReader) -> Self {
        DemoRecord { bits: r.take_u64() }
    }
}
