//! Radix-vs-comparison equivalence suite.
//!
//! The sorting primitives take a linear-time LSD radix fast path whenever the sort
//! key has a monotone `u64` embedding (`SortKey::IS_WORD`). That path must be
//! indistinguishable from the comparison fallback in everything the MPC model can
//! observe: output order, DP labels, rounds, communication volume, per-round peaks,
//! and peak memory. Wrapping a word key in [`Cmp`] — same order, `IS_WORD = false` —
//! sends it down the comparison path, which is how the two paths are compared,
//! primitive by primitive on adversarial key distributions.

use mpc_tree_dp::mpc::Words;
use mpc_tree_dp::{MpcConfig, MpcContext, SortKey};

/// A key with the order of the key it wraps and `IS_WORD = false`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Cmp<K>(K);

impl<K: SortKey> SortKey for Cmp<K> {}

impl<K: Words> Words for Cmp<K> {
    fn words(&self) -> usize {
        self.0.words()
    }
}

/// Everything the MPC model measures, as one comparable value.
#[derive(Debug, Clone, PartialEq)]
struct MetricsSnapshot {
    rounds: u64,
    total_words_sent: u64,
    max_words_sent_per_round: usize,
    max_words_received_per_round: usize,
    peak_local_memory: usize,
    violations: usize,
}

fn snapshot(ctx: &MpcContext) -> MetricsSnapshot {
    let m = ctx.metrics();
    MetricsSnapshot {
        rounds: m.rounds,
        total_words_sent: m.total_words_sent,
        max_words_sent_per_round: m.max_words_sent_per_round,
        max_words_received_per_round: m.max_words_received_per_round,
        peak_local_memory: m.peak_local_memory,
        violations: m.violations.len(),
    }
}

fn ctx(n: usize) -> MpcContext {
    MpcContext::new(MpcConfig::new(n, 0.5))
}

/// Deterministic pseudo-random u64 stream (splitmix64).
fn splitmix(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
}

/// Key distributions that stress different radix behaviors: duplicate-heavy keys,
/// already-sorted and reversed inputs, all-equal keys, full-width random words, keys
/// that differ only in high bytes (most digit passes skipped), tiny inputs, and
/// lengths straddling the internal comparison-vs-radix cutoff (1024): 1023 takes
/// the comparison branch, 1024 and 1025 the LSD radix branch, and the model must
/// not be able to tell them apart.
fn key_cases() -> Vec<(&'static str, Vec<u64>)> {
    let mut rng = splitmix(42);
    vec![
        ("empty", Vec::new()),
        ("single", vec![7]),
        ("all-equal", vec![13; 513]),
        ("already-sorted", (0..1000).collect()),
        ("reversed", (0..1000).rev().collect()),
        ("duplicate-heavy", (0..2000).map(|i| i % 17).collect()),
        ("random-full-width", (0..1500).map(|_| rng()).collect()),
        (
            "high-bytes-only",
            (0..800).map(|i| (i as u64 % 251) << 48).collect(),
        ),
        (
            "near-sorted",
            (0..1200).map(|i| i as u64 ^ ((i as u64) % 3)).collect(),
        ),
        ("cutoff-minus-one", (0..1023).map(|i| i % 11).collect()),
        ("cutoff-exact", (0..1024).map(|i| i % 11).collect()),
        ("cutoff-plus-one", (0..1025).map(|i| i % 11).collect()),
    ]
}

#[test]
fn sort_by_key_radix_matches_comparison_on_all_cases() {
    for (name, keys) in key_cases() {
        let n = keys.len().max(64);
        // Records are (key, payload): stability is observable through the payload.
        let data: Vec<(u64, u64)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, i as u64))
            .collect();
        let (mut f, mut s) = (ctx(n), ctx(n));
        let dv = f.from_vec(data.clone());
        let fast = f.sort_by_key(dv, |r| r.0).into_vec();
        let dv = s.from_vec(data.clone());
        let slow = s.sort_by_key(dv, |r| Cmp(r.0)).into_vec();
        let (fast_m, slow_m) = (snapshot(&f), snapshot(&s));
        assert_eq!(fast, slow, "output diverged on {name}");
        assert_eq!(fast_m, slow_m, "metrics diverged on {name}");
        // And both equal a stable reference sort.
        let mut expected = data;
        expected.sort_by_key(|r| r.0);
        assert_eq!(fast, expected, "sort incorrect on {name}");
    }
}

#[test]
fn sort_with_index_radix_matches_comparison_on_all_cases() {
    for (name, keys) in key_cases() {
        let n = keys.len().max(64);
        let (mut f, mut s) = (ctx(n), ctx(n));
        let dv = f.from_vec(keys.clone());
        let fast = f.sort_with_index(dv, |k| *k).into_vec();
        let dv = s.from_vec(keys.clone());
        let slow = s.sort_with_index(dv, |k| Cmp(*k)).into_vec();
        let (fast_m, slow_m) = (snapshot(&f), snapshot(&s));
        assert_eq!(fast, slow, "output diverged on {name}");
        assert_eq!(fast_m, slow_m, "metrics diverged on {name}");
        for (i, (idx, _)) in fast.iter().enumerate() {
            assert_eq!(*idx, i as u64, "global index wrong on {name}");
        }
    }
}

#[test]
fn gather_groups_radix_matches_comparison_on_all_cases() {
    for (name, keys) in key_cases() {
        let n = keys.len().max(64);
        let data: Vec<(u64, u64)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, i as u64))
            .collect();
        let (mut f, mut s) = (ctx(n), ctx(n));
        let dv = f.from_vec(data.clone());
        let fast = f.gather_groups(dv, |r| r.0).into_vec();
        let dv = s.from_vec(data.clone());
        let slow: Vec<_> = s
            .gather_groups(dv, |r| Cmp(r.0))
            .into_vec()
            .into_iter()
            .map(|(k, group)| (k.0, group))
            .collect();
        let (fast_m, slow_m) = (snapshot(&f), snapshot(&s));
        assert_eq!(fast, slow, "groups diverged on {name}");
        assert_eq!(fast_m, slow_m, "metrics diverged on {name}");
    }
}

/// Requests with the table record each one found.
type Joined = Vec<(u64, Option<(u64, u64)>)>;

/// A direct join, then a probe of the sorted table, with `key` picking the sort path.
fn join_and_probe<K: SortKey + 'static>(
    n: usize,
    table: &[(u64, u64)],
    requests: &[u64],
    key: fn(u64) -> K,
) -> (Joined, Joined, MetricsSnapshot) {
    let mut c = ctx(n);
    let table_dv = c.from_vec(table.to_vec());
    let reqs = c.from_vec(requests.to_vec());
    let direct = c
        .join_lookup(reqs, |r| key(*r), &table_dv, |t| key(t.0))
        .into_vec();
    let sorted = c.sort_table(&table_dv, |t| key(t.0));
    let reqs = c.from_vec(requests.to_vec());
    let probed = c
        .join_lookup_sorted(reqs, |r| key(*r), &table_dv, &sorted)
        .into_vec();
    (direct, probed, snapshot(&c))
}

#[test]
fn join_lookup_radix_matches_comparison_on_all_cases() {
    let mut rng = splitmix(7);
    for (name, keys) in key_cases() {
        let n = keys.len().max(64);
        let table: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k ^ 0xabcd)).collect();
        // Requests: half present keys, half random probes.
        let requests: Vec<u64> = keys
            .iter()
            .map(|&k| if rng() % 2 == 0 { k } else { rng() % 64 })
            .collect();
        let (fast, fast_probed, fast_m) = join_and_probe(n, &table, &requests, |k| k);
        let (slow, slow_probed, slow_m) = join_and_probe(n, &table, &requests, Cmp);
        assert_eq!(fast, fast_probed, "sorted-table probe diverged on {name}");
        assert_eq!(slow, slow_probed, "sorted-table probe diverged on {name}");
        assert_eq!(fast, slow, "answers diverged on {name}");
        assert_eq!(fast_m, slow_m, "metrics diverged on {name}");
    }
}
