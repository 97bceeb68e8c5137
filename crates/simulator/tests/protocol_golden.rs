//! Golden bits of the protocol decision round.
//!
//! `simulator::protocol` serializes one swap-manager decision round
//! (reports, probes, decision, directives, state transfers) over the
//! shared link. This test runs the traced round over n_active
//! {0, 1, 4, 16} × n_spares {0, 2, 28} × state_bytes {0, 1e6, 1e9} ×
//! swaps {0, 1, min(n_active, n_spares)} (each swap count that the
//! round admits, once) and writes one line per round: the bits of every
//! `RoundOutcome` field, and the line count, byte count and FNV-1a
//! digest of the round's JSONL trace. The untraced round must equal the
//! traced one. The lines must equal `tests/golden/protocol_rounds.txt`.
//!
//! The traces themselves (4,716 JSONL lines, 644 KB) are kept as
//! digests, as `realize_golden` keeps realized platforms. The file
//! changes only with a deliberate change to the round. Regenerate it
//! with `cargo test -p simulator --test protocol_golden -- --ignored`,
//! then review the diff.

use obs::{SharedSink, TraceBundle};
use simulator::protocol::{
    simulate_decision_round, simulate_decision_round_traced, ProtocolParams,
};
use std::path::PathBuf;

const GOLDEN: &str = "protocol_rounds.txt";

fn golden() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(GOLDEN)
}

/// 64-bit FNV-1a over bytes, written out here rather than taken from
/// `std::hash`, whose output may change between Rust releases.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One line: the round's operands, the bits of every outcome field, and
/// the digest of its JSONL trace.
fn line(n_active: usize, n_spares: usize, state: f64, swaps: usize) -> String {
    let params = ProtocolParams::hpdc03(n_active, n_spares, state, swaps);
    let (sink, collector) = SharedSink::collector();
    let out = simulate_decision_round_traced(&params, &sink);
    assert_eq!(
        simulate_decision_round(&params),
        out,
        "tracing changed the round {n_active}/{n_spares}/{state}/{swaps}"
    );
    let mut bundle = TraceBundle::new();
    bundle.push("protocol", 0, collector.snapshot());
    let jsonl = obs::jsonl::to_jsonl(&bundle);
    format!(
        "n_active={n_active} n_spares={n_spares} state={state} swaps={swaps} \
         decision_ready={:016x} directives_delivered={:016x} round_complete={:016x} \
         messages={} link_busy={:016x} jsonl_lines={} jsonl_bytes={} fnv1a={:016x}\n",
        out.decision_ready.to_bits(),
        out.directives_delivered.to_bits(),
        out.round_complete.to_bits(),
        out.messages,
        out.link_busy.to_bits(),
        jsonl.lines().count(),
        jsonl.len(),
        fnv1a(jsonl.as_bytes()),
    )
}

fn rounds() -> String {
    let mut out = String::new();
    for n_active in [0, 1, 4, 16] {
        for n_spares in [0, 2, 28] {
            for state in [0.0, 1e6, 1e9] {
                let most = n_active.min(n_spares);
                let mut swaps = vec![0, 1, most];
                swaps.retain(|&s| s <= most);
                swaps.dedup();
                for s in swaps {
                    out.push_str(&line(n_active, n_spares, state, s));
                }
            }
        }
    }
    out
}

#[test]
fn protocol_rounds_match_the_golden_bits() {
    let want = std::fs::read_to_string(golden()).expect("golden rounds exist");
    let got = rounds();
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "protocol round differs from {GOLDEN}");
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "{GOLDEN} line count"
    );
}

#[test]
#[ignore = "rewrites the golden rounds; run only after a deliberate change to the protocol round"]
fn regenerate_golden_rounds() {
    std::fs::create_dir_all(golden().parent().unwrap()).unwrap();
    std::fs::write(golden(), rounds()).unwrap();
}
