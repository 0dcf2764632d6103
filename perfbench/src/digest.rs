//! Output correctness: digests of simulated results and the expected
//! values recorded for them.
//!
//! A full-system run is deterministic, so its outputs for a given input
//! repeat bit for bit. `expected/sims.txt` records one digest per
//! (workload, seed) pair; `expected/sweep64-gate.txt` records every
//! key's exact `RunSummary` metrics for the 64-core gate plan.

use atac::coherence::CoherenceStats;
use atac::net::NetStats;
use atac::SimResult;
use atac_bench::RunSummary;

const SIMS: &str = include_str!("../expected/sims.txt");
const SWEEP: &str = include_str!("../expected/sweep64-gate.txt");

/// FNV-1a over the labelled counters of one run.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn put(&mut self, name: &str, value: u64) {
        for b in name.bytes().chain(value.to_le_bytes()) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Digest of a run's cycles, instructions, every network and coherence
/// counter, and the bits of its total energy.
pub fn digest(
    cycles: u64,
    instructions: u64,
    net: &NetStats,
    coh: &CoherenceStats,
    energy_j: f64,
) -> u64 {
    let mut h = Fnv::new();
    h.put("cycles", cycles);
    h.put("instructions", instructions);
    for (name, v) in net.fields() {
        h.put(name, v);
    }
    for (name, v) in coh.fields() {
        h.put(name, v);
    }
    h.put("energy_bits", energy_j.to_bits());
    h.0
}

/// [`digest`] of a finished simulation.
pub fn of_result(r: &SimResult) -> u64 {
    digest(
        r.cycles,
        r.instructions,
        &r.net,
        &r.coh,
        r.energy.total().value(),
    )
}

/// The digest recorded for `workload` run with `--seed seed`, if any.
pub fn expected(workload: &str, seed: u64) -> Option<u64> {
    data_lines(SIMS).find_map(|f| {
        let [w, s, d] = f[..] else {
            panic!("expected/sims.txt: malformed line {f:?}")
        };
        (w == workload && s.parse() == Ok(seed)).then(|| {
            u64::from_str_radix(d, 16).expect("expected/sims.txt: digest is 16 hex digits")
        })
    })
}

/// One key's exact metrics, in the order of `expected/sweep64-gate.txt`.
pub fn summary_line(s: &RunSummary) -> String {
    format!(
        "{} {} {} {:?} {:?} {:?} {} {} {} {} {}",
        s.key,
        s.cycles,
        s.instructions,
        s.runtime.value(),
        s.energy.value(),
        s.edp.value(),
        s.latency_p50,
        s.latency_p95,
        s.latency_p99,
        s.latency_max,
        s.latency_count,
    )
}

/// The recorded summary line of every gate key.
pub fn expected_sweep() -> Vec<String> {
    data_lines(SWEEP).map(|f| f.join(" ")).collect()
}

/// Whether two summary lines agree exactly: field by field, numbers
/// compared by value (floats to the bit), so the notation may differ.
pub fn same_summary(a: &str, b: &str) -> bool {
    let same = |x: &str, y: &str| {
        x == y
            || matches!((x.parse::<f64>(), y.parse::<f64>()),
                        (Ok(p), Ok(q)) if p.to_bits() == q.to_bits())
    };
    let (a, b): (Vec<&str>, Vec<&str>) = (a.split(' ').collect(), b.split(' ').collect());
    a.len() == b.len() && a.iter().zip(&b).all(|(x, y)| same(x, y))
}

fn data_lines(text: &str) -> impl Iterator<Item = Vec<&str>> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect())
}
