//! Instrument-free benchmark of record for the ATAC+ simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--expect-seed <m>]
//! ```
//!
//! `--trace 0` times the simulation with every instrument off and prints
//! the end-to-end metrics; `--trace 1` adds a traced run (host profiler
//! plus network observer) and prints the per-layer metrics. Either way
//! every simulated result is checked, and the last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. See `perfbench/README.md` for the workloads and metrics.

mod digest;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use atac::coherence::MemorySystem;
use atac::sim::energy::integrate;
use atac::sim::{HostPhase, HostProfile, HostProfiler, NetObsHandle, NetProfile, ProbeHandle};
use atac::workloads::{radix, BuiltWorkload};
use atac::{Arch, Benchmark, Scale, SimConfig, SimResult};
use atac_bench::{plans, run_key, CostModel, ExecOptions, RunCache, RunPlan, RunSource};

/// Worker threads of the gate sweep: the host this benchmark was sized
/// on has two cores, and every workload stays within them.
const SWEEP_WORKERS: usize = 2;
/// Set-ups timed after each timed run. A single shot spreads by 15 %,
/// so `setup_s` is a median over batches spread across the whole run.
const SETUP_BATCH: usize = 25;
/// Repetitions of the energy re-integration, timed as one median pass.
const INTEGRATE_REPS: usize = 201;

fn main() {
    match parse_args() {
        Ok(args) => run(&args),
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--expect-seed <m>]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    }
}

const WORKLOADS: [&str; 2] = ["bcast1024-radix", "sweep64-gate"];

#[derive(Debug)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Seed whose recorded digests the results are compared with;
    /// `--seed` unless overridden to show that the check can fail.
    expect_seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .filter(|n| ["workload", "seed", "seconds", "trace", "expect-seed"].contains(n))
            .ok_or_else(|| format!("unknown argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        flags.insert(name.to_string(), value);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing --{k}"));
    let num = |k: &str| {
        get(k)?
            .parse::<u64>()
            .map_err(|_| format!("--{k} must be a whole number"))
    };
    let workload = WORKLOADS
        .into_iter()
        .find(|w| Ok(*w) == get("workload").map(String::as_str))
        .ok_or_else(|| format!("--workload must be one of {}", WORKLOADS.join(", ")))?;
    let seed = num("seed")?;
    let seconds = num("seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    let expect_seed = match flags.get("expect-seed") {
        Some(_) => num("expect-seed")?,
        None => seed,
    };
    Ok(Args {
        workload,
        seed,
        seconds: seconds as f64,
        trace,
        expect_seed,
    })
}

/// Scrub the ambient knobs so no shell setting reaches the simulator,
/// then fix the regime: host profiler off (the bench crate turns it on
/// by default), 64-core gate plan over radix and barnes.
fn fix_environment() {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("ATAC_") {
            std::env::remove_var(key);
        }
    }
    std::env::set_var("ATAC_PROFILE", "0");
    std::env::set_var("ATAC_CORES", "64");
    std::env::set_var("ATAC_BENCHES", "radix,barnes");
}

/// Fix glibc's allocator thresholds for the whole process. Left at
/// their defaults, glibc returns the top of the heap to the system
/// whenever more than the trim threshold is free there, and raises both
/// thresholds whenever a large mapped block is freed, so the cost of an
/// allocation depends on what ran before it. Set-up allocates and frees
/// about 8 MB of cache arrays per memory system: trimmed, each one
/// faults its pages in again, and the sweep's set-up read 0.06 s after
/// one pass but 0.02 s after six, when the raised threshold had stopped
/// the trimming. Fixed thresholds, with no trimming, keep freed memory
/// in the process, so a set-up costs the same after one run as after
/// many.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_allocator() -> &'static str {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    for (param, value) in [(M_MMAP_THRESHOLD, 32 << 20), (M_TRIM_THRESHOLD, i32::MAX)] {
        // SAFETY: `mallopt` only sets an allocator parameter, and it is
        // called before any other thread exists.
        let ok = unsafe { mallopt(param, value) } == 1;
        assert!(ok, "mallopt({param}, {value}) refused");
    }
    "glibc mmap_threshold=32MiB trim_threshold=2GiB"
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_allocator() -> &'static str {
    "system default"
}

fn run(args: &Args) {
    let malloc = pin_allocator();
    fix_environment();
    let start = Instant::now();
    let mut checks = Checks::default();
    let metrics = match (args.workload, args.trace) {
        ("sweep64-gate", false) => sweep_timed(args, start, &mut checks),
        ("sweep64-gate", true) => sweep_traced(args, start, &mut checks),
        (_, false) => single_timed(&Single::bcast_radix(), args, start, &mut checks),
        (_, true) => single_traced(&Single::bcast_radix(), args, start, &mut checks),
    };
    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);
    let workers = if args.workload == "sweep64-gate" {
        SWEEP_WORKERS
    } else {
        1
    };
    let instruments = if args.trace {
        "untraced run off; traced run HostProfiler + NetProfile"
    } else {
        "off"
    };
    println!(
        "regime: instruments={instruments} ATAC_PROFILE=0 (other ATAC_* scrubbed) \
         workers={workers} host_cores={host_cores} malloc=\"{malloc}\" workload={} seed={}",
        args.workload, args.seed
    );
    for m in &metrics {
        println!("  {:<28} {:>22} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
}

// ----------------------------------------------------------------------
// Metrics and checks
// ----------------------------------------------------------------------

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    assert!(value.is_finite(), "metric {name} is not finite: {value}");
    Metric { name, value, unit }
}

/// Checked operations: one per simulated run (per key for the sweep).
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn op(&mut self, what: &str, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                eprintln!("perfbench: FAILED {what}: {p}");
            }
        }
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// High-water resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Problems with one result: its digest against the record and against
/// the first run of the same input in this process, and its energy
/// against a fresh `energy::integrate` of its counters.
fn check_result(
    cfg: &SimConfig,
    r: &SimResult,
    expected: Option<u64>,
    same_as: Option<u64>,
) -> Vec<String> {
    let d = digest::of_result(r);
    let mut problems = Vec::new();
    if let Some(e) = expected.filter(|&e| e != d) {
        problems.push(format!("digest {d:016x}, recorded {e:016x}"));
    }
    if let Some(s) = same_as.filter(|&s| s != d) {
        problems.push(format!(
            "digest {d:016x}, earlier run of the same input {s:016x}"
        ));
    }
    let again = integrate(cfg, &r.net, &r.coh, r.cycles, r.ipc);
    let bits = |e: &atac::EnergyBreakdown| e.components().map(|(_, j)| j.value().to_bits());
    if bits(&again) != bits(&r.energy) {
        problems.push("re-integrated energy differs from result.energy".into());
    }
    problems
}

/// Skip-ahead ledgers of one traced run: engine ticks + cycles skipped
/// = cycles, and router ticks + router cycles skipped = routers × cycles.
fn check_ledgers(r: &SimResult, np: &NetProfile) -> Vec<String> {
    let mut problems = Vec::new();
    if np.cycles != r.cycles || np.ticks_executed + np.cycles_skipped != np.cycles {
        problems.push(format!(
            "engine ledger: {} ticks + {} skipped != {} cycles (result {})",
            np.ticks_executed, np.cycles_skipped, np.cycles, r.cycles
        ));
    }
    let router_cycles = np.routers.len() as u64 * np.cycles;
    if np.router_ticks() > router_cycles
        || np.router_ticks() + np.router_cycles_skipped() != router_cycles
    {
        problems.push(format!(
            "router ledger: {} ticks + {} skipped != {router_cycles} router-cycles",
            np.router_ticks(),
            np.router_cycles_skipped()
        ));
    }
    problems
}

// ----------------------------------------------------------------------
// Set-up timing
// ----------------------------------------------------------------------

/// Host seconds of one set-up: workload generation, then construction
/// of the network and the memory system.
#[derive(Clone, Copy)]
struct Setup {
    build: f64,
    net: f64,
    coh: f64,
}

impl Setup {
    fn total(self) -> f64 {
        self.build + self.net + self.coh
    }
}

/// Time `reps` set-ups of `build` followed by construction for every
/// config in `cfgs`, after one untimed set-up that brings the heap to
/// the size a set-up needs. Each object is dropped outside the timing
/// and before the next is built, so set-up never holds more than one
/// network and one memory system and stays below the simulation's peak
/// memory.
fn time_setups<T>(reps: usize, cfgs: &[SimConfig], build: impl Fn() -> T) -> Vec<Setup> {
    let mut timed: Vec<Setup> = (0..=reps)
        .map(|_| {
            let t = Instant::now();
            let built = black_box(build());
            let mut s = Setup {
                build: t.elapsed().as_secs_f64(),
                net: 0.0,
                coh: 0.0,
            };
            drop(built);
            for c in cfgs {
                let t = Instant::now();
                let net = black_box(c.build_network());
                s.net += t.elapsed().as_secs_f64();
                drop(net);
                let t = Instant::now();
                let mem = black_box(MemorySystem::new(c.topo, c.protocol));
                s.coh += t.elapsed().as_secs_f64();
                drop(mem);
            }
            s
        })
        .collect();
    timed.remove(0); // the untimed warm-up
    timed
}

/// The timed part of a `--trace 0` run: at least one timed run, another
/// only if it should end within `seconds` of `start`, and a batch of
/// set-ups after each. Returns the end-to-end metrics.
///
/// Set-up is timed only after a run. With the allocator's thresholds
/// fixed (`pin_allocator`), it reads the same after one run as after
/// many. Peak memory is read after the first run: later runs add heap
/// fragmentation, and their number depends on the host's speed.
fn timed_loop(
    start: Instant,
    seconds: f64,
    mut setup_batch: impl FnMut() -> Vec<Setup>,
    mut timed_run: impl FnMut() -> f64,
) -> Vec<Metric> {
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut peak_rss = None;
    loop {
        walls.push(timed_run());
        peak_rss.get_or_insert_with(peak_rss_mib);
        setups.extend(setup_batch());
        if start.elapsed().as_secs_f64() + median(&walls) > seconds {
            break;
        }
    }
    let totals: Vec<f64> = setups.iter().map(|x| x.total()).collect();
    vec![
        m("wall_s", median(&walls), "s"),
        m("setup_s", median(&totals), "s"),
        m("peak_rss_mib", peak_rss.expect("at least one run"), "MiB"),
    ]
}

fn setup_metrics(setups: &[Setup]) -> [Metric; 3] {
    let pick = |f: fn(&Setup) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    [
        m("workloads.build_s", pick(|s| s.build), "s"),
        m("net.construct_s", pick(|s| s.net), "s"),
        m("coherence.construct_s", pick(|s| s.coh), "s"),
    ]
}

// ----------------------------------------------------------------------
// Traced runs
// ----------------------------------------------------------------------

struct Traced {
    result: SimResult,
    profile: HostProfile,
    net: NetProfile,
}

/// One traced run: `sim::run_observed` with a host profiler and a
/// network observer attached. Both are `Rc`-based, so each run (and
/// each worker) makes its own.
fn traced_run(cfg: &SimConfig, w: &BuiltWorkload) -> Traced {
    let prof = HostProfiler::enabled();
    let obs = Rc::new(RefCell::new(NetProfile::new()));
    let result = atac::sim::run_observed(
        cfg,
        w,
        ProbeHandle::default(),
        None,
        prof.clone(),
        NetObsHandle::attach(Rc::clone(&obs)),
    );
    Traced {
        result,
        profile: prof.finish().expect("profiler is enabled"),
        net: Rc::try_unwrap(obs)
            .expect("observer outlived its run")
            .into_inner(),
    }
}

/// Run `run` on every job, on `workers` threads that take jobs in order.
/// Returns the makespan and the outputs in job order.
fn pool_pass<T: Send>(
    jobs: &[(&SimConfig, &BuiltWorkload)],
    workers: usize,
    run: impl Fn(&SimConfig, &BuiltWorkload) -> T + Sync,
) -> (f64, Vec<T>) {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(jobs.len()));
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(cfg, w)) = jobs.get(i) else { break };
                let out = run(cfg, w);
                done.lock()
                    .expect("no worker panics holding the lock")
                    .push((i, out));
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    let mut outs = done
        .into_inner()
        .expect("no worker panicked holding the lock");
    outs.sort_by_key(|&(i, _)| i);
    (wall, outs.into_iter().map(|(_, o)| o).collect())
}

/// Pairs of passes over `jobs` through the same pool, untraced
/// (`sim::run`) and then traced ([`traced_run`]), repeated while the next
/// pair should end within `seconds` of `start`; at least one pair.
/// `check` sees every result with its job index, and the traced ones
/// with their network profile. Returns the median of the pairs'
/// traced ÷ untraced makespan − 1, and the first traced pass's runs.
fn overhead_pairs(
    jobs: &[(&SimConfig, &BuiltWorkload)],
    workers: usize,
    start: Instant,
    seconds: f64,
    mut check: impl FnMut(usize, &SimResult, Option<&NetProfile>),
) -> (f64, Vec<Traced>) {
    let mut overheads = Vec::new();
    let mut first_traced = None;
    loop {
        let (untraced_wall, results) = pool_pass(jobs, workers, atac::sim::run);
        for (i, r) in results.iter().enumerate() {
            check(i, r, None);
        }
        let (traced_wall, runs) = pool_pass(jobs, workers, traced_run);
        for (i, t) in runs.iter().enumerate() {
            check(i, &t.result, Some(&t.net));
        }
        overheads.push(traced_wall / untraced_wall - 1.0);
        first_traced.get_or_insert(runs);
        if start.elapsed().as_secs_f64() + untraced_wall + traced_wall > seconds {
            break;
        }
    }
    (median(&overheads), first_traced.expect("at least one pair"))
}

/// Median seconds of one pass of `energy::integrate` over every result.
fn integrate_secs(jobs: &[(&SimConfig, &SimResult)]) -> f64 {
    let passes: Vec<f64> = (0..INTEGRATE_REPS)
        .map(|_| {
            let t = Instant::now();
            for (cfg, r) in jobs {
                black_box(integrate(
                    black_box(cfg),
                    black_box(&r.net),
                    black_box(&r.coh),
                    black_box(r.cycles),
                    black_box(r.ipc),
                ));
            }
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&passes)
}

/// The per-layer split of a traced pass, merged over its runs.
fn layer_metrics(runs: &[Traced], overhead: f64) -> Vec<Metric> {
    let mut prof = HostProfile::zero();
    let mut np = NetProfile::new();
    for t in runs {
        prof.merge(&t.profile);
        np.merge(&t.net);
    }
    let phase = |p: HostPhase| prof.phase_secs(p);
    let network_s = phase(HostPhase::Network);
    let coherence_s = phase(HostPhase::Coherence);
    let router_ticks = np.router_ticks() as f64;
    let grants = np.total_grants() as f64;
    let hub_flits: u64 = np
        .hub_unicast_flits
        .iter()
        .chain(&np.hub_broadcast_flits)
        .sum();
    let dir_lookups = runs.iter().map(|t| t.result.coh.dir_lookups).sum::<u64>() as f64;
    vec![
        m("net.network_s", network_s, "s"),
        m("net.router_ticks", router_ticks, "count"),
        m(
            "net.ns_per_router_tick",
            ratio(network_s * 1e9, router_ticks),
            "ns",
        ),
        m("net.switch_grants", grants, "count"),
        m(
            "net.flits_per_grant",
            ratio(np.total_flits_routed() as f64, grants),
            "flits",
        ),
        m("net.hub_flits", hub_flits as f64, "count"),
        m("coherence.coherence_s", coherence_s, "s"),
        m("coherence.memctrl_s", phase(HostPhase::Memctrl), "s"),
        m("coherence.dir_lookups", dir_lookups, "count"),
        m(
            "coherence.ns_per_dir_lookup",
            ratio(coherence_s * 1e9, dir_lookups),
            "ns",
        ),
        m("sim.replay_s", phase(HostPhase::Replay), "s"),
        m("sim.advance_s", phase(HostPhase::Advance), "s"),
        m("sim.engine_ticks", np.ticks_executed as f64, "count"),
        m("sim.cycles_skipped", np.cycles_skipped as f64, "count"),
        m("trace.overhead", overhead, "ratio"),
        // Raw lap coverage, never clamped: a value below 1 is host time
        // the phase laps did not attribute.
        m(
            "trace.coverage",
            ratio(prof.tracked_secs(), prof.total_secs),
            "ratio",
        ),
    ]
}

// ----------------------------------------------------------------------
// The 1024-core single-run workload
// ----------------------------------------------------------------------

/// `bcast1024-radix`: EMesh-BCast on the default 32×32 chip, radix at
/// paper scale.
struct Single {
    name: &'static str,
    cfg: SimConfig,
}

impl Single {
    fn bcast_radix() -> Self {
        Single {
            name: "bcast1024-radix",
            cfg: SimConfig {
                arch: Arch::EMeshBcast,
                ..SimConfig::default()
            },
        }
    }

    /// The workload generator's seed for `--seed n`: the figure seed
    /// `0xA7AC_0000 | bench` with `n` in the high 32 bits, so `--seed 0`
    /// gives the inputs of the paper figures.
    fn workload_seed(n: u64) -> u64 {
        (0xA7AC_0000 | Benchmark::Radix as u64) ^ (n << 32)
    }

    fn build(&self, seed: u64) -> BuiltWorkload {
        radix::build(
            self.cfg.topo.cores(),
            Scale::Paper,
            Self::workload_seed(seed),
        )
    }

    /// The recorded digest for `args.expect_seed`. A seed without a
    /// record is checked only for self-consistency; its digest is
    /// printed so that it can be recorded.
    fn expected(&self, args: &Args) -> Option<u64> {
        let e = digest::expected(self.name, args.expect_seed);
        if e.is_none() {
            eprintln!(
                "perfbench: no recorded digest for {} seed {}; checking self-consistency only",
                self.name, args.expect_seed
            );
        }
        e
    }

    /// One untraced, checked run; returns its wall seconds. `first`
    /// keeps the digest of the process's first run of this input.
    fn timed_run(
        &self,
        w: &BuiltWorkload,
        expected: Option<u64>,
        first: &mut Option<u64>,
        checks: &mut Checks,
    ) -> f64 {
        let t = Instant::now();
        let r = atac::sim::run(&self.cfg, w);
        let wall = t.elapsed().as_secs_f64();
        checks.op(self.name, &check_result(&self.cfg, &r, expected, *first));
        let d = digest::of_result(&r);
        eprintln!(
            "perfbench: {} {:.3} s, {} cycles, digest {d:016x}",
            self.name, wall, r.cycles
        );
        first.get_or_insert(d);
        wall
    }
}

fn single_timed(s: &Single, args: &Args, start: Instant, checks: &mut Checks) -> Vec<Metric> {
    let cfgs = [s.cfg.clone()];
    let w = s.build(args.seed);
    let expected = s.expected(args);
    let mut first = None;
    timed_loop(
        start,
        args.seconds,
        || time_setups(SETUP_BATCH, &cfgs, || s.build(args.seed)),
        || s.timed_run(&w, expected, &mut first, checks),
    )
}

fn single_traced(s: &Single, args: &Args, start: Instant, checks: &mut Checks) -> Vec<Metric> {
    let cfgs = [s.cfg.clone()];
    let w = s.build(args.seed);
    let expected = s.expected(args);
    let mut first = None;
    let (overhead, runs) = overhead_pairs(&[(&s.cfg, &w)], 1, start, args.seconds, |_, r, net| {
        let mut problems = check_result(&s.cfg, r, expected, first);
        problems.extend(net.map_or_else(Vec::new, |np| check_ledgers(r, np)));
        let what = if net.is_some() { "traced run" } else { s.name };
        checks.op(what, &problems);
        first.get_or_insert(digest::of_result(r));
    });
    let setups = time_setups(2 * SETUP_BATCH, &cfgs, || s.build(args.seed));
    let integrate_s = integrate_secs(&[(&s.cfg, &runs[0].result)]);
    let mut out: Vec<Metric> = setup_metrics(&setups).into();
    out.extend(layer_metrics(&runs, overhead));
    out.push(m("sim.integrate_s", integrate_s, "s"));
    // No executor runs on this workload, so the bench layer does no work
    // and its figures read 0, as `net.hub_flits` does on a mesh.
    out.extend(bench_metrics(0.0, 0.0, 0));
    out
}

// ----------------------------------------------------------------------
// The 42-key, 64-core gate sweep
// ----------------------------------------------------------------------

/// The outcome of one sweep pass.
struct SweepPass {
    wall: f64,
    sum_run_s: f64,
    simulated: usize,
    digests: BTreeMap<String, u64>,
}

/// One `execute_with` pass into a fresh private cache, every key checked
/// against its recorded summary. Keeps the digest of every published
/// record, by key, for comparison with a traced pass.
fn sweep_pass(plan: &RunPlan, pass: usize, checks: &mut Checks) -> SweepPass {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let dir: PathBuf = exe
        .parent()
        .expect("executable has a directory")
        .join(format!("perfbench-sweep-{}-{pass}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = RunCache::at(&dir);
    // Explicit options: `ExecOptions::from_env` would read the committed
    // run history into the cost model and reorder the schedule.
    let opts = ExecOptions {
        flight: false,
        costs: CostModel::default(),
        progress: false,
    };
    let t = Instant::now();
    let report = plan.execute_with(&cache, SWEEP_WORKERS, &opts);
    let wall = t.elapsed().as_secs_f64();

    let stats = report.executor_stats();
    let mut pass_problems = Vec::new();
    if report.planned != 42 || stats.cache_misses != 42 {
        pass_problems.push(format!(
            "{} planned, {} simulated; the gate plan is 42 simulated keys",
            report.planned, stats.cache_misses
        ));
    }
    if stats.cache_hits != 0 || stats.flight_waits != 0 {
        pass_problems.push(format!(
            "{} cached and {} joined keys in a fresh cache",
            stats.cache_hits, stats.flight_waits
        ));
    }
    checks.op("sweep accounting", &pass_problems);

    let got: BTreeMap<&str, String> = report
        .summaries
        .iter()
        .map(|s| (s.key.as_str(), digest::summary_line(s)))
        .collect();
    for want in digest::expected_sweep() {
        let key = want.split(' ').next().expect("line starts with its key");
        let problems = match got.get(key) {
            None => vec!["no summary".to_string()],
            Some(line) if !digest::same_summary(line, &want) => {
                vec![format!("summary {line}, recorded {want}")]
            }
            Some(_) => Vec::new(),
        };
        checks.op(key, &problems);
    }

    let digests = plan
        .entries()
        .iter()
        .filter_map(|(cfg, bench)| {
            let key = run_key(cfg, *bench);
            let rec = cache.load(&key)?;
            let e = rec.energy(cfg).total().value();
            Some((
                key,
                digest::digest(rec.cycles, rec.instructions, &rec.net, &rec.coh, e),
            ))
        })
        .collect();
    std::fs::remove_dir_all(&dir).expect("remove the private sweep cache");
    SweepPass {
        wall,
        sum_run_s: report
            .runs
            .iter()
            .filter(|r| r.source == RunSource::Simulated)
            .map(|r| r.secs)
            .sum(),
        simulated: report.simulated(),
        digests,
    }
}

/// The plan's workloads, built once per benchmark as the executor does.
fn sweep_workloads(plan: &RunPlan) -> BTreeMap<&'static str, BuiltWorkload> {
    let mut built = BTreeMap::new();
    for (cfg, bench) in plan.entries() {
        built
            .entry(bench.name())
            .or_insert_with(|| bench.build(cfg.topo.cores(), Scale::Paper));
    }
    built
}

/// Set-up of the whole sweep: the plan, its four 64-core workloads, and
/// the network and memory system of each of its 42 keys.
fn sweep_setups(reps: usize) -> Vec<Setup> {
    let cfgs: Vec<SimConfig> = plans::full_suite()
        .entries()
        .iter()
        .map(|(c, _)| c.clone())
        .collect();
    time_setups(reps, &cfgs, || {
        let plan = plans::full_suite();
        let built = sweep_workloads(&plan);
        (plan, built)
    })
}

fn sweep_timed(args: &Args, start: Instant, checks: &mut Checks) -> Vec<Metric> {
    let plan = plans::full_suite();
    let mut pass = 0;
    timed_loop(
        start,
        args.seconds,
        || sweep_setups(SETUP_BATCH),
        || {
            pass += 1;
            sweep_pass(&plan, pass, checks).wall
        },
    )
}

fn sweep_traced(args: &Args, start: Instant, checks: &mut Checks) -> Vec<Metric> {
    let plan = plans::full_suite();
    // The executor's pass supplies the bench layer's figures and the
    // records every later run is compared with.
    let executed = sweep_pass(&plan, 0, checks);
    let built = sweep_workloads(&plan);
    let jobs: Vec<(&SimConfig, &BuiltWorkload)> = plan
        .entries()
        .iter()
        .map(|(cfg, bench)| (cfg, &built[bench.name()]))
        .collect();
    let keys: Vec<String> = plan
        .entries()
        .iter()
        .map(|(cfg, bench)| run_key(cfg, *bench))
        .collect();
    let (overhead, runs) =
        overhead_pairs(&jobs, SWEEP_WORKERS, start, args.seconds, |i, r, net| {
            let recorded = executed.digests.get(&keys[i]).copied();
            let mut problems = check_result(jobs[i].0, r, None, recorded);
            if recorded.is_none() {
                problems.push("no executor record to compare with".into());
            }
            problems.extend(net.map_or_else(Vec::new, |np| check_ledgers(r, np)));
            checks.op(&keys[i], &problems);
        });
    let setups = sweep_setups(2 * SETUP_BATCH);
    let results: Vec<(&SimConfig, &SimResult)> = jobs
        .iter()
        .zip(&runs)
        .map(|(&(cfg, _), t)| (cfg, &t.result))
        .collect();
    let integrate_s = integrate_secs(&results);

    let mut out: Vec<Metric> = setup_metrics(&setups).into();
    out.extend(layer_metrics(&runs, overhead));
    out.push(m("sim.integrate_s", integrate_s, "s"));
    out.extend(bench_metrics(
        executed.sum_run_s,
        executed.wall,
        executed.simulated,
    ));
    out
}

/// The bench layer's figures for one executor pass: seconds of its
/// simulated runs, their share of workers × makespan, and their count.
fn bench_metrics(sum_run_s: f64, wall: f64, simulated: usize) -> [Metric; 3] {
    [
        m("bench.sum_run_s", sum_run_s, "s"),
        m(
            "bench.parallel_eff",
            ratio(sum_run_s, SWEEP_WORKERS as f64 * wall),
            "ratio",
        ),
        m("bench.simulated", simulated as f64, "count"),
    ]
}
