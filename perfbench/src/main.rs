//! The repository's benchmark: end-to-end metrics per workload, and a
//! traced run that splits them by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-disrupted|live-checkpointed> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One driver thread runs EATP under `EngineConfig::default()` (dense
//! ticking, no leg-query workers) plus `live(true)`: `Engine::new` →
//! `start` → `tick_with_commands` until the run finishes, calling the next
//! tick as soon as the previous one returns. Each round simulates each of
//! the workload's floors once (see [`workload`]); the number of floors and
//! rounds is fixed per workload, so `--seconds` is accepted and changes
//! nothing. Every simulation runs through [`trace::Traced`], which counts
//! calls, and every simulation's outputs are checked: a failed check makes
//! the command exit 1.
//!
//! With `--trace 0` the last line of standard output carries the
//! end-to-end metrics, from each floor's fastest time per tick over its
//! rounds (see [`Fastest`]).
//! With `--trace 1` every floor is also simulated once with a span
//! recorder, and its fingerprint must equal the untimed rounds'; the last
//! line carries the per-layer metrics and the spans go to
//! `perfbench/out/trace-<workload>-<seed>.tsv`.

mod trace;
mod workload;

use eatp_core::{planner_by_name, EatpConfig, Planner};
use std::collections::BTreeMap;
use std::time::Instant;
use tprw_simulator::{decode_snapshot, encode_snapshot, Ack, DeterministicFingerprint, Engine};
use tprw_simulator::{SequencedCommand, SimulationReport};
use trace::{in_span, CallCounters, Recorder, SharedRecorder, Span, Traced};
use workload::{Inputs, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => {
                number()?;
            }
            "--trace" => {
                trace = match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or(workload.default_seed()),
        trace,
    })
}

fn eatp() -> Box<dyn Planner> {
    planner_by_name("EATP", &EatpConfig::default()).expect("EATP is a planner name")
}

/// One whole simulation of one floor.
struct Rep {
    setup_ns: u64,
    ticks: u64,
    /// Tick calls plus checkpoints.
    wall_ns: u64,
    tick_ns: Vec<u64>,
    /// Simulated ticks from `Ack::Accepted` to `Ack::Completed`, per order.
    order_ticks: Vec<u64>,
    applied: u64,
    rejected: u64,
    /// Encoded size of every checkpoint.
    checkpoint_bytes: Vec<usize>,
    /// Driver time of every checkpoint.
    checkpoint_ns: Vec<u64>,
    report: SimulationReport,
    counters: CallCounters,
    failures: Vec<String>,
}

impl Rep {
    /// Orders not fulfilled plus commands rejected.
    fn failed(&self, inputs: &Inputs) -> u64 {
        self.rejected + inputs.orders.saturating_sub(self.order_ticks.len()) as u64
    }
}

fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Simulate one floor with EATP behind [`Traced`], recording spans when
/// `rec` is given.
fn run_rep(inputs: &Inputs, workload: Workload, rec: Option<&SharedRecorder>) -> Rep {
    let planner = &mut Traced::new(eatp(), rec.cloned());
    // `tick_with_commands` sorts each batch in place.
    let mut script: Vec<(u64, Vec<SequencedCommand>)> = inputs.script.clone();
    let start = Instant::now();
    let mut engine = in_span(rec, "setup", || {
        let mut engine = Engine::new(&inputs.instance, &inputs.config);
        engine.start(planner);
        engine
    });
    let setup_ns = ns_since(start);

    let mut failures = Vec::new();
    let mut acks = Vec::new();
    let mut accepted_at = vec![None; inputs.orders];
    let mut order_ticks = Vec::with_capacity(inputs.orders);
    let (mut applied, mut rejected) = (0, 0);
    let mut tick_ns = Vec::new();
    let mut wall_ns = 0;
    let mut checkpoint_bytes = Vec::new();
    let mut checkpoint_ns = Vec::new();
    let mut next_batch = 0;
    while !engine.is_finished() {
        let t = engine.current_tick();
        let batch: &mut [SequencedCommand] = match script.get_mut(next_batch) {
            Some((at, batch)) if *at == t => {
                next_batch += 1;
                batch
            }
            _ => &mut [],
        };
        let start = Instant::now();
        in_span(rec, "tick", || {
            engine.tick_with_commands(planner, batch, &mut acks)
        });
        let dt = ns_since(start);
        tick_ns.push(dt);
        wall_ns += dt;
        for ack in acks.drain(..) {
            match ack {
                Ack::Accepted { order, tick, .. } => {
                    applied += 1;
                    accepted_at[order.index()] = Some(tick);
                }
                Ack::Completed { order, tick } => match accepted_at[order.index()] {
                    Some(at) => order_ticks.push(tick - at),
                    None => failures.push(format!("{order} completed before it was accepted")),
                },
                Ack::Rejected { seq, reason, .. } => {
                    rejected += 1;
                    failures.push(format!("command {seq} rejected: {reason:?}"));
                }
                _ => applied += 1,
            }
        }
        let due = workload
            .checkpoint_every()
            .is_some_and(|every| (t + 1) % every == 0);
        if due && !engine.is_finished() {
            let start = Instant::now();
            let (bytes, decoded) = in_span(rec, "checkpoint", || {
                let data = in_span(rec, "snapshot", || engine.snapshot(&*planner));
                let bytes = in_span(rec, "encode_snapshot", || encode_snapshot(&data));
                let decoded = in_span(rec, "decode_snapshot", || decode_snapshot(&bytes));
                (bytes, decoded)
            });
            let dt = ns_since(start);
            checkpoint_ns.push(dt);
            wall_ns += dt;
            match decoded {
                Ok(data) if encode_snapshot(&data) == bytes => {}
                Ok(_) => failures.push(format!("checkpoint at tick {t} does not round-trip")),
                Err(e) => failures.push(format!("checkpoint at tick {t} does not decode: {e}")),
            }
            checkpoint_bytes.push(bytes.len());
        }
    }
    let report = engine.report(planner);

    if !report.completed {
        failures.push("the run did not complete".into());
    }
    if report.executed_conflicts != 0 {
        failures.push(format!("{} executed conflicts", report.executed_conflicts));
    }
    if report.disruption_violations != 0 {
        failures.push(format!(
            "{} disruption violations",
            report.disruption_violations
        ));
    }
    let accepted = accepted_at.iter().filter(|a| a.is_some()).count();
    if accepted != inputs.orders || order_ticks.len() != accepted {
        failures.push(format!(
            "{} orders submitted, {accepted} accepted, {} completed",
            inputs.orders,
            order_ticks.len()
        ));
    }
    if report.orders_completed != accepted as u64 {
        failures.push(format!(
            "report counts {} completed orders, acks {accepted}",
            report.orders_completed
        ));
    }
    if next_batch != script.len() {
        failures.push("the run ended before its command script did".into());
    }
    let counters = planner.counters;
    if counters.plan_leg_calls != 0 {
        failures.push(format!(
            "{} direct plan_leg calls; the batched path makes none",
            counters.plan_leg_calls
        ));
    }
    Rep {
        setup_ns,
        ticks: tick_ns.len() as u64,
        wall_ns,
        tick_ns,
        order_ticks,
        applied,
        rejected,
        checkpoint_bytes,
        checkpoint_ns,
        report,
        counters,
        failures,
    }
}

/// Nearest-rank percentile (`q` in `0..=1`) of unsorted samples; 0 when
/// empty.
fn percentile(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

fn median(samples: impl IntoIterator<Item = f64>) -> f64 {
    let mut sorted: Vec<f64> = samples.into_iter().collect();
    if sorted.is_empty() {
        return 0.0;
    }
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// The fastest time of each step of one floor over its rounds. Every round
/// of a floor does the same work tick by tick (its fingerprint is checked
/// to match), so the minimum per step drops the time a busy host added to
/// one round: on a shared host the same tick runs up to twice as slow for
/// seconds to minutes at a time, but within a busy spell quiet moments of
/// a second or less keep coming, and the rounds of a floor are spread
/// evenly over the run.
struct Fastest {
    setup_ns: u64,
    tick_ns: Vec<u64>,
    checkpoint_ns: Vec<u64>,
}

impl Fastest {
    fn of(reps: &[Rep]) -> Self {
        let min_each = |steps: &dyn Fn(&Rep) -> &[u64]| {
            let mut out = steps(&reps[0]).to_vec();
            for rep in &reps[1..] {
                for (o, &t) in out.iter_mut().zip(steps(rep)) {
                    *o = (*o).min(t);
                }
            }
            out
        };
        Self {
            setup_ns: reps.iter().map(|r| r.setup_ns).min().unwrap_or(0),
            tick_ns: min_each(&|r| &r.tick_ns),
            checkpoint_ns: min_each(&|r| &r.checkpoint_ns),
        }
    }

    /// Tick calls plus checkpoints, per tick.
    fn ns_per_tick(&self) -> f64 {
        let ns: u64 = self.tick_ns.iter().chain(&self.checkpoint_ns).sum();
        ns as f64 / self.tick_ns.len() as f64
    }
}

/// `rounds[floor]` holds every plain simulation of one floor. Tick time,
/// its percentiles and set-up time come from each floor's [`Fastest`]
/// steps. `ns_per_tick` is the geometric mean over the floors of each
/// floor's value: per-floor values are skewed, a few floors running far
/// above the rest when failed searches cluster on them, and an arithmetic
/// mean follows those few. The tick percentiles pool the fastest times of
/// every tick of every floor. Makespan is the arithmetic mean over the
/// floors, set-up time the median. Order latency percentiles pool the
/// orders of the first round (every round simulates the same orders). The
/// peak resident set is the process's.
fn end_to_end(rounds: &[Vec<Rep>]) -> Metrics {
    let fastest: Vec<Fastest> = rounds.iter().map(|reps| Fastest::of(reps)).collect();
    let n = fastest.len() as f64;
    let geomean =
        |f: &dyn Fn(&Fastest) -> f64| (fastest.iter().map(|b| f(b).ln()).sum::<f64>() / n).exp();
    let ticks: Vec<u64> = fastest
        .iter()
        .flat_map(|b| b.tick_ns.iter().copied())
        .collect();
    let makespan = rounds
        .iter()
        .map(|reps| reps[0].report.makespan as f64)
        .sum::<f64>()
        / n;
    let orders: Vec<u64> = rounds
        .iter()
        .flat_map(|reps| reps[0].order_ticks.iter().copied())
        .collect();
    vec![
        ("ns_per_tick", geomean(&|b| b.ns_per_tick()), "ns"),
        ("tick_p50_us", percentile(&ticks, 0.50) / 1e3, "us"),
        ("tick_p99_us", percentile(&ticks, 0.99) / 1e3, "us"),
        ("makespan_ticks", makespan, "ticks"),
        ("order_p50_ticks", percentile(&orders, 0.50), "ticks"),
        ("order_p99_ticks", percentile(&orders, 0.99), "ticks"),
        (
            "setup_s",
            median(fastest.iter().map(|b| b.setup_ns as f64 / 1e9)),
            "s",
        ),
        ("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

/// Calls, total time, self time and every duration of one span name.
#[derive(Default)]
struct SpanStats {
    calls: u64,
    total_ns: u64,
    self_ns: u64,
    durations: Vec<u64>,
}

/// Per-name statistics. A span's self time is its duration minus the
/// durations of its direct children (spans nest on one thread, so children
/// never overlap).
fn span_stats(spans: &[Span]) -> BTreeMap<&'static str, SpanStats> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != 0 {
            child_ns[s.parent as usize - 1] += s.dur_ns();
        }
    }
    let mut by_name: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
    for (s, children) in spans.iter().zip(&child_ns) {
        let e = by_name.entry(s.name).or_default();
        e.calls += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += s.dur_ns() - children;
        e.durations.push(s.dur_ns());
    }
    by_name
}

/// A traced simulation, with the first plain simulation of the same floor.
struct TracedSim<'a> {
    rep: Rep,
    plain: &'a Rep,
}

/// Counts and times are per simulation (sums over the traced simulations
/// divided by their number); ratios and shares are of the sums; per-call
/// percentiles pool every call.
fn per_layer(sims: &[TracedSim], stats: &BTreeMap<&'static str, SpanStats>) -> Metrics {
    let empty = SpanStats::default();
    let get = |name: &str| stats.get(name).unwrap_or(&empty);
    let n = sims.len() as f64;
    let per_sim = |f: &dyn Fn(&TracedSim) -> f64| sims.iter().map(f).sum::<f64>() / n;
    let run_ms = |name: &str| get(name).total_ns as f64 / n / 1e6;
    let run_calls = |name: &str| get(name).calls as f64 / n;
    let median_ms = |name: &str| percentile(&get(name).durations, 0.5) / 1e6;
    let p99_us = |name: &str| percentile(&get(name).durations, 0.99) / 1e3;
    let share = |name: &str| ratio(get(name).total_ns as f64, get("tick").total_ns as f64);
    let stat = |f: &dyn Fn(&eatp_core::PlannerStats) -> u64| {
        per_sim(&|s| f(&s.rep.report.planner_stats) as f64)
    };

    let tick = get("tick");
    let ticks = per_sim(&|s| s.rep.ticks as f64);
    let sum = |f: &dyn Fn(&TracedSim) -> u64| sims.iter().map(f).sum::<u64>() as f64;
    let assigned = sum(&|s| s.rep.counters.assigned);
    let legs_requested = sum(&|s| s.rep.counters.legs_requested);
    let paths_ok = stat(&|st| st.paths_planned);
    let paths_failed = stat(&|st| st.paths_failed);
    let spliced = stat(&|st| st.cache_spliced);
    vec![
        (
            "engine.self_ns_per_tick",
            tick.self_ns as f64 / n / ticks,
            "ns",
        ),
        (
            "engine.self_share",
            ratio(tick.self_ns as f64, tick.total_ns as f64),
            "frac",
        ),
        ("planner.plan.share", share("plan"), "frac"),
        ("planner.commit_legs.share", share("commit_legs"), "frac"),
        (
            "snapshot.count",
            per_sim(&|s| s.rep.checkpoint_bytes.len() as f64),
            "count",
        ),
        ("snapshot.capture_ms", median_ms("snapshot"), "ms"),
        ("snapshot.encode_ms", median_ms("encode_snapshot"), "ms"),
        ("snapshot.decode_ms", median_ms("decode_snapshot"), "ms"),
        (
            "snapshot.bytes",
            median(
                sims.iter()
                    .flat_map(|s| s.rep.checkpoint_bytes.iter().map(|&b| b as f64)),
            ),
            "bytes",
        ),
        (
            "commands.applied",
            per_sim(&|s| s.rep.applied as f64),
            "count",
        ),
        (
            "commands.rejected",
            per_sim(&|s| s.rep.rejected as f64),
            "count",
        ),
        ("planner.init_ms", median_ms("init"), "ms"),
        ("planner.plan.calls", run_calls("plan"), "count"),
        ("planner.plan.ms", run_ms("plan"), "ms"),
        ("planner.plan.p99_us", p99_us("plan"), "us"),
        (
            "planner.plan.assign_ratio",
            ratio(assigned, sum(&|s| s.rep.counters.assignable)),
            "frac",
        ),
        (
            "planner.commit_legs.calls",
            run_calls("commit_legs"),
            "count",
        ),
        ("planner.commit_legs.ms", run_ms("commit_legs"), "ms"),
        ("planner.commit_legs.p99_us", p99_us("commit_legs"), "us"),
        ("planner.legs.requested", legs_requested / n, "count"),
        (
            "planner.legs.ok_ratio",
            ratio(sum(&|s| s.rep.counters.legs_ok), legs_requested),
            "frac",
        ),
        ("planner.query_legs.ms", run_ms("query_legs"), "ms"),
        ("planner.plan_leg.calls", run_calls("plan_leg"), "count"),
        ("planner.on_event.calls", run_calls("on_event"), "count"),
        ("planner.on_event.ms", run_ms("on_event"), "ms"),
        ("planner.housekeeping.ms", run_ms("housekeeping"), "ms"),
        ("planner.on_dock.ms", run_ms("on_dock"), "ms"),
        ("astar.expansions", stat(&|st| st.expansions), "count"),
        ("astar.paths_ok", paths_ok, "count"),
        ("astar.paths_failed", paths_failed, "count"),
        (
            "astar.ok_ratio",
            ratio(paths_ok, paths_ok + paths_failed),
            "frac",
        ),
        ("cache.spliced", spliced, "count"),
        ("cache.splice_ratio", ratio(spliced, paths_ok), "frac"),
        (
            "planner.memory_bytes",
            median(sims.iter().map(|s| s.rep.report.peak_memory_bytes as f64)),
            "bytes",
        ),
        (
            "planner.scratch_bytes",
            median(sims.iter().map(|s| s.rep.report.peak_scratch_bytes as f64)),
            "bytes",
        ),
        ("planner.stc_s", per_sim(&|s| s.rep.report.stc_s), "s"),
        ("planner.ptc_s", per_sim(&|s| s.rep.report.ptc_s), "s"),
        (
            "qlearning.q_states",
            per_sim(&|s| s.rep.report.planner_stats.q_states as f64),
            "count",
        ),
        (
            "trace.overhead_frac",
            ratio(sum(&|s| s.rep.wall_ns), sum(&|s| s.plain.wall_ns)) - 1.0,
            "frac",
        ),
    ]
}

/// Per-span self time, beside the metric tables, as a share of the driver
/// time (tick calls plus checkpoints) the end-to-end `ns_per_tick` counts.
fn print_self_times(stats: &BTreeMap<&'static str, SpanStats>, sims: usize) {
    let total = |name: &str| stats.get(name).map_or(0, |s| s.total_ns) as f64;
    let driver_ns = total("tick") + total("checkpoint");
    let mut rows: Vec<_> = stats.iter().collect();
    rows.sort_by_key(|(_, s)| std::cmp::Reverse(s.self_ns));
    println!("-- self time per simulation");
    println!(
        "{:<24} {:>12} {:>14} {:>14} {:>10}",
        "span", "calls", "total ms", "self ms", "% driver"
    );
    let n = sims as f64;
    for (name, s) in rows {
        println!(
            "{:<24} {:>12.1} {:>14.3} {:>14.3} {:>9.2}%",
            name,
            s.calls as f64 / n,
            s.total_ns as f64 / n / 1e6,
            s.self_ns as f64 / n / 1e6,
            100.0 * ratio(s.self_ns as f64, driver_ns),
        );
    }
}

fn print_table(title: &str, metrics: &Metrics) {
    println!("-- {title}");
    for (name, value, unit) in metrics {
        println!("{name:<28} {value:>18.4} {unit}");
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The outcome checks of every simulation of a run.
struct Checks<'a> {
    seeds: &'a [u64],
    /// The first fingerprint seen per floor; every later simulation of the
    /// floor, traced or not, must reproduce it.
    fingerprints: Vec<Option<DeterministicFingerprint>>,
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Checks<'_> {
    fn record(&mut self, floor: usize, label: &str, rep: &Rep, inputs: &Inputs) {
        self.attempted += inputs.commands as u64;
        self.failed += rep.failed(inputs);
        let at = format!(
            "{label} simulation of floor {floor} (seed {})",
            self.seeds[floor]
        );
        self.failures
            .extend(rep.failures.iter().map(|f| format!("{at}: {f}")));
        let fp = rep.report.deterministic_fingerprint();
        match &self.fingerprints[floor] {
            None => self.fingerprints[floor] = Some(fp),
            Some(first) if *first == fp => {}
            Some(_) => self
                .failures
                .push(format!("{at}: fingerprint differs from the first run")),
        }
    }
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let wl = args.workload;
    let seeds: Vec<u64> = (0..wl.floors())
        .map(|k| Workload::floor_seed(args.seed, k))
        .collect();
    let inputs = seeds
        .iter()
        .map(|&seed| Inputs::build(wl, seed))
        .collect::<Result<Vec<_>, _>>()?;
    let rec = Recorder::shared();
    // Plain simulations by floor, in round order, and the traced twin of
    // each floor's first round.
    let mut plain: Vec<Vec<Rep>> = seeds.iter().map(|_| Vec::new()).collect();
    let mut traced: Vec<(usize, Rep)> = Vec::new();
    let mut checks = Checks {
        seeds: &seeds,
        fingerprints: vec![None; seeds.len()],
        failures: Vec::new(),
        attempted: 0,
        failed: 0,
    };

    for round in 0..Workload::ROUNDS {
        for (floor, inputs) in inputs.iter().enumerate() {
            let rep = run_rep(inputs, wl, None);
            checks.record(floor, "plain", &rep, inputs);
            plain[floor].push(rep);
            if args.trace && round == 0 {
                let rep = run_rep(inputs, wl, Some(&rec));
                checks.record(floor, "traced", &rep, inputs);
                traced.push((floor, rep));
            }
        }
    }

    let e2e = end_to_end(&plain);
    println!(
        "perfbench {} seed {}: {} floors x {} rounds, {} traced",
        wl.name(),
        args.seed,
        seeds.len(),
        Workload::ROUNDS,
        traced.len()
    );
    print_table("end to end (plain simulations)", &e2e);
    let metrics = if args.trace {
        let rec = rec.borrow();
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-{}.tsv", wl.name(), args.seed));
        rec.write_tsv(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("-- spans written to {}", path.display());
        let stats = span_stats(rec.spans());
        print_self_times(&stats, traced.len());
        let sims: Vec<TracedSim> = traced
            .into_iter()
            .map(|(floor, rep)| TracedSim {
                rep,
                plain: &plain[floor][0],
            })
            .collect();
        let layers = per_layer(&sims, &stats);
        print_table("per layer (traced, per simulation)", &layers);
        layers
    } else {
        e2e
    };
    for f in &checks.failures {
        eprintln!("check failed: {f}");
    }
    let correct = checks.failures.is_empty();
    println!(
        "{}",
        result_line(correct, checks.attempted, checks.failed, &metrics)
    );
    Ok(correct)
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
