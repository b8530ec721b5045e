//! The traced run: per-layer metrics.
//!
//! Spans are recorded only here, around calls into each layer's public
//! functions; each has a name, start, end, parent, op id and the number of
//! calls it covers (ns-scale layers are timed in batches, since a clock
//! read costs about as much as the call). Spans stay in memory and are
//! written to `out/` when the run ends. Each layer is replayed on inputs
//! from the generator of the workload that stresses it. Counts come from
//! public return values and from the program's own telemetry counters;
//! telemetry is switched on only while counting, never while timing.

use crate::workloads::{self, Bench, Kind, Op, FACILITY_SPEC, YEARS_PER_OP};
use crate::{run_pass, Reference, Tally};
use dcb_core::fleet;
use dcb_core::{BackupConfig, OutageSim};
use dcb_engine::locate;
use dcb_fleet::{FleetPool, Scenario};
use dcb_outage::OutageSampler;
use dcb_power::BackupSystem;
use dcb_units::{Fraction, Seconds, Watts};
use std::cell::Cell;
use std::hint::black_box;
use std::io::Write as _;
use std::time::Instant;

/// Inputs per replayed layer.
const REPLAY_INPUTS: usize = 200;
/// Calls per span for ns-scale layers.
const BATCH: usize = 256;
/// Probes per kernel-run class: the ones whose cycle counts lie nearest
/// the class's target.
const CLASS_PROBES: usize = 32;

pub type Metric = (String, f64, &'static str);

/// One recorded span.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
    calls: u64,
}

/// Spans of one run, kept in memory until the run ends.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span over an interval already measured.
    fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: u64,
        calls: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            op,
            calls,
        });
        self.spans.len() - 1
    }

    /// Times `f`, which makes `calls` calls into one layer, as a span.
    fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        calls: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = black_box(f());
        let end = Instant::now();
        self.push(name, start, end, parent, op, calls);
        out
    }

    /// Opens a parent span; close it with [`Self::close`].
    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.push(name, now, now, parent, 0, 0)
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Median over the spans named `name` of their ns per call.
    fn ns_per_call(&self, name: &str) -> f64 {
        let per_call: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name && s.calls > 0)
            .map(|s| (s.end_ns - s.start_ns) as f64 / s.calls as f64)
            .collect();
        crate::stats::median(&per_call)
    }

    /// Total ns and calls over the spans named `name`.
    fn totals(&self, name: &str) -> (f64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(ns, calls), s| {
                (ns + (s.end_ns - s.start_ns) as f64, calls + s.calls)
            })
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}, \"calls\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op, s.calls
            )?;
        }
        out.flush()
    }
}

/// Reads stable or volatile counters of the program's telemetry.
fn counter(name: &str) -> u64 {
    dcb_telemetry::snapshot().counter(name).unwrap_or(0)
}

/// Runs `f` with telemetry on and returns the change of each named counter.
fn counting<const N: usize>(names: [&str; N], f: impl FnOnce()) -> [f64; N] {
    let before = names.map(counter);
    dcb_telemetry::set_enabled(true);
    f();
    dcb_telemetry::set_enabled(false);
    let mut delta = [0.0; N];
    for i in 0..N {
        delta[i] = (counter(names[i]) - before[i]) as f64;
    }
    delta
}

/// A kernel scenario shaped like a sizing probe: a UPS-only configuration
/// on the search's power grid with a runtime below the search ceiling.
struct Probe {
    sim: OutageSim,
    scenario: Scenario,
    duration: Seconds,
}

fn sizing_probes(sizing: &Bench, seed: u64) -> Vec<Probe> {
    let mut rng = workloads::Rng::new(seed ^ 0x9B0B);
    sizing
        .ops
        .iter()
        .map(|op| {
            let Op::Sizing {
                workload,
                technique,
                duration_s,
            } = *op
            else {
                unreachable!("sizing list holds sizing ops")
            };
            let duration = Seconds::new(duration_s);
            let ceiling = (duration_s * 1.5 + 2400.0).clamp(240.0, 28_800.0);
            let runtime = Seconds::new(30.0 + (ceiling - 30.0) * rng.unit());
            let power = 0.125 * (1 + rng.below(8)) as f64;
            let config =
                BackupConfig::custom("probe", Fraction::ZERO, Fraction::new(power), runtime);
            let cluster = sizing.clusters[workload];
            let technique = &sizing.techniques[technique];
            Probe {
                sim: OutageSim::new(cluster, config.clone(), technique.clone()),
                scenario: Scenario::new(&cluster, &config, technique, duration),
                duration,
            }
        })
        .collect()
}

/// A Table-3 backup system under a cluster's serving load, from an
/// availability op.
struct Supply {
    system: BackupSystem,
    load: Watts,
    duration: Seconds,
}

fn table3_supplies(availability: &Bench) -> Vec<Supply> {
    availability.ops[..REPLAY_INPUTS]
        .iter()
        .map(|op| {
            let Op::Availability {
                workload,
                config,
                seed,
                ..
            } = *op
            else {
                unreachable!("availability list holds availability ops")
            };
            let cluster = &availability.clusters[workload];
            let duration = OutageSampler::seeded(seed).sample_duration();
            Supply {
                system: availability.configs[config].instantiate(cluster.peak_power()),
                load: cluster.peak_power() * 0.8,
                duration,
            }
        })
        .collect()
}

/// Batches of `BATCH` calls of `call` over `inputs`, cycling, as spans.
fn batched<T>(
    rec: &mut Recorder,
    name: &'static str,
    parent: usize,
    inputs: &[T],
    batches: usize,
    mut call: impl FnMut(&T),
) {
    let mut next = 0;
    for b in 0..batches {
        rec.time(name, Some(parent), b as u64, BATCH as u64, || {
            for _ in 0..BATCH {
                call(&inputs[next]);
                next = (next + 1) % inputs.len();
            }
        });
    }
}

/// The kernel layers: battery → power → locate → engine/sim runs.
fn kernel_layers(
    rec: &mut Recorder,
    sizing: &Bench,
    availability: &Bench,
    seed: u64,
) -> Vec<Metric> {
    let root = rec.open("layer.kernel", None);
    let probes = sizing_probes(sizing, seed);
    let supplies = table3_supplies(availability);
    let mut m = Vec::new();

    // Peukert solves on the probes' packs at loads across the rating.
    let packs: Vec<_> = probes
        .iter()
        .filter_map(|p| {
            let peak = p.scenario.cluster.peak_power();
            let ups = p.scenario.config.instantiate(peak).ups()?.pack();
            Some((ups, peak * 0.3, peak * 0.9, p.duration))
        })
        .collect();
    batched(
        rec,
        "battery.runtime_at",
        root,
        &packs,
        64,
        |(pack, _, hi, _)| {
            black_box(pack.runtime_at(black_box(*hi)));
        },
    );
    batched(
        rec,
        "battery.charge_used_over_ramp",
        root,
        &packs,
        64,
        |(pack, lo, hi, d)| {
            black_box(pack.charge_used_over_ramp(*lo, *hi, *d));
        },
    );
    m.push((
        "battery.runtime_at_ns".into(),
        rec.ns_per_call("battery.runtime_at"),
        "ns",
    ));
    m.push((
        "battery.charge_used_over_ramp_ns".into(),
        rec.ns_per_call("battery.charge_used_over_ramp"),
        "ns",
    ));

    // Analytic supply over whole outages on Table-3 systems (with DGs).
    batched(rec, "power.first_shortfall", root, &supplies, 32, |s| {
        black_box(s.system.first_shortfall(s.load, Seconds::ZERO, s.duration));
    });
    for b in 0..32 {
        let mut fresh: Vec<BackupSystem> = (0..BATCH)
            .map(|i| supplies[(b * BATCH + i) % supplies.len()].system.clone())
            .collect();
        rec.time(
            "power.supply_segment",
            Some(root),
            b as u64,
            BATCH as u64,
            || {
                for (i, system) in fresh.iter_mut().enumerate() {
                    let s = &supplies[(b * BATCH + i) % supplies.len()];
                    black_box(system.supply_segment(s.load, Seconds::ZERO, s.duration));
                }
            },
        );
    }
    m.push((
        "power.supply_segment_ns".into(),
        rec.ns_per_call("power.supply_segment"),
        "ns",
    ));
    m.push((
        "power.first_shortfall_ns".into(),
        rec.ns_per_call("power.first_shortfall"),
        "ns",
    ));

    // `first_true` on the DG-crossover predicate, probes counted by the
    // predicate itself: scan samples and bisection steps alike.
    let probes_seen = Cell::new(0u64);
    batched(rec, "engine.locate", root, &supplies, 32, |s| {
        black_box(locate::first_true(Seconds::ZERO, s.duration, |t| {
            probes_seen.set(probes_seen.get() + 1);
            s.system.available_power(t) >= s.load
        }));
    });
    m.push((
        "engine.locate_ns".into(),
        rec.ns_per_call("engine.locate"),
        "ns",
    ));
    m.push((
        "engine.locate_probes_per_call".into(),
        probes_seen.get() as f64 / (32 * BATCH) as f64,
        "count",
    ));

    // Cycles and segments per kernel run, and each probe's cycle count.
    let mut cycles = Vec::with_capacity(probes.len());
    let [runs, all_cycles, segments, outages] = counting(
        [
            "engine.runs",
            "engine.cycles",
            "sim.kernel.segments",
            "sim.kernel.outages",
        ],
        || {
            for p in &probes {
                let before = counter("engine.cycles");
                black_box(p.sim.run(p.duration));
                cycles.push((counter("engine.cycles") - before) as f64);
            }
        },
    );
    m.push(("engine.cycles_per_run".into(), all_cycles / runs, "count"));
    m.push(("sim.segments_per_run".into(), segments / outages, "count"));

    // Run classes from the measured cycle distribution: light is one
    // cycle (or the fewest seen), realistic the p75, heavy 2.5x the p99
    // (in practice the heaviest probes the generator produced).
    let fewest = cycles.iter().copied().fold(f64::INFINITY, f64::min);
    let targets = [
        ("sim.run_ns.light", fewest.max(1.0)),
        (
            "sim.run_ns.realistic",
            crate::stats::quantile(&cycles, 0.75),
        ),
        (
            "sim.run_ns.heavy",
            2.5 * crate::stats::quantile(&cycles, 0.99),
        ),
    ];
    for (name, target) in targets {
        let mut class: Vec<(&Probe, f64)> = probes.iter().zip(cycles.iter().copied()).collect();
        class.sort_by(|a, b| (a.1 - target).abs().total_cmp(&(b.1 - target).abs()));
        class.truncate(CLASS_PROBES);
        let (lo, hi) = class
            .iter()
            .fold((f64::INFINITY, 0.0f64), |(lo, hi), (_, c)| {
                (lo.min(*c), hi.max(*c))
            });
        println!(
            "class {name}: target {target} cycles, {} probes of {lo}-{hi} cycles",
            class.len()
        );
        let calls = 64;
        for b in 0..32 {
            rec.time(name, Some(root), b, calls, || {
                for i in 0..calls as usize {
                    let p = class[(b as usize * calls as usize + i) % class.len()].0;
                    black_box(p.sim.run(p.duration));
                }
            });
        }
        m.push((name.into(), rec.ns_per_call(name), "ns"));
    }

    // Outage traces: battery state carried between a year's outages.
    let traced: Vec<(OutageSim, dcb_outage::OutageTrace)> = availability.ops[..REPLAY_INPUTS]
        .iter()
        .filter_map(|op| {
            let Op::Availability {
                workload,
                config,
                technique,
                seed,
            } = *op
            else {
                unreachable!("availability list holds availability ops")
            };
            let trace = OutageSampler::seeded(seed).sample_year();
            (!trace.is_empty()).then(|| {
                let sim = OutageSim::new(
                    availability.clusters[workload],
                    availability.configs[config].clone(),
                    availability.techniques[technique].clone(),
                );
                (sim, trace)
            })
        })
        .collect();
    let year = Seconds::from_hours(365.0 * 24.0);
    for (i, (sim, trace)) in traced.iter().enumerate() {
        rec.time(
            "sim.run_trace",
            Some(root),
            i as u64,
            trace.len() as u64,
            || sim.run_trace(trace, year),
        );
    }
    let (ns, outages) = rec.totals("sim.run_trace");
    m.push((
        "sim.run_trace_ns_per_outage".into(),
        ns / outages as f64,
        "ns",
    ));

    rec.close(root);
    m
}

/// Fleet dispatch and cache, `evaluate`, the sizing search and the
/// availability analysis.
fn fleet_and_core(
    rec: &mut Recorder,
    sizing: &Bench,
    availability: &Bench,
    seed: u64,
) -> Vec<Metric> {
    let root = rec.open("layer.fleet_core", None);
    let mut m = Vec::new();

    let items: Vec<u64> = (0..8).collect();
    for (name, threads) in [
        ("fleet.batch_overhead.t1", 1),
        ("fleet.batch_overhead.t2", 2),
    ] {
        let pool = FleetPool::with_threads(threads);
        for b in 0..400 {
            rec.time(name, Some(root), b, 1, || {
                pool.run_all(&items, |x| black_box(*x + 1))
            });
        }
    }
    m.push((
        "fleet.batch_overhead_ns.t1".into(),
        rec.ns_per_call("fleet.batch_overhead.t1"),
        "ns",
    ));
    m.push((
        "fleet.batch_overhead_ns.t2".into(),
        rec.ns_per_call("fleet.batch_overhead.t2"),
        "ns",
    ));

    // Cache miss (simulate and insert) then hit, on sizing probes.
    let probes = sizing_probes(sizing, seed);
    fleet::clear_cache();
    for (i, p) in probes.iter().enumerate() {
        rec.time("fleet.cache_miss", Some(root), i as u64, 1, || {
            fleet::evaluate_scenario(&p.scenario)
        });
        rec.time("fleet.cache_hit", Some(root), i as u64, 1, || {
            fleet::evaluate_scenario(&p.scenario)
        });
    }
    fleet::clear_cache();
    m.push((
        "fleet.cache_hit_ns".into(),
        rec.ns_per_call("fleet.cache_hit"),
        "ns",
    ));
    m.push((
        "fleet.cache_miss_ns".into(),
        rec.ns_per_call("fleet.cache_miss"),
        "ns",
    ));

    // `evaluate` against a bare kernel run of the same scenarios, in
    // alternating batches.
    let calls = 16;
    for b in 0..64 {
        let batch: Vec<&Probe> = (0..calls)
            .map(|i| &probes[(b * calls + i) % probes.len()])
            .collect();
        rec.time("core.evaluate", Some(root), b as u64, calls as u64, || {
            for p in &batch {
                let s = &p.scenario;
                black_box(dcb_core::evaluate::evaluate(
                    &s.cluster,
                    &s.config,
                    &s.technique,
                    s.duration,
                ));
            }
        });
        rec.time("sim.run", Some(root), b as u64, calls as u64, || {
            for p in &batch {
                black_box(p.sim.run(p.duration));
            }
        });
    }
    m.push((
        "core.evaluate_overhead_ns".into(),
        rec.ns_per_call("core.evaluate") - rec.ns_per_call("sim.run"),
        "ns",
    ));

    // Cold-cache sizing searches: probes, cache traffic and pool spawns.
    let searches = 100;
    let (mut hits, mut misses) = (0u64, 0u64);
    let [evals, wasted, spawned] = counting(
        [
            "core.evaluate.scenarios",
            "core.sizing.ceiling_infeasible",
            "fleet.pool.workers_spawned",
        ],
        || {
            for i in 0..searches {
                sizing.prepare();
                rec.time("core.sizing.search", Some(root), i as u64, 1, || {
                    sizing.run(&sizing.ops[i])
                });
                let stats = fleet::cache_stats();
                hits += stats.hits;
                misses += stats.misses;
            }
        },
    );
    let searches = searches as f64;
    m.push((
        "fleet.workers_spawned_per_op".into(),
        spawned / searches,
        "count",
    ));
    m.push((
        "fleet.cache_hit_ratio".into(),
        hits as f64 / (hits + misses) as f64,
        "frac",
    ));
    m.push((
        "core.sizing.evals_per_search".into(),
        evals / searches,
        "count",
    ));
    m.push((
        "core.sizing.ceiling_infeasible_frac".into(),
        wasted / (hits + misses) as f64,
        "frac",
    ));

    // Yearly availability, per sampled year.
    for (i, op) in availability.ops[..REPLAY_INPUTS / 2].iter().enumerate() {
        rec.time(
            "core.availability.analyze",
            Some(root),
            i as u64,
            YEARS_PER_OP as u64,
            || availability.run(op),
        );
    }
    let (ns, years) = rec.totals("core.availability.analyze");
    m.push((
        "core.availability.year_us".into(),
        ns / years as f64 / 1e3,
        "us",
    ));

    // Sampling one year of outages.
    let mut samplers: Vec<OutageSampler> = availability.ops[..REPLAY_INPUTS]
        .iter()
        .map(|op| match *op {
            Op::Availability { seed, .. } => OutageSampler::seeded(seed),
            _ => unreachable!("availability list holds availability ops"),
        })
        .collect();
    for b in 0..16 {
        rec.time(
            "outage.sample_year",
            Some(root),
            b,
            samplers.len() as u64,
            || {
                for s in &mut samplers {
                    black_box(s.sample_year());
                }
            },
        );
    }
    m.push((
        "outage.sample_year_ns".into(),
        rec.ns_per_call("outage.sample_year"),
        "ns",
    ));

    rec.close(root);
    m
}

/// The online controller and the two layers its stepped loop calls.
fn online_layers(rec: &mut Recorder, online: &Bench) -> Vec<Metric> {
    let root = rec.open("layer.online", None);
    let mut m = Vec::new();
    let ops = &online.ops[..REPLAY_INPUTS];

    // The controller's own loop: one `supply` per step of each outage.
    for (i, op) in ops.iter().enumerate() {
        let Op::Online {
            workload,
            config,
            duration_s,
        } = *op
        else {
            unreachable!("online list holds online ops")
        };
        let cluster = &online.clusters[workload];
        let mut system = online.configs[config].instantiate(cluster.peak_power());
        let step = Seconds::new((duration_s / 7200.0).max(0.25));
        let steps = (duration_s / step.value()).ceil() as u64;
        let load = cluster.peak_power() * 0.8;
        rec.time("power.supply", Some(root), i as u64, steps, || {
            for k in 0..steps {
                black_box(system.supply(load, step * k as f64, step));
            }
        });
    }
    m.push((
        "power.supply_ns".into(),
        rec.ns_per_call("power.supply"),
        "ns",
    ));

    // Predictor quantiles at elapsed times across each outage.
    let elapsed: Vec<Seconds> = ops
        .iter()
        .flat_map(|op| match *op {
            Op::Online { duration_s, .. } => [0.1, 0.5, 0.9].map(|f| Seconds::new(duration_s * f)),
            _ => unreachable!("online list holds online ops"),
        })
        .collect();
    let predictor = dcb_outage::DurationPredictor::fit(
        &OutageSampler::seeded(workloads::HISTORY_SEED).sample_years(workloads::HISTORY_YEARS),
    );
    batched(rec, "outage.remaining_quantile", root, &elapsed, 32, |t| {
        black_box(predictor.remaining_quantile(*t, 0.1));
    });
    m.push((
        "outage.remaining_quantile_ns".into(),
        rec.ns_per_call("outage.remaining_quantile"),
        "ns",
    ));

    let mut decisions = 0;
    let mut sim_hours = 0.0;
    for (i, op) in ops.iter().enumerate() {
        let out = rec.time("core.online.simulate", Some(root), i as u64, 1, || {
            online.run(op)
        });
        if let workloads::Output::Online(o) = out {
            decisions += o.decisions.len();
            sim_hours += o.outage.value() / 3600.0;
        }
    }
    let (ns, _) = rec.totals("core.online.simulate");
    m.push((
        "core.online.us_per_sim_hour".into(),
        ns / 1e3 / sim_hours,
        "us",
    ));
    m.push((
        "core.online.decisions_per_op".into(),
        decisions as f64 / ops.len() as f64,
        "count",
    ));

    rec.close(root);
    m
}

/// Topology resolution and spec parsing, and the disabled telemetry path.
fn other_layers(rec: &mut Recorder, facility: &Bench) -> Vec<Metric> {
    let root = rec.open("layer.other", None);
    let mut m = Vec::new();

    let (mut steps, mut leaf_sims) = (0u64, 0u64);
    let ops = &facility.ops[..REPLAY_INPUTS];
    for (i, op) in ops.iter().enumerate() {
        let out = rec.time("topology.resolve", Some(root), i as u64, 1, || {
            facility.run(op)
        });
        if let workloads::Output::Facility(Ok(o)) = out {
            steps += o.stats.resolved_nodes;
            leaf_sims += o.stats.distinct_leaf_sims;
        }
    }
    m.push((
        "topology.resolve_us".into(),
        rec.ns_per_call("topology.resolve") / 1e3,
        "us",
    ));
    m.push((
        "topology.node_steps_per_resolve".into(),
        steps as f64 / ops.len() as f64,
        "count",
    ));
    m.push((
        "topology.leaf_sims_per_resolve".into(),
        leaf_sims as f64 / ops.len() as f64,
        "count",
    ));
    for i in 0..64 {
        let _parsed = rec.time("topology.parse_spec", Some(root), i, 1, || {
            dcb_topology::parse_spec(FACILITY_SPEC)
        });
    }
    m.push((
        "topology.parse_spec_us".into(),
        rec.ns_per_call("topology.parse_spec") / 1e3,
        "us",
    ));

    dcb_telemetry::set_enabled(false);
    for b in 0..64 {
        rec.time(
            "telemetry.counter_disabled",
            Some(root),
            b,
            16 * BATCH as u64,
            || {
                for _ in 0..16 * BATCH {
                    dcb_telemetry::counter!("perfbench.disabled_probe").incr();
                }
            },
        );
    }
    m.push((
        "telemetry.counter_disabled_ns".into(),
        rec.ns_per_call("telemetry.counter_disabled"),
        "ns",
    ));

    rec.close(root);
    m
}

/// Alternates untraced and traced passes over `bench`'s list (spans per
/// op, telemetry on) until `seconds` have passed, then replays every
/// layer. `tally` collects every pass.
pub fn traced_run(
    bench: &Bench,
    seed: u64,
    seconds: f64,
    reference: Option<&Reference>,
    tally: &mut Tally,
) -> Vec<Metric> {
    let mut rec = Recorder::new();
    let (mut untraced, mut traced) = (Tally::default(), Tally::default());
    let start = Instant::now();
    while untraced.passes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        run_pass(bench, reference, &mut untraced, |_, _, _| {});
        let pass = rec.open("workload.pass", None);
        dcb_telemetry::set_enabled(true);
        run_pass(bench, reference, &mut traced, |index, start, end| {
            rec.push(bench.kind.name(), start, end, Some(pass), index as u64, 1);
        });
        dcb_telemetry::set_enabled(false);
        rec.close(pass);
    }
    let overhead = 1.0 - traced.throughput_ops_s() / untraced.throughput_ops_s();
    for t in [untraced, traced] {
        tally.attempted += t.attempted;
        tally.failed += t.failed;
        tally.passes.extend(t.passes);
    }

    let of = |kind: Kind| {
        if kind == bench.kind {
            None
        } else {
            Some(workloads::setup(kind, seed))
        }
    };
    let [sizing, availability, online, facility] = Kind::ALL.map(of);
    let sizing = sizing.as_ref().unwrap_or(bench);
    let availability = availability.as_ref().unwrap_or(bench);
    let online = online.as_ref().unwrap_or(bench);
    let facility = facility.as_ref().unwrap_or(bench);

    let mut metrics = kernel_layers(&mut rec, sizing, availability, seed);
    metrics.extend(fleet_and_core(&mut rec, sizing, availability, seed));
    metrics.extend(online_layers(&mut rec, online));
    metrics.extend(other_layers(&mut rec, facility));
    metrics.push(("bench.trace_overhead_frac".into(), overhead, "frac"));

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-seed{seed}.jsonl", bench.kind.name()));
    if let Err(why) = rec.write(&path) {
        eprintln!("perfbench: writing {}: {why}", path.display());
    }
    metrics
}
