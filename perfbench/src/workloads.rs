//! The four workloads: seeded op-list generators, the call each op times,
//! and the invariant checks and key outputs of every op's result.

use dcb_core::availability::{self, AvailabilityReport};
use dcb_core::fleet;
use dcb_core::online::{AdaptiveController, AdaptiveOutcome};
use dcb_core::sizing::{self, SizedPoint, SizingTargets};
use dcb_core::{BackupConfig, Cluster, Technique};
use dcb_outage::{DurationDistribution, DurationPredictor, OutageSampler};
use dcb_topology::{parse_spec, Topology, TopologyError, TopologyOutcome};
use dcb_units::Seconds;
use dcb_workload::Workload;

/// Ops in every workload's list. With at least this many timed ops per run,
/// at least ten samples lie beyond the p99.
pub const OPS_PER_LIST: usize = 1000;
/// Sampled years per `availability_year` op.
pub const YEARS_PER_OP: usize = 8;
/// Years of sampled outage history the online predictor is fitted on.
pub const HISTORY_YEARS: usize = 2000;
/// Seed of that history. It is fixed, like a controller trained once
/// before deployment: a seed-dependent fit would change the controller's
/// policy, and with it the cost of every op, from seed to seed.
pub const HISTORY_SEED: u64 = 0x5EED;
/// The committed heterogeneous facility that `facility_resolve` resolves.
pub const FACILITY_SPEC: &str = include_str!("../facility.topo");

/// The power fractions `min_cost_ups` searches over; a sized point must
/// sit on one of them.
const SIZING_POWER_FRACTIONS: [f64; 8] = [0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SizingSearch,
    AvailabilityYear,
    OnlineOutage,
    FacilityResolve,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::SizingSearch,
        Kind::AvailabilityYear,
        Kind::OnlineOutage,
        Kind::FacilityResolve,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::SizingSearch => "sizing_search",
            Kind::AvailabilityYear => "availability_year",
            Kind::OnlineOutage => "online_outage",
            Kind::FacilityResolve => "facility_resolve",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// SplitMix64: the benchmark's own generator, so op lists depend only on
/// the seed and this file.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One op's inputs. Indices point into the [`Bench`] tables.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Sizing {
        workload: usize,
        technique: usize,
        duration_s: f64,
    },
    Availability {
        workload: usize,
        config: usize,
        technique: usize,
        seed: u64,
    },
    Online {
        workload: usize,
        config: usize,
        duration_s: f64,
    },
    Facility {
        duration_s: f64,
    },
}

/// Per-stream seeds, so one workload's list never shifts another's.
fn stream(seed: u64, kind: Kind) -> u64 {
    seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ (kind as u64 + 1).wrapping_mul(0x9E37_79B9)
}

/// `0..n` in seeded random order (Fisher-Yates).
fn shuffled(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// A stratified design of `n` ops over `cells` categorical cells: every
/// cell gets `n / cells` ops (up to one), and within each cell a uniform
/// in `[0, 1)` with one draw per stratum. Returned as `(cell, u)` pairs in
/// random order. Every seed then covers the inputs the same way, so the
/// work in a list hardly moves from seed to seed.
fn stratified(rng: &mut Rng, n: usize, cells: usize) -> Vec<(usize, f64)> {
    let design: Vec<(usize, f64)> = (0..n)
        .map(|i| {
            let (cell, rank) = (i % cells, i / cells);
            let in_cell = n / cells + usize::from(cell < n % cells);
            (cell, (rank as f64 + rng.unit()) / in_cell as f64)
        })
        .collect();
    shuffled(rng, n).into_iter().map(|i| design[i]).collect()
}

fn log_uniform(u: f64, lo: f64, hi: f64) -> f64 {
    (lo.ln() + (hi.ln() - lo.ln()) * u).exp()
}

/// The op list of `kind` for `seed`: a pure function of both.
pub fn generate(kind: Kind, seed: u64) -> Vec<Op> {
    let mut rng = Rng::new(stream(seed, kind));
    let n = OPS_PER_LIST;
    let workloads = Workload::paper_suite().len();
    let techniques = Technique::catalog().len();
    match kind {
        // Every catalog technique but the crash baseline (index 0), which
        // `technique_tradeoffs` never sizes.
        Kind::SizingSearch => stratified(&mut rng, n, workloads * (techniques - 1))
            .into_iter()
            .map(|(cell, u)| Op::Sizing {
                workload: cell / (techniques - 1),
                technique: 1 + cell % (techniques - 1),
                duration_s: log_uniform(u, 30.0, 7200.0),
            })
            .collect(),
        Kind::AvailabilityYear => {
            let configs = BackupConfig::table3().len();
            stratified(&mut rng, n, workloads * configs * techniques)
                .into_iter()
                .map(|(cell, _)| Op::Availability {
                    workload: cell / (configs * techniques),
                    config: cell / techniques % configs,
                    technique: cell % techniques,
                    seed: rng.next_u64(),
                })
                .collect()
        }
        // Durations follow the US-business distribution through its
        // quantile function.
        Kind::OnlineOutage => {
            let configs = ups_configs().len();
            let durations = DurationDistribution::us_business();
            stratified(&mut rng, n, workloads * configs)
                .into_iter()
                .map(|(cell, u)| Op::Online {
                    workload: cell / configs,
                    config: cell % configs,
                    duration_s: durations.quantile(u).value(),
                })
                .collect()
        }
        Kind::FacilityResolve => stratified(&mut rng, n, 1)
            .into_iter()
            .map(|(_, u)| Op::Facility {
                duration_s: log_uniform(u, 20.0, 3.0 * 3600.0),
            })
            .collect(),
    }
}

/// Table-3 configurations that have a UPS for the online controller to
/// manage.
pub fn ups_configs() -> Vec<BackupConfig> {
    BackupConfig::table3()
        .into_iter()
        .filter(|c| c.ups_power().value() > 0.0 && c.ups_runtime().value() > 0.0)
        .collect()
}

/// A workload ready to run: its op list and everything the ops share.
pub struct Bench {
    pub kind: Kind,
    pub ops: Vec<Op>,
    pub clusters: Vec<Cluster>,
    pub techniques: Vec<Technique>,
    pub configs: Vec<BackupConfig>,
    pub controller: Option<AdaptiveController>,
    pub topology: Option<Topology>,
}

/// Builds `kind`'s inputs for `seed`: the op list, the tables the ops
/// index, the fitted predictor (online) and the parsed facility (facility).
pub fn setup(kind: Kind, seed: u64) -> Bench {
    let ops = generate(kind, seed);
    let controller = (kind == Kind::OnlineOutage).then(|| {
        let history = OutageSampler::seeded(HISTORY_SEED).sample_years(HISTORY_YEARS);
        AdaptiveController::new(DurationPredictor::fit(&history))
    });
    let topology = (kind == Kind::FacilityResolve)
        .then(|| parse_spec(FACILITY_SPEC).expect("the committed facility spec parses"));
    Bench {
        kind,
        ops,
        clusters: Workload::paper_suite()
            .into_iter()
            .map(Cluster::rack)
            .collect(),
        techniques: Technique::catalog(),
        configs: match kind {
            Kind::OnlineOutage => ups_configs(),
            _ => BackupConfig::table3(),
        },
        controller,
        topology,
    }
}

/// What one op returned.
#[derive(Debug)]
pub enum Output {
    Sizing(Option<SizedPoint>),
    Availability(AvailabilityReport),
    Online(AdaptiveOutcome),
    Facility(Result<TopologyOutcome, TopologyError>),
}

/// One key output of an op, compared against the committed reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Key {
    Flag(bool),
    Count(u64),
    Real(f64),
}

/// Relative tolerance for scalar key outputs against the reference.
pub const REL_TOL: f64 = 1e-6;

impl Key {
    pub fn encode(self) -> String {
        match self {
            Key::Flag(b) => format!("b{}", u8::from(b)),
            Key::Count(n) => format!("c{n}"),
            Key::Real(x) => format!("r{x:e}"),
        }
    }

    pub fn decode(token: &str) -> Option<Key> {
        let (tag, body) = token.split_at_checked(1)?;
        match tag {
            "b" => match body {
                "0" => Some(Key::Flag(false)),
                "1" => Some(Key::Flag(true)),
                _ => None,
            },
            "c" => body.parse().ok().map(Key::Count),
            "r" => body.parse().ok().map(Key::Real),
            _ => None,
        }
    }

    /// Flags and counts exactly; reals within [`REL_TOL`].
    pub fn matches(self, expected: Key) -> bool {
        match (self, expected) {
            (Key::Flag(a), Key::Flag(b)) => a == b,
            (Key::Count(a), Key::Count(b)) => a == b,
            (Key::Real(a), Key::Real(b)) => {
                a == b || (a - b).abs() <= REL_TOL * a.abs().max(b.abs())
            }
            _ => false,
        }
    }
}

impl Bench {
    /// Untimed per-op preparation: sizing ops start from a cold cache.
    pub fn prepare(&self) {
        if self.kind == Kind::SizingSearch {
            fleet::clear_cache();
        }
    }

    /// The timed call of one op.
    pub fn run(&self, op: &Op) -> Output {
        match *op {
            Op::Sizing {
                workload,
                technique,
                duration_s,
            } => Output::Sizing(sizing::min_cost_ups(
                &self.clusters[workload],
                &self.techniques[technique],
                Seconds::new(duration_s),
                &SizingTargets::execute_to_plan(),
            )),
            Op::Availability {
                workload,
                config,
                technique,
                seed,
            } => Output::Availability(availability::analyze(
                &self.clusters[workload],
                &self.configs[config],
                &self.techniques[technique],
                YEARS_PER_OP,
                seed,
            )),
            Op::Online {
                workload,
                config,
                duration_s,
            } => Output::Online(
                self.controller
                    .as_ref()
                    .expect("online workload has a controller")
                    .simulate(
                        &self.clusters[workload],
                        &self.configs[config],
                        Seconds::new(duration_s),
                    ),
            ),
            Op::Facility { duration_s } => Output::Facility(dcb_topology::resolve(
                self.topology
                    .as_ref()
                    .expect("facility workload has a topology"),
                Seconds::new(duration_s),
            )),
        }
    }

    /// Checks op `index`'s output against its invariants and returns its
    /// key outputs, or the first violated invariant.
    pub fn check(&self, index: usize, output: &Output) -> Result<Vec<Key>, String> {
        let ensure = |ok: bool, what: &str| {
            if ok {
                Ok(())
            } else {
                Err(format!("{} op {index}: {what}", self.kind.name()))
            }
        };
        match (&self.ops[index], output) {
            (Op::Sizing { duration_s, .. }, Output::Sizing(point)) => {
                let Some(point) = point else {
                    return Ok(vec![Key::Flag(false)]);
                };
                let p = &point.performability;
                ensure(
                    SizingTargets::execute_to_plan().satisfied_by(p),
                    "sized point misses its targets",
                )?;
                ensure(
                    p.outcome.outage.value() == *duration_s,
                    "sized point evaluated at another duration",
                )?;
                let power = point.config.ups_power().value();
                ensure(
                    SIZING_POWER_FRACTIONS.contains(&power),
                    "UPS power off the search grid",
                )?;
                ensure(p.cost > 0.0 && p.cost.is_finite(), "cost not positive")?;
                Ok(vec![
                    Key::Flag(true),
                    Key::Real(power),
                    Key::Real(point.config.ups_runtime().value()),
                    Key::Real(p.cost),
                    Key::Real(p.outcome.downtime.expected.value()),
                    Key::Real(p.outcome.perf_during_outage.value()),
                ])
            }
            (Op::Availability { .. }, Output::Availability(r)) => {
                let a = r.mean_availability.value();
                ensure((0.0..=1.0).contains(&a), "availability outside [0,1]")?;
                ensure(
                    (0.0..=1.0).contains(&r.state_loss_rate),
                    "more state losses than outages",
                )?;
                ensure(r.years == YEARS_PER_OP, "wrong number of sampled years")?;
                ensure(
                    r.mean_yearly_downtime.value() >= 0.0 && r.p95_yearly_downtime.value() >= 0.0,
                    "negative downtime",
                )?;
                Ok(vec![
                    Key::Count(r.outages as u64),
                    Key::Real(a),
                    Key::Real(r.mean_yearly_downtime.value()),
                    Key::Real(r.state_loss_rate),
                    Key::Real(r.mean_yearly_battery_cycles),
                ])
            }
            (Op::Online { duration_s, .. }, Output::Online(o)) => {
                let perf = o.perf_during_outage.value();
                ensure((0.0..=1.0).contains(&perf), "perf outside [0,1]")?;
                ensure(o.outage.value() == *duration_s, "wrong outage length")?;
                ensure(!o.decisions.is_empty(), "no decisions")?;
                ensure(
                    o.decisions.windows(2).all(|w| w[0].at <= w[1].at)
                        && o.decisions
                            .iter()
                            .all(|d| d.at.value() >= 0.0 && d.at.value() <= *duration_s),
                    "decisions not time-ordered within the outage",
                )?;
                ensure(
                    o.downtime.min <= o.downtime.expected && o.downtime.expected <= o.downtime.max,
                    "downtime range out of order",
                )?;
                Ok(vec![
                    Key::Flag(o.state_lost),
                    Key::Count(o.decisions.len() as u64),
                    Key::Real(perf),
                    Key::Real(o.downtime.expected.value()),
                ])
            }
            (Op::Facility { .. }, Output::Facility(result)) => {
                let outcome = result
                    .as_ref()
                    .map_err(|e| format!("facility_resolve op {index}: {e}"))?;
                let servers = self
                    .topology
                    .as_ref()
                    .expect("facility workload has a topology")
                    .root
                    .servers();
                let s = &outcome.stats;
                ensure(s.shed_servers <= servers, "shed more servers than demand")?;
                ensure(
                    s.served_servers + s.browned_out_servers + s.shed_servers == servers,
                    "served + browned out + shed != servers",
                )?;
                ensure(
                    outcome.levels.iter().all(|l| l.shed_servers <= l.servers),
                    "a level shed more than its demand",
                )?;
                let perf = outcome.aggregate.perf_during_outage.value();
                ensure((0.0..=1.0).contains(&perf), "perf outside [0,1]")?;
                Ok(vec![
                    Key::Count(s.shed_servers),
                    Key::Count(s.browned_out_servers),
                    Key::Flag(outcome.aggregate.state_lost),
                    Key::Real(perf),
                    Key::Real(outcome.aggregate.downtime.expected.value()),
                ])
            }
            _ => Err(format!(
                "{} op {index}: output of another workload",
                self.kind.name()
            )),
        }
    }
}
