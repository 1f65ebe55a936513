//! The simulation path: campaign spec → channel → Gen-2 rounds → fold.
//!
//! `campaign-moving` runs the `standard` preset's moving deployments
//! (portal grid, conveyor farm, retail exit); `campaign-dense` runs
//! static hospital pallets with 120 coupled tags in one read zone.
//! Every cycle runs one instance of each deployment, so a run that stops
//! after any cycle has the same mix. The cycle is the unit the latency
//! metrics sample: its instances differ in cost several times over, so a
//! median over instances would land wherever the mix's middle falls.

use crate::report::{Metric, Outcome};
use crate::stats::{median, tail};
use crate::sys;
use crate::trace::Trace;
use rfid_experiments::campaign::{run_instance, CampaignAccumulator, CampaignState};
use rfid_sim::{
    counters, mix64, run_scenario_reference, run_scenario_with, run_single_round_with,
    CampaignSpec, CompiledInstance, CountersSnapshot, Deployment, DeploymentKind, PortalChannel,
    RngStream, ScenarioCache, ScenarioCompiler, SimOutput, TrialExecutor,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Which campaign workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Every tag moves: geometry is evaluated per instant.
    Moving,
    /// Dense static pallets: geometry is hoisted, Gen-2 does the work.
    Dense,
}

/// Seed of the deployments' procedural geometry. Every cycle compiles
/// the same instance of each deployment, so every cycle is the same
/// amount of work: geometry jitter changes how much work an instance
/// is, and across seeds it spread objects/s by about three times the
/// run-to-run noise. The benchmark seed and the cycle re-seed the
/// trials instead.
const GEOMETRY_SEED: u64 = 2007;

/// The workload's campaign spec.
fn spec(kind: Kind) -> CampaignSpec {
    let deployment = |name: &str, kind, trials_per_instance| Deployment {
        name: name.to_owned(),
        kind,
        instances: 1,
        trials_per_instance,
    };
    let deployments = match kind {
        // The `standard` preset's moving deployments, unchanged.
        Kind::Moving => vec![
            deployment(
                "portal-grid",
                DeploymentKind::PortalGrid {
                    portals_x: 3,
                    portals_y: 2,
                    antennas_per_portal: 2,
                    tags_per_pass: 12,
                },
                25,
            ),
            deployment(
                "conveyor-farm",
                DeploymentKind::ConveyorFarm {
                    lines: 3,
                    totes_per_line: 3,
                    tags_per_tote: 4,
                    belt_speed_mps: 0.8,
                },
                25,
            ),
            deployment(
                "retail-exit",
                DeploymentKind::RetailExit {
                    lanes: 2,
                    shoppers: 6,
                    tags_per_shopper: 2,
                },
                25,
            ),
        ],
        // The `fleet` preset's hospital pallets: 2 x 60 tags at 50 mm
        // pitch in front of one two-port portal.
        Kind::Dense => vec![deployment(
            "hospital-pallet",
            DeploymentKind::HospitalPallet {
                pallets: 2,
                tags_per_pallet: 60,
            },
            40,
        )],
    };
    CampaignSpec {
        seed: GEOMETRY_SEED,
        deployments,
    }
}

/// Compiles deployment `deployment` for cycle `cycle`, with its trial
/// seeds drawn from the benchmark `seed` and the cycle.
fn compile(
    spec: &CampaignSpec,
    seed: u64,
    cycle: u32,
    deployment: usize,
) -> Option<CompiledInstance> {
    let mut instance = ScenarioCompiler::starting_at(spec, deployment as u64).next()?;
    instance.base_seed = mix64(instance.base_seed ^ seed ^ mix64(u64::from(cycle)));
    Some(instance)
}

/// Builds the spec, compiles the first instance and runs one warm-up
/// trial: what a campaign pays before its first timed instance.
fn set_up(kind: Kind, seed: u64) -> Duration {
    let start = Instant::now();
    let spec = spec(kind);
    if let Some(first) = compile(&spec, seed, 0, 0) {
        let cache = ScenarioCache::new(&first.scenario);
        black_box(run_scenario_with(&first.scenario, &cache, first.base_seed));
    }
    start.elapsed()
}

/// The checks every instance passes: the accumulator holds exactly the
/// instance's trials, and one sampled trial of the memoized path equals
/// `run_scenario_reference` bit for bit.
fn check_instance(instance: &CompiledInstance, acc: &CampaignAccumulator, outcome: &mut Outcome) {
    outcome.check(acc.trials == instance.trials && acc.objects == instance.tags * instance.trials);
    let k = mix64(instance.base_seed) % instance.trials.max(1);
    let seed = instance.base_seed.wrapping_add(k);
    let cache = ScenarioCache::new(&instance.scenario);
    let fast = run_scenario_with(&instance.scenario, &cache, seed);
    outcome.check(fast == run_scenario_reference(&instance.scenario, seed));
}

/// What the untraced path measured.
struct Pass {
    state: CampaignState,
    cycles: u32,
    objects: u64,
    timed_s: f64,
    instances: usize,
    /// Per cycle, its wall time: one instance of each deployment.
    cycle_ms: Vec<f64>,
    /// Per cycle, its wall time over its trials.
    trial_ms: Vec<f64>,
    /// Process CPU seconds inside the timed spans (`NaN` when the
    /// platform does not report it).
    cpu_s: f64,
}

impl Pass {
    fn new(spec: &CampaignSpec) -> Self {
        Self {
            state: CampaignState::new(spec),
            cycles: 0,
            objects: 0,
            timed_s: 0.0,
            instances: 0,
            cycle_ms: Vec::new(),
            trial_ms: Vec::new(),
            cpu_s: 0.0,
        }
    }

    /// One cycle through `run_instance`, each instance checked outside
    /// its timed span.
    fn run_cycle(
        &mut self,
        spec: &CampaignSpec,
        seed: u64,
        executor: &TrialExecutor,
        outcome: &mut Outcome,
    ) {
        let (mut cycle_s, mut cycle_trials) = (0.0, 0);
        for deployment in 0..spec.deployments.len() {
            let cpu_before = sys::cpu_seconds();
            let start = Instant::now();
            let Some(instance) = compile(spec, seed, self.cycles, deployment) else {
                outcome.check(false);
                continue;
            };
            let acc = run_instance(executor, &instance);
            self.state.apply_instance(instance.deployment, &acc);
            let took = start.elapsed().as_secs_f64();
            self.cpu_s += match (cpu_before, sys::cpu_seconds()) {
                (Some(a), Some(b)) => b - a,
                _ => f64::NAN,
            };
            self.timed_s += took;
            self.objects += acc.objects;
            self.instances += 1;
            cycle_s += took;
            cycle_trials += acc.trials;
            check_instance(&instance, &acc, outcome);
        }
        self.cycle_ms.push(cycle_s * 1e3);
        self.trial_ms
            .push(cycle_s * 1e3 / cycle_trials.max(1) as f64);
        self.cycles += 1;
    }

    /// Process CPU time over wall time times cores, in the timed spans.
    fn cpu_util(&self) -> f64 {
        self.cpu_s / (self.timed_s * sys::nproc() as f64)
    }
}

/// Gen-2 tallies from `SimOutput.rounds`.
#[derive(Debug, Clone, Copy, Default)]
struct Gen2 {
    trials: u64,
    rounds: u64,
    slots: u64,
    reads: u64,
    collisions: u64,
}

impl Gen2 {
    fn add(&mut self, output: &SimOutput) {
        self.trials += 1;
        for round in &output.rounds {
            self.rounds += 1;
            self.slots += u64::from(round.slots);
            self.reads += u64::from(round.reads);
            self.collisions += u64::from(round.collisions);
        }
    }

    fn merge(&mut self, other: &Gen2) {
        self.trials += other.trials;
        self.rounds += other.rounds;
        self.slots += other.slots;
        self.reads += other.reads;
        self.collisions += other.collisions;
    }
}

/// The traced fold's accumulator: the campaign accumulator plus the
/// per-trial spans and Gen-2 tallies, merged in the same block order as
/// `run_instance` merges.
struct TracedAcc {
    acc: CampaignAccumulator,
    trials: Vec<(Instant, Instant)>,
    folds: Vec<(Instant, Instant)>,
    gen2: Gen2,
}

/// `run_instance` with a span around every public call it makes:
/// `ScenarioCache::new`, `run_scenario_with` per trial and
/// `CampaignAccumulator::fold_trial`, folded through
/// `TrialExecutor::run_fold` in `run_instance`'s block order.
fn traced_instance(
    executor: &TrialExecutor,
    instance: &CompiledInstance,
    trace: &mut Trace,
    parent: usize,
) -> (CampaignAccumulator, Gen2) {
    let scenario = &instance.scenario;
    let cache = trace.time("sim.cache_build", Some(parent), || {
        ScenarioCache::new(scenario)
    });
    let tags = instance.tags;
    let base = instance.base_seed;
    let folded = executor.run_fold(
        instance.trials,
        || TracedAcc {
            acc: CampaignAccumulator::new(),
            trials: Vec::new(),
            folds: Vec::new(),
            gen2: Gen2::default(),
        },
        |mut t, i| {
            let start = Instant::now();
            let output = run_scenario_with(scenario, &cache, base.wrapping_add(i));
            let simulated = Instant::now();
            t.acc.fold_trial(&output, tags);
            t.trials.push((start, simulated));
            t.folds.push((simulated, Instant::now()));
            t.gen2.add(&output);
            t
        },
        |mut a, b| {
            a.acc.merge(&b.acc);
            a.trials.extend(b.trials);
            a.folds.extend(b.folds);
            a.gen2.merge(&b.gen2);
            a
        },
    );
    for &(start, end) in &folded.trials {
        trace.record("sim.trial", start, end, Some(parent));
    }
    for &(start, end) in &folded.folds {
        trace.record("stats.fold", start, end, Some(parent));
    }
    (folded.acc, folded.gen2)
}

/// Median nanoseconds per `link_report` call over every tag at a few
/// instants, with and without the channel's memo layers.
fn link_probe(instance: &CompiledInstance, trace: &mut Trace) {
    let scenario = &instance.scenario;
    let cache = ScenarioCache::new(scenario);
    let world = &scenario.world;
    for memo in [true, false] {
        for k in 0..4u32 {
            let t = scenario.duration_s * (f64::from(k) + 0.5) / 4.0;
            let channel = PortalChannel::with_cache(
                world,
                0,
                0,
                &scenario.channel,
                RngStream::new(instance.base_seed),
                &cache,
            );
            let channel = if memo {
                channel
            } else {
                channel.without_memo()
            };
            let name = if memo {
                "phys.link_report"
            } else {
                "phys.link_report_nomemo"
            };
            for tag in 0..world.tags.len() {
                trace.time(name, None, || black_box(channel.link_report(tag, t)));
            }
        }
    }
    for k in 0..8u32 {
        let t = scenario.duration_s * (f64::from(k) + 0.5) / 8.0;
        trace.time("gen2.round", None, || {
            black_box(run_single_round_with(
                scenario,
                &cache,
                0,
                0,
                t,
                instance.base_seed.wrapping_add(u64::from(k)),
            ))
        });
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Runs a campaign workload and fills `outcome`.
pub fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    traced: bool,
    outcome: &mut Outcome,
) -> Option<Trace> {
    let spec = spec(kind);
    outcome.meta_str("spec_digest", &format!("{:016x}", spec.digest()));
    let executor = TrialExecutor::new();
    let mut plain = Pass::new(&spec);
    let wall = Instant::now();
    if !traced {
        // One set-up per instance, interleaved with the cycles, so the
        // reported median sees the same host conditions as the
        // throughput does. A set-up is a few per cent of an instance.
        let mut setups = vec![set_up(kind, seed).as_secs_f64()];
        while plain.cycles == 0 || wall.elapsed().as_secs_f64() < seconds {
            plain.run_cycle(&spec, seed, &executor, outcome);
            for _ in 0..spec.deployments.len() {
                setups.push(set_up(kind, seed).as_secs_f64());
            }
        }
        report_untraced(&plain, &setups, outcome);
        let digest = plain.state.digest();
        outcome.meta_str("campaign_digest", &format!("{digest:016x}"));
        return None;
    }

    // Traced run: every cycle runs untraced, then again with spans, so
    // both rates see the same host conditions; both passes must reach
    // the same state.
    let mut trace = Trace::new(Instant::now());
    let mut state = CampaignState::new(&spec);
    let mut objects = 0u64;
    let mut timed_s = 0.0;
    let mut first_cycle = Vec::new();
    let mut gen2 = Gen2::default();
    let mut sim_counts = CountersSnapshot::default();
    while plain.cycles == 0 || wall.elapsed().as_secs_f64() < seconds {
        let cycle = plain.cycles;
        plain.run_cycle(&spec, seed, &executor, outcome);
        let before = counters::snapshot();
        for deployment in 0..spec.deployments.len() {
            let start = Instant::now();
            let span = trace.open("campaign.instance", None);
            let compiled = trace.time("sim.compile", Some(span), || {
                compile(&spec, seed, cycle, deployment)
            });
            let Some(instance) = compiled else {
                outcome.check(false);
                continue;
            };
            let (acc, counts) = traced_instance(&executor, &instance, &mut trace, span);
            state.apply_instance(instance.deployment, &acc);
            trace.close(span);
            timed_s += start.elapsed().as_secs_f64();
            objects += acc.objects;
            if cycle == 0 {
                gen2.merge(&counts);
                first_cycle.push(instance);
            }
        }
        if cycle == 0 {
            sim_counts = counters::snapshot().since(&before);
        }
    }
    outcome.check(state.digest() == plain.state.digest());
    outcome.meta_str("campaign_digest", &format!("{:016x}", state.digest()));
    for instance in &first_cycle {
        link_probe(instance, &mut trace);
    }

    let scaled = |name: &str, scale: f64| -> Vec<f64> {
        trace
            .durations_ns(name)
            .into_iter()
            .map(|ns| ns * scale)
            .collect()
    };
    let trial_ms = scaled("sim.trial", 1e-6);
    let s = sim_counts;
    let per = |name, num, den, unit| Metric::new(name, ratio(num, den), unit, den as usize);
    let m = &mut outcome.metrics;
    m.push(Metric::median(
        "sim.compile_ms",
        &scaled("sim.compile", 1e-6),
        "ms",
    ));
    m.push(Metric::median(
        "sim.cache_build_ms",
        &scaled("sim.cache_build", 1e-6),
        "ms",
    ));
    m.push(Metric::at("sim.trial_ms.p50", &trial_ms, 50, "ms"));
    m.push(Metric::at("sim.trial_ms.p99", &trial_ms, 99, "ms"));
    m.push(Metric::new(
        "sim.cpu_util",
        plain.cpu_util(),
        "ratio",
        plain.instances,
    ));
    let link_queries = s.link_memo_hits + s.link_evals;
    let geometry_queries = s.geometry_cache_hits + s.geometry_evals;
    m.push(per(
        "sim.link_evals_per_trial",
        s.link_evals,
        s.trials,
        "count",
    ));
    m.push(per(
        "sim.link_memo_hit_ratio",
        s.link_memo_hits,
        link_queries,
        "ratio",
    ));
    m.push(per(
        "sim.geometry_evals_per_trial",
        s.geometry_evals,
        s.trials,
        "count",
    ));
    m.push(per(
        "sim.geometry_hit_ratio",
        s.geometry_cache_hits,
        geometry_queries,
        "ratio",
    ));
    m.push(Metric::median(
        "phys.link_report_ns",
        &scaled("phys.link_report", 1.0),
        "ns",
    ));
    let nomemo = scaled("phys.link_report_nomemo", 1.0);
    m.push(Metric::median("phys.link_report_nomemo_ns", &nomemo, "ns"));
    m.push(per(
        "gen2.rounds_per_trial",
        gen2.rounds,
        gen2.trials,
        "count",
    ));
    m.push(per(
        "gen2.slots_per_round",
        gen2.slots,
        gen2.rounds,
        "count",
    ));
    m.push(per("gen2.success_ratio", gen2.reads, gen2.slots, "ratio"));
    m.push(per(
        "gen2.collision_ratio",
        gen2.collisions,
        gen2.slots,
        "ratio",
    ));
    m.push(Metric::median(
        "gen2.round_us",
        &scaled("gen2.round", 1e-3),
        "us",
    ));
    m.push(Metric::median(
        "stats.fold_us",
        &scaled("stats.fold", 1e-3),
        "us",
    ));
    let bytes = state.state_bytes() as f64;
    m.push(Metric::new("stats.state_bytes", bytes, "bytes", 1));
    let traced_rate = objects as f64 / timed_s;
    let plain_rate = plain.objects as f64 / plain.timed_s;
    m.push(Metric::new(
        "trace.overhead_ratio",
        plain_rate / traced_rate,
        "ratio",
        2,
    ));
    Some(trace)
}

fn report_untraced(pass: &Pass, setups: &[f64], outcome: &mut Outcome) {
    let m = &mut outcome.metrics;
    m.push(Metric::new("setup_s", median(setups), "s", setups.len()));
    // Every cycle folds the same number of objects; over the median
    // cycle, so a stall of the host for a cycle or two does not move it.
    let objects_per_cycle = pass.objects as f64 / f64::from(pass.cycles);
    let throughput = objects_per_cycle / (median(&pass.cycle_ms) / 1e3);
    m.push(Metric::percentile(
        "throughput_per_s",
        throughput,
        "1/s",
        50,
        pass.cycle_ms.len(),
    ));
    m.push(Metric::median("item_p50_ms", &pass.trial_ms, "ms"));
    m.push(Metric::tail("item_tail_ms", tail(&pass.trial_ms), "ms"));
    m.push(Metric::median("request_p50_ms", &pass.cycle_ms, "ms"));
    m.push(Metric::tail("request_tail_ms", tail(&pass.cycle_ms), "ms"));
    let rss = sys::peak_rss_mb().unwrap_or(f64::NAN);
    m.push(Metric::new("peak_rss_mb", rss, "MiB", 1));
    outcome.meta_f64("cycles", f64::from(pass.cycles));
    outcome.meta_f64("cpu_util", pass.cpu_util());
}
