//! Two harnesses for one workload flow.
//!
//! [`Plain`] goes through `Simulation`'s public entry points and only
//! keeps the end-to-end time buckets. [`Traced`] drives the step loop from
//! outside — `world.clock.tick()`, `StepContext::reset`, then
//! `StepPhase::execute` for each phase `PhaseRegistry::instantiate` builds
//! from `spec.phases()` — and records a span around every call into a
//! layer, plus counters read from public world state around each phase
//! call. Both must produce the same reports.

use crate::alloc;
use crate::calib::{self, Reference};
use crate::metrics::vm_hwm_mb;
use crate::trace::Tracer;
use collabsim::{
    AdversaryRegistry, PhaseRegistry, ScenarioSpec, SimWorld, Simulation, SimulationReport,
    Snapshot, StepContext, StepPhase,
};
use std::time::{Duration, Instant};

/// Host time and simulated steps in each end-to-end bucket.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// `ScenarioSpec::parse` plus world construction.
    pub setup: Duration,
    /// Training and evaluation steps.
    pub stepping: Duration,
    /// Steps simulated.
    pub steps: u64,
    /// Checkpoint round trips: capture (or fork), encode, decode, rebuild
    /// from the embedded spec, apply.
    pub resume: Duration,
}

/// The calls a workload flow makes into the simulator.
pub trait Harness {
    /// A runnable simulation.
    type Sim;
    /// Parses a spec text and constructs its world.
    fn build(&mut self, text: &str) -> Result<(ScenarioSpec, Self::Sim), String>;
    /// Runs the training phase from step 0.
    fn train(&mut self, sim: &mut Self::Sim);
    /// Captures a checkpoint.
    fn capture(&mut self, sim: &Self::Sim, spec: &ScenarioSpec) -> Snapshot;
    /// Forks a checkpoint onto another spec (`Snapshot::with_spec`).
    fn fork(&mut self, base: &Snapshot, spec: &ScenarioSpec) -> Snapshot;
    /// Encodes a checkpoint.
    fn encode(&mut self, snapshot: &Snapshot) -> Vec<u8>;
    /// Decodes a checkpoint.
    fn decode(&mut self, bytes: &[u8]) -> Result<Snapshot, String>;
    /// Rebuilds a simulation from a checkpoint's embedded spec and applies
    /// the checkpoint.
    fn resume(&mut self, snapshot: &Snapshot) -> Result<Self::Sim, String>;
    /// Runs the rest of the protocol and builds the report.
    fn finish(&mut self, sim: &mut Self::Sim) -> SimulationReport;
    /// The simulation's world.
    fn world<'a>(&self, sim: &'a Self::Sim) -> &'a SimWorld;
    /// The time buckets so far.
    fn totals(&self) -> Totals;
    /// Marks the start of an operation (a cell or a fork).
    fn begin_op(&mut self, _label: &str) {}
    /// Marks the end of the operation.
    fn end_op(&mut self) {}
}

/// The pieces of one untraced pass, in the order the pass timed them, each
/// in seconds at the reference host speed (see [`crate::calib`]). Every
/// pass of a run runs the same plan, so the k-th entry of one pass timed
/// the same work as the k-th entry of any other.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// Each world built from spec text: parse plus construction.
    pub builds: Vec<f64>,
    /// Each stepping block as (simulated steps, seconds). A block is a
    /// tenth of a training or evaluation stretch, or the evaluation reset or
    /// the report build (0 steps).
    pub blocks: Vec<(u64, f64)>,
    /// Each call of a checkpoint round trip: capture (or fork), encode,
    /// decode, and rebuild plus apply.
    pub checkpoint_calls: Vec<f64>,
}

/// Drives `Simulation` through its public entry points: `from_spec`,
/// `step`, `snapshot`, `resume_from`, `reset_for_evaluation`.
#[derive(Debug, Default)]
pub struct Plain {
    totals: Totals,
    reference: Reference,
    /// The builds, stepping blocks and checkpoint calls so far.
    pub samples: Samples,
}

impl Plain {
    /// Times `f` right after a call of the reference kernel: its host time
    /// and that time at the reference host speed.
    fn timed<T>(&mut self, f: impl FnOnce() -> T) -> (T, Duration, f64) {
        let kernel = self.reference.seconds();
        let started = Instant::now();
        let out = f();
        let elapsed = started.elapsed();
        let at_reference = calib::at_reference(elapsed.as_secs_f64(), kernel);
        (out, elapsed, at_reference)
    }

    /// Times one stepping block of `steps` steps.
    fn block<T>(&mut self, steps: u64, f: impl FnOnce() -> T) -> T {
        let (out, elapsed, at_reference) = self.timed(f);
        self.totals.steps += steps;
        self.totals.stepping += elapsed;
        self.samples.blocks.push((steps, at_reference));
        out
    }

    /// Times one call of a checkpoint round trip.
    fn checkpoint_call<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (out, elapsed, at_reference) = self.timed(f);
        self.totals.resume += elapsed;
        self.samples.checkpoint_calls.push(at_reference);
        out
    }

    /// Makes `steps` steps with `step`, timing each tenth as a block.
    fn stepping(&mut self, sim: &mut Simulation, steps: u64, step: impl Fn(&mut Simulation)) {
        let block = steps.div_ceil(10);
        let mut done = 0;
        while done < steps {
            let n = block.min(steps - done);
            self.block(n, || {
                for _ in 0..n {
                    step(sim);
                }
            });
            done += n;
        }
    }
}

impl Harness for Plain {
    type Sim = Simulation;

    fn build(&mut self, text: &str) -> Result<(ScenarioSpec, Simulation), String> {
        let (built, elapsed, at_reference) = self.timed(|| {
            let spec = ScenarioSpec::parse(text).map_err(|e| e.to_string())?;
            let sim = Simulation::from_spec(&spec).map_err(|e| e.to_string())?;
            Ok((spec, sim))
        });
        self.totals.setup += elapsed;
        self.samples.builds.push(at_reference);
        built
    }

    /// `Simulation::run_training`, in timed tenths.
    fn train(&mut self, sim: &mut Simulation) {
        let phases = sim.config().phases;
        self.stepping(sim, phases.training_steps, |sim| {
            sim.step(phases.training_temperature)
        });
    }

    fn capture(&mut self, sim: &Simulation, spec: &ScenarioSpec) -> Snapshot {
        self.checkpoint_call(|| sim.snapshot(spec))
    }

    fn fork(&mut self, base: &Snapshot, spec: &ScenarioSpec) -> Snapshot {
        self.checkpoint_call(|| base.with_spec(spec))
    }

    fn encode(&mut self, snapshot: &Snapshot) -> Vec<u8> {
        self.checkpoint_call(|| snapshot.encode())
    }

    fn decode(&mut self, bytes: &[u8]) -> Result<Snapshot, String> {
        self.checkpoint_call(|| Snapshot::decode(bytes).map_err(|e| e.to_string()))
    }

    fn resume(&mut self, snapshot: &Snapshot) -> Result<Simulation, String> {
        self.checkpoint_call(|| Simulation::resume_from(snapshot).map_err(|e| e.to_string()))
    }

    /// `Simulation::finish` (which has no observers to call here), in timed
    /// blocks.
    fn finish(&mut self, sim: &mut Simulation) -> SimulationReport {
        let phases = sim.config().phases;
        if !sim.world().measuring {
            let tail = phases.training_steps.saturating_sub(sim.now());
            self.stepping(sim, tail, |sim| sim.step(phases.training_temperature));
            self.block(0, || sim.reset_for_evaluation());
        }
        let remaining = phases
            .evaluation_steps
            .saturating_sub(sim.world().evaluation_steps_run);
        self.stepping(sim, remaining, |sim| {
            sim.step(phases.evaluation_temperature);
            sim.world_mut().evaluation_steps_run += 1;
        });
        self.block(0, || sim.world().build_report())
    }

    fn world<'a>(&self, sim: &'a Simulation) -> &'a SimWorld {
        sim.world()
    }

    fn totals(&self) -> Totals {
        self.totals
    }
}

/// The phases the standard registry knows, in the order per-phase metrics
/// are reported.
pub const PHASES: [&str; 9] = [
    "selection",
    "sharing",
    "download",
    "edit-vote",
    "utility",
    "learning",
    "propagation",
    "churn",
    "adversary",
];

pub(crate) fn phase_slot(name: &str) -> usize {
    PHASES
        .iter()
        .position(|&p| p == name)
        .unwrap_or_else(|| panic!("phase `{name}` is not one of the standard phases"))
}

/// Counter movements attributed to one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// Q-updates (`agents.total_updates()`; read around `learning` only).
    pub q_updates: u64,
    /// Completed downloads (`transfers.completed_count()`).
    pub completed: u64,
    /// `net_stats.grants_offered`.
    pub grants_offered: f64,
    /// `net_stats.grants_applied`.
    pub grants_applied: f64,
    /// `net_stats.grants_lost`.
    pub grants_lost: f64,
    /// `net_stats.grants_delayed`.
    pub grants_delayed: f64,
    /// `net_stats.transfers_failed`.
    pub failed: u64,
    /// `net_stats.transfers_timed_out`.
    pub timed_out: u64,
    /// `net_stats.transfers_rerouted`.
    pub rerouted: u64,
    /// `propagation_runs`.
    pub propagation_runs: u64,
    /// `churn_stats.joins`.
    pub joins: u64,
    /// `churn_stats.leaves`.
    pub leaves: u64,
    /// `churn_stats.whitewashes`.
    pub whitewashes: u64,
    /// Adversary resets, summed over units.
    pub resets: u64,
    /// Adversary forced steps, summed over units.
    pub forced_steps: u64,
}

impl Counters {
    fn read(world: &SimWorld, learning: bool) -> Self {
        let net = world.net_stats;
        let (mut resets, mut forced_steps) = (0, 0);
        for unit in world.adversaries.units() {
            resets += unit.stats().resets;
            forced_steps += unit.stats().forced_steps;
        }
        Self {
            q_updates: if learning {
                world.agents.total_updates()
            } else {
                0
            },
            completed: world.transfers.completed_count() as u64,
            grants_offered: net.grants_offered,
            grants_applied: net.grants_applied,
            grants_lost: net.grants_lost,
            grants_delayed: net.grants_delayed,
            failed: net.transfers_failed,
            timed_out: net.transfers_timed_out,
            rerouted: net.transfers_rerouted,
            propagation_runs: world.propagation_runs,
            joins: world.churn_stats.joins,
            leaves: world.churn_stats.leaves,
            whitewashes: world.churn_stats.whitewashes,
            resets,
            forced_steps,
        }
    }

    fn add_delta(&mut self, before: &Self, after: &Self) {
        self.q_updates += after.q_updates - before.q_updates;
        self.completed += after.completed - before.completed;
        self.grants_offered += after.grants_offered - before.grants_offered;
        self.grants_applied += after.grants_applied - before.grants_applied;
        self.grants_lost += after.grants_lost - before.grants_lost;
        self.grants_delayed += after.grants_delayed - before.grants_delayed;
        self.failed += after.failed - before.failed;
        self.timed_out += after.timed_out - before.timed_out;
        self.rerouted += after.rerouted - before.rerouted;
        self.propagation_runs += after.propagation_runs - before.propagation_runs;
        self.joins += after.joins - before.joins;
        self.leaves += after.leaves - before.leaves;
        self.whitewashes += after.whitewashes - before.whitewashes;
        self.resets += after.resets - before.resets;
        self.forced_steps += after.forced_steps - before.forced_steps;
    }
}

/// What the traced harness learned about one phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseStats {
    /// Counter movements around the phase's calls.
    pub counters: Counters,
    /// Heap allocations inside the phase's calls after warm-up.
    pub allocations: u64,
    /// Calls after warm-up.
    pub warm_calls: u64,
}

/// Process peak RSS read at three points of the first operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct RssPoints {
    /// After the first world construction.
    pub setup_mb: Option<f64>,
    /// Before the first checkpoint capture.
    pub step_peak_mb: Option<f64>,
    /// After the first checkpoint round trip.
    pub checkpoint_peak_mb: Option<f64>,
}

/// A simulation driven from outside: the world, the phases built from the
/// spec's phase list (with their metric slot) and the reused step context.
pub struct TracedSim {
    world: SimWorld,
    phases: Vec<(usize, Box<dyn StepPhase>)>,
    ctx: StepContext,
}

/// Drives the step loop from outside and records spans and counters.
pub struct Traced {
    /// The span recorder.
    pub tracer: Tracer,
    /// Per-phase counters and allocations, indexed like [`PHASES`].
    pub phases: [PhaseStats; 9],
    /// Encoded checkpoint bytes.
    pub snapshot_bytes: u64,
    /// Peak RSS at the first operation's setup, step and checkpoint.
    pub rss: RssPoints,
    totals: Totals,
    registry: PhaseRegistry,
    adversaries: AdversaryRegistry,
}

impl Default for Traced {
    fn default() -> Self {
        Self {
            tracer: Tracer::new(),
            phases: [PhaseStats::default(); 9],
            snapshot_bytes: 0,
            rss: RssPoints::default(),
            totals: Totals::default(),
            registry: PhaseRegistry::standard(),
            adversaries: AdversaryRegistry::standard(),
        }
    }
}

/// World construction exactly as `Simulation::from_spec` does it, keeping
/// the phases and the step context in our hands.
fn construct(
    spec: &ScenarioSpec,
    registry: &PhaseRegistry,
    adversaries: &AdversaryRegistry,
) -> Result<TracedSim, String> {
    let phases = spec
        .phases()
        .iter()
        .map(|name| {
            let phase = registry
                .instantiate(name, spec.config())
                .map_err(|e| e.to_string())?;
            Ok((phase_slot(phase.name()), phase))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let world = SimWorld::with_adversary_registry(spec.config().clone(), adversaries)
        .map_err(|e| e.to_string())?;
    let ctx = StepContext::new(world.population(), 0.0, 0);
    Ok(TracedSim { world, phases, ctx })
}

impl Traced {
    /// One step: tick, reset the context, execute every phase. Allocations
    /// are counted only when `warm`. The `step` span's own self time is
    /// the tracer's bookkeeping (counter reads); the engine's share of a
    /// step — clock tick plus context reset — is the
    /// `engine.step_overhead` span.
    fn step(&mut self, sim: &mut TracedSim, temperature: f64, warm: bool) {
        self.tracer.begin("step");
        self.tracer.begin("engine.step_overhead");
        let now = sim.world.clock.tick();
        sim.ctx.reset(sim.world.population(), temperature, now);
        self.tracer.end();
        for (slot, phase) in &sim.phases {
            let learning = PHASES[*slot] == "learning";
            let before = Counters::read(&sim.world, learning);
            self.tracer.begin(phase.name());
            let allocations = alloc::allocations();
            phase.execute(&mut sim.world, &mut sim.ctx);
            let allocations = alloc::allocations() - allocations;
            self.tracer.end();
            let after = Counters::read(&sim.world, learning);
            let stats = &mut self.phases[*slot];
            stats.counters.add_delta(&before, &after);
            if warm {
                stats.allocations += allocations;
                stats.warm_calls += 1;
            }
        }
        self.tracer.end();
    }
}

/// Steps of a stepping segment that count as warm-up (no allocation
/// counting): the first tenth.
fn warm_up(segment_steps: u64) -> u64 {
    segment_steps / 10
}

impl Harness for Traced {
    type Sim = TracedSim;

    fn build(&mut self, text: &str) -> Result<(ScenarioSpec, TracedSim), String> {
        let started = Instant::now();
        self.tracer.begin("spec.parse");
        let spec = ScenarioSpec::parse(text);
        self.tracer.end();
        let spec = spec.map_err(|e| e.to_string())?;
        self.tracer.begin("world.build");
        let sim = construct(&spec, &self.registry, &self.adversaries);
        self.tracer.end();
        self.totals.setup += started.elapsed();
        self.rss.setup_mb.get_or_insert_with(vm_hwm_mb);
        Ok((spec, sim?))
    }

    fn train(&mut self, sim: &mut TracedSim) {
        let phases = sim.world.config.phases;
        let started = Instant::now();
        let warm_up = warm_up(phases.training_steps);
        for i in 0..phases.training_steps {
            self.step(sim, phases.training_temperature, i >= warm_up);
        }
        self.totals.stepping += started.elapsed();
        self.totals.steps += phases.training_steps;
    }

    fn capture(&mut self, sim: &TracedSim, spec: &ScenarioSpec) -> Snapshot {
        self.rss.step_peak_mb.get_or_insert_with(vm_hwm_mb);
        let started = Instant::now();
        let snapshot = self
            .tracer
            .span("snapshot.capture", || Snapshot::capture(&sim.world, spec));
        self.totals.resume += started.elapsed();
        snapshot
    }

    fn fork(&mut self, base: &Snapshot, spec: &ScenarioSpec) -> Snapshot {
        let started = Instant::now();
        let snapshot = self
            .tracer
            .span("snapshot.capture", || base.with_spec(spec));
        self.totals.resume += started.elapsed();
        snapshot
    }

    fn encode(&mut self, snapshot: &Snapshot) -> Vec<u8> {
        let started = Instant::now();
        let bytes = self.tracer.span("snapshot.encode", || snapshot.encode());
        self.totals.resume += started.elapsed();
        self.snapshot_bytes += bytes.len() as u64;
        bytes
    }

    fn decode(&mut self, bytes: &[u8]) -> Result<Snapshot, String> {
        let started = Instant::now();
        let snapshot = self
            .tracer
            .span("snapshot.decode", || Snapshot::decode(bytes));
        self.totals.resume += started.elapsed();
        snapshot.map_err(|e| e.to_string())
    }

    fn resume(&mut self, snapshot: &Snapshot) -> Result<TracedSim, String> {
        let started = Instant::now();
        self.tracer.begin("snapshot.rebuild");
        let rebuilt = ScenarioSpec::parse(&snapshot.spec_text)
            .map_err(|e| e.to_string())
            .and_then(|spec| construct(&spec, &self.registry, &self.adversaries));
        self.tracer.end();
        let mut sim = rebuilt?;
        self.tracer.begin("snapshot.apply");
        let applied = snapshot.apply(&mut sim.world);
        self.tracer.end();
        applied.map_err(|e| e.to_string())?;
        self.totals.resume += started.elapsed();
        self.rss.checkpoint_peak_mb.get_or_insert_with(vm_hwm_mb);
        Ok(sim)
    }

    fn finish(&mut self, sim: &mut TracedSim) -> SimulationReport {
        let phases = sim.world.config.phases;
        let started = Instant::now();
        let mut steps = 0;
        if !sim.world.measuring {
            let warm_up = warm_up(phases.training_steps.saturating_sub(sim.world.clock.now()));
            let mut i = 0;
            while sim.world.clock.now() < phases.training_steps {
                self.step(sim, phases.training_temperature, i >= warm_up);
                i += 1;
            }
            steps += i;
            let world = &mut sim.world;
            self.tracer.span("engine.reset_for_evaluation", || {
                world.reset_for_evaluation()
            });
        }
        let remaining = phases
            .evaluation_steps
            .saturating_sub(sim.world.evaluation_steps_run);
        let warm_up = warm_up(remaining);
        for i in 0..remaining {
            self.step(sim, phases.evaluation_temperature, i >= warm_up);
            sim.world.evaluation_steps_run += 1;
        }
        steps += remaining;
        let world = &sim.world;
        let report = self
            .tracer
            .span("engine.build_report", || world.build_report());
        self.totals.stepping += started.elapsed();
        self.totals.steps += steps;
        report
    }

    fn world<'a>(&self, sim: &'a TracedSim) -> &'a SimWorld {
        &sim.world
    }

    fn totals(&self) -> Totals {
        self.totals
    }

    fn begin_op(&mut self, label: &str) {
        self.tracer.begin_op(label);
    }

    fn end_op(&mut self) {
        self.tracer.end_op();
    }
}
