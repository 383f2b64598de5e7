//! Scenario assembly: topology + parameters + faults → a runnable
//! simulation.
//!
//! [`Scenario`] is the high-level entry point of the crate: it places one
//! [`FtGcsNode`] (or a Byzantine behavior) on every physical node of a
//! [`ClusterGraph`], wires the communication edges, seeds the randomness,
//! and returns either a ready [`Simulation`] or a completed
//! [`ScenarioRun`] with the recorded trace.

use std::sync::Arc;

use ftgcs_sim::clock::RateModel;
use ftgcs_sim::engine::{SimBuilder, SimConfig, SimStats, Simulation};
use ftgcs_sim::network::{DelayConfig, DelayDistribution};
use ftgcs_sim::node::NodeId;
use ftgcs_sim::observe::Observer;
use ftgcs_sim::rng::SimRng;
use ftgcs_sim::shard::{resolve_workers, Partition, SchedulerKind};
use ftgcs_sim::telemetry::TelemetryReport;
use ftgcs_sim::time::{SimDuration, SimTime};
use ftgcs_sim::trace::Trace;
use ftgcs_topology::ClusterGraph;

use crate::cluster::worker_partition;
use crate::faults::{make_fault_behavior, FaultKind, LifecycleNode, LifecyclePhase};
use crate::messages::Msg;
use crate::node::{FtGcsNode, NodeConfig};
use crate::params::Params;
use crate::spec::{
    offset_rule, DurationSpec, Placements, SampleSpec, SchedulerSpec, SpecError, TopologySpec,
};
use crate::triggers::ModePolicy;

pub use crate::spec::ScenarioSpec;

/// A fully specified experiment: graph, parameters, faults, environment.
///
/// # Examples
///
/// ```
/// use ftgcs::runner::Scenario;
/// use ftgcs::params::Params;
/// use ftgcs_topology::{generators, ClusterGraph};
///
/// let params = Params::practical(1e-4, 1e-3, 1e-4, 1).unwrap();
/// let cg = ClusterGraph::new(generators::line(2), 4, 1);
/// let mut scenario = Scenario::new(cg, params);
/// scenario.seed(7);
/// let run = scenario.run_for(2.0); // two simulated seconds
/// assert!(!run.trace.samples.is_empty());
/// ```
#[derive(Debug)]
pub struct Scenario {
    cg: ClusterGraph,
    params: Arc<Params>,
    seed: u64,
    delay_distribution: DelayDistribution,
    rate_model: RateModel,
    sample_interval: Option<SimDuration>,
    mode_policy: ModePolicy,
    enable_max_estimator: bool,
    /// Permanent faults and fault windows.
    placed: Placements,
    initial_offset_spread: f64,
    cluster_offsets: Vec<f64>,
    rate_overrides: Vec<(usize, RateModel)>,
    scheduler: SchedulerKind,
    telemetry: bool,
    /// Where the scenario came from, when built by
    /// [`Scenario::from_spec`]: the pieces a [`ScenarioSpec`] carries
    /// that the runnable scenario itself does not (topology generator,
    /// name, horizon). Hand-assembled scenarios have none, and
    /// [`Scenario::to_spec`] refuses on them.
    provenance: Option<Provenance>,
}

/// Spec-only metadata remembered across [`Scenario::from_spec`] so that
/// [`Scenario::to_spec`] can reconstruct a complete spec.
#[derive(Debug, Clone)]
struct Provenance {
    name: String,
    topology: TopologySpec,
    duration: DurationSpec,
}

impl Scenario {
    /// Creates a scenario with benign defaults: uniform random delays,
    /// random-walk clock drift, catch-up mode policy, max estimator on,
    /// perfect initialization, sampling at `T/2`.
    ///
    /// # Panics
    ///
    /// Panics if the cluster graph's `(k, f)` disagree with the
    /// parameters'.
    #[must_use]
    pub fn new(cg: ClusterGraph, params: Params) -> Self {
        assert_eq!(
            cg.max_faults(),
            params.f,
            "cluster graph fault budget must match parameters"
        );
        assert_eq!(
            cg.cluster_size(),
            params.cluster_size,
            "cluster graph size must match parameters"
        );
        let sample = SimDuration::from_secs(params.t_round / 2.0);
        let cluster_count = cg.cluster_count();
        let params = Arc::new(params);
        Scenario {
            placed: Placements::new(cg.physical().node_count(), Arc::clone(&params)),
            cg,
            params,
            seed: 0,
            delay_distribution: DelayDistribution::Uniform,
            rate_model: RateModel::RandomWalk {
                dwell: 1.0,
                step: 0.5,
            },
            sample_interval: Some(sample),
            mode_policy: ModePolicy::CatchUp,
            enable_max_estimator: true,
            initial_offset_spread: 0.0,
            cluster_offsets: vec![0.0; cluster_count],
            rate_overrides: Vec::new(),
            scheduler: SchedulerKind::Global,
            telemetry: false,
            provenance: None,
        }
    }

    /// Assembles a scenario from a declarative [`ScenarioSpec`]: the
    /// validity gate of [`crate::spec`] ("Validity"), then assembly.
    ///
    /// Sugar entries (`fault_per_cluster`, `random_faults`,
    /// `offset_ramp`) are expanded in that order, before the explicit
    /// placements — through the same expansions the corresponding
    /// builder methods use, but with every collision reported as an
    /// error rather than the builders' panic.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if the spec breaks a validity rule, or —
    /// the two things only the expansion can tell — a sugar-expanded
    /// placement collides with another one, or a mobile adversary has
    /// nowhere to hop.
    pub fn from_spec(spec: &ScenarioSpec) -> Result<Scenario, SpecError> {
        spec.check()?;
        let cg = ClusterGraph::new(spec.topology.build(), spec.cluster_size, spec.f);
        let mut scenario = Scenario::new(cg, spec.params()?);
        scenario
            .seed(spec.seed)
            .delay_distribution(spec.delay.clone())
            .rate_model(spec.rate_model.clone())
            .mode_policy(spec.mode_policy)
            .max_estimator(spec.max_estimator)
            .initial_offset_spread(spec.offset_spread)
            .cluster_offset_ramp(spec.offset_ramp);
        match spec.sample_interval {
            SampleSpec::HalfRound => {} // the Scenario::new default (T/2)
            SampleSpec::Off => {
                scenario.sample_interval(None);
            }
            SampleSpec::Secs(secs) => {
                scenario.sample_interval(Some(SimDuration::from_secs(secs)));
            }
        }
        for &(cluster, offset) in &spec.cluster_offsets {
            scenario.cluster_offset(cluster, offset);
        }
        // Faults, sugar first (the order the builder methods would
        // apply).
        let cg = &scenario.cg;
        let per_cluster = (spec.faults_per_cluster.iter()).flat_map(|(count, kind)| {
            per_cluster_fault_nodes(cg, *count)
                .into_iter()
                .map(move |n| (n, kind))
        });
        let random = (spec.random_faults.iter()).flat_map(|(count, seed, kind)| {
            random_fault_nodes(cg, *count, *seed)
                .into_iter()
                .map(move |n| (n, kind))
        });
        let explicit = spec.faults.iter().map(|(node, kind)| (*node, kind));
        for (node, kind) in per_cluster.chain(random).chain(explicit) {
            (scenario.placed)
                .fault(node, kind.clone())
                .map_err(SpecError::new)?;
        }
        expand_lifecycle(&mut scenario, spec)?;
        for (node, model) in &spec.rate_overrides {
            scenario.rate_override(*node, model.clone());
        }
        if let SchedulerSpec::Parallel(workers) = spec.scheduler {
            scenario.parallel(workers);
        }
        scenario.provenance = Some(Provenance {
            name: spec.name.clone(),
            topology: spec.topology,
            duration: spec.duration,
        });
        Ok(scenario)
    }

    /// Serializes the scenario back into a [`ScenarioSpec`].
    ///
    /// Sugar used at assembly time is **canonicalized**: fault sugar
    /// becomes explicit `fault` placements, `churn` and `mobile`
    /// directives become explicit `fault … from … to` windows, the
    /// offset ramp becomes explicit `cluster_offset` entries. `from_spec(to_spec(s))`
    /// therefore reproduces the identical scenario even when
    /// `to_spec(from_spec(spec))` differs textually from `spec`.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if the scenario was hand-assembled (its
    /// topology generator is unknown) or uses a scheduler partition
    /// other than the one [`Scenario::parallel`] selects.
    pub fn to_spec(&self) -> Result<ScenarioSpec, SpecError> {
        let provenance = self.provenance.as_ref().ok_or_else(|| {
            SpecError::new(
                "scenario was hand-assembled; its topology generator is unknown \
                 (build it with Scenario::from_spec to round-trip)",
            )
        })?;
        let scheduler = match &self.scheduler {
            SchedulerKind::Global => SchedulerSpec::Global,
            SchedulerKind::Parallel { partition, workers } => {
                if *partition != self.parallel_partition(*workers) {
                    return Err(SpecError::new(
                        "only the per-worker shard partition is spec-expressible",
                    ));
                }
                SchedulerSpec::Parallel(*workers)
            }
        };
        let half_round = SimDuration::from_secs(self.params.t_round / 2.0);
        let sample_interval = match self.sample_interval {
            None => SampleSpec::Off,
            Some(interval) if interval == half_round => SampleSpec::HalfRound,
            Some(interval) => SampleSpec::Secs(interval.as_secs()),
        };
        Ok(ScenarioSpec {
            name: provenance.name.clone(),
            topology: provenance.topology,
            cluster_size: self.params.cluster_size,
            f: self.params.f,
            rho: self.params.rho,
            d: self.params.d,
            u: self.params.u,
            seed: self.seed,
            duration: provenance.duration,
            delay: self.delay_distribution.clone(),
            rate_model: self.rate_model.clone(),
            sample_interval,
            mode_policy: self.mode_policy,
            max_estimator: self.enable_max_estimator,
            offset_spread: self.initial_offset_spread,
            offset_ramp: 0.0,
            cluster_offsets: self
                .cluster_offsets
                .iter()
                .enumerate()
                .filter(|&(_, &off)| off != 0.0)
                .map(|(c, &off)| (c, off))
                .collect(),
            faults: self.placed.faults.clone(),
            fault_windows: {
                let mut windows = self.placed.windows.clone();
                windows.sort_by(|a, b| (a.0, a.2).partial_cmp(&(b.0, b.2)).expect("finite window"));
                windows
            },
            faults_per_cluster: Vec::new(),
            random_faults: Vec::new(),
            churn: Vec::new(),
            mobile: Vec::new(),
            rate_overrides: self.rate_overrides.clone(),
            scheduler,
        })
    }

    /// The cluster graph.
    #[must_use]
    pub fn cluster_graph(&self) -> &ClusterGraph {
        &self.cg
    }

    /// The parameters.
    #[must_use]
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Sets the master seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Sets the message-delay distribution within `[d−U, d]`.
    pub fn delay_distribution(&mut self, dist: DelayDistribution) -> &mut Self {
        self.delay_distribution = dist;
        self
    }

    /// Sets the default hardware clock rate model.
    pub fn rate_model(&mut self, model: RateModel) -> &mut Self {
        self.rate_model = model;
        self
    }

    /// Overrides the rate model of one physical node.
    pub fn rate_override(&mut self, node: usize, model: RateModel) -> &mut Self {
        self.rate_overrides.push((node, model));
        self
    }

    /// Sets the clock-sampling interval (`None` disables sampling).
    pub fn sample_interval(&mut self, interval: Option<SimDuration>) -> &mut Self {
        self.sample_interval = interval;
        self
    }

    /// Sets the mode policy used when neither trigger fires.
    pub fn mode_policy(&mut self, policy: ModePolicy) -> &mut Self {
        self.mode_policy = policy;
        self
    }

    /// Sets the event scheduler. The default is [`SchedulerKind::Global`],
    /// one queue drained on the calling thread; [`Scenario::parallel`]
    /// selects the parallel executor on its per-worker partition (an
    /// explicit [`SchedulerKind::Parallel`] here takes any partition,
    /// but only that one round-trips through [`Scenario::to_spec`]).
    /// Scheduling never
    /// changes a run's trace — `tests/scheduler_equivalence.rs` pins the
    /// parallel scheduler on any worker count to the global queue's
    /// bytes — so this is a throughput knob and an A/B handle for
    /// benches.
    pub fn scheduler(&mut self, kind: SchedulerKind) -> &mut Self {
        self.scheduler = kind;
        self
    }

    /// Selects the **parallel** shard executor: four shards per worker,
    /// each a contiguous run of clusters ([`worker_partition`]),
    /// advanced by `workers` threads — the caller and `workers − 1`
    /// spawned for the length of the run — between `d − U` lookahead
    /// barriers ([`Params::lookahead`] is the window width). `workers`
    /// is honoured exactly, above the core count too, capped only at
    /// the cluster count; `0` means the machine's available
    /// parallelism. The count is resolved here, where the partition is
    /// sized by it, so an explicit count gives the same partition on
    /// every host.
    ///
    /// The merged trace is byte-identical to the global scheduler's on
    /// every worker count; see `crates/sim/src/par.rs` for the
    /// conservative-window argument.
    pub fn parallel(&mut self, workers: usize) -> &mut Self {
        let partition = self.parallel_partition(workers);
        self.scheduler(SchedulerKind::Parallel { partition, workers })
    }

    /// The partition [`Scenario::parallel`] selects for a requested
    /// worker count.
    fn parallel_partition(&self, workers: usize) -> Partition {
        let resolved = resolve_workers(workers, self.cg.cluster_count());
        worker_partition(&self.cg, resolved)
    }

    /// Enables or disables wall-clock phase timing in the telemetry
    /// report (see [`ftgcs_sim::telemetry`]); the report's counts are
    /// kept either way. Strictly a side channel: traces are
    /// byte-identical on or off (`tests/telemetry_equivalence.rs` pins
    /// it), and the report comes back from [`Scenario::run_streaming`]
    /// or `Simulation::telemetry()` on a hand-built simulation.
    pub fn telemetry(&mut self, enabled: bool) -> &mut Self {
        self.telemetry = enabled;
        self
    }

    /// Enables or disables the global-max estimator.
    pub fn max_estimator(&mut self, enabled: bool) -> &mut Self {
        self.enable_max_estimator = enabled;
        self
    }

    /// Spreads initial logical clocks uniformly over `[0, spread]`
    /// (keep `spread ≤ E` for proper executions).
    ///
    /// # Panics
    ///
    /// Panics if the spread is negative or not finite.
    pub fn initial_offset_spread(&mut self, spread: f64) -> &mut Self {
        or_panic(offset_rule("offset_spread", spread, self.params.t_round));
        self.initial_offset_spread = spread;
        self
    }

    /// Starts all clocks of one cluster (and the estimators tracking it)
    /// at `offset`. This injects *inter-cluster* skew for gradient
    /// experiments while keeping intra-cluster initialization consistent.
    ///
    /// Keep offsets below `κ` each: the first one or two rounds after a
    /// large offset are transiently improper (pulse windows shift) before
    /// the instances re-lock; metrics should use post-warmup windows.
    ///
    /// # Panics
    ///
    /// Panics if the cluster id is out of range or the offset negative
    /// or not finite.
    pub fn cluster_offset(&mut self, cluster: usize, offset: f64) -> &mut Self {
        or_panic(offset_rule("cluster_offset", offset, self.params.t_round));
        self.cluster_offsets[cluster] = offset;
        self
    }

    /// Sets a linear offset ramp: cluster `i` starts at `i·step` — the
    /// canonical "smooth gradient" initial condition.
    pub fn cluster_offset_ramp(&mut self, step: f64) -> &mut Self {
        for c in 0..self.cg.cluster_count() {
            self.cluster_offset(c, step * c as f64);
        }
        self
    }

    /// Makes one physical node Byzantine with the given strategy.
    ///
    /// # Panics
    ///
    /// Panics if the node id is out of range or already has a fault, or
    /// the strategy's argument is outside its domain.
    pub fn with_fault(&mut self, node: usize, kind: FaultKind) -> &mut Self {
        or_panic(self.placed.fault(node, kind));
        self
    }

    /// Gives one node a time-windowed fault: it runs the correct
    /// algorithm until `from`, behaves as `kind` over `[from, to)`, then
    /// recovers — re-initialized, rejoining at the next round boundary
    /// and re-integrating through the ordinary `f+1` confirmation
    /// machinery (see [`LifecycleNode`]). Crash–recover churn and mobile
    /// adversaries are spec-level expansions of this primitive.
    ///
    /// # Panics
    ///
    /// Panics if the node id is out of range, the window is degenerate
    /// (`to ≤ from`, negative, or non-finite), the strategy's argument is
    /// outside its domain, the node already has a permanent fault, or
    /// the window overlaps/abuts another window on the same node
    /// (abutting windows would schedule a recovery and a re-infection at
    /// the same instant).
    pub fn with_fault_window(
        &mut self,
        node: usize,
        kind: FaultKind,
        from: f64,
        to: f64,
    ) -> &mut Self {
        or_panic(self.placed.window(node, kind, from, to));
        self
    }

    /// Makes slots `0..count` of *every* cluster Byzantine with the given
    /// strategy.
    pub fn with_fault_per_cluster(&mut self, kind: &FaultKind, count: usize) -> &mut Self {
        for node in per_cluster_fault_nodes(&self.cg, count) {
            self.with_fault(node, kind.clone());
        }
        self
    }

    /// Makes `count` random members of each cluster Byzantine.
    pub fn with_random_faults(&mut self, kind: &FaultKind, count: usize, seed: u64) -> &mut Self {
        for node in random_fault_nodes(&self.cg, count, seed) {
            self.with_fault(node, kind.clone());
        }
        self
    }

    /// Ids of the currently assigned faulty nodes: permanent faults plus
    /// every node that is faulty during *some* window. Metrics mask the
    /// union — a recovered node's clock is usable again, but excluding
    /// ever-faulty nodes keeps skew bounds honest about which nodes were
    /// correct for the whole execution.
    #[must_use]
    pub fn faulty_nodes(&self) -> Vec<usize> {
        let mut nodes: Vec<usize> = (self.placed.faults.iter())
            .map(|&(n, _)| n)
            .chain(self.placed.windows.iter().map(|w| w.0))
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// Whether any cluster's **simultaneous** fault count ever exceeds
    /// the budget `f` (allowed — some experiments deliberately break the
    /// premise — but worth knowing). Time-windowed faults count only
    /// while their windows overlap: a cluster that hosts `f` faults at
    /// every instant but `2f` over the whole run stays within budget,
    /// which is exactly the mobile-adversary regime of the paper's
    /// model.
    #[must_use]
    pub fn faults_exceed_budget(&self) -> bool {
        (0..self.cg.cluster_count()).any(|c| {
            let permanent = (self.placed.faults.iter())
                .filter(|&&(n, _)| self.cg.cluster_of(n) == c)
                .count();
            // Sweep the window endpoints: +1 at `from`, −1 at `to`, ends
            // sorting before starts at equal times so abutting windows
            // (a handoff) never double-count.
            let mut events: Vec<(f64, i32)> = Vec::new();
            for w in &self.placed.windows {
                if self.cg.cluster_of(w.0) == c {
                    events.push((w.2, 1));
                    events.push((w.3, -1));
                }
            }
            events.sort_by(|a, b| a.partial_cmp(b).expect("finite window"));
            let mut live = 0i32;
            let mut peak = 0i32;
            for (_, delta) in events {
                live += delta;
                peak = peak.max(live);
            }
            permanent + peak as usize > self.params.f
        })
    }

    /// The configuration every member of `cluster` starts from;
    /// `members` holds each cluster's member list, shared by all the
    /// configurations that name it.
    fn node_config(&self, cluster: usize, members: &[Arc<[NodeId]>]) -> NodeConfig {
        let adjacent = self.cg.neighbor_clusters(cluster);
        NodeConfig {
            params: Arc::clone(&self.params),
            cluster_id: cluster,
            members: Arc::clone(&members[cluster]),
            neighbors: (adjacent.iter())
                .map(|&b| (b, Arc::clone(&members[b])))
                .collect(),
            neighbor_offsets: adjacent.iter().map(|&b| self.cluster_offsets[b]).collect(),
            mode_policy: self.mode_policy,
            enable_max_estimator: self.enable_max_estimator,
            initial_offset: self.cluster_offsets[cluster],
        }
    }

    /// Builds the simulation (behaviors, edges, clocks) without running it.
    #[must_use]
    pub fn build(&self) -> Simulation<Msg> {
        let p = &self.params;
        let config = SimConfig {
            delay: DelayConfig::new(
                SimDuration::from_secs(p.d),
                SimDuration::from_secs(p.u),
                self.delay_distribution.clone(),
            ),
            rho: p.rho,
            rate_model: self.rate_model.clone(),
            seed: self.seed,
            sample_interval: self.sample_interval,
            scheduler: self.scheduler.clone(),
            telemetry: self.telemetry,
        };
        let offset_rng = SimRng::seed_from(self.seed).derive("init-offset", 0);
        let mut offsets = offset_rng;
        let mut builder = SimBuilder::new(config);
        let members: Vec<Arc<[NodeId]>> = (0..self.cg.cluster_count())
            .map(|c| self.cg.members(c).map(NodeId).collect())
            .collect();
        for c in 0..self.cg.cluster_count() {
            let cluster_cfg = self.node_config(c, &members);
            for slot in 0..self.cg.cluster_size() {
                let node = self.cg.node_id(c, slot);
                let mut cfg = cluster_cfg.clone();
                if self.initial_offset_spread > 0.0 {
                    cfg.initial_offset += offsets.uniform(0.0, self.initial_offset_spread);
                }
                let fault = self.placed.faults.iter().find(|&&(n, _)| n == node);
                let behavior: Box<dyn ftgcs_sim::node::Behavior<Msg>> = match fault {
                    Some((_, kind)) => make_fault_behavior(kind, cfg),
                    None => {
                        let mut schedule: Vec<(f64, LifecyclePhase)> = Vec::new();
                        for w in self.placed.windows.iter().filter(|w| w.0 == node) {
                            schedule.push((w.2, LifecyclePhase::Faulty(w.1.clone())));
                            schedule.push((w.3, LifecyclePhase::Correct));
                        }
                        if schedule.is_empty() {
                            Box::new(FtGcsNode::new(cfg))
                        } else {
                            // Windows are pairwise disjoint and
                            // non-abutting (`Placements::window`), so
                            // sorting by time yields a strictly
                            // increasing transition schedule.
                            schedule.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite window"));
                            Box::new(LifecycleNode::new(cfg, schedule))
                        }
                    }
                };
                let id = builder.add_node(behavior);
                debug_assert_eq!(id.index(), node);
            }
        }
        for (a, b) in self.cg.physical().edges() {
            builder.add_edge(NodeId(a), NodeId(b));
        }
        for (node, model) in &self.rate_overrides {
            builder.set_rate_model(NodeId(*node), model.clone());
        }
        builder.build()
    }

    /// Builds and runs for a duration of simulated time, materializing
    /// the full trace.
    ///
    /// Accepts either a typed [`SimDuration`] or plain `f64` **seconds**
    /// (the historical calling convention) — the newtype stops seconds
    /// from being confused with round counts; use
    /// [`DurationSpec::resolve`](crate::spec::DurationSpec::resolve) to
    /// convert rounds.
    #[must_use]
    pub fn run_for(&self, duration: impl Into<SimDuration>) -> ScenarioRun {
        let mut sim = self.build();
        sim.run_until(SimTime::ZERO + duration.into());
        let stats = sim.stats();
        ScenarioRun {
            faulty: self.faulty_nodes(),
            stats,
            trace: sim.into_trace(),
        }
    }

    /// Builds and runs for a duration of simulated time, **streaming**
    /// every sample and row to `obs` instead of materializing a
    /// [`Trace`] — memory stays bounded by the observer (O(nodes) for
    /// the accumulators in `ftgcs_metrics::stream`) regardless of run
    /// length. Calls [`Observer::on_finish`] once at the end.
    ///
    /// The stream is byte-equivalent to the materialized trace of
    /// [`Scenario::run_for`] on every scheduler — pinned by the
    /// observer-equivalence suites. Returns the run's work counters and
    /// its [`TelemetryReport`] (whose wall-clock phases are timed only
    /// if [`Scenario::telemetry`] asked for it).
    pub fn run_streaming(
        &self,
        duration: impl Into<SimDuration>,
        obs: &mut dyn Observer,
    ) -> (SimStats, TelemetryReport) {
        let mut sim = self.build();
        sim.run_until_with(SimTime::ZERO + duration.into(), obs);
        let stats = sim.stats();
        obs.on_finish(&stats);
        let report = sim.telemetry();
        (stats, report)
    }
}

/// The builders' door to the rules of [`crate::spec`]: the same
/// sentence, as a panic.
fn or_panic(rule: Result<(), String>) {
    if let Err(sentence) = rule {
        panic!("{sentence}");
    }
}

/// The node ids [`Scenario::with_fault_per_cluster`] assigns: slots
/// `0..count` of every cluster. Shared with [`Scenario::from_spec`].
fn per_cluster_fault_nodes(cg: &ClusterGraph, count: usize) -> Vec<usize> {
    let mut nodes = Vec::with_capacity(cg.cluster_count() * count);
    for c in 0..cg.cluster_count() {
        for slot in 0..count {
            nodes.push(cg.node_id(c, slot));
        }
    }
    nodes
}

/// The node ids [`Scenario::with_random_faults`] assigns for
/// `(count, seed)`: a seeded Fisher–Yates prefix per cluster. Shared
/// with [`Scenario::from_spec`].
fn random_fault_nodes(cg: &ClusterGraph, count: usize, seed: u64) -> Vec<usize> {
    let mut rng = SimRng::seed_from(seed);
    let mut nodes = Vec::new();
    for c in 0..cg.cluster_count() {
        let mut slots: Vec<usize> = (0..cg.cluster_size()).collect();
        for i in 0..count.min(slots.len()) {
            let j = i + rng.index(slots.len() - i);
            slots.swap(i, j);
            nodes.push(cg.node_id(c, slots[i]));
        }
    }
    nodes
}

/// Expands a spec's lifecycle directives — explicit `fault … from … to`
/// windows, `churn`, and `mobile` — into [`Scenario`] fault windows.
/// Runs after the permanent faults are placed, so collision checks see
/// the complete static assignment. Everything here is a deterministic
/// function of the spec alone (the mobile itineraries draw from
/// dedicated `SimRng` streams seeded by the scenario seed), so the same
/// spec produces the same windows on every scheduler and worker count.
///
/// Every window goes through [`Placements::window`]; the rules of a
/// single directive are the gate's (`crate::spec`, "Validity"). What is
/// decided here is where the sugar lands:
///
/// * **Churn**: churner `j` of `churn count kind period P downtime D`
///   lands in cluster `j mod C` on its lowest-numbered member with no
///   other fault assignment, and is down over `[s + n·P, s + n·P + D)`
///   for every cycle `n` starting inside the horizon, with the stagger
///   `s = P·j/count` spreading downtimes evenly over the period.
/// * **Mobile**: adversary `j` of `mobile count kind hop H` follows a
///   seed-derived itinerary, corrupting a fresh host every `H` seconds.
///   Hosts are drawn uniformly from the nodes with no conflicting
///   assignment whose cluster still has `< f` faults during the hop
///   window; a hop that cannot be placed is a [`SpecError`]. The
///   invariant "never more than `f` simultaneous faults per cluster"
///   therefore holds by construction, permanent faults included —
///   exactly the mobile-Byzantine regime the paper's per-cluster budget
///   permits.
///
/// The windows stay in one flat list (no per-node index): each hop
/// marks the nodes faulty during it in one pass, and the candidate
/// search scans the list once per node.
fn expand_lifecycle(scenario: &mut Scenario, spec: &ScenarioSpec) -> Result<(), SpecError> {
    if spec.fault_windows.is_empty() && spec.churn.is_empty() && spec.mobile.is_empty() {
        return Ok(());
    }
    let Scenario {
        cg, params, placed, ..
    } = scenario;
    let nodes = cg.physical().node_count();
    let clusters = cg.cluster_count();
    let f = params.f;
    let horizon = spec.duration.resolve(params);

    for &(node, ref kind, from, to) in &spec.fault_windows {
        placed
            .window(node, kind.clone(), from, to)
            .map_err(SpecError::new)?;
    }

    for &(count, ref kind, period, downtime) in &spec.churn {
        for j in 0..count {
            let cluster = j % clusters;
            let host = (cg.members(cluster))
                .find(|&n| !placed.assigned(n))
                .ok_or_else(|| {
                    SpecError::new(format!(
                        "cluster {cluster} has no unassigned node left for churner {j}"
                    ))
                })?;
            let stagger = period * j as f64 / count as f64;
            let mut start = stagger;
            while start < horizon {
                placed
                    .window(host, kind.clone(), start, start + downtime)
                    .map_err(SpecError::new)?;
                start += period;
            }
        }
    }

    for (entry, &(count, ref kind, hop)) in spec.mobile.iter().enumerate() {
        let hops = (horizon / hop).ceil() as usize;
        let mut rngs: Vec<SimRng> = (0..count)
            .map(|j| {
                SimRng::seed_from(spec.seed).derive("mobile", ((entry as u64) << 32) | j as u64)
            })
            .collect();
        let mut prev: Vec<Option<usize>> = vec![None; count];
        let mut busy = vec![false; nodes];
        for w in 0..hops {
            let t0 = hop * w as f64;
            let t1 = hop * (w + 1) as f64;
            for j in 0..count {
                // The nodes faulty at some instant of the hop window:
                // a cluster must have a spare fault slot for all of it.
                busy.fill(false);
                for &(m, _) in &placed.faults {
                    busy[m] = true;
                }
                for x in (placed.windows.iter()).filter(|x| x.2 < t1 && x.3 > t0) {
                    busy[x.0] = true;
                }
                // The adversary must actually move, and its host be free
                // over (and immediately around) the hop window.
                let candidates: Vec<usize> = (0..nodes)
                    .filter(|&n| {
                        let load = cg.members(cg.cluster_of(n)).filter(|&m| busy[m]).count();
                        load < f
                            && prev[j] != Some(n)
                            && !placed.permanent(n)
                            && !placed.window_near(n, t0, t1)
                    })
                    .collect();
                if candidates.is_empty() {
                    return Err(SpecError::new(format!(
                        "mobile adversary {j} cannot hop anywhere in [{t0}, {t1}) \
                         without breaching some cluster's f-budget"
                    )));
                }
                let host = candidates[rngs[j].index(candidates.len())];
                placed
                    .window(host, kind.clone(), t0, t1)
                    .map_err(SpecError::new)?;
                prev[j] = Some(host);
            }
        }
    }

    // By node, then by start: the windows of one node never share one.
    (placed.windows).sort_by(|a, b| (a.0, a.2).partial_cmp(&(b.0, b.2)).expect("finite window"));
    Ok(())
}

/// The output of a completed scenario.
#[derive(Debug)]
pub struct ScenarioRun {
    /// The recorded trace (clock samples + algorithm rows).
    pub trace: Trace,
    /// Ids of the Byzantine nodes, sorted.
    pub faulty: Vec<usize>,
    /// Engine work counters.
    pub stats: SimStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftgcs_topology::generators::line;

    fn scenario() -> Scenario {
        let params = Params::practical(1e-4, 1e-3, 1e-4, 1).unwrap();
        Scenario::new(ClusterGraph::new(line(2), 4, 1), params)
    }

    #[test]
    fn builds_the_right_node_count() {
        let s = scenario();
        let sim = s.build();
        assert_eq!(sim.node_count(), 8);
    }

    #[test]
    fn fault_assignment_and_budget_check() {
        let mut s = scenario();
        assert!(s.faulty_nodes().is_empty());
        s.with_fault_per_cluster(&FaultKind::Silent, 1);
        assert_eq!(s.faulty_nodes(), vec![0, 4]);
        assert!(!s.faults_exceed_budget());
        s.with_fault(1, FaultKind::Silent);
        assert!(s.faults_exceed_budget());
    }

    #[test]
    #[should_panic(expected = "already has a fault")]
    fn duplicate_fault_rejected() {
        let mut s = scenario();
        s.with_fault(0, FaultKind::Silent);
        s.with_fault(0, FaultKind::Silent);
    }

    #[test]
    fn random_faults_stay_within_count() {
        let mut s = scenario();
        s.with_random_faults(&FaultKind::Silent, 1, 3);
        assert_eq!(s.faulty_nodes().len(), 2);
        assert!(!s.faults_exceed_budget());
    }

    #[test]
    #[should_panic(expected = "must match parameters")]
    fn mismatched_fault_budget_rejected() {
        let params = Params::practical(1e-4, 1e-3, 1e-4, 1).unwrap();
        let _ = Scenario::new(ClusterGraph::new(line(2), 7, 2), params);
    }

    #[test]
    fn fault_window_registers_as_ever_faulty() {
        let mut s = scenario();
        let t = s.params().t_round;
        s.with_fault_window(1, FaultKind::Silent, 2.0 * t, 4.0 * t);
        assert_eq!(s.faulty_nodes(), vec![1]);
        assert!(!s.faults_exceed_budget());
        // A second, disjoint window on another node of the same cluster
        // stays in budget (f = 1 *simultaneous* faults)…
        s.with_fault_window(2, FaultKind::Silent, 5.0 * t, 6.0 * t);
        assert_eq!(s.faulty_nodes(), vec![1, 2]);
        assert!(!s.faults_exceed_budget());
        // …until the windows overlap.
        s.with_fault_window(3, FaultKind::Silent, 3.0 * t, 5.5 * t);
        assert!(s.faults_exceed_budget());
    }

    #[test]
    fn abutting_windows_do_not_break_the_budget() {
        // A handoff at the boundary is one fault at every instant.
        let mut s = scenario();
        s.with_fault_window(1, FaultKind::Silent, 0.1, 0.2);
        s.with_fault_window(2, FaultKind::Silent, 0.2, 0.3);
        assert!(!s.faults_exceed_budget());
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn overlapping_windows_on_one_node_rejected() {
        let mut s = scenario();
        s.with_fault_window(1, FaultKind::Silent, 0.1, 0.3);
        s.with_fault_window(1, FaultKind::Silent, 0.3, 0.5); // abuts
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_window_rejected() {
        let mut s = scenario();
        s.with_fault_window(1, FaultKind::Silent, 0.5, 0.5);
    }

    #[test]
    fn windowed_fault_runs_and_recovers() {
        let mut s = scenario();
        let t = s.params().t_round;
        s.seed(5);
        s.with_fault_window(1, FaultKind::TwoFaced { amplitude: 1e-3 }, 3.0 * t, 6.0 * t);
        let run = s.run_for(12.0 * t);
        assert!(!run.trace.samples.is_empty());
        assert_eq!(run.faulty, vec![1]);
        // The recovered node pulses again after its window: correct
        // rounds resume past 6 T.
        let late_pulse = run
            .trace
            .rows_of_kind(crate::cluster::ROW_PULSE)
            .any(|row| row.node == NodeId(1) && row.t.as_secs() > 7.0 * t);
        assert!(late_pulse, "node 1 never pulsed after recovering");
    }

    #[test]
    fn churn_expands_deterministically_within_budget() {
        let mut spec = ScenarioSpec::new("churn", TopologySpec::Line(3), 1);
        spec.duration = DurationSpec::Secs(1.0);
        spec.churn.push((3, FaultKind::Silent, 0.3, 0.1));
        let a = Scenario::from_spec(&spec).unwrap();
        let b = Scenario::from_spec(&spec).unwrap();
        assert_eq!(a.placed.windows, b.placed.windows);
        assert!(!a.placed.windows.is_empty());
        // Round-robin placement: one churner per cluster, so the
        // simultaneous budget holds trivially.
        assert_eq!(a.faulty_nodes().len(), 3);
        assert!(!a.faults_exceed_budget());
        // Downtime windows tile `[stagger + n·P, … + D)` within the horizon.
        for &(_, _, from, to) in &a.placed.windows {
            assert!((to - from - 0.1).abs() < 1e-12);
            assert!(from < 1.0);
        }
    }

    #[test]
    fn mobile_expands_to_a_moving_in_budget_itinerary() {
        let mut spec = ScenarioSpec::new("mobile", TopologySpec::Line(3), 1);
        spec.duration = DurationSpec::Secs(1.0);
        spec.seed = 9;
        spec.mobile.push((1, FaultKind::Silent, 0.25));
        let s = Scenario::from_spec(&spec).unwrap();
        let b = Scenario::from_spec(&spec).unwrap();
        assert_eq!(s.placed.windows, b.placed.windows);
        assert_eq!(s.placed.windows.len(), 4, "one window per hop");
        assert!(!s.faults_exceed_budget());
        // Ordered by hop start, the adversary must move every hop.
        let mut hops: Vec<(f64, usize)> = s.placed.windows.iter().map(|w| (w.2, w.0)).collect();
        hops.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for pair in hops.windows(2) {
            assert_ne!(pair[0].1, pair[1].1, "mobile adversary failed to move");
        }
    }

    #[test]
    fn mobile_over_capacity_is_a_spec_error() {
        let mut spec = ScenarioSpec::new("mobile", TopologySpec::Line(2), 1);
        spec.mobile.push((3, FaultKind::Silent, 0.25));
        let err = Scenario::from_spec(&spec).unwrap_err();
        assert!(err.to_string().contains("breaches"), "{err}");
    }

    #[test]
    fn static_fault_plus_window_collision_is_a_spec_error() {
        let mut spec = ScenarioSpec::new("clash", TopologySpec::Line(2), 1);
        spec.faults.push((1, FaultKind::Silent));
        spec.fault_windows.push((1, FaultKind::Silent, 0.1, 0.2));
        let err = Scenario::from_spec(&spec).unwrap_err();
        assert!(err.to_string().contains("permanent fault"), "{err}");
    }

    #[test]
    fn to_spec_canonicalizes_lifecycle_sugar_to_windows() {
        let mut spec = ScenarioSpec::new("canon", TopologySpec::Line(3), 1);
        spec.duration = DurationSpec::Secs(1.0);
        spec.seed = 4;
        spec.churn.push((2, FaultKind::Silent, 0.4, 0.1));
        spec.mobile
            .push((1, FaultKind::TwoFaced { amplitude: 1e-3 }, 0.5));
        let s = Scenario::from_spec(&spec).unwrap();
        let canonical = s.to_spec().unwrap();
        assert!(canonical.churn.is_empty());
        assert!(canonical.mobile.is_empty());
        assert_eq!(canonical.fault_windows, s.placed.windows);
        // The canonical spec rebuilds the identical scenario.
        let s2 = Scenario::from_spec(&canonical).unwrap();
        assert_eq!(s.placed.windows, s2.placed.windows);
        assert_eq!(s.faulty_nodes(), s2.faulty_nodes());
    }

    #[test]
    fn crash_cancels_outstanding_timers() {
        // Satellite guard for the CrashNode fix: after the shutdown
        // event, the crashed node fires no further timers. Compare the
        // post-cutoff timer *increment* of a crash run against a
        // silent-from-the-start run — identical cadences after the
        // cutoff mean identical increments; the pre-fix behavior leaked
        // the crashed node's still-pending round and level timers into
        // the post-cutoff window and fails this equality.
        let t = scenario().params().t_round;
        let crash_at = 3.0 * t;
        let cutoff = 3.5 * t; // past the shutdown-triggering event
        let horizon = 20.0 * t;
        let timers = |kind: FaultKind, until: f64| {
            let mut s = scenario();
            s.seed(21);
            s.with_fault(1, kind);
            s.run_for(until).stats.timers
        };
        let crash_inc = timers(FaultKind::Crash { at: crash_at }, horizon)
            - timers(FaultKind::Crash { at: crash_at }, cutoff);
        let silent_inc = timers(FaultKind::Silent, horizon) - timers(FaultKind::Silent, cutoff);
        assert_eq!(
            crash_inc, silent_inc,
            "a crashed node must stop firing timers after shutdown"
        );
    }

    #[test]
    fn short_run_produces_samples_and_rows() {
        let mut s = scenario();
        s.seed(1);
        let run = s.run_for(1.0);
        assert!(!run.trace.samples.is_empty());
        assert!(run.trace.rows_of_kind(crate::cluster::ROW_PULSE).count() > 0);
        assert!(run.stats.messages > 0);
    }

    #[test]
    fn parallel_override_reproduces_the_default_run() {
        // The parallel executor must agree with the default global heap
        // event-for-event on any worker count; the full byte-level
        // differential lives in tests/scheduler_equivalence.rs.
        let mut a = scenario();
        a.seed(11);
        let ra = a.run_for(0.5);
        for workers in [1usize, 2, 0] {
            let mut b = scenario();
            b.seed(11).parallel(workers);
            let rb = b.run_for(0.5);
            assert_eq!(ra.stats, rb.stats, "workers = {workers}");
            assert!(
                ra.trace.byte_identical(&rb.trace),
                "parallel scheduler diverged at {workers} workers"
            );
        }
    }
}
