//! Declarative, serializable experiment descriptions.
//!
//! A [`ScenarioSpec`] is a plain-old-data description of everything a
//! [`Scenario`](crate::runner::Scenario) needs: the topology generator,
//! cluster size and fault budget, the environment `(ρ, d, U)`, fault
//! placements, initial offsets, scheduler and worker count, seeds, and
//! run duration. Specs serialize to a **hand-rolled, dependency-free
//! text format** (this workspace builds offline — no serde): one
//! `key value…` pair per line, `#` comments, round-trip stable
//! (`parse(print(s)) == s`, pinned by the proptest suite in
//! `tests/spec_roundtrip.rs`).
//!
//! Spec files are the unit of experiment exchange: the `xp` driver in
//! `ftgcs-bench` executes the files checked in under `experiments/`.
//!
//! # Format
//!
//! ```text
//! # F3-style scenario: 9-cluster line under a fast/slow split.
//! name        demo
//! topology    line 9
//! f           1
//! cluster_size 4
//! env         1e-4 1e-3 1e-4       # rho  d  U
//! seed        7
//! duration    30 rounds            # or plain seconds: `duration 2.5`
//! delay       uniform
//! rate_model  random_walk 1 0.5
//! sample_interval half_round
//! mode_policy catch_up
//! max_estimator on
//! scheduler   parallel 4
//! fault       5 silent             # explicit placement, repeatable
//! fault_per_cluster 1 two_faced 0.001
//! cluster_offset 3 0.002
//! ```
//!
//! # Examples
//!
//! ```
//! use ftgcs::spec::{ScenarioSpec, TopologySpec};
//! use ftgcs::runner::Scenario;
//!
//! let spec = ScenarioSpec::new("demo", TopologySpec::Line(2), 1);
//! let text = spec.print();
//! let reparsed = ScenarioSpec::parse(&text).unwrap();
//! assert_eq!(spec, reparsed);
//!
//! let scenario = Scenario::from_spec(&spec).unwrap();
//! assert_eq!(scenario.cluster_graph().cluster_count(), 2);
//! assert_eq!(scenario.to_spec().unwrap(), spec);
//! ```

use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

use ftgcs_sim::clock::RateModel;
use ftgcs_sim::network::DelayDistribution;
use ftgcs_topology::{generators, Graph};

use crate::faults::FaultKind;
use crate::params::Params;
use crate::triggers::ModePolicy;

/// A parse or conversion failure, with the 1-based source line where it
/// occurred (`0` when the error is not tied to a line, e.g. a
/// [`Scenario::to_spec`](crate::runner::Scenario::to_spec) failure).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line number, or 0 for non-textual errors.
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

impl SpecError {
    pub(crate) fn at(line: usize, msg: impl Into<String>) -> Self {
        SpecError {
            line,
            msg: msg.into(),
        }
    }

    pub(crate) fn new(msg: impl Into<String>) -> Self {
        SpecError::at(0, msg)
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "spec line {}: {}", self.line, self.msg)
        } else {
            write!(f, "spec: {}", self.msg)
        }
    }
}

impl Error for SpecError {}

/// Which base-graph generator a scenario uses, with its arguments.
///
/// Covers the deterministic generators of [`ftgcs_topology::generators`]
/// (the random Erdős–Rényi generator is excluded: a spec must describe
/// its topology reproducibly by structure, not by a sampling process).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologySpec {
    /// `line n`: a path of `n` clusters.
    Line(usize),
    /// `ring n`: a cycle of `n` clusters.
    Ring(usize),
    /// `star n`: one hub plus `n − 1` leaves.
    Star(usize),
    /// `complete n`: a clique of `n` clusters.
    Complete(usize),
    /// `grid r c`: an `r × c` mesh.
    Grid(usize, usize),
    /// `torus r c`: an `r × c` mesh with wraparound.
    Torus(usize, usize),
    /// `hypercube d`: the `d`-dimensional hypercube.
    Hypercube(u32),
    /// `tree a d`: a balanced tree of arity `a` and depth `d`.
    Tree(usize, usize),
}

impl TopologySpec {
    /// Instantiates the base graph.
    #[must_use]
    pub fn build(&self) -> Graph {
        match *self {
            TopologySpec::Line(n) => generators::line(n),
            TopologySpec::Ring(n) => generators::ring(n),
            TopologySpec::Star(n) => generators::star(n),
            TopologySpec::Complete(n) => generators::complete(n),
            TopologySpec::Grid(r, c) => generators::grid(r, c),
            TopologySpec::Torus(r, c) => generators::torus(r, c),
            TopologySpec::Hypercube(d) => generators::hypercube(d),
            TopologySpec::Tree(a, d) => generators::balanced_tree(a, d),
        }
    }

    /// The generator's precondition, as a [`SpecError`] at `line` with
    /// the sentence of the generator's own `assert!` — which stays, as
    /// the guard of a direct library call.
    pub(crate) fn check(&self, line: usize) -> Result<(), SpecError> {
        let (ok, needs) = match *self {
            TopologySpec::Line(n) => (n >= 1, "line needs at least one vertex"),
            TopologySpec::Ring(n) => (n >= 3, "ring needs at least three vertices"),
            TopologySpec::Star(n) => (n >= 2, "star needs at least two vertices"),
            TopologySpec::Complete(n) => (n >= 1, "complete graph needs at least one vertex"),
            TopologySpec::Grid(r, c) => (r >= 1 && c >= 1, "grid needs positive dimensions"),
            TopologySpec::Torus(r, c) => (r >= 3 && c >= 3, "torus needs dimensions >= 3"),
            TopologySpec::Hypercube(d) => (d >= 1, "hypercube needs dimension >= 1"),
            TopologySpec::Tree(a, _) => (a >= 1, "tree arity must be >= 1"),
        };
        if ok {
            Ok(())
        } else {
            Err(SpecError::at(line, needs))
        }
    }

    fn print(&self) -> String {
        match *self {
            TopologySpec::Line(n) => format!("line {n}"),
            TopologySpec::Ring(n) => format!("ring {n}"),
            TopologySpec::Star(n) => format!("star {n}"),
            TopologySpec::Complete(n) => format!("complete {n}"),
            TopologySpec::Grid(r, c) => format!("grid {r} {c}"),
            TopologySpec::Torus(r, c) => format!("torus {r} {c}"),
            TopologySpec::Hypercube(d) => format!("hypercube {d}"),
            TopologySpec::Tree(a, d) => format!("tree {a} {d}"),
        }
    }

    fn parse(args: &[&str], line: usize) -> Result<Self, SpecError> {
        let kind = *args
            .first()
            .ok_or_else(|| SpecError::at(line, "topology needs a generator name"))?;
        let want = |n: usize| -> Result<(), SpecError> {
            if args.len() == n + 1 {
                Ok(())
            } else {
                Err(SpecError::at(
                    line,
                    format!("topology {kind} takes {n} argument(s)"),
                ))
            }
        };
        let num = |i: usize| parse_num::<usize>(args[i], line);
        let topology = match kind {
            "line" => {
                want(1)?;
                TopologySpec::Line(num(1)?)
            }
            "ring" => {
                want(1)?;
                TopologySpec::Ring(num(1)?)
            }
            "star" => {
                want(1)?;
                TopologySpec::Star(num(1)?)
            }
            "complete" => {
                want(1)?;
                TopologySpec::Complete(num(1)?)
            }
            "grid" => {
                want(2)?;
                TopologySpec::Grid(num(1)?, num(2)?)
            }
            "torus" => {
                want(2)?;
                TopologySpec::Torus(num(1)?, num(2)?)
            }
            "hypercube" => {
                want(1)?;
                TopologySpec::Hypercube(parse_num::<u32>(args[1], line)?)
            }
            "tree" => {
                want(2)?;
                TopologySpec::Tree(num(1)?, num(2)?)
            }
            other => {
                return Err(SpecError::at(line, format!("unknown topology {other:?}")));
            }
        };
        topology.check(line)?;
        Ok(topology)
    }
}

/// How long to run, either in absolute simulated seconds or in units of
/// the derived round length `T` (which depends on the environment).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DurationSpec {
    /// `duration x`: `x` simulated seconds.
    Secs(f64),
    /// `duration x rounds`: `x · T` simulated seconds.
    Rounds(f64),
}

impl DurationSpec {
    /// The concrete horizon in simulated seconds under `params`.
    #[must_use]
    pub fn resolve(&self, params: &Params) -> f64 {
        match *self {
            DurationSpec::Secs(s) => s,
            DurationSpec::Rounds(r) => r * params.t_round,
        }
    }
}

/// The clock-sampling cadence of a spec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SampleSpec {
    /// `half_round`: the scenario default, one sample every `T/2`.
    HalfRound,
    /// `none`: sampling disabled.
    Off,
    /// An explicit interval in simulated seconds.
    Secs(f64),
}

/// The event scheduler of a spec. Partitions are always per-cluster
/// (the only seam the model guarantees a `d − U` floor across), so the
/// spec never carries an explicit node → shard map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerSpec {
    /// One global queue (the default).
    Global,
    /// The parallel executor on this many threads, sharded by
    /// `cluster::worker_partition`; `0` workers means auto.
    Parallel(usize),
}

/// A complete, declarative description of one experiment scenario.
///
/// All fields are public plain data; [`ScenarioSpec::parse`] and
/// [`ScenarioSpec::print`] are exact inverses on canonical specs, and
/// [`Scenario::from_spec`](crate::runner::Scenario::from_spec) /
/// [`Scenario::to_spec`](crate::runner::Scenario::to_spec) convert to
/// and from the runnable builder.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Experiment name (one word; names the output files).
    pub name: String,
    /// Base-graph generator.
    pub topology: TopologySpec,
    /// Cluster size `k ≥ 3f + 1`.
    pub cluster_size: usize,
    /// Fault budget per cluster.
    pub f: usize,
    /// Hardware drift bound ρ.
    pub rho: f64,
    /// Maximum message delay `d` (seconds).
    pub d: f64,
    /// Delay uncertainty `U` (seconds).
    pub u: f64,
    /// Master seed.
    pub seed: u64,
    /// Run horizon.
    pub duration: DurationSpec,
    /// Message-delay distribution within `[d−U, d]`.
    pub delay: DelayDistribution,
    /// Default hardware clock rate model.
    pub rate_model: RateModel,
    /// Clock-sampling cadence.
    pub sample_interval: SampleSpec,
    /// Mode policy when neither trigger fires.
    pub mode_policy: ModePolicy,
    /// Whether the global-max estimator runs.
    pub max_estimator: bool,
    /// Uniform initial logical-clock spread in `[0, x]`.
    pub offset_spread: f64,
    /// Linear inter-cluster offset ramp step (`0` = none).
    pub offset_ramp: f64,
    /// Explicit per-cluster initial offsets.
    pub cluster_offsets: Vec<(usize, f64)>,
    /// Explicit fault placements `(physical node, strategy)`.
    pub faults: Vec<(usize, FaultKind)>,
    /// Time-windowed faults `(node, strategy, from, to)`: the node is
    /// correct, runs `strategy` over `[from, to)` Newtonian seconds,
    /// then recovers and re-integrates (`fault <node> <kind> from <t>
    /// to <t>`).
    pub fault_windows: Vec<(usize, FaultKind, f64, f64)>,
    /// Churn sugar `(count, kind, period, downtime)`: `count` nodes
    /// placed round-robin over the clusters each cycle through
    /// `downtime` seconds of `kind` every `period` seconds, with their
    /// downtime starts staggered across the period (`churn <count>
    /// <kind> period <t> downtime <t>`).
    pub churn: Vec<(usize, FaultKind, f64, f64)>,
    /// Mobile-adversary sugar `(count, kind, hop)`: `count` adversaries
    /// each migrate to a new host node every `hop` seconds on a
    /// deterministic seed-derived itinerary that never exceeds `f`
    /// simultaneous faults per cluster (`mobile <count> <kind> hop
    /// <t>`).
    pub mobile: Vec<(usize, FaultKind, f64)>,
    /// Sugar: the first `count` slots of *every* cluster get `kind`.
    pub faults_per_cluster: Vec<(usize, FaultKind)>,
    /// Sugar: `count` random members of each cluster get `kind`,
    /// selected by `seed`.
    pub random_faults: Vec<(usize, u64, FaultKind)>,
    /// Per-node hardware rate-model overrides.
    pub rate_overrides: Vec<(usize, RateModel)>,
    /// Event scheduler.
    pub scheduler: SchedulerSpec,
}

impl ScenarioSpec {
    /// A spec with the workspace-default environment (`ρ = 1e-4`,
    /// `d = 1 ms`, `U = 0.1 ms`), benign defaults, `k = 3f + 1`, and a
    /// 20-round horizon.
    #[must_use]
    pub fn new(name: &str, topology: TopologySpec, f: usize) -> Self {
        ScenarioSpec {
            name: name.to_string(),
            topology,
            cluster_size: 3 * f + 1,
            f,
            rho: 1e-4,
            d: 1e-3,
            u: 1e-4,
            seed: 0,
            duration: DurationSpec::Rounds(20.0),
            delay: DelayDistribution::Uniform,
            rate_model: RateModel::default(),
            sample_interval: SampleSpec::HalfRound,
            mode_policy: ModePolicy::default(),
            max_estimator: true,
            offset_spread: 0.0,
            offset_ramp: 0.0,
            cluster_offsets: Vec::new(),
            faults: Vec::new(),
            fault_windows: Vec::new(),
            churn: Vec::new(),
            mobile: Vec::new(),
            faults_per_cluster: Vec::new(),
            random_faults: Vec::new(),
            rate_overrides: Vec::new(),
            scheduler: SchedulerSpec::Global,
        }
    }

    /// Derives the parameter set implied by the spec's environment and
    /// cluster shape.
    ///
    /// # Errors
    ///
    /// Returns an error if the environment is infeasible.
    pub fn params(&self) -> Result<Params, SpecError> {
        Params::builder(self.rho, self.d, self.u, self.f)
            .cluster_size(self.cluster_size)
            .build()
            .map_err(|e| SpecError::new(format!("infeasible parameters: {e}")))
    }

    /// Serializes the spec to its canonical text form.
    ///
    /// The printer is the exact inverse of [`ScenarioSpec::parse`]:
    /// `parse(print(s)) == s` for every spec whose `name` is a single
    /// `#`-free word — the only names `parse` itself can produce and
    /// the only ones [`Scenario::from_spec`] accepts (a multi-word or
    /// `#`-containing name set directly on the public field would not
    /// survive the line-oriented format).
    ///
    /// [`Scenario::from_spec`]: crate::runner::Scenario::from_spec
    #[must_use]
    pub fn print(&self) -> String {
        let mut out = String::new();
        let w = &mut out;
        let _ = writeln!(w, "name {}", self.name);
        let _ = writeln!(w, "topology {}", self.topology.print());
        let _ = writeln!(w, "cluster_size {}", self.cluster_size);
        let _ = writeln!(w, "f {}", self.f);
        let _ = writeln!(w, "env {} {} {}", self.rho, self.d, self.u);
        let _ = writeln!(w, "seed {}", self.seed);
        match self.duration {
            DurationSpec::Secs(s) => {
                let _ = writeln!(w, "duration {s}");
            }
            DurationSpec::Rounds(r) => {
                let _ = writeln!(w, "duration {r} rounds");
            }
        }
        let _ = writeln!(w, "delay {}", print_delay(&self.delay));
        let _ = writeln!(w, "rate_model {}", print_rate_model(&self.rate_model));
        match self.sample_interval {
            SampleSpec::HalfRound => {
                let _ = writeln!(w, "sample_interval half_round");
            }
            SampleSpec::Off => {
                let _ = writeln!(w, "sample_interval none");
            }
            SampleSpec::Secs(s) => {
                let _ = writeln!(w, "sample_interval {s}");
            }
        }
        let _ = writeln!(w, "mode_policy {}", print_mode_policy(self.mode_policy));
        let _ = writeln!(
            w,
            "max_estimator {}",
            if self.max_estimator { "on" } else { "off" }
        );
        let _ = writeln!(w, "offset_spread {}", self.offset_spread);
        let _ = writeln!(w, "offset_ramp {}", self.offset_ramp);
        for &(c, off) in &self.cluster_offsets {
            let _ = writeln!(w, "cluster_offset {c} {off}");
        }
        for (node, kind) in &self.faults {
            let _ = writeln!(w, "fault {node} {}", print_fault(kind));
        }
        for (node, kind, from, to) in &self.fault_windows {
            let _ = writeln!(w, "fault {node} {} from {from} to {to}", print_fault(kind));
        }
        for (count, kind) in &self.faults_per_cluster {
            let _ = writeln!(w, "fault_per_cluster {count} {}", print_fault(kind));
        }
        for (count, seed, kind) in &self.random_faults {
            let _ = writeln!(w, "random_faults {count} {seed} {}", print_fault(kind));
        }
        for (count, kind, period, downtime) in &self.churn {
            let _ = writeln!(
                w,
                "churn {count} {} period {period} downtime {downtime}",
                print_fault(kind)
            );
        }
        for (count, kind, hop) in &self.mobile {
            let _ = writeln!(w, "mobile {count} {} hop {hop}", print_fault(kind));
        }
        for (node, model) in &self.rate_overrides {
            let _ = writeln!(w, "rate_override {node} {}", print_rate_model(model));
        }
        match self.scheduler {
            SchedulerSpec::Global => {
                let _ = writeln!(w, "scheduler global");
            }
            SchedulerSpec::Parallel(workers) => {
                let _ = writeln!(w, "scheduler parallel {workers}");
            }
        }
        out
    }

    /// Parses the text form.
    ///
    /// Unknown keys are errors (a typo must not silently change an
    /// experiment); `#` starts a comment; blank lines are ignored;
    /// `name` and `topology` are required, everything else defaults as
    /// in [`ScenarioSpec::new`].
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the offending line.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        let mut name: Option<String> = None;
        let mut topology: Option<TopologySpec> = None;
        let mut cluster_size: Option<usize> = None;
        let mut sample_line = 0;
        let mut spec = ScenarioSpec::new("", TopologySpec::Line(1), 0);
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let tokens: Vec<&str> = line.split_whitespace().collect();
            let (key, args) = (tokens[0], &tokens[1..]);
            let one = |what: &str| -> Result<&str, SpecError> {
                if args.len() == 1 {
                    Ok(args[0])
                } else {
                    Err(SpecError::at(lineno, format!("{key} takes one {what}")))
                }
            };
            match key {
                "name" => name = Some(one("word")?.to_string()),
                "topology" => topology = Some(TopologySpec::parse(args, lineno)?),
                "cluster_size" => cluster_size = Some(parse_num(one("integer")?, lineno)?),
                "f" => spec.f = parse_num(one("integer")?, lineno)?,
                "env" => {
                    if args.len() != 3 {
                        return Err(SpecError::at(lineno, "env takes three values: rho d U"));
                    }
                    spec.rho = parse_num(args[0], lineno)?;
                    spec.d = parse_num(args[1], lineno)?;
                    spec.u = parse_num(args[2], lineno)?;
                }
                "seed" => spec.seed = parse_num(one("integer")?, lineno)?,
                "duration" => {
                    spec.duration = match args {
                        [secs] => DurationSpec::Secs(parse_num(secs, lineno)?),
                        [rounds, "rounds"] => DurationSpec::Rounds(parse_num(rounds, lineno)?),
                        _ => {
                            return Err(SpecError::at(
                                lineno,
                                "duration takes `<secs>` or `<n> rounds`",
                            ));
                        }
                    };
                    let raw = match spec.duration {
                        DurationSpec::Secs(x) | DurationSpec::Rounds(x) => x,
                    };
                    if !raw.is_finite() || raw < 0.0 {
                        return Err(SpecError::at(
                            lineno,
                            "duration must be finite and non-negative",
                        ));
                    }
                }
                "delay" => spec.delay = parse_delay(one("distribution")?, lineno)?,
                "rate_model" => spec.rate_model = parse_rate_model(args, lineno)?,
                "sample_interval" => {
                    sample_line = lineno;
                    spec.sample_interval = match one("value")? {
                        "half_round" => SampleSpec::HalfRound,
                        "none" => SampleSpec::Off,
                        secs => {
                            let secs: f64 = parse_num(secs, lineno)?;
                            // A zero interval would re-arm the sample
                            // event at the same instant forever and
                            // livelock the engine.
                            if !secs.is_finite() || secs <= 0.0 {
                                return Err(SpecError::at(
                                    lineno,
                                    "sample_interval must be positive and finite (or `none`)",
                                ));
                            }
                            SampleSpec::Secs(secs)
                        }
                    };
                }
                "mode_policy" => spec.mode_policy = parse_mode_policy(one("policy")?, lineno)?,
                "max_estimator" => {
                    spec.max_estimator = match one("on/off")? {
                        "on" => true,
                        "off" => false,
                        other => {
                            return Err(SpecError::at(
                                lineno,
                                format!("max_estimator must be on/off, got {other:?}"),
                            ));
                        }
                    };
                }
                "offset_spread" => spec.offset_spread = parse_num(one("value")?, lineno)?,
                "offset_ramp" => spec.offset_ramp = parse_num(one("value")?, lineno)?,
                "cluster_offset" => {
                    if args.len() != 2 {
                        return Err(SpecError::at(
                            lineno,
                            "cluster_offset takes: cluster offset",
                        ));
                    }
                    spec.cluster_offsets
                        .push((parse_num(args[0], lineno)?, parse_num(args[1], lineno)?));
                }
                "fault" => {
                    if args.len() < 2 {
                        return Err(SpecError::at(
                            lineno,
                            "fault takes: node kind [args…] [from <t> to <t>]",
                        ));
                    }
                    let node = parse_num(args[0], lineno)?;
                    // `from` splits the kind tokens from the window:
                    // fault kinds take only numeric arguments, so the
                    // keyword cannot occur inside them.
                    if let Some(split) = args.iter().position(|&a| a == "from") {
                        let kind = parse_fault(&args[1..split], lineno)?;
                        let window = &args[split..];
                        if window.len() != 4 || window[2] != "to" {
                            return Err(SpecError::at(lineno, "fault window is `from <t> to <t>`"));
                        }
                        let from: f64 = parse_num(window[1], lineno)?;
                        let to: f64 = parse_num(window[3], lineno)?;
                        check_window(from, to, lineno)?;
                        spec.fault_windows.push((node, kind, from, to));
                    } else {
                        spec.faults.push((node, parse_fault(&args[1..], lineno)?));
                    }
                }
                "churn" => {
                    let usage = "churn takes: count kind [args…] period <t> downtime <t>";
                    if args.len() < 2 {
                        return Err(SpecError::at(lineno, usage));
                    }
                    let count: usize = parse_num(args[0], lineno)?;
                    if count == 0 {
                        return Err(SpecError::at(lineno, "churn count must be at least 1"));
                    }
                    let split = args
                        .iter()
                        .position(|&a| a == "period")
                        .ok_or_else(|| SpecError::at(lineno, usage))?;
                    let kind = parse_fault(&args[1..split], lineno)?;
                    let tail = &args[split..];
                    if tail.len() != 4 || tail[2] != "downtime" {
                        return Err(SpecError::at(lineno, usage));
                    }
                    let period: f64 = parse_num(tail[1], lineno)?;
                    let downtime: f64 = parse_num(tail[3], lineno)?;
                    check_churn(period, downtime, lineno)?;
                    spec.churn.push((count, kind, period, downtime));
                }
                "mobile" => {
                    let usage = "mobile takes: count kind [args…] hop <t>";
                    if args.len() < 2 {
                        return Err(SpecError::at(lineno, usage));
                    }
                    let count: usize = parse_num(args[0], lineno)?;
                    if count == 0 {
                        return Err(SpecError::at(lineno, "mobile count must be at least 1"));
                    }
                    let split = args
                        .iter()
                        .position(|&a| a == "hop")
                        .ok_or_else(|| SpecError::at(lineno, usage))?;
                    let kind = parse_fault(&args[1..split], lineno)?;
                    let tail = &args[split..];
                    if tail.len() != 2 {
                        return Err(SpecError::at(lineno, usage));
                    }
                    let hop: f64 = parse_num(tail[1], lineno)?;
                    if !hop.is_finite() || hop <= 0.0 {
                        return Err(SpecError::at(
                            lineno,
                            "mobile hop must be positive and finite",
                        ));
                    }
                    spec.mobile.push((count, kind, hop));
                }
                "fault_per_cluster" => {
                    if args.len() < 2 {
                        return Err(SpecError::at(
                            lineno,
                            "fault_per_cluster takes: count kind [args…]",
                        ));
                    }
                    spec.faults_per_cluster.push((
                        parse_num(args[0], lineno)?,
                        parse_fault(&args[1..], lineno)?,
                    ));
                }
                "random_faults" => {
                    if args.len() < 3 {
                        return Err(SpecError::at(
                            lineno,
                            "random_faults takes: count seed kind [args…]",
                        ));
                    }
                    spec.random_faults.push((
                        parse_num(args[0], lineno)?,
                        parse_num(args[1], lineno)?,
                        parse_fault(&args[2..], lineno)?,
                    ));
                }
                "rate_override" => {
                    if args.len() < 2 {
                        return Err(SpecError::at(lineno, "rate_override takes: node model…"));
                    }
                    spec.rate_overrides.push((
                        parse_num(args[0], lineno)?,
                        parse_rate_model(&args[1..], lineno)?,
                    ));
                }
                "scheduler" => {
                    spec.scheduler = match args {
                        ["global"] => SchedulerSpec::Global,
                        ["parallel", workers] => {
                            SchedulerSpec::Parallel(parse_num(workers, lineno)?)
                        }
                        _ => {
                            return Err(SpecError::at(
                                lineno,
                                "scheduler is `global` or `parallel <workers>`",
                            ));
                        }
                    };
                }
                other => {
                    return Err(SpecError::at(lineno, format!("unknown key {other:?}")));
                }
            }
        }
        spec.name = name.ok_or_else(|| SpecError::new("missing required key `name`"))?;
        spec.topology =
            topology.ok_or_else(|| SpecError::new("missing required key `topology`"))?;
        spec.cluster_size = cluster_size.unwrap_or(3 * spec.f + 1);
        if spec.name.is_empty() {
            return Err(SpecError::new("name must not be empty"));
        }
        if spec.cluster_size < 3 * spec.f + 1 {
            return Err(SpecError::new(format!(
                "cluster_size {} is below 3f+1 = {}",
                spec.cluster_size,
                3 * spec.f + 1
            )));
        }
        // Against the horizon, which lines after `sample_interval` may
        // still have moved. (An infeasible `env` is `from_spec`'s to
        // report.)
        if let (SampleSpec::Secs(secs), Ok(params)) = (spec.sample_interval, spec.params()) {
            check_sample_spacing(secs, spec.duration.resolve(&params), sample_line)?;
        }
        Ok(spec)
    }
}

/// Is `name` expressible in the text format? One non-empty word: no
/// whitespace (the printer emits `name <word>` on one line) and no `#`
/// (which would start a comment on re-parse). [`ScenarioSpec::parse`]
/// can only produce such names; [`Scenario::from_spec`] rejects others
/// so that `to_spec().print()` always re-parses.
///
/// [`Scenario::from_spec`]: crate::runner::Scenario::from_spec
pub(crate) fn name_is_canonical(name: &str) -> bool {
    !name.is_empty() && !name.contains(char::is_whitespace) && !name.contains('#')
}

/// Rejects a sample interval so small that f64 cannot add it to the
/// time at the horizon: it passes "positive and finite", and the sample
/// chain then never gets there (`sample_interval 1e-300`). Shared by the
/// parser (with the line) and [`Scenario::from_spec`] (line 0).
///
/// [`Scenario::from_spec`]: crate::runner::Scenario::from_spec
pub(crate) fn check_sample_spacing(secs: f64, horizon: f64, line: usize) -> Result<(), SpecError> {
    if horizon + secs == horizon {
        return Err(SpecError::at(
            line,
            format!(
                "sample_interval {secs:e} is below the f64 spacing at the horizon \
                 ({horizon} s): sampling would never get there"
            ),
        ));
    }
    Ok(())
}

/// Validates one fault window: finite bounds, `from ≥ 0`, `to > from`.
/// Shared by the parser (with a line number) and
/// [`Scenario::from_spec`] (line 0) so programmatic specs get the same
/// `SpecError` instead of a panic.
///
/// [`Scenario::from_spec`]: crate::runner::Scenario::from_spec
pub(crate) fn check_window(from: f64, to: f64, line: usize) -> Result<(), SpecError> {
    if !from.is_finite() || !to.is_finite() || from < 0.0 {
        return Err(SpecError::at(
            line,
            "fault window bounds must be finite and non-negative",
        ));
    }
    if to <= from {
        return Err(SpecError::at(
            line,
            format!("fault window is inverted: to {to} must exceed from {from}"),
        ));
    }
    Ok(())
}

/// Validates churn timing: finite `period > 0` and `0 < downtime <
/// period` (a node must be up part of every cycle to re-integrate).
pub(crate) fn check_churn(period: f64, downtime: f64, line: usize) -> Result<(), SpecError> {
    if !period.is_finite() || period <= 0.0 {
        return Err(SpecError::at(
            line,
            "churn period must be positive and finite",
        ));
    }
    if !downtime.is_finite() || downtime <= 0.0 || downtime >= period {
        return Err(SpecError::at(
            line,
            format!("churn downtime must satisfy 0 < downtime < period, got {downtime}"),
        ));
    }
    Ok(())
}

fn parse_num<T: std::str::FromStr>(s: &str, line: usize) -> Result<T, SpecError> {
    s.parse::<T>()
        .map_err(|_| SpecError::at(line, format!("invalid number {s:?}")))
}

fn print_delay(d: &DelayDistribution) -> &'static str {
    match d {
        DelayDistribution::Uniform => "uniform",
        DelayDistribution::Maximal => "maximal",
        DelayDistribution::Minimal => "minimal",
        DelayDistribution::AsymmetricById => "asymmetric_by_id",
        DelayDistribution::AlternatingByDst => "alternating_by_dst",
    }
}

fn parse_delay(s: &str, line: usize) -> Result<DelayDistribution, SpecError> {
    Ok(match s {
        "uniform" => DelayDistribution::Uniform,
        "maximal" => DelayDistribution::Maximal,
        "minimal" => DelayDistribution::Minimal,
        "asymmetric_by_id" => DelayDistribution::AsymmetricById,
        "alternating_by_dst" => DelayDistribution::AlternatingByDst,
        other => {
            return Err(SpecError::at(
                line,
                format!("unknown delay distribution {other:?}"),
            ));
        }
    })
}

fn print_mode_policy(p: ModePolicy) -> &'static str {
    match p {
        ModePolicy::Sticky => "sticky",
        ModePolicy::DefaultSlow => "default_slow",
        ModePolicy::CatchUp => "catch_up",
    }
}

fn parse_mode_policy(s: &str, line: usize) -> Result<ModePolicy, SpecError> {
    Ok(match s {
        "sticky" => ModePolicy::Sticky,
        "default_slow" => ModePolicy::DefaultSlow,
        "catch_up" => ModePolicy::CatchUp,
        other => {
            return Err(SpecError::at(
                line,
                format!("unknown mode policy {other:?}"),
            ));
        }
    })
}

fn print_rate_model(m: &RateModel) -> String {
    match m {
        RateModel::Constant { frac } => format!("constant {frac}"),
        RateModel::RandomConstant => "random_constant".to_string(),
        RateModel::RandomWalk { dwell, step } => format!("random_walk {dwell} {step}"),
        RateModel::Sinusoid { period, phase } => format!("sinusoid {period} {phase}"),
        RateModel::Schedule(points) => {
            let mut s = "schedule".to_string();
            for (t, frac) in points {
                let _ = write!(s, " {t}:{frac}");
            }
            s
        }
    }
}

fn parse_rate_model(args: &[&str], line: usize) -> Result<RateModel, SpecError> {
    let kind = *args
        .first()
        .ok_or_else(|| SpecError::at(line, "rate model needs a kind"))?;
    let want = |n: usize| -> Result<(), SpecError> {
        if args.len() == n + 1 {
            Ok(())
        } else {
            Err(SpecError::at(
                line,
                format!("rate model {kind} takes {n} argument(s)"),
            ))
        }
    };
    Ok(match kind {
        "constant" => {
            want(1)?;
            RateModel::Constant {
                frac: parse_num(args[1], line)?,
            }
        }
        "random_constant" => {
            want(0)?;
            RateModel::RandomConstant
        }
        "random_walk" => {
            want(2)?;
            RateModel::RandomWalk {
                dwell: parse_num(args[1], line)?,
                step: parse_num(args[2], line)?,
            }
        }
        "sinusoid" => {
            want(2)?;
            RateModel::Sinusoid {
                period: parse_num(args[1], line)?,
                phase: parse_num(args[2], line)?,
            }
        }
        "schedule" => {
            if args.len() < 2 {
                return Err(SpecError::at(
                    line,
                    "schedule needs at least one t:frac pair",
                ));
            }
            let mut points = Vec::new();
            for pair in &args[1..] {
                let (t, frac) = pair.split_once(':').ok_or_else(|| {
                    SpecError::at(line, format!("schedule entries are t:frac, got {pair:?}"))
                })?;
                points.push((parse_num(t, line)?, parse_num(frac, line)?));
            }
            RateModel::Schedule(points)
        }
        other => {
            return Err(SpecError::at(line, format!("unknown rate model {other:?}")));
        }
    })
}

fn print_fault(kind: &FaultKind) -> String {
    match kind {
        FaultKind::Silent => "silent".to_string(),
        FaultKind::Crash { at } => format!("crash {at}"),
        FaultKind::RandomPulser { mean_interval } => format!("random_pulser {mean_interval}"),
        FaultKind::TwoFaced { amplitude } => format!("two_faced {amplitude}"),
        FaultKind::SkewPuller { offset } => format!("skew_puller {offset}"),
        FaultKind::StealthyRusher { extra_rate } => format!("stealthy_rusher {extra_rate}"),
        FaultKind::LevelFlooder { level_step } => format!("level_flooder {level_step}"),
    }
}

fn parse_fault(args: &[&str], line: usize) -> Result<FaultKind, SpecError> {
    let kind = *args
        .first()
        .ok_or_else(|| SpecError::at(line, "fault needs a kind"))?;
    let want = |n: usize| -> Result<(), SpecError> {
        if args.len() == n + 1 {
            Ok(())
        } else {
            Err(SpecError::at(
                line,
                format!("fault {kind} takes {n} argument(s)"),
            ))
        }
    };
    Ok(match kind {
        "silent" => {
            want(0)?;
            FaultKind::Silent
        }
        "crash" => {
            want(1)?;
            FaultKind::Crash {
                at: parse_num(args[1], line)?,
            }
        }
        "random_pulser" => {
            want(1)?;
            FaultKind::RandomPulser {
                mean_interval: parse_num(args[1], line)?,
            }
        }
        "two_faced" => {
            want(1)?;
            FaultKind::TwoFaced {
                amplitude: parse_num(args[1], line)?,
            }
        }
        "skew_puller" => {
            want(1)?;
            FaultKind::SkewPuller {
                offset: parse_num(args[1], line)?,
            }
        }
        "stealthy_rusher" => {
            want(1)?;
            FaultKind::StealthyRusher {
                extra_rate: parse_num(args[1], line)?,
            }
        }
        "level_flooder" => {
            want(1)?;
            FaultKind::LevelFlooder {
                level_step: parse_num(args[1], line)?,
            }
        }
        other => {
            return Err(SpecError::at(line, format!("unknown fault kind {other:?}")));
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_round_trips() {
        let spec = ScenarioSpec::new("demo", TopologySpec::Line(4), 1);
        let text = spec.print();
        assert_eq!(ScenarioSpec::parse(&text).unwrap(), spec);
    }

    #[test]
    fn loaded_spec_round_trips_with_everything_set() {
        let mut spec = ScenarioSpec::new("kitchen_sink", TopologySpec::Grid(2, 3), 2);
        spec.cluster_size = 8;
        spec.seed = 99;
        spec.duration = DurationSpec::Secs(1.25);
        spec.delay = DelayDistribution::AsymmetricById;
        spec.rate_model = RateModel::Sinusoid {
            period: 3.5,
            phase: 0.25,
        };
        spec.sample_interval = SampleSpec::Secs(0.01);
        spec.mode_policy = ModePolicy::Sticky;
        spec.max_estimator = false;
        spec.offset_spread = 1e-4;
        spec.offset_ramp = 2e-4;
        spec.cluster_offsets = vec![(1, 3e-4), (5, 1e-5)];
        spec.faults = vec![(3, FaultKind::Crash { at: 0.5 })];
        spec.faults_per_cluster = vec![(1, FaultKind::TwoFaced { amplitude: 1e-3 })];
        spec.random_faults = vec![(1, 7, FaultKind::Silent)];
        spec.rate_overrides = vec![(0, RateModel::Constant { frac: 1.0 })];
        spec.scheduler = SchedulerSpec::Parallel(4);
        let text = spec.print();
        assert_eq!(ScenarioSpec::parse(&text).unwrap(), spec);
    }

    #[test]
    fn schedule_rate_model_round_trips() {
        let mut spec = ScenarioSpec::new("sched", TopologySpec::Ring(3), 1);
        spec.rate_model = RateModel::Schedule(vec![(0.0, 1.0), (100.0, 0.0)]);
        let text = spec.print();
        assert_eq!(ScenarioSpec::parse(&text).unwrap(), spec);
        assert!(text.contains("schedule 0:1 100:0"));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "\n# a comment\nname x # trailing\n\ntopology line 2\n";
        let spec = ScenarioSpec::parse(text).unwrap();
        assert_eq!(spec.name, "x");
        assert_eq!(spec.topology, TopologySpec::Line(2));
    }

    #[test]
    fn unknown_key_is_an_error_with_line_number() {
        let err = ScenarioSpec::parse("name x\ntopology line 2\nbogus 3\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.msg.contains("bogus"));
    }

    #[test]
    fn missing_required_keys_are_errors() {
        assert!(ScenarioSpec::parse("topology line 2\n").is_err());
        assert!(ScenarioSpec::parse("name x\n").is_err());
    }

    #[test]
    fn undersized_cluster_rejected() {
        let err =
            ScenarioSpec::parse("name x\ntopology line 2\nf 2\ncluster_size 4\n").unwrap_err();
        assert!(err.msg.contains("3f+1"));
    }

    #[test]
    fn lifecycle_directives_round_trip() {
        let mut spec = ScenarioSpec::new("lifecycle", TopologySpec::Line(3), 1);
        spec.fault_windows = vec![
            (2, FaultKind::TwoFaced { amplitude: 1e-3 }, 0.5, 1.5),
            (5, FaultKind::Silent, 1.0, 2.0),
        ];
        spec.churn = vec![(2, FaultKind::Silent, 1.0, 0.25)];
        spec.mobile = vec![(1, FaultKind::SkewPuller { offset: -1e-3 }, 0.5)];
        let text = spec.print();
        assert!(text.contains("fault 2 two_faced 0.001 from 0.5 to 1.5"));
        assert!(text.contains("churn 2 silent period 1 downtime 0.25"));
        assert!(text.contains("mobile 1 skew_puller -0.001 hop 0.5"));
        assert_eq!(ScenarioSpec::parse(&text).unwrap(), spec);
    }

    #[test]
    fn inverted_window_is_a_spec_error() {
        let err = ScenarioSpec::parse("name x\ntopology line 2\nfault 0 silent from 2 to 2\n")
            .unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.msg.contains("inverted"));
        assert!(
            ScenarioSpec::parse("name x\ntopology line 2\nfault 0 silent from -1 to 2\n").is_err()
        );
    }

    #[test]
    fn bad_churn_timing_is_a_spec_error() {
        let base = "name x\ntopology line 2\n";
        for bad in [
            "churn 1 silent period 1 downtime -0.5\n",
            "churn 1 silent period 1 downtime 1\n",
            "churn 1 silent period 0 downtime 0.5\n",
            "churn 0 silent period 1 downtime 0.5\n",
            "churn 1 silent downtime 0.5\n",
        ] {
            assert!(
                ScenarioSpec::parse(&format!("{base}{bad}")).is_err(),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn bad_mobile_directive_is_a_spec_error() {
        let base = "name x\ntopology line 2\n";
        for bad in [
            "mobile 1 silent hop 0\n",
            "mobile 1 silent hop -1\n",
            "mobile 0 silent hop 1\n",
            "mobile 1 silent\n",
        ] {
            assert!(
                ScenarioSpec::parse(&format!("{base}{bad}")).is_err(),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn duration_forms_parse() {
        let secs = ScenarioSpec::parse("name x\ntopology line 2\nduration 2.5\n").unwrap();
        assert_eq!(secs.duration, DurationSpec::Secs(2.5));
        let rounds = ScenarioSpec::parse("name x\ntopology line 2\nduration 15 rounds\n").unwrap();
        assert_eq!(rounds.duration, DurationSpec::Rounds(15.0));
    }
}
