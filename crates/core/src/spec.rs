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
//! # Validity
//!
//! Whether a description lies inside the model is decided in one
//! function, `ScenarioSpec::check`: [`ScenarioSpec::parse`] runs it on
//! the filled fields (and adds the source line),
//! [`Scenario::from_spec`](crate::runner::Scenario::from_spec) runs it
//! before assembling (line 0). No graph is built. In the order applied:
//!
//! 1. `name` is one word without `#`.
//! 2. `topology` meets its generator's precondition (in the generator's
//!    sentence) and its vertices × `cluster_size` fit the node index.
//! 3. `env`, `f`, `cluster_size` are feasible [`Params`] (`k ≥ 3f+1`,
//!    `0 ≤ U ≤ d`, a contracting recursion, a level unit `≥ d − U`).
//! 4. `duration` is finite and non-negative.
//! 5. `sample_interval` — and `period`, `hop` — is positive and finite,
//!    and like every interval the run re-arms on (`downtime`, a walk's
//!    dwell, a sinusoid's segment, a pulser's interval, a rusher's
//!    round) not below the f64 spacing at the horizon.
//! 6. `rate_model`, `rate_override`: node in range; finite arguments,
//!    fractions in `[0, 1]`, step `≥ 0`, dwell and period positive; a
//!    schedule starts at `t = 0` and strictly increases.
//! 7. `offset_spread`, `offset_ramp`, `cluster_offset`: the cluster
//!    exists; finite, `≥ 0`, and a clock started there resolves a round.
//! 8. `scheduler parallel` needs a lookahead `d − U > 0`, and not below
//!    the f64 spacing at the horizon.
//! 9. Sugar: `fault_per_cluster` / `random_faults` count `≤ k`; `churn`
//!    / `mobile` count in `1..=f·C`; `0 < downtime < period`; and, like
//!    every line naming a fault strategy, its argument finite and any
//!    interval it sets (pulser, rusher) positive.
//! 10. Explicit `fault` lines, placed in file order through the two
//!     primitives of `Placements` that every placement goes through:
//!     node in range, `0 ≤ from < to` finite, one permanent fault per
//!     node, no window on such a node, no two windows of a node
//!     overlapping or abutting.
//!
//! Two errors need the expansion and so come only from `from_spec`'s
//! assembly: a sugar placement colliding with another one (the same
//! primitives, the same sentences) and a `mobile` adversary with
//! nowhere to hop.
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
use std::sync::Arc;

use ftgcs_sim::clock::RateModel;
use ftgcs_sim::network::DelayDistribution;
use ftgcs_topology::{generators, Graph};

use crate::faults::{FaultKind, StealthyRusher};
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

    /// The generator's precondition, in the sentence of the generator's
    /// own `assert!` — which stays, as the guard of a direct library
    /// call — and the vertex count in closed form and checked
    /// arithmetic, so that no graph has to be built to know it.
    fn check(&self) -> Result<usize, String> {
        // 1 + a + a² + … + a^d; below arity 2 nothing overflows to end
        // a loop of `d` steps early, so there it is the closed form.
        let tree = |a: usize, d: usize| match a {
            0 | 1 => d.checked_mul(a)?.checked_add(1),
            _ => (0..d)
                .try_fold((1usize, 1usize), |(sum, level), _| {
                    let level = level.checked_mul(a)?;
                    Some((sum.checked_add(level)?, level))
                })
                .map(|(sum, _)| sum),
        };
        let (ok, needs, vertices) = match *self {
            Self::Line(n) => (n >= 1, "line needs at least one vertex", Some(n)),
            Self::Ring(n) => (n >= 3, "ring needs at least three vertices", Some(n)),
            Self::Star(n) => (n >= 2, "star needs at least two vertices", Some(n)),
            Self::Complete(n) => (n >= 1, "complete graph needs at least one vertex", Some(n)),
            Self::Grid(r, c) => (
                r >= 1 && c >= 1,
                "grid needs positive dimensions",
                r.checked_mul(c),
            ),
            Self::Torus(r, c) => (
                r >= 3 && c >= 3,
                "torus needs dimensions >= 3",
                r.checked_mul(c),
            ),
            Self::Hypercube(d) => (
                d >= 1,
                "hypercube needs dimension >= 1",
                1usize.checked_shl(d),
            ),
            Self::Tree(a, d) => (a >= 1, "tree arity must be >= 1", tree(a, d)),
        };
        if !ok {
            return Err(needs.to_string());
        }
        vertices.ok_or_else(|| format!("topology {} overflows the vertex count", self.print()))
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
        let num = |s: &str| parse_num::<usize>(s, line);
        Ok(match args {
            ["line", n] => Self::Line(num(n)?),
            ["ring", n] => Self::Ring(num(n)?),
            ["star", n] => Self::Star(num(n)?),
            ["complete", n] => Self::Complete(num(n)?),
            ["grid", r, c] => Self::Grid(num(r)?, num(c)?),
            ["torus", r, c] => Self::Torus(num(r)?, num(c)?),
            ["hypercube", d] => Self::Hypercube(parse_num(d, line)?),
            ["tree", a, d] => Self::Tree(num(a)?, num(d)?),
            _ => {
                let shapes = "line|ring|star|complete <n>, grid|torus <r> <c>, hypercube <d>, \
                              tree <arity> <depth>";
                return Err(SpecError::at(
                    line,
                    format!("topology is {shapes}; got {args:?}"),
                ));
            }
        })
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

    /// Parses the text form: tokenise, fill the fields, then run the one
    /// validity gate (module docs, "Validity") with the source lines at
    /// hand.
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
        // Which key was read on which line, for the gate's errors.
        let mut log: Vec<(&str, usize)> = Vec::new();
        let mut spec = ScenarioSpec::new("", TopologySpec::Line(1), 0);
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let code = raw.split('#').next().unwrap_or("");
            let tokens: Vec<&str> = code.split_whitespace().collect();
            let Some((&key, args)) = tokens.split_first() else {
                continue;
            };
            let mut tag = key;
            match (key, args) {
                ("name", [word]) => name = Some(word.to_string()),
                ("topology", _) => topology = Some(TopologySpec::parse(args, line)?),
                ("cluster_size", [k]) => cluster_size = Some(parse_num(k, line)?),
                ("f", [f]) => spec.f = parse_num(f, line)?,
                ("env", [rho, d, u]) => {
                    spec.rho = parse_num(rho, line)?;
                    spec.d = parse_num(d, line)?;
                    spec.u = parse_num(u, line)?;
                }
                ("seed", [seed]) => spec.seed = parse_num(seed, line)?,
                ("duration", [secs]) => spec.duration = DurationSpec::Secs(parse_num(secs, line)?),
                ("duration", [rounds, "rounds"]) => {
                    spec.duration = DurationSpec::Rounds(parse_num(rounds, line)?);
                }
                ("delay", [dist]) => spec.delay = parse_delay(dist, line)?,
                ("rate_model", _) => spec.rate_model = parse_rate_model(args, line)?,
                ("sample_interval", ["half_round"]) => spec.sample_interval = SampleSpec::HalfRound,
                ("sample_interval", ["none"]) => spec.sample_interval = SampleSpec::Off,
                ("sample_interval", [secs]) => {
                    spec.sample_interval = SampleSpec::Secs(parse_num(secs, line)?);
                }
                ("mode_policy", [policy]) => spec.mode_policy = parse_mode_policy(policy, line)?,
                ("max_estimator", ["on"]) => spec.max_estimator = true,
                ("max_estimator", ["off"]) => spec.max_estimator = false,
                ("offset_spread", [x]) => spec.offset_spread = parse_num(x, line)?,
                ("offset_ramp", [x]) => spec.offset_ramp = parse_num(x, line)?,
                ("cluster_offset", [cluster, x]) => {
                    let entry = (parse_num(cluster, line)?, parse_num(x, line)?);
                    spec.cluster_offsets.push(entry);
                }
                // `from` splits a fault's kind tokens from its window:
                // kinds take only numeric arguments, so the keyword
                // cannot occur inside them. The two forms fill
                // different fields.
                ("fault", [node, kind @ .., "from", from, "to", to]) => {
                    tag = "fault from";
                    let (from, to) = (parse_num(from, line)?, parse_num(to, line)?);
                    let entry = (parse_num(node, line)?, parse_fault(kind, line)?, from, to);
                    spec.fault_windows.push(entry);
                }
                ("fault", [node, kind @ ..]) if !kind.contains(&"from") => {
                    let entry = (parse_num(node, line)?, parse_fault(kind, line)?);
                    spec.faults.push(entry);
                }
                ("churn", [count, kind @ .., "period", period, "downtime", downtime]) => {
                    let (period, down) = (parse_num(period, line)?, parse_num(downtime, line)?);
                    let entry = (
                        parse_num(count, line)?,
                        parse_fault(kind, line)?,
                        period,
                        down,
                    );
                    spec.churn.push(entry);
                }
                ("mobile", [count, kind @ .., "hop", hop]) => {
                    let kind = parse_fault(kind, line)?;
                    let entry = (parse_num(count, line)?, kind, parse_num(hop, line)?);
                    spec.mobile.push(entry);
                }
                ("fault_per_cluster", [count, kind @ ..]) => {
                    let entry = (parse_num(count, line)?, parse_fault(kind, line)?);
                    spec.faults_per_cluster.push(entry);
                }
                ("random_faults", [count, seed, kind @ ..]) => {
                    let kind = parse_fault(kind, line)?;
                    let entry = (parse_num(count, line)?, parse_num(seed, line)?, kind);
                    spec.random_faults.push(entry);
                }
                ("rate_override", [node, model @ ..]) => {
                    let entry = (parse_num(node, line)?, parse_rate_model(model, line)?);
                    spec.rate_overrides.push(entry);
                }
                ("scheduler", ["global"]) => spec.scheduler = SchedulerSpec::Global,
                ("scheduler", ["parallel", workers]) => {
                    spec.scheduler = SchedulerSpec::Parallel(parse_num(workers, line)?);
                }
                _ => {
                    let msg = match usage(key) {
                        Some(shape) => format!("{key} takes: {shape}"),
                        None => format!("unknown key {key:?}"),
                    };
                    return Err(SpecError::at(line, msg));
                }
            }
            log.push((tag, line));
        }
        spec.name = name.ok_or_else(|| SpecError::new("missing required key `name`"))?;
        spec.topology =
            topology.ok_or_else(|| SpecError::new("missing required key `topology`"))?;
        spec.cluster_size =
            cluster_size.unwrap_or_else(|| spec.f.saturating_mul(3).saturating_add(1));
        spec.check_with(&|key, nth| {
            let mut lines = log.iter().filter(|l| l.0 == key).map(|l| l.1);
            match nth {
                Some(i) => lines.nth(i),
                None => lines.next_back(),
            }
            .unwrap_or(0)
        })?;
        Ok(spec)
    }

    /// The validity gate, for a spec filled in code: every rule of the
    /// module docs' "Validity" section, reported at line 0.
    pub(crate) fn check(&self) -> Result<(), SpecError> {
        self.check_with(&|_, _| 0)
    }

    /// The one body of every validity rule. `line_of(key, nth)` names
    /// the source line of the `nth` entry of a repeatable key, or with
    /// `None` the last line of a scalar one (scalars are last-wins).
    fn check_with(&self, line_of: &dyn Fn(&str, Option<usize>) -> usize) -> Result<(), SpecError> {
        let at = |key: &str, nth, msg: String| SpecError::at(line_of(key, nth), msg);

        if self.name.is_empty() || self.name.contains(|c: char| c.is_whitespace() || c == '#') {
            let name = &self.name;
            let msg =
                format!("name {name:?} is not expressible in the spec format (one word, no '#')");
            return Err(at("name", None, msg));
        }
        let clusters = self.topology.check().map_err(|m| at("topology", None, m))?;
        let nodes = clusters.checked_mul(self.cluster_size).ok_or_else(|| {
            let msg = format!(
                "{clusters} clusters of {} nodes overflow",
                self.cluster_size
            );
            at("cluster_size", None, msg)
        })?;
        let params = Arc::new(self.params().map_err(|e| at("env", None, e.msg))?);
        let (DurationSpec::Secs(raw) | DurationSpec::Rounds(raw)) = self.duration;
        if !raw.is_finite() || raw < 0.0 {
            let msg = "duration must be finite and non-negative".to_string();
            return Err(at("duration", None, msg));
        }
        let horizon = self.duration.resolve(&params);

        // A zero interval re-arms its event at the same instant forever
        // and livelocks the engine; so does one below the f64 spacing.
        let at_horizon = |what: &str, secs: f64| spaced(what, secs, "the horizon", horizon);
        let interval = |sentence: &str, what: &str, secs: f64| {
            if !secs.is_finite() || secs <= 0.0 {
                return Err(sentence.to_string());
            }
            at_horizon(what, secs)
        };
        if let SampleSpec::Secs(secs) = self.sample_interval {
            let sentence = "sample_interval must be positive and finite (or `none`)";
            interval(sentence, "sample_interval", secs)
                .map_err(|m| at("sample_interval", None, m))?;
        }

        let rate = |model: &RateModel| match rate_model_interval(model)? {
            Some(secs) => at_horizon("rate segment", secs),
            None => Ok(()),
        };
        rate(&self.rate_model).map_err(|m| at("rate_model", None, m))?;
        for (i, (node, model)) in self.rate_overrides.iter().enumerate() {
            node_in_range("rate_override", *node, nodes)
                .and_then(|()| rate(model))
                .map_err(|m| at("rate_override", Some(i), m))?;
        }

        let offset = |what: &str, x: f64| offset_rule(what, x, params.t_round);
        let ramp_end = self.offset_ramp * (clusters - 1) as f64;
        offset("offset_spread", self.offset_spread).map_err(|m| at("offset_spread", None, m))?;
        offset("offset_ramp", self.offset_ramp)
            .and_then(|()| offset("offset_ramp at the last cluster", ramp_end))
            .map_err(|m| at("offset_ramp", None, m))?;
        for (i, &(cluster, x)) in self.cluster_offsets.iter().enumerate() {
            if cluster >= clusters {
                let msg =
                    format!("cluster_offset cluster {cluster} out of range ({clusters} clusters)");
                return Err(at("cluster_offset", Some(i), msg));
            }
            offset("cluster_offset", x).map_err(|m| at("cluster_offset", Some(i), m))?;
        }

        // The conservative windows are `d − U` wide; the engine asserts
        // on a zero width and stops where a window no longer moves time.
        if self.scheduler != SchedulerSpec::Global {
            if params.lookahead() <= 0.0 {
                let msg = "scheduler parallel needs a positive lookahead d − U \
                           (with U = d use `scheduler global`)";
                return Err(at("scheduler", None, msg.to_string()));
            }
            at_horizon("scheduler parallel's lookahead d − U", params.lookahead())
                .map_err(|m| at("scheduler", None, m))?;
        }

        let strategy = |kind: &FaultKind| match fault_interval(kind, &params)? {
            Some(secs) => at_horizon("fault interval", secs),
            None => Ok(()),
        };
        // The builder sugar would silently clamp an oversized count; a
        // spec asking for more faults than a cluster has slots is a
        // typo, not a request for a different experiment.
        let per_cluster = |key: &str, count: usize, kind: &FaultKind| {
            if count > self.cluster_size {
                let k = self.cluster_size;
                return Err(format!("{key} count {count} exceeds cluster_size {k}"));
            }
            strategy(kind)
        };
        // Placed round-robin over the clusters, `count ≤ f·C` moving
        // faults keep each one at `⌈count/C⌉ ≤ f`.
        let budget = self.f.saturating_mul(clusters);
        let moving = |key: &str, count: usize, kind: &FaultKind| {
            if count == 0 {
                return Err(format!("{key} count must be at least 1"));
            }
            if count > budget {
                return Err(format!(
                    "{key} count {count} breaches the per-cluster fault budget \
                     (at most f × clusters = {budget} keep every cluster at ≤ f)"
                ));
            }
            strategy(kind)
        };
        for (i, (count, kind)) in self.faults_per_cluster.iter().enumerate() {
            per_cluster("fault_per_cluster", *count, kind)
                .map_err(|m| at("fault_per_cluster", Some(i), m))?;
        }
        for (i, (count, _, kind)) in self.random_faults.iter().enumerate() {
            per_cluster("random_faults", *count, kind)
                .map_err(|m| at("random_faults", Some(i), m))?;
        }
        for (i, &(count, ref kind, period, downtime)) in self.churn.iter().enumerate() {
            moving("churn", count, kind)
                .and_then(|()| {
                    let sentence = "churn period must be positive and finite";
                    interval(sentence, "churn period", period)
                })
                .and_then(|()| {
                    // A node must be up part of every cycle to re-integrate.
                    if downtime > 0.0 && downtime < period {
                        return at_horizon("churn downtime", downtime);
                    }
                    let rule = "churn downtime must satisfy 0 < downtime < period";
                    Err(format!("{rule}, got {downtime}"))
                })
                .map_err(|m| at("churn", Some(i), m))?;
        }
        for (i, &(count, ref kind, hop)) in self.mobile.iter().enumerate() {
            let sentence = "mobile hop must be positive and finite";
            moving("mobile", count, kind)
                .and_then(|()| interval(sentence, "mobile hop", hop))
                .map_err(|m| at("mobile", Some(i), m))?;
        }

        let mut placed = Placements::new(nodes, Arc::clone(&params));
        for (i, (node, kind)) in self.faults.iter().enumerate() {
            strategy(kind)
                .and_then(|()| placed.fault(*node, kind.clone()))
                .map_err(|m| at("fault", Some(i), m))?;
        }
        for (i, &(node, ref kind, from, to)) in self.fault_windows.iter().enumerate() {
            strategy(kind)
                .and_then(|()| placed.window(node, kind.clone(), from, to))
                .map_err(|m| at("fault from", Some(i), m))?;
        }
        Ok(())
    }
}

/// The fault assignment of a scenario, and the two primitives through
/// which anything is placed on it — the gate's explicit `fault` lines,
/// `from_spec`'s sugar and lifecycle expansions, the panicking
/// `with_fault*` builders — so that each placement rule has one body.
/// It knows the node count, not the graph: the gate has none.
#[derive(Debug, Clone)]
pub(crate) struct Placements {
    nodes: usize,
    params: Arc<Params>,
    /// Permanent faults `(node, strategy)`, in placement order.
    pub(crate) faults: Vec<(usize, FaultKind)>,
    /// Fault windows `(node, strategy, from, to)`.
    pub(crate) windows: Vec<(usize, FaultKind, f64, f64)>,
}

impl Placements {
    pub(crate) fn new(nodes: usize, params: Arc<Params>) -> Self {
        Placements {
            nodes,
            params,
            faults: Vec::new(),
            windows: Vec::new(),
        }
    }

    /// Whether `node` is faulty for the whole run.
    pub(crate) fn permanent(&self, node: usize) -> bool {
        self.faults.iter().any(|f| f.0 == node)
    }

    /// Whether `node` has any placement at all.
    pub(crate) fn assigned(&self, node: usize) -> bool {
        self.permanent(node) || self.windows.iter().any(|w| w.0 == node)
    }

    /// Whether a window of `node` overlaps *or abuts* `[from, to]`:
    /// abutment would put a recovery and a re-infection on one instant,
    /// and the lifecycle schedule needs strictly increasing times.
    pub(crate) fn window_near(&self, node: usize, from: f64, to: f64) -> bool {
        (self.windows.iter()).any(|w| w.0 == node && from <= w.3 && to >= w.2)
    }

    /// Places a permanent fault.
    pub(crate) fn fault(&mut self, node: usize, kind: FaultKind) -> Result<(), String> {
        node_in_range("fault", node, self.nodes)?;
        fault_interval(&kind, &self.params)?;
        if self.assigned(node) {
            return Err(format!(
                "node {node} already has a fault assigned (two faults on one node: \
                 explicit `fault` lines and sugar expansions must not overlap)"
            ));
        }
        self.faults.push((node, kind));
        Ok(())
    }

    /// Places a fault over `[from, to)` Newtonian seconds.
    pub(crate) fn window(
        &mut self,
        node: usize,
        kind: FaultKind,
        from: f64,
        to: f64,
    ) -> Result<(), String> {
        node_in_range("fault window", node, self.nodes)?;
        fault_interval(&kind, &self.params)?;
        if !from.is_finite() || !to.is_finite() || from < 0.0 {
            return Err("fault window bounds must be finite and non-negative".to_string());
        }
        if to <= from {
            return Err(format!(
                "fault window is inverted: to {to} must exceed from {from}"
            ));
        }
        if self.permanent(node) {
            return Err(format!(
                "node {node} has both a permanent fault and a fault window"
            ));
        }
        if self.window_near(node, from, to) {
            return Err(format!(
                "node {node} has overlapping or abutting fault windows around [{from}, {to})"
            ));
        }
        self.windows.push((node, kind, from, to));
        Ok(())
    }
}

/// The f64 spacing rule: adding `secs` to `base` has to move it, or the
/// event re-arms at the same instant forever (`sample_interval 1e-300`).
fn spaced(what: &str, secs: f64, base_name: &str, base: f64) -> Result<(), String> {
    if base + secs != base {
        return Ok(());
    }
    Err(format!(
        "{what} {secs:e} is below the f64 spacing at {base_name} ({base} s): \
         the run would never get past it"
    ))
}

fn node_in_range(what: &str, node: usize, nodes: usize) -> Result<(), String> {
    if node < nodes {
        return Ok(());
    }
    Err(format!(
        "{what} node {node} out of range (graph has {nodes} nodes)"
    ))
}

/// An initial clock offset: finite, non-negative, and not so large that
/// a clock started there cannot resolve one round on top of it.
pub(crate) fn offset_rule(what: &str, offset: f64, t_round: f64) -> Result<(), String> {
    if !offset.is_finite() || offset < 0.0 {
        return Err(format!(
            "{what} must be finite and non-negative, got {offset}"
        ));
    }
    spaced("the round", t_round, what, offset)
}

/// The domain of a fault strategy's argument — finite, and positive
/// where it is (`random_pulser`) or sets (`stealthy_rusher`'s track
/// multiplier) the interval the strategy re-arms on — and that
/// interval. The library asserts behind it stay, for direct calls.
fn fault_interval(kind: &FaultKind, params: &Params) -> Result<Option<f64>, String> {
    let (what, arg) = match *kind {
        FaultKind::Silent | FaultKind::LevelFlooder { .. } => return Ok(None),
        FaultKind::Crash { at } => ("crash time", at),
        FaultKind::RandomPulser { mean_interval } => ("random_pulser interval", mean_interval),
        FaultKind::TwoFaced { amplitude } => ("two_faced amplitude", amplitude),
        FaultKind::SkewPuller { offset } => ("skew_puller offset", offset),
        FaultKind::StealthyRusher { extra_rate } => ("stealthy_rusher extra rate", extra_rate),
    };
    let interval = match kind {
        FaultKind::RandomPulser { .. } => Some(arg),
        FaultKind::StealthyRusher { .. } => {
            Some(params.t_round / StealthyRusher::multiplier(params, arg))
        }
        _ => None,
    };
    if arg.is_finite() && interval.is_none_or(|secs| secs.is_finite() && secs > 0.0) {
        return Ok(interval);
    }
    Err(format!(
        "{what} must be finite, and positive where the strategy re-arms on it, got {arg}"
    ))
}

/// The domain of a rate model's arguments, and the shortest segment it
/// re-draws on when it has one. The schedule sentences are those of
/// `HardwareClock::new`'s own asserts.
fn rate_model_interval(model: &RateModel) -> Result<Option<f64>, String> {
    let fraction = |frac: &f64| (0.0..=1.0).contains(frac);
    let (ok, interval) = match *model {
        RateModel::Constant { ref frac } => (fraction(frac), None),
        RateModel::RandomConstant => (true, None),
        // A negative step would walk the rate out of `[1, 1+ρ]`.
        RateModel::RandomWalk { dwell, step } => {
            (step.is_finite() && step >= 0.0, Some(0.5 * dwell))
        }
        RateModel::Sinusoid { period, phase } => (phase.is_finite(), Some(period / 32.0)),
        RateModel::Schedule(ref points) => {
            if points.first().is_none_or(|p| p.0 != 0.0) {
                return Err("rate schedule must start at t = 0".to_string());
            }
            if !points.windows(2).all(|w| w[0].0 < w[1].0) {
                return Err("rate schedule must be strictly increasing in time".to_string());
            }
            (points.iter().all(|p| fraction(&p.1)), None)
        }
    };
    if ok && interval.is_none_or(|secs| secs.is_finite() && secs > 0.0) {
        return Ok(interval);
    }
    Err(format!(
        "rate model `{}` needs finite arguments, fractions in [0, 1], a non-negative \
         step, and a positive dwell or period",
        print_rate_model(model)
    ))
}

/// The argument shape of each key, for the error on a line of another
/// shape; `None` for a key the format does not have.
fn usage(key: &str) -> Option<&'static str> {
    Some(match key {
        "name" => "one word",
        "cluster_size" | "f" | "seed" => "one integer",
        "env" => "three values: rho d U",
        "duration" => "`<secs>` or `<n> rounds`",
        "delay" => "one distribution",
        "sample_interval" => "`half_round`, `none` or `<secs>`",
        "mode_policy" => "one policy",
        "max_estimator" => "`on` or `off`",
        "offset_spread" | "offset_ramp" => "one value",
        "cluster_offset" => "cluster offset",
        "fault" => "node kind [args…] [from <t> to <t>]",
        "churn" => "count kind [args…] period <t> downtime <t>",
        "mobile" => "count kind [args…] hop <t>",
        "fault_per_cluster" => "count kind [args…]",
        "random_faults" => "count seed kind [args…]",
        "rate_override" => "node model…",
        "scheduler" => "`global` or `parallel <workers>`",
        _ => return None,
    })
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
    let num = |s: &str| parse_num::<f64>(s, line);
    Ok(match args {
        ["constant", frac] => RateModel::Constant { frac: num(frac)? },
        ["random_constant"] => RateModel::RandomConstant,
        ["random_walk", dwell, step] => RateModel::RandomWalk {
            dwell: num(dwell)?,
            step: num(step)?,
        },
        ["sinusoid", period, phase] => RateModel::Sinusoid {
            period: num(period)?,
            phase: num(phase)?,
        },
        ["schedule", pairs @ ..] if !pairs.is_empty() => {
            let mut points = Vec::new();
            for pair in pairs {
                let (t, frac) = pair.split_once(':').ok_or_else(|| {
                    SpecError::at(line, format!("schedule entries are t:frac, got {pair:?}"))
                })?;
                points.push((num(t)?, num(frac)?));
            }
            RateModel::Schedule(points)
        }
        _ => {
            let shapes = "constant <frac>, random_constant, random_walk <dwell> <step>, \
                          sinusoid <period> <phase>, schedule <t:frac>…";
            return Err(SpecError::at(
                line,
                format!("rate model is {shapes}; got {args:?}"),
            ));
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
    let num = |s: &str| parse_num::<f64>(s, line);
    Ok(match args {
        ["silent"] => FaultKind::Silent,
        ["crash", at] => FaultKind::Crash { at: num(at)? },
        ["random_pulser", x] => FaultKind::RandomPulser {
            mean_interval: num(x)?,
        },
        ["two_faced", x] => FaultKind::TwoFaced { amplitude: num(x)? },
        ["skew_puller", x] => FaultKind::SkewPuller { offset: num(x)? },
        ["stealthy_rusher", x] => FaultKind::StealthyRusher {
            extra_rate: num(x)?,
        },
        ["level_flooder", x] => FaultKind::LevelFlooder {
            level_step: parse_num(x, line)?,
        },
        _ => {
            let shapes = "silent, or crash|random_pulser|two_faced|skew_puller|\
                          stealthy_rusher|level_flooder <x>";
            return Err(SpecError::at(
                line,
                format!("fault kind is {shapes}; got {args:?}"),
            ));
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
