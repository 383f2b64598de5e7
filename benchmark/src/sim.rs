//! The five simulation workloads, driven in-process through the public
//! APIs of `topology`, `core`, `sim` and `metrics`.
//!
//! One repetition is `setup{generate, parse, from_spec, build} → run →
//! finish → verify`, each a span. The run step is exactly the body of
//! `Scenario::run_streaming_telemetry`, split so that building the
//! simulation is billed to set-up and only `Simulation::run_until_with`
//! to the run.

use std::io::Write;

use ftgcs::runner::Scenario;
use ftgcs::spec::{DurationSpec, SampleSpec};
use ftgcs_baselines::BaseMsg;
use ftgcs_bench::spec::SpecFile;
use ftgcs_metrics::skew::FaultMask;
use ftgcs_metrics::stream::{CsvSampleWriter, RowCounter, SkewStream};
use ftgcs_sim::clock::RateModel;
use ftgcs_sim::engine::{Ctx, SimBuilder, SimConfig, Simulation};
use ftgcs_sim::network::{DelayConfig, DelayDistribution};
use ftgcs_sim::node::{Behavior, NodeId, TimerTag, TrackId};
use ftgcs_sim::observe::{Fanout, Observer};
use ftgcs_sim::telemetry::alloc_probe;
use ftgcs_sim::time::{SimDuration, SimTime};
use ftgcs_sim::{SchedulerKind, TelemetryReport};
use ftgcs_topology::{generators, ClusterGraph};

use crate::gen::{self, Scale};
use crate::pins;
use crate::probes;
use crate::report::{peak_rss_mb, Report};
use crate::stats::summary;
use crate::trace::{now, Tracer};

/// FNV-1a, the digest every correctness check compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Fnv {
    pub const fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Where `stream_dense`'s CSV goes: counted and hashed, never stored —
/// the number is the formatter's, not a filesystem's.
#[derive(Debug)]
pub struct FnvSink {
    pub bytes: u64,
    pub hash: Fnv,
}

impl FnvSink {
    pub fn new() -> Self {
        FnvSink {
            bytes: 0,
            hash: Fnv::new(),
        }
    }
}

impl Write for FnvSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes += buf.len() as u64;
        self.hash.update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The observer that does nothing: what a run costs without `metrics`.
#[derive(Debug)]
pub struct NoOp;

impl Observer for NoOp {}

/// `flood_raw`'s node: broadcast a beacon every `period` logical
/// seconds and ignore what arrives (the `engine_free_run` flooder of
/// `crates/bench/benches/shard_scaling.rs`). `core` does nothing here.
#[derive(Debug)]
struct Flooder {
    period: f64,
}

impl Behavior<BaseMsg> for Flooder {
    fn on_start(&mut self, ctx: &mut Ctx<'_, BaseMsg>) {
        ctx.set_timer_at(TrackId::MAIN, self.period, TimerTag::new(0));
    }
    fn on_message(&mut self, _ctx: &mut Ctx<'_, BaseMsg>, _from: NodeId, _msg: &BaseMsg) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_, BaseMsg>, tag: TimerTag) {
        ctx.broadcast(BaseMsg::Beacon { value: 0.0 });
        ctx.set_timer_at(
            TrackId::MAIN,
            (tag.b as f64 + 2.0) * self.period,
            TimerTag::new(0).with_b(tag.b + 1),
        );
    }
}

/// The five simulation workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimWorkload {
    Line64Global,
    Line64Par2,
    FloodRaw,
    FatclusterChurn,
    StreamDense,
}

impl SimWorkload {
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "line64_global" => SimWorkload::Line64Global,
            "line64_par2" => SimWorkload::Line64Par2,
            "flood_raw" => SimWorkload::FloodRaw,
            "fatcluster_churn" => SimWorkload::FatclusterChurn,
            "stream_dense" => SimWorkload::StreamDense,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            SimWorkload::Line64Global => "line64_global",
            SimWorkload::Line64Par2 => "line64_par2",
            SimWorkload::FloodRaw => "flood_raw",
            SimWorkload::FatclusterChurn => "fatcluster_churn",
            SimWorkload::StreamDense => "stream_dense",
        }
    }

    /// The generated spec text; `None` for `flood_raw`, which has no
    /// spec (its nodes are not FT-GCS nodes).
    pub fn spec_text(self, seed: u64, scale: Scale) -> Option<String> {
        match self {
            SimWorkload::Line64Global => Some(gen::line64(seed, scale, None)),
            SimWorkload::Line64Par2 => Some(gen::line64(seed, scale, Some(2))),
            SimWorkload::FloodRaw => None,
            SimWorkload::FatclusterChurn => Some(gen::fatcluster_churn(seed, scale)),
            SimWorkload::StreamDense => Some(gen::stream_dense(seed, scale)),
        }
    }
}

/// Variations of one repetition. The defaults are the end-to-end run.
#[derive(Debug, Clone, Copy)]
pub struct RepOpts {
    /// `Scenario::telemetry(true)`: the traced repetition.
    pub telemetry: bool,
    /// Replace the observer pipeline by [`NoOp`].
    pub noop_observer: bool,
    /// Keep the spec's clock sampling (off: `sample_interval none`).
    pub sampling: bool,
    /// Share of the workload's horizon to simulate.
    pub horizon_share: f64,
}

impl Default for RepOpts {
    fn default() -> Self {
        RepOpts {
            telemetry: false,
            noop_observer: false,
            sampling: true,
            horizon_share: 1.0,
        }
    }
}

/// What one repetition measured and produced.
#[derive(Debug, Clone)]
pub struct Rep {
    pub setup_s: f64,
    pub run_s: f64,
    /// set-up + run + finish: what the person waits for (filled in by
    /// [`rep`] once the whole repetition has been timed).
    pub wall_s: f64,
    /// The benchmark's own checking, not part of `wall_s`.
    pub verify_s: f64,
    pub events: u64,
    pub messages: u64,
    /// Digest over counts, row counts, skew bit patterns and the CSV.
    pub digest: u64,
    pub rows: Vec<(String, u64)>,
    pub skew_max: Option<f64>,
    /// `Params::global_skew_bound(D)`; `None` without FT-GCS nodes.
    pub skew_bound: Option<f64>,
    /// Whether `skew_max ≤ skew_bound` is the paper's promise here.
    pub bound_applies: bool,
    pub csv_bytes: u64,
    pub allocs: u64,
    pub telemetry: TelemetryReport,
    pub nodes: usize,
    pub edges: usize,
}

/// A built simulation plus what the run and verify steps need.
struct Prepared<M> {
    sim: Simulation<M>,
    horizon: f64,
    faulty: Vec<usize>,
    warmup: f64,
    skew_bound: Option<f64>,
    bound_applies: bool,
    nodes: usize,
    edges: usize,
}

/// Set-up of a spec-driven workload: generate → parse → from_spec →
/// build, the path `xp run` takes from a spec file to a simulation.
fn prepare_spec(
    input: Input,
    opts: &RepOpts,
    tr: &mut Tracer,
) -> Result<Prepared<ftgcs::Msg>, String> {
    let o = tr.open("generate");
    let text = input.spec_text().expect("spec-driven workload");
    tr.close_counted(o, text.len() as u64);

    let o = tr.open("parse");
    let mut file = SpecFile::parse(&text).map_err(|e| e.to_string())?;
    tr.close(o);

    let o = tr.open("from_spec");
    if !opts.sampling {
        file.scenario.sample_interval = SampleSpec::Off;
    }
    if opts.horizon_share != 1.0 {
        file.scenario.duration = match file.scenario.duration {
            DurationSpec::Rounds(r) => DurationSpec::Rounds(r * opts.horizon_share),
            DurationSpec::Secs(s) => DurationSpec::Secs(s * opts.horizon_share),
        };
    }
    let spec = &file.scenario;
    let params = spec.params().map_err(|e| e.to_string())?;
    let mut scenario = Scenario::from_spec(spec).map_err(|e| e.to_string())?;
    scenario.telemetry(opts.telemetry);
    let cg = scenario.cluster_graph();
    let diameter = ftgcs_topology::analysis::diameter(cg.base());
    let skew_bound = Some(params.global_skew_bound(diameter));
    // The theorem assumes at most f faulty nodes per cluster at every
    // instant, and a node that is re-integrating after churn or after a
    // mobile adversary moved on is not yet correct. With time-windowed
    // faults on top of a full permanent budget the premise is broken in
    // effect even where `faults_exceed_budget` (scheduled windows only)
    // says it holds, so the bound is checked on static faults only.
    let bound_applies = !scenario.faults_exceed_budget()
        && spec.churn.is_empty()
        && spec.mobile.is_empty()
        && spec.fault_windows.is_empty();
    let (nodes, edges) = (cg.physical().node_count(), cg.physical().edge_count());
    let horizon = spec.duration.resolve(&params);
    let faulty = scenario.faulty_nodes();
    tr.close(o);

    let o = tr.open("build");
    let sim = scenario.build();
    tr.close_counted(o, nodes as u64);
    Ok(Prepared {
        sim,
        horizon,
        faulty,
        warmup: 5.0 * params.t_round,
        skew_bound,
        bound_applies,
        nodes,
        edges,
    })
}

/// Set-up of `flood_raw`: 64 cliques of 4 in a line, every node a
/// [`Flooder`], `SimConfig` as in `benches/shard_scaling.rs` free-run.
fn prepare_flood(seed: u64, scale: Scale, opts: &RepOpts, tr: &mut Tracer) -> Prepared<BaseMsg> {
    let o = tr.open("generate");
    let cg = ClusterGraph::new(generators::line(64), 4, 1);
    let graph = cg.physical();
    let config = SimConfig {
        delay: DelayConfig::new(
            SimDuration::from_millis(1.0),
            SimDuration::from_micros(100.0),
            DelayDistribution::Uniform,
        ),
        rho: 1e-4,
        rate_model: RateModel::RandomConstant,
        seed: gen::derive_seed(seed, 4),
        sample_interval: opts.sampling.then(|| SimDuration::from_millis(10.0)),
        scheduler: SchedulerKind::Global,
        telemetry: opts.telemetry,
    };
    tr.close(o);

    let o = tr.open("build");
    let mut builder = SimBuilder::<BaseMsg>::new(config);
    for _ in 0..graph.node_count() {
        builder.add_node(Box::new(Flooder { period: 0.01 }));
    }
    for (a, b) in graph.edges() {
        builder.add_edge(NodeId(a), NodeId(b));
    }
    let sim = builder.build();
    tr.close_counted(o, graph.node_count() as u64);
    Prepared {
        sim,
        // 15 simulated seconds; 1 under --smoke.
        horizon: scale.size(1500, 100) as f64 / 100.0 * opts.horizon_share,
        faulty: Vec::new(),
        warmup: 0.0,
        skew_bound: None,
        bound_applies: false,
        nodes: graph.node_count(),
        edges: graph.edge_count(),
    }
}

/// run → finish → verify on a simulation whose set-up took `setup_s`.
fn drive<M: Clone + Send + 'static>(
    p: Prepared<M>,
    setup_s: f64,
    with_csv: bool,
    opts: &RepOpts,
    tr: &mut Tracer,
) -> Result<Rep, String> {
    let Prepared {
        mut sim,
        horizon,
        faulty,
        warmup,
        skew_bound,
        bound_applies,
        nodes,
        edges,
    } = p;
    let until = SimTime::ZERO + SimDuration::from_secs(horizon);
    let mut skew = SkewStream::new(FaultMask::from_nodes(nodes, &faulty)).with_warmup(warmup);
    let mut rows = RowCounter::new();
    let mut sink = FnvSink::new();
    let mut csv = with_csv.then(|| CsvSampleWriter::new(&mut sink, 1));
    let mut noop = NoOp;

    let allocs_before = alloc_probe::allocs();
    let (run_s, stats, telemetry);
    {
        let mut sinks: Vec<&mut dyn Observer> = Vec::new();
        if opts.noop_observer {
            sinks.push(&mut noop);
        } else {
            if let Some(csv) = csv.as_mut() {
                sinks.push(csv);
            }
            sinks.push(&mut skew);
            sinks.push(&mut rows);
        }
        let mut fan = Fanout::new(sinks);

        let o = tr.open("run");
        sim.run_until_with(until, &mut fan);
        let events = sim.stats().events;
        run_s = tr.close_counted(o, events);

        let o = tr.open("finish");
        stats = sim.stats();
        fan.on_finish(&stats);
        telemetry = sim.telemetry();
        drop(fan);
        drop(sim);
        tr.close(o);
    }
    if let Some(csv) = csv.as_mut() {
        csv.finish().map_err(|e| format!("csv sink: {e}"))?;
    }
    drop(csv);
    let allocs = alloc_probe::allocs() - allocs_before;

    let o = tr.open("verify");
    let rows: Vec<(String, u64)> = rows.iter().map(|(k, c)| (k.to_string(), c)).collect();
    let mut h = Fnv::new();
    h.update(&stats.events.to_le_bytes());
    h.update(&stats.messages.to_le_bytes());
    for (kind, count) in &rows {
        h.update(kind.as_bytes());
        h.update(&count.to_le_bytes());
    }
    for v in [skew.max(), skew.mean()] {
        h.update(&v.map_or(u64::MAX, f64::to_bits).to_le_bytes());
    }
    h.update(&skew.count().to_le_bytes());
    h.update(&sink.bytes.to_le_bytes());
    h.update(&sink.hash.0.to_le_bytes());
    let verify_s = tr.close(o);

    Ok(Rep {
        setup_s,
        run_s,
        wall_s: 0.0,
        verify_s,
        events: stats.events,
        messages: stats.messages,
        digest: h.0,
        rows,
        skew_max: skew.max(),
        skew_bound,
        bound_applies,
        csv_bytes: sink.bytes,
        allocs,
        telemetry,
        nodes,
        edges,
    })
}

/// Which workload to run, on which inputs, at which size.
#[derive(Debug, Clone, Copy)]
pub struct Input {
    pub workload: SimWorkload,
    pub seed: u64,
    pub scale: Scale,
}

impl Input {
    /// The generated spec text (see [`SimWorkload::spec_text`]).
    pub fn spec_text(&self) -> Option<String> {
        self.workload.spec_text(self.seed, self.scale)
    }
}

/// One full repetition of `input.workload`, recorded as span `span`.
pub fn rep(
    span: &'static str,
    input: Input,
    opts: &RepOpts,
    tr: &mut Tracer,
) -> Result<Rep, String> {
    let whole = tr.open(span);
    let setup = tr.open("setup");
    let mut r = if input.workload == SimWorkload::FloodRaw {
        let prepared = prepare_flood(input.seed, input.scale, opts, tr);
        let setup_s = tr.close(setup);
        drive(prepared, setup_s, false, opts, tr)?
    } else {
        let prepared = prepare_spec(input, opts, tr)?;
        let setup_s = tr.close(setup);
        let with_csv = input.workload == SimWorkload::StreamDense;
        drive(prepared, setup_s, with_csv, opts, tr)?
    };
    r.wall_s = tr.close(whole) - r.verify_s;
    Ok(r)
}

/// Set-up alone (generate → … → build, then dropped): extra samples so
/// `setup_s` rests on more than the repetitions.
fn setup_only(input: Input, tr: &mut Tracer) -> Result<f64, String> {
    let opts = RepOpts::default();
    let o = tr.open("setup_only");
    if input.workload == SimWorkload::FloodRaw {
        drop(prepare_flood(input.seed, input.scale, &opts, tr));
    } else {
        drop(prepare_spec(input, &opts, tr)?);
    }
    Ok(tr.close(o))
}

/// Checks one repetition against the reference digest, the paper's
/// global-skew bound and (for the default seed) the pinned counts.
fn check_rep(r: &Rep, reference: u64, input: Input) -> Result<(), String> {
    if r.digest != reference {
        return Err(format!(
            "digest {:016x} differs from the reference {reference:016x}",
            r.digest
        ));
    }
    if let (true, Some(max), Some(bound)) = (r.bound_applies, r.skew_max, r.skew_bound) {
        if max > bound {
            return Err(format!("global skew {max:e} exceeds the bound {bound:e}"));
        }
    }
    if input.seed == pins::DEFAULT_SEED && input.scale == Scale::Full {
        let pin = pins::counts(input.workload.name());
        if (r.events, r.messages) != pin {
            return Err(format!(
                "events/messages {:?} differ from the pinned {pin:?}: not a pure speed-up, \
                 re-baseline in its own change",
                (r.events, r.messages)
            ));
        }
    }
    Ok(())
}

/// Runs one simulation workload — warm-up, measured repetitions and
/// set-up samples together — for `seconds`, and fills `report`.
pub fn run(input: Input, seconds: f64, tr: &mut Tracer, report: &mut Report) -> Result<(), String> {
    let root = tr.open("workload");
    let started = now();
    let plain = RepOpts::default();

    // Warm-up, which also fixes the reference digest. `line64_par2`
    // takes its reference from the global-heap run of the same seed:
    // the two schedulers must produce the identical digest.
    let reference_input = Input {
        workload: match input.workload {
            SimWorkload::Line64Par2 => SimWorkload::Line64Global,
            w => w,
        },
        ..input
    };
    let reference = rep("warmup", reference_input, &plain, tr)?;
    report.note(format!(
        "{}: {} nodes, {} edges, {} events, {} messages, digest {:016x}",
        input.workload.name(),
        reference.nodes,
        reference.edges,
        reference.events,
        reference.messages,
        reference.digest
    ));

    // Measured repetitions: at least three, then for as long as one
    // more, as long as the longest so far, still ends inside the time.
    // A traced run (like --smoke) takes two and spends the rest of its
    // time on the extra repetitions below. Ten more set-ups follow every
    // repetition, so `setup_s` rests on hundreds of samples from all
    // through the run: 200 taken in one batch at the end sit inside one
    // burst of interference, or outside it, together.
    let budget = tr.measure_window(seconds);
    let min_reps = if input.scale == Scale::Smoke || tr.enabled() {
        2
    } else {
        3
    };
    let o = tr.open("measure");
    let mut reps: Vec<Rep> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    let mut longest = reference.wall_s + reference.verify_s;
    while reps.len() < min_reps || now() - started + longest < budget {
        let r = rep("rep", input, &plain, tr)?;
        report.check(check_rep(&r, reference.digest, input));
        longest = longest.max(r.wall_s + r.verify_s);
        setups.push(r.setup_s);
        reps.push(r);
        for _ in 0..10 {
            setups.push(setup_only(input, tr)?);
        }
    }
    tr.close(o);

    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let runs = summary(&reps.iter().map(|r| r.run_s).collect::<Vec<_>>());
    // The quiet quartile of the run step, as for every gated timing.
    let events_per_s = reference.events as f64 / runs.q1;
    report.set_quiet("run_wall_s", &summary(&walls));
    report.set_quiet("setup_s", &summary(&setups));
    report.note(format!(
        "  run step: min {:.6} s q1 {:.6} s median {:.6} s q3 {:.6} s n {}, spread {:.4}",
        runs.min,
        runs.q1,
        runs.median,
        runs.q3,
        runs.n,
        runs.spread()
    ));
    report.set("work_per_s", events_per_s);
    report.set("events_per_s", events_per_s);

    if tr.enabled() {
        traced(input, runs.median, &reference, tr, report)?;
    }
    report.set(
        "peak_rss_mb",
        peak_rss_mb(std::process::id()).ok_or("cannot read /proc/self VmHWM")?,
    );
    tr.close(root);
    Ok(())
}

/// The extra repetitions and probes of a traced run: everything the
/// per-layer table is printed from. `median_run` is the untraced
/// repetitions' median run step: each extra repetition here runs once,
/// so it is compared with the typical repetition, not the quiet one.
fn traced(
    input: Input,
    median_run: f64,
    reference: &Rep,
    tr: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let workload = input.workload;

    // One repetition with the engine's telemetry counters on.
    let telemetry_on = RepOpts {
        telemetry: true,
        ..RepOpts::default()
    };
    let t = rep("telemetry_rep", input, &telemetry_on, tr)?;
    // Telemetry is a side channel: the digest must not move.
    report.check(check_rep(&t, reference.digest, input));
    let d = &t.telemetry.deterministic;
    report.set("sim.events", d.events as f64);
    report.set("sim.timers_set", d.timers_set as f64);
    report.set("sim.timers_fired", d.timers_fired as f64);
    report.set("sim.timers_cancelled", d.timers_cancelled as f64);
    report.set("sim.messages_delivered", d.messages_delivered as f64);
    report.set("sim.samples", d.samples as f64);
    report.set(
        "sim.allocs_per_kevent",
        1000.0 * t.allocs as f64 / t.events as f64,
    );
    report.set(
        "sim.telemetry_overhead_pct",
        100.0 * (t.run_s - median_run) / median_run,
    );
    report.set("sim.par.windows", d.windows as f64);
    report.set("sim.par.cross_shard_staged", d.cross_shard_staged as f64);
    let wall = &t.telemetry.wall;
    report.set("sim.par.barrier_s", wall.barrier_secs);
    report.set("sim.par.execute_s", wall.execute_secs);
    report.set("sim.par.merge_s", wall.merge_secs);
    let diag = &t.telemetry.diagnostics;
    report.set("sim.par.stolen_share", diag.stolen_share);
    let planned: Vec<f64> = diag
        .per_worker
        .iter()
        .map(|w| w.planned_events as f64)
        .collect();
    let planned_mean = planned.iter().sum::<f64>() / planned.len().max(1) as f64;
    if planned_mean > 0.0 {
        let max = planned.iter().copied().fold(0.0, f64::max);
        report.set("sim.par.worker_imbalance", max / planned_mean);
    }
    if workload == SimWorkload::Line64Par2 {
        // The warm-up was the global-heap run of the same spec.
        report.set("sim.par.speedup", reference.run_s / median_run);
    }
    report.set("metrics.csv_bytes", t.csv_bytes as f64);

    // The same spec under the no-op observer: what `metrics` and
    // `sim::observe` cost is the difference.
    let no_observer = RepOpts {
        noop_observer: true,
        ..RepOpts::default()
    };
    let noop = rep("noop_observer_rep", input, &no_observer, tr)?;
    report.check(
        if (noop.events, noop.messages) == (reference.events, reference.messages) {
            Ok(())
        } else {
            Err("the observer changed the event count".to_string())
        },
    );
    report.set("observe.self_s", median_run - noop.run_s);

    // No observer and no sampling: host time per simulated event of
    // the engine plus the behaviours alone.
    let bare_opts = RepOpts {
        sampling: false,
        ..no_observer
    };
    let bare = rep("bare_rep", input, &bare_opts, tr)?;
    let bare_ns = 1e9 * bare.run_s / bare.events as f64;
    if workload == SimWorkload::FloodRaw {
        report.set("sim.ns_per_event", bare_ns);
    } else {
        // The engine's share is estimated from a short flood on the
        // same 256-node graph: same queue and clocks, no algorithm.
        let flood = rep(
            "flood_probe",
            Input {
                workload: SimWorkload::FloodRaw,
                ..input
            },
            &RepOpts {
                horizon_share: 0.15,
                ..bare_opts
            },
            tr,
        )?;
        let flood_ns = 1e9 * flood.run_s / flood.events as f64;
        report.set("sim.ns_per_event", flood_ns);
        report.set("core.ns_per_event", bare_ns);
        if workload != SimWorkload::Line64Par2 {
            // Both sides on the global heap, or the difference is the
            // second worker's, not the behaviours'.
            report.set("core.behavior_ns_per_event_est", bare_ns - flood_ns);
        }
        for (kind, count) in &t.rows {
            match kind.as_str() {
                "round" => report.set("core.rows.round", *count as f64),
                "mode" => report.set("core.rows.mode", *count as f64),
                "pulse" => report.set("core.rows.pulse", *count as f64),
                _ => {}
            }
        }
        if let Some(max) = t.skew_max {
            report.set("core.global_skew_max_s", max);
            if let Some(bound) = t.skew_bound {
                report.set("core.global_skew_over_bound", max / bound);
            }
        }
    }

    let o = tr.open("probes");
    probes::topology(workload, report);
    if let Some(text) = input.spec_text() {
        probes::spec_text_layers(&text, report)?;
        probes::agreement_and_triggers(report);
        probes::observers(&text, report)?;
    }
    tr.close(o);
    Ok(())
}
