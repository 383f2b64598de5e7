//! The benchmark's name table: every workload and metric it can print.
//!
//! `BENCHMARK.json` at the repository root is the contract; this table
//! is its in-program twin, and a unit test holds the two equal in both
//! directions (names, units, directions). Every later performance claim
//! names one metric and one workload from these lists.

/// One metric: its name, unit and which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: true,
    }
}

/// The seven workloads, in the order `--workload all` runs them.
pub const WORKLOADS: &[&str] = &[
    "line64_global",
    "line64_par2",
    "flood_raw",
    "fatcluster_churn",
    "stream_dense",
    "sweep_cells",
    "serve_closed",
];

/// The workloads `BENCHMARK.json` lists, which the acceptance driver
/// runs and holds to the bounds. The driver makes 22 runs per workload
/// inside a fixed total time, so four is what leaves each run long
/// enough to outlast the shared host's bursts of interference; and the
/// other three put more runnable threads on the host than it has cores
/// (`line64_par2` two workers; `serve_closed` two clients, a server and
/// two children), or bill the same layers as a listed workload
/// (`fatcluster_churn`). They run on request and under `--smoke`.
pub const GATED: &[&str] = &["line64_global", "flood_raw", "stream_dense", "sweep_cells"];

/// What a user of the system sees; printed with `--trace 0`. Each is
/// measured on every workload (what one "operation" and one unit of
/// "work" are per workload is in README.md).
pub const END_TO_END: &[Metric] = &[
    lower("run_wall_s", "s"),
    higher("work_per_s", "1/s"),
    lower("setup_s", "s"),
    lower("peak_rss_mb", "MB"),
];

/// Single layers, layer = module name; printed with `--trace 1`. A
/// workload that never enters a layer reports 0 for it.
pub const PER_LAYER: &[Metric] = &[
    // topology
    lower("topology.augment_us", "us"),
    lower("topology.diameter_us", "us"),
    lower("topology.nodes", "count"),
    lower("topology.edges", "count"),
    // bench::spec / core::spec
    lower("spec.parse_us", "us"),
    lower("spec.print_us", "us"),
    lower("spec.bytes", "bytes"),
    // core::runner
    lower("runner.from_spec_us", "us"),
    lower("runner.build_us", "us"),
    // sim (engine)
    lower("sim.ns_per_event", "ns"),
    lower("sim.events", "count"),
    lower("sim.timers_set", "count"),
    lower("sim.timers_fired", "count"),
    lower("sim.timers_cancelled", "count"),
    lower("sim.messages_delivered", "count"),
    lower("sim.samples", "count"),
    lower("sim.allocs_per_kevent", "count"),
    lower("sim.telemetry_overhead_pct", "%"),
    // sim::par
    lower("sim.par.windows", "count"),
    lower("sim.par.cross_shard_staged", "count"),
    lower("sim.par.barrier_s", "s"),
    lower("sim.par.execute_s", "s"),
    lower("sim.par.merge_s", "s"),
    lower("sim.par.stolen_share", "ratio"),
    lower("sim.par.worker_imbalance", "ratio"),
    higher("sim.par.speedup", "ratio"),
    // core (algorithm)
    lower("core.ns_per_event", "ns"),
    lower("core.behavior_ns_per_event_est", "ns"),
    lower("core.rows.round", "count"),
    lower("core.rows.mode", "count"),
    lower("core.rows.pulse", "count"),
    lower("core.global_skew_max_s", "s"),
    lower("core.global_skew_over_bound", "ratio"),
    // core::agreement / core::triggers
    lower("agreement.trimmed_midpoint_ns.k4", "ns"),
    lower("agreement.trimmed_midpoint_ns.k13", "ns"),
    lower("agreement.trimmed_midpoint_ns.k25", "ns"),
    lower("triggers.evaluate_ns.n2", "ns"),
    lower("triggers.evaluate_ns.n8", "ns"),
    // metrics / sim::observe
    lower("observe.self_s", "s"),
    lower("metrics.skewstream_ns_per_sample", "ns"),
    lower("metrics.csv_ns_per_sample", "ns"),
    lower("metrics.csv_bytes", "bytes"),
    lower("metrics.rowcounter_ns_per_row", "ns"),
    // serve::hash / serve::cache
    lower("hash.key_us", "us"),
    lower("cache.hit_us", "us"),
    lower("cache.miss_us", "us"),
    lower("cache.publish_us", "us"),
    // serve::exec
    lower("exec.spawn_ms", "ms"),
    lower("exec.retries", "count"),
    higher("exec.pool_efficiency", "ratio"),
    higher("sweep.parallel_speedup", "ratio"),
    // serve::http / serve::service
    lower("http.roundtrip_us", "us"),
    lower("service.submit_us", "us"),
    lower("service.status_us", "us"),
    lower("service.result_us", "us"),
    lower("service.cycle_p99_ms", "ms"),
    lower("service.polls_per_job", "count"),
    lower("service.submissions", "count"),
    lower("service.cache_hits", "count"),
    lower("service.cells_spawned", "count"),
    // Per-phase throughputs of the shell workloads and the engine's
    // events/s, kept under the names the ROADMAP uses for them.
    higher("events_per_s", "1/s"),
    higher("sweep_seq_cells_per_s", "1/s"),
    higher("sweep_cold_cells_per_s", "1/s"),
    higher("sweep_cached_cells_per_s", "1/s"),
    higher("serve_cold_jobs_per_s", "1/s"),
    higher("serve_cached_cycles_per_s", "1/s"),
    lower("serve_cached_p50_ms", "ms"),
    // The benchmark's own trace.
    higher("trace.attributed_pct", "%"),
    lower("trace.spans", "count"),
];

/// Looks a metric up in either list.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"key": "value"` string pairs of one JSON object body, good
    /// enough for the flat objects `BENCHMARK.json` is made of.
    fn string_field<'a>(object: &'a str, key: &str) -> Option<&'a str> {
        let at = object.find(&format!("\"{key}\""))?;
        let rest = &object[at + key.len() + 2..];
        let open = rest.find('"')?;
        let rest = &rest[open + 1..];
        Some(&rest[..rest.find('"')?])
    }

    /// The `{…}` objects inside the array that follows `"key":`.
    fn objects_of<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
        let at = json
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key:?}"));
        let array = &json[at..];
        let array = &array[array.find('[').expect("array")..=array.find(']').expect("array end")];
        array
            .split('{')
            .skip(1)
            .map(|o| &o[..o.find('}').expect("object end")])
            .collect()
    }

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_name_is_well_formed_and_used_once() {
        let mut all: Vec<&str> = WORKLOADS.to_vec();
        all.extend(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        for name in &all {
            assert!(name_ok(name), "{name}");
        }
        let total = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), total, "a name is used twice");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!((2..=8).contains(&GATED.len()));
    }

    #[test]
    fn name_table_equals_benchmark_json_both_ways() {
        let json = benchmark_json();
        let workloads: Vec<&str> = objects_of(&json, "workloads")
            .iter()
            .map(|o| string_field(o, "name").expect("workload name"))
            .collect();
        assert_eq!(workloads, GATED);
        assert!(GATED.iter().all(|w| WORKLOADS.contains(w)));

        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<Metric> = objects_of(&json, key)
                .iter()
                .map(|o| {
                    let name = string_field(o, "name").expect("metric name");
                    let table_entry = find(name)
                        .unwrap_or_else(|| panic!("{name} is in BENCHMARK.json, not in names.rs"));
                    assert_eq!(string_field(o, "unit"), Some(table_entry.unit), "{name}");
                    let better = string_field(o, "better").expect("direction");
                    assert_eq!(better == "higher", table_entry.higher_is_better, "{name}");
                    *table_entry
                })
                .collect();
            assert_eq!(listed, table, "{key}");
        }
    }

    #[test]
    fn setup_s_is_listed_as_the_contract_requires() {
        let setup = find("setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.higher_is_better), ("s", false));
    }
}
