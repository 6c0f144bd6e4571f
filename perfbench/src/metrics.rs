//! Every metric the benchmark prints, with its unit. `BENCHMARK.json`
//! at the repository root declares the same names; a test holds the
//! two lists equal.
//!
//! Every workload reports every end-to-end metric. Each workload has
//! two operation classes, a light and a heavy one (see README.md), so
//! the same names carry each workload's own latencies. Every workload
//! also reports every per-layer metric; a layer the workload never
//! calls reads 0.

use std::collections::BTreeMap;

/// A metric name and its unit.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// Metrics of an untraced run (`--trace 0`).
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s"),
    def("wall_s", "s"),
    def("light_p50_ms", "ms"),
    def("heavy_p50_ms", "ms"),
    def("peak_rss_mb", "MB"),
];

/// Metrics of a traced run (`--trace 1`).
pub const PER_LAYER: &[Def] = &[
    // the light and heavy operations' tails (all workloads)
    def("light_tail_ms", "ms"),
    def("heavy_tail_ms", "ms"),
    // nn / geniex training (fig5-cold)
    def("nn.train.s", "s"),
    def("nn.train.steps", "count"),
    def("nn.train.us_per_step", "us"),
    def("nn.train.gflops", "GFLOP/s"),
    def("nn.step.fwd_us", "us"),
    def("nn.step.bwd_us", "us"),
    def("nn.step.adam_us", "us"),
    // parallel, per dataset::generate / Geniex::train call (fig5-cold)
    def("parallel.global.tasks.generate", "count"),
    def("parallel.global.tasks.train", "count"),
    def("parallel.global.steals.generate", "count"),
    def("parallel.global.steals.train", "count"),
    def("parallel.global.task_us_p50.generate", "us"),
    def("parallel.global.task_us_p50.train", "us"),
    // xbar truth at 16x16 and geniex evaluation (fig5-cold)
    def("xbar.truth.s", "s"),
    def("xbar.truth.ms_per_sample", "ms"),
    def("geniex.eval.s", "s"),
    def("geniex.eval.nf_rmse_lowv", "rmse"),
    def("geniex.eval.nf_rmse_highv", "rmse"),
    def("geniex.eval.analytical_rmse_lowv", "rmse"),
    def("geniex.eval.analytical_rmse_highv", "rmse"),
    // xbar at 256x256 (array-256)
    def("xbar.cold.newton_iters", "count"),
    def("xbar.warm.newton_iters", "count"),
    def("xbar.dampings", "count"),
    def("xbar.warm_start_frac", "ratio"),
    def("xbar.amortized.fallbacks", "count"),
    def("xbar.cache.hits", "count"),
    def("xbar.cache.misses", "count"),
    def("xbar.cold.ns_per_node_iter", "ns"),
    def("xbar.warm.ns_per_node_iter", "ns"),
    def("xbar.kcl_residual_max", "A"),
    // xbar::zoo and array set-up (array-256)
    def("zoo.program_s", "s"),
    def("xbar.circuit_new_s", "s"),
    def("xbar.cache_build_s", "s"),
    // funcsim / kernels (serve-mixed)
    def("funcsim.mvm_us", "us"),
    def("funcsim.forward_ms", "ms"),
    def("funcsim.tile_ops_per_req", "count"),
    def("kernels.scratch.reuse_frac", "ratio"),
    // serve (serve-mixed)
    def("serve.rps", "1/s"),
    def("serve.open.mvm_p50_ms", "ms"),
    def("serve.open.mvm_tail_ms", "ms"),
    def("serve.open.infer_p50_ms", "ms"),
    def("serve.open.infer_tail_ms", "ms"),
    def("serve.queue_wait_us_p50", "us"),
    def("serve.queue_wait_us_p99", "us"),
    def("serve.batch_occupancy_mean", "count"),
    def("serve.burst.batch_occupancy_mean", "count"),
    def("serve.flush_full", "count"),
    def("serve.flush_linger", "count"),
    def("serve.rejected", "count"),
    def("serve.io_us_mean", "us"),
    def("gen.late_ms_tail", "ms"),
    // the benchmark's own tracing (all workloads)
    def("trace.overhead_frac", "ratio"),
];

/// Metric values a workload produced, by name.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "metric {name} is not declared"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Renders the `metrics` object for `defs`. A per-layer metric the
/// workload never measured reads 0; a missing or non-finite
/// end-to-end metric is an error, because the benchmark promises each
/// one on every workload.
pub fn render(defs: &[Def], values: &Values, end_to_end: bool) -> Result<String, String> {
    let mut fields = Vec::with_capacity(defs.len());
    for d in defs {
        let value = match values.get(d.name) {
            Some(v) if v.is_finite() => v,
            Some(v) if !end_to_end => {
                eprintln!("perfbench: {} measured {v}, reported as 0", d.name);
                0.0
            }
            None if !end_to_end => 0.0,
            other => return Err(format!("end-to-end metric {} is {other:?}", d.name)),
        };
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            d.name,
            json_number(value),
            d.unit
        ));
    }
    Ok(format!("{{{}}}", fields.join(", ")))
}

/// A finite f64 as a JSON number with every digit Rust keeps.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = telemetry::json::parse(&text).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(telemetry::Json::as_arr)
            .expect("metric section")
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(telemetry::Json::as_str)
                        .expect("name and unit are strings")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn ours(defs: &[Def]) -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect()
    }

    #[test]
    fn printed_names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(d.name), "bad metric name {:?}", d.name);
            assert!(seen.insert(d.name), "duplicate metric name {}", d.name);
        }
    }

    #[test]
    fn printed_names_match_benchmark_json() {
        assert_eq!(ours(END_TO_END), declared("end_to_end"));
        assert_eq!(ours(PER_LAYER), declared("per_layer"));
    }

    #[test]
    fn render_requires_every_end_to_end_metric() {
        let mut values = Values::default();
        for d in END_TO_END.iter().skip(1) {
            values.set(d.name, 1.5);
        }
        assert!(render(END_TO_END, &values, true).is_err());
        values.set("setup_s", 2.0);
        let text = render(END_TO_END, &values, true).expect("complete");
        let doc = telemetry::json::parse(&text).expect("valid JSON");
        let setup = doc.get("setup_s").and_then(|m| m.get("value"));
        assert_eq!(setup.and_then(telemetry::Json::as_f64), Some(2.0));
    }

    #[test]
    fn unmeasured_layers_read_zero() {
        let text = render(PER_LAYER, &Values::default(), false).expect("renders");
        let doc = telemetry::json::parse(&text).expect("valid JSON");
        let v = doc.get("nn.train.s").and_then(|m| m.get("value"));
        assert_eq!(v.and_then(telemetry::Json::as_f64), Some(0.0));
    }
}
