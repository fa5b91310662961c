//! Metric names, units and the result line.

/// End-to-end metrics of an untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("rel_error", "ratio"),
    ("peak_rss_mib", "MiB"),
    ("read_p50_us", "us"),
    ("read_qps", "1/s"),
    ("refresh_s", "s"),
];

/// Per-layer metrics of a traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("tensor.read_s", "s"),
    ("tensor.unfold_s", "s"),
    ("tensor.spill_s", "s"),
    ("tensor.spill_bytes", "bytes"),
    ("core.partition_s", "s"),
    ("core.distribute_s", "s"),
    ("core.iterate_s", "s"),
    ("core.superstep.begin_s", "s"),
    ("core.superstep.sweep_s", "s"),
    ("core.superstep.finish_s", "s"),
    ("kernel.build_cache_s", "s"),
    ("kernel.column_errors_s", "s"),
    ("kernel.apply_column_s", "s"),
    ("kernel.partition_error_s", "s"),
    ("kernel.ops", "count"),
    ("kernel.ops_per_s", "1/s"),
    ("kernel.cache_bytes", "bytes"),
    ("kernel.bytes_computed", "bytes"),
    ("model.wall_over_virtual", "ratio"),
    ("cluster.supersteps", "count"),
    ("cluster.superstep_overhead_s", "s"),
    ("comm.bytes_shuffled", "bytes"),
    ("comm.bytes_broadcast", "bytes"),
    ("comm.bytes_collected", "bytes"),
    ("recovery.task_retries", "count"),
    ("recovery.worker_respawns", "count"),
    ("net.boot_s", "s"),
    ("net.wire_bytes_sent", "bytes"),
    ("net.wire_bytes_received", "bytes"),
    ("net.wire_overhead_bytes", "bytes"),
    ("serve.engine.point_us", "us"),
    ("serve.engine.slice_us", "us"),
    ("serve.engine.topk_us", "us"),
    ("serve.server.busy_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.evictions", "count"),
    ("serve.reload_ms", "ms"),
    ("serve.reload.fibers_invalidated", "count"),
    ("serve.store_write_s", "s"),
    ("serve.store_open_s", "s"),
    ("delta.update_s", "s"),
    ("delta.affected_columns", "count"),
    ("delta.supersteps", "count"),
    ("delta.bytes_shuffled", "bytes"),
    ("telemetry.overhead_frac", "ratio"),
];

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    dbtf_serve::protocol::push_json_string(s, &mut out);
    out
}

/// A JSON number; non-finite values (never expected) become `null`.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The result of one run, printed as the last line of standard output.
pub struct Outcome {
    /// Every gate passed and no operation failed.
    pub correct: bool,
    /// Operations attempted: solves, query lines, reloads, gates.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// `(name, value)` in the order of [`END_TO_END`] or [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// The one-line JSON result.
    pub fn to_json(&self, table: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|&(name, value)| {
                let unit = table
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or("", |&(_, u)| u);
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_string(name),
                    json_number(value),
                    json_string(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtf_telemetry::JsonValue;

    /// The metric tables here and in the benchmark's manifest agree.
    #[test]
    fn tables_match_the_manifest() {
        let manifest =
            JsonValue::parse(include_str!("../../BENCHMARK.json")).expect("manifest parses");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = manifest
                .get(key)
                .and_then(JsonValue::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name")
                            .and_then(JsonValue::as_str)
                            .expect("name")
                            .to_string(),
                        m.get("unit")
                            .and_then(JsonValue::as_str)
                            .expect("unit")
                            .to_string(),
                    )
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn result_line_is_valid_json() {
        let o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("setup_s", 1.25), ("solve_s", 0.5)],
        };
        let v = JsonValue::parse(&o.to_json(&END_TO_END)).expect("parses");
        assert_eq!(v.get("attempted").and_then(JsonValue::as_u64), Some(3));
        let m = v
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("metric");
        assert_eq!(m.get("unit").and_then(JsonValue::as_str), Some("s"));
        assert_eq!(m.get("value").and_then(JsonValue::as_f64), Some(1.25));
    }
}
