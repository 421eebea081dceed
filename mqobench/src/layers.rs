//! The per-layer metrics of a traced run, in `BENCHMARK.json` order.
//! A layer a workload does not exercise reads 0 on that workload.

use crate::report::{median, Metrics};

/// `(name, unit)` of every per-layer metric.
pub const LAYER_METRICS: [(&str, &str); 38] = [
    ("sql.lower_ms", "ms"),
    ("former.queries_per_batch", "count"),
    ("serve.wait_ms", "ms"),
    ("dag.expand_ms", "ms"),
    ("dag.groups", "count"),
    ("dag.ops", "count"),
    ("physical.physicalize_ms", "ms"),
    ("physical.nodes", "count"),
    ("core.search_ms.volcano", "ms"),
    ("core.search_ms.volcano_sh", "ms"),
    ("core.search_ms.volcano_ru", "ms"),
    ("core.search_ms.greedy", "ms"),
    ("core.search_ms.ks15", "ms"),
    ("core.extract_ms", "ms"),
    ("core.cost_propagations", "count"),
    ("core.benefit_recomputations", "count"),
    ("core.materialized", "count"),
    ("session.fingerprint_ms", "ms"),
    ("commit.commit_ms", "ms"),
    ("exec.execute_ms", "ms"),
    ("exec.rows_out", "count"),
    ("exec.temps_built", "count"),
    ("cost.exec_ms_per_est_s", "ms/s"),
    ("mv.lookups", "count"),
    ("mv.hits", "count"),
    ("mv.hit_ratio", "ratio"),
    ("mv.offers", "count"),
    ("mv.admitted", "count"),
    ("mv.rejected", "count"),
    ("mv.evicted", "count"),
    ("mv.bytes_used", "bytes"),
    ("wire.encode_ms", "ms"),
    ("wire.decode_ms", "ms"),
    ("wire.bytes_per_query", "bytes"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("trace.untraced_ms", "ms"),
    ("trace.traced_ms", "ms"),
];

/// Every per-layer metric at 0.
pub fn zeroed() -> Metrics {
    let mut m = Metrics::default();
    for (name, unit) in LAYER_METRICS {
        m.put(name, 0.0, unit);
    }
    m
}

/// Sets per-layer metric `name`.
///
/// # Panics
///
/// Panics if `name` is not a per-layer metric.
pub fn set(m: &mut Metrics, name: &str, value: f64) {
    let slot = m.0.iter_mut().find(|x| x.name == name);
    slot.unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
        .value = value;
}

/// Sets the overhead metrics from per-round (or per-batch) wall times
/// of the untraced and the traced replay: their medians, and the
/// relative difference in percent.
pub fn set_overhead(m: &mut Metrics, untraced: &[f64], traced: &[f64], spans: usize) {
    let (u, t) = (median(untraced), median(traced));
    set(m, "trace.untraced_ms", u);
    set(m, "trace.traced_ms", t);
    set(m, "trace.overhead_pct", 100.0 * (t - u) / u.max(1e-9));
    set(m, "trace.spans", spans as f64);
}
