//! Metric tables, the result line, and reading both back.

use std::collections::BTreeMap;

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
    /// Whether the value repeats bit for bit on one seed (`--aa` demands it).
    pub exact: bool,
}

/// The six end-to-end metrics every workload reports; all are
/// lower-is-better. `BENCHMARK.json` repeats this table and `--smoke`
/// checks that the two agree.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd { name: "setup_s", unit: "s", bound: 0.25, exact: false },
    EndToEnd { name: "op_p01_us", unit: "us", bound: 0.25, exact: false },
    EndToEnd { name: "alt_p01_us", unit: "us", bound: 0.25, exact: false },
    EndToEnd { name: "peak_rss_mb", unit: "MB", bound: 0.25, exact: false },
    EndToEnd { name: "cost_count", unit: "count", bound: 0.001, exact: true },
    EndToEnd { name: "stretch_max", unit: "ratio", bound: 0.001, exact: true },
];

impl EndToEnd {
    /// Whether `json` (a `BENCHMARK.json`) declares this metric as this
    /// table does.
    pub fn declared_in(&self, json: &str) -> bool {
        let compact: String = json.chars().filter(|c| !c.is_whitespace()).collect();
        compact.contains(&format!(
            "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"lower\",\"bound\":{}}}",
            self.name, self.unit, self.bound
        ))
    }
}

/// Named values with units, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    entries: Vec<(String, &'static str, f64)>,
}

impl Metrics {
    /// Adds a metric; a name is set once.
    pub fn set(&mut self, name: &str, unit: &'static str, value: f64) {
        assert!(self.get(name).is_none(), "metric {name} set twice");
        self.entries.push((name.to_owned(), unit, value));
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|(n, _, _)| n == name).map(|(_, _, v)| *v)
    }

    /// All metrics in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &'static str, f64)> {
        self.entries.iter().map(|(n, u, v)| (n.as_str(), *u, *v))
    }

    /// Whether every value is a finite number.
    pub fn all_finite(&self) -> bool {
        self.entries.iter().all(|(_, _, v)| v.is_finite())
    }

    /// One `name = value unit` line per metric.
    pub fn render_lines(&self) -> String {
        self.entries.iter().map(|(n, u, v)| format!("{n:<48} {v:>16.4} {u}\n")).collect()
    }
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`, values printed with all their digits.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

/// What a result line says, read back by the modes that run workloads as
/// child processes.
#[derive(Debug, Clone)]
pub struct Parsed {
    /// The line's `correct`.
    pub correct: bool,
    /// The line's `failed`.
    pub failed: u64,
    /// Metric name → value.
    pub values: BTreeMap<String, f64>,
    /// Metric names in printed order, duplicates kept.
    pub names: Vec<String>,
}

/// Parses a line written by [`result_line`] (and nothing more general).
pub fn parse_result_line(line: &str) -> Option<Parsed> {
    let correct = line.contains("\"correct\":true");
    let failed = number_after(line, "\"failed\":")? as u64;
    let metrics = &line[line.find("\"metrics\":{")? + "\"metrics\":{".len()..];
    let mut values = BTreeMap::new();
    let mut names = Vec::new();
    for part in metrics.split("\"unit\":").filter(|p| p.contains("{\"value\":")) {
        let (head, value) = part.rsplit_once("{\"value\":")?;
        let name = head.trim_end_matches(':').rsplit('"').nth(1)?;
        values.insert(name.to_owned(), value.trim_end_matches(',').parse().ok()?);
        names.push(name.to_owned());
    }
    Some(Parsed { correct, failed, values, names })
}

fn number_after(text: &str, key: &str) -> Option<f64> {
    let rest = &text[text.find(key)? + key.len()..];
    let end =
        rest.find(|c: char| !(c.is_ascii_digit() || ".-+eE".contains(c))).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The metric names `BENCHMARK.json` lists under `section`
/// (`end_to_end`, `per_layer` or `workloads`).
pub fn names_in_benchmark_json(json: &str, section: &str) -> Vec<String> {
    let Some(at) = json.find(&format!("\"{section}\"")) else { return Vec::new() };
    let rest = &json[at..];
    let list = &rest[..rest.find(']').unwrap_or(rest.len())];
    list.split("\"name\"")
        .skip(1)
        .filter_map(|part| part.split('"').nth(1).map(str::to_owned))
        .collect()
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}
