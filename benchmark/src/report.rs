//! What one run prints: a readable table of every metric with its
//! unit and sample count, then one JSON result line.

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
    /// How many samples the value summarises.
    pub samples: usize,
    /// Why the value is a placeholder, when the metric has no meaning
    /// on this workload.
    pub absent: Option<&'static str>,
}

impl Metric {
    /// A measured metric.
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Self {
        Self {
            name,
            unit,
            value,
            samples,
            absent: None,
        }
    }

    /// A metric this workload does not exercise; reported as 0 with
    /// the reason printed beside it.
    pub fn absent(name: &'static str, unit: &'static str, why: &'static str) -> Self {
        Self {
            name,
            unit,
            value: 0.0,
            samples: 0,
            absent: Some(why),
        }
    }
}

/// The outcome of one run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Correctness-check failures; empty means correct.
    pub violations: Vec<String>,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Free-form lines printed before the table (digests, regimes).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// The readable report (everything but the JSON line).
    pub fn table(&self) -> String {
        let mut out = String::new();
        for note in &self.notes {
            out.push_str(note);
            out.push('\n');
        }
        out.push_str(&format!(
            "{:<26} {:>16} {:<6} {:>8}\n",
            "metric", "value", "unit", "samples"
        ));
        for m in &self.metrics {
            match m.absent {
                Some(why) => out.push_str(&format!(
                    "{:<26} {:>16} {:<6} {:>8}  absent: {why}\n",
                    m.name, "-", m.unit, 0
                )),
                None => out.push_str(&format!(
                    "{:<26} {:>16.6} {:<6} {:>8}\n",
                    m.name, m.value, m.unit, m.samples
                )),
            }
        }
        for v in &self.violations {
            out.push_str(&format!("CHECK FAILED: {v}\n"));
        }
        out
    }

    /// The single JSON result line the benchmark ends with.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.violations.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form has.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}
