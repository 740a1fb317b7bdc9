//! Per-layer figures from the spans the program already emits.

use lpvs_obs::SpanEvent;
use std::collections::HashMap;

/// Totals over every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans seen.
    pub count: usize,
    /// Summed duration (ms).
    pub total_ms: f64,
    /// Summed self time: duration minus the part of it that child spans
    /// on the same thread cover (ms).
    pub self_ms: f64,
}

/// Self time and totals per span name.
///
/// Children on other threads (a hub slot span parenting worker solves)
/// run concurrently with their parent rather than inside it, so only
/// same-thread children are subtracted.
pub fn span_totals(events: &[SpanEvent]) -> HashMap<String, SpanTotals> {
    let mut children: HashMap<u64, Vec<&SpanEvent>> = HashMap::new();
    for e in events {
        if let Some(parent) = e.parent {
            children.entry(parent).or_default().push(e);
        }
    }
    let mut out: HashMap<String, SpanTotals> = HashMap::new();
    for e in events {
        let mut covered: Vec<(u64, u64)> = children
            .get(&e.id)
            .map(|kids| {
                kids.iter()
                    .filter(|k| k.thread == e.thread)
                    .map(|k| (k.start_us.max(e.start_us), k.end_us().min(e.end_us())))
                    .filter(|(a, b)| b > a)
                    .collect()
            })
            .unwrap_or_default();
        covered.sort_unstable();
        let mut union_us = 0u64;
        let mut reach = 0u64;
        for (a, b) in covered {
            let a = a.max(reach);
            if b > a {
                union_us += b - a;
                reach = b;
            }
        }
        let t = out.entry(e.name.clone()).or_default();
        t.count += 1;
        t.total_ms += e.duration_us as f64 / 1e3;
        t.self_ms += e.duration_us.saturating_sub(union_us) as f64 / 1e3;
    }
    out
}

/// Sum of field `key` over every span named `name`.
pub fn field_sum(events: &[SpanEvent], name: &str, key: &str) -> f64 {
    events
        .iter()
        .filter(|e| e.name == name)
        .filter_map(|e| e.field(key))
        .sum()
}
