//! Per-layer attribution of the spans the program already emits through
//! the public `match_telemetry::Recorder` seam.
//!
//! The solvers emit flat spans: CE `sample`/`evaluate`/`update`,
//! FastMap-GA `select`/`vary`/`evaluate`, multilevel `coarsen`,
//! `solve@Lk` and `refine@Lk`, and `remap_incremental`'s `remap` around
//! `refine-delta` (plus CE spans on its warm-start path). A span event
//! arrives when the span finishes, so the children of an enclosing span
//! are exactly the spans that arrived since the call began; a layer's
//! self time is its span's time minus theirs.

use match_telemetry::{Event, Recorder};
use std::collections::BTreeMap;

/// Which solver's spans a traced call produces; disambiguates the
/// `evaluate` span that CE and FastMap-GA share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Caller {
    /// MaTCH CE (`match-ce` driver).
    Ce,
    /// FastMap-GA (`match-ga`).
    Ga,
    /// The multilevel driver (`match-multilevel`).
    Multilevel,
    /// `match_core::remap_incremental`.
    Remap,
}

/// Layer self times in nanoseconds and counters, accumulated over every
/// traced call.
#[derive(Debug, Default)]
pub struct Layers {
    /// Self time per layer key (e.g. `ce.sample`).
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Counter totals per counter name, as the program emitted them.
    pub counters: BTreeMap<String, u64>,
    /// `refine-delta` span times of each re-map, in nanoseconds.
    pub refine_delta_ns: Vec<u64>,
    /// Coarse-level index `k` of each `solve@Lk` span (hierarchy depth).
    pub levels: Vec<u64>,
    /// Wall time of every traced call, summed.
    pub traced_wall_ns: u64,
}

impl Layers {
    /// Self seconds of a layer (0 when it never ran).
    pub fn secs(&self, key: &str) -> f64 {
        self.self_ns.get(key).copied().unwrap_or(0) as f64 / 1e9
    }

    /// A counter's total (0 when never emitted).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Self time claimed by every layer, over traced wall time.
    pub fn attributed_frac(&self) -> f64 {
        let claimed: u64 = self.self_ns.values().sum();
        crate::stats::ratio(claimed as f64, self.traced_wall_ns as f64)
    }

    /// A recorder that attributes one call's spans into these layers.
    pub fn recorder(&mut self, caller: Caller) -> LayerRecorder<'_> {
        LayerRecorder {
            layers: self,
            caller,
            pending_ns: 0,
        }
    }
}

/// The benchmark-owned sink handed to one traced call.
pub struct LayerRecorder<'a> {
    layers: &'a mut Layers,
    caller: Caller,
    /// Time of spans that arrived since the last enclosing span closed.
    pending_ns: u64,
}

impl LayerRecorder<'_> {
    fn leaf_key(&self, name: &str) -> Option<&'static str> {
        let ga = self.caller == Caller::Ga;
        Some(match name {
            "sample" => "ce.sample",
            "update" => "ce.update",
            "evaluate" if ga => "ga.evaluate",
            "evaluate" => "ce.evaluate",
            "vary" => "ga.vary",
            "select" => "ga.select",
            "coarsen" => "ml.coarsen",
            "refine-delta" => "remap.refine",
            n if n.starts_with("solve@L") => "ml.coarse_solve",
            n if n.starts_with("refine@L") => "ml.refine",
            _ => return None,
        })
    }
}

impl Recorder for LayerRecorder<'_> {
    fn record(&mut self, event: Event) {
        match event {
            Event::Span(span) => {
                let name: &str = &span.name;
                if name == "remap" {
                    // Encloses everything since the call began.
                    let own = span.wall_ns.saturating_sub(self.pending_ns);
                    *self.layers.self_ns.entry("remap.other").or_insert(0) += own;
                    self.pending_ns = 0;
                    return;
                }
                let Some(key) = self.leaf_key(name) else {
                    return;
                };
                if key == "remap.refine" {
                    self.layers.refine_delta_ns.push(span.wall_ns);
                }
                if let Some(k) = name.strip_prefix("solve@L") {
                    self.layers.levels.push(k.parse().unwrap_or(0));
                }
                *self.layers.self_ns.entry(key).or_insert(0) += span.wall_ns;
                self.pending_ns += span.wall_ns;
            }
            Event::Counter { name, value } => {
                *self.layers.counters.entry(name.into_owned()).or_insert(0) += value;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use match_telemetry::SpanEvent;

    fn span(name: &'static str, wall_ns: u64) -> Event {
        Event::Span(SpanEvent {
            name: name.into(),
            iter: 0,
            wall_ns,
        })
    }

    #[test]
    fn enclosing_span_keeps_only_its_self_time() {
        let mut layers = Layers::default();
        let mut rec = layers.recorder(Caller::Remap);
        rec.record(span("refine-delta", 30));
        rec.record(span("remap", 100));
        assert_eq!(layers.self_ns["remap.refine"], 30);
        assert_eq!(layers.self_ns["remap.other"], 70);
        assert_eq!(layers.refine_delta_ns, vec![30]);
    }

    #[test]
    fn shared_evaluate_span_goes_to_the_caller() {
        let mut layers = Layers::default();
        layers.recorder(Caller::Ga).record(span("evaluate", 5));
        layers.recorder(Caller::Ce).record(span("evaluate", 7));
        layers
            .recorder(Caller::Multilevel)
            .record(span("solve@L3", 11));
        assert_eq!(layers.self_ns["ga.evaluate"], 5);
        assert_eq!(layers.self_ns["ce.evaluate"], 7);
        assert_eq!(layers.self_ns["ml.coarse_solve"], 11);
        assert_eq!(layers.levels, vec![3]);
    }
}
