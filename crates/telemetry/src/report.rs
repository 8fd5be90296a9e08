//! Trace summarization for `matchctl report`.

use std::collections::BTreeMap;
use std::fmt;

use crate::event::Event;
use crate::hist::{Histogram, LinearHistogram};

/// Aggregate view of one solver trace, built from the raw event stream.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Solver name from the `run_start` event, if present.
    pub solver: Option<String>,
    /// Instance size from `run_start`.
    pub tasks: Option<u64>,
    /// Instance size from `run_start`.
    pub resources: Option<u64>,
    /// Number of `iter` events in the trace.
    pub iterations: u64,
    /// Total evaluations from `run_end`, if present.
    pub evaluations: Option<u64>,
    /// Total wall nanoseconds from `run_end`, if present.
    pub wall_ns: Option<u64>,
    /// Best cost of the first iteration.
    pub first_best: Option<f64>,
    /// Final best cost (`run_end` if present, else running minimum).
    pub final_best: Option<f64>,
    /// Running minimum of per-iteration best costs.
    pub best_curve: Vec<f64>,
    /// First iteration index after which γ stays within tolerance of its
    /// final value (`None` when the trace carries no γ values).
    pub gamma_stable_after: Option<u64>,
    /// Per-span total nanoseconds, largest first.
    pub phases: Vec<(String, u64)>,
    /// Counter totals, alphabetical.
    pub counters: Vec<(String, u64)>,
    /// Latency histogram over pool chunk dispatches.
    pub pool: Histogram,
    /// Gauge histograms (e.g. simulator or daemon queue depth),
    /// alphabetical. Linear buckets: gauge values live in a small range
    /// where power-of-two buckets would collapse distinct depths.
    pub gauges: Vec<(String, LinearHistogram)>,
    /// Total number of events consumed.
    pub events: usize,
}

/// Relative tolerance used to declare γ stable against its final value.
const GAMMA_REL_TOL: f64 = 1e-6;

impl TraceSummary {
    /// Build a summary from an event stream (trace order).
    pub fn from_events(events: &[Event]) -> TraceSummary {
        let mut summary = TraceSummary {
            events: events.len(),
            ..TraceSummary::default()
        };
        let mut running_best = f64::INFINITY;
        let mut spans: BTreeMap<String, u64> = BTreeMap::new();
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        let mut gauges: BTreeMap<String, LinearHistogram> = BTreeMap::new();
        let mut gammas: Vec<f64> = Vec::new();

        for event in events {
            match event {
                Event::RunStart {
                    solver,
                    tasks,
                    resources,
                } => {
                    summary.solver = Some(solver.to_string());
                    summary.tasks = Some(*tasks);
                    summary.resources = Some(*resources);
                }
                Event::Iter(it) => {
                    summary.iterations += 1;
                    if summary.first_best.is_none() {
                        summary.first_best = Some(it.best);
                    }
                    running_best = running_best.min(it.best);
                    summary.best_curve.push(running_best);
                    if let Some(g) = it.gamma {
                        gammas.push(g);
                    }
                }
                Event::Span(span) => {
                    *spans.entry(span.name.to_string()).or_insert(0) += span.wall_ns;
                }
                Event::Pool(pool) => summary.pool.record(pool.wall_ns),
                Event::Counter { name, value } => {
                    *counters.entry(name.to_string()).or_insert(0) += value;
                }
                Event::Sample { name, value } => {
                    gauges.entry(name.to_string()).or_default().record(*value);
                }
                Event::RunEnd {
                    best,
                    evaluations,
                    wall_ns,
                    ..
                } => {
                    summary.final_best = Some(*best);
                    summary.evaluations = Some(*evaluations);
                    summary.wall_ns = Some(*wall_ns);
                }
            }
        }

        if summary.final_best.is_none() && running_best.is_finite() {
            summary.final_best = Some(running_best);
        }
        summary.gamma_stable_after = gamma_stable_after(&gammas);
        summary.phases = spans.into_iter().collect();
        summary
            .phases
            .sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        summary.counters = counters.into_iter().collect();
        summary.gauges = gauges.into_iter().collect();
        summary
    }

    /// Human-readable multi-line report (what `matchctl report` prints).
    pub fn render(&self) -> String {
        self.to_string()
    }
}

/// Index of the first γ after which every later γ stays within relative
/// tolerance of the final γ; `None` for empty input.
fn gamma_stable_after(gammas: &[f64]) -> Option<u64> {
    let last = *gammas.last()?;
    let tol = GAMMA_REL_TOL * (1.0 + last.abs());
    let mut stable_from = gammas.len() - 1;
    while stable_from > 0 && (gammas[stable_from - 1] - last).abs() <= tol {
        stable_from -= 1;
    }
    Some(stable_from as u64)
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Sparkline of the best-cost curve, downsampled to at most `width`
/// points. Returns an empty string for traces without iterations.
fn sparkline(curve: &[f64], width: usize) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if curve.is_empty() || width == 0 {
        return String::new();
    }
    let finite: Vec<f64> = curve.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return String::new();
    }
    let lo = finite.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(f64::MIN_POSITIVE);
    let n = curve.len().min(width);
    (0..n)
        .map(|i| {
            let v = curve[i * curve.len() / n];
            if !v.is_finite() {
                return ' ';
            }
            let level = (((v - lo) / span) * 7.0).round() as usize;
            BARS[level.min(7)]
        })
        .collect()
}

/// Signed percentage change from `a` to `b`, or `""` when undefined.
fn pct_delta(a: f64, b: f64) -> String {
    if a == 0.0 || !a.is_finite() || !b.is_finite() {
        return String::new();
    }
    format!("{:+.1}%", 100.0 * (b - a) / a)
}

/// One aligned row of the diff table.
fn diff_row(out: &mut String, name: &str, a: &str, b: &str, note: &str) {
    out.push_str(&format!("  {name:<18} {a:>16}  {b:>16}  {note}\n"));
}

/// Side-by-side comparison of two trace summaries, for
/// `matchctl report --diff A.jsonl B.jsonl`.
///
/// Renders the key run statistics of both traces in two columns with
/// signed deltas relative to A (the baseline), both convergence
/// sparklines on adjacent lines for visual comparison, the per-phase
/// wall-time budgets, and shared counters. Missing values print as `-`
/// so traces from different solvers still line up.
pub fn render_diff(a: &TraceSummary, label_a: &str, b: &TraceSummary, label_b: &str) -> String {
    fn opt<T: fmt::Display>(v: Option<T>) -> String {
        v.map(|x| x.to_string()).unwrap_or_else(|| "-".into())
    }
    let mut out = String::new();
    out.push_str(&format!("trace diff  A = {label_a}\n"));
    out.push_str(&format!("            B = {label_b}\n"));
    diff_row(&mut out, "", "A", "B", "");
    diff_row(
        &mut out,
        "solver",
        &opt(a.solver.as_deref()),
        &opt(b.solver.as_deref()),
        "",
    );
    let size = |s: &TraceSummary| match (s.tasks, s.resources) {
        (Some(t), Some(r)) => format!("{t}x{r}"),
        _ => "-".into(),
    };
    diff_row(&mut out, "instance", &size(a), &size(b), "");
    diff_row(
        &mut out,
        "iterations",
        &a.iterations.to_string(),
        &b.iterations.to_string(),
        "",
    );
    let eval_note = match (a.evaluations, b.evaluations) {
        (Some(ea), Some(eb)) => pct_delta(ea as f64, eb as f64),
        _ => String::new(),
    };
    diff_row(
        &mut out,
        "evaluations",
        &opt(a.evaluations),
        &opt(b.evaluations),
        &eval_note,
    );
    let wall_note = match (a.wall_ns, b.wall_ns) {
        (Some(wa), Some(wb)) if wb > 0 => format!("A/B = {:.2}x", wa as f64 / wb as f64),
        _ => String::new(),
    };
    diff_row(
        &mut out,
        "wall time",
        &opt(a.wall_ns.map(fmt_ns)),
        &opt(b.wall_ns.map(fmt_ns)),
        &wall_note,
    );
    let cost_note = match (a.final_best, b.final_best) {
        (Some(ca), Some(cb)) => pct_delta(ca, cb),
        _ => String::new(),
    };
    diff_row(
        &mut out,
        "final best",
        &opt(a.final_best),
        &opt(b.final_best),
        &cost_note,
    );
    if !a.best_curve.is_empty() || !b.best_curve.is_empty() {
        out.push_str(&format!(
            "  convergence A {}\n",
            sparkline(&a.best_curve, 60)
        ));
        out.push_str(&format!(
            "  convergence B {}\n",
            sparkline(&b.best_curve, 60)
        ));
    }
    let phases_a: BTreeMap<&str, u64> = a.phases.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    let phases_b: BTreeMap<&str, u64> = b.phases.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    let mut phase_names: Vec<&str> = phases_a.keys().chain(phases_b.keys()).copied().collect();
    phase_names.sort_unstable();
    phase_names.dedup();
    if !phase_names.is_empty() {
        out.push_str("  phase budgets\n");
        for name in phase_names {
            let (pa, pb) = (phases_a.get(name), phases_b.get(name));
            let note = match (pa, pb) {
                (Some(&na), Some(&nb)) => pct_delta(na as f64, nb as f64),
                _ => String::new(),
            };
            diff_row(
                &mut out,
                &format!("  {name}"),
                &opt(pa.map(|&ns| fmt_ns(ns))),
                &opt(pb.map(|&ns| fmt_ns(ns))),
                &note,
            );
        }
    }
    let counters_a: BTreeMap<&str, u64> =
        a.counters.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    let counters_b: BTreeMap<&str, u64> =
        b.counters.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    let mut counter_names: Vec<&str> = counters_a
        .keys()
        .chain(counters_b.keys())
        .copied()
        .collect();
    counter_names.sort_unstable();
    counter_names.dedup();
    if !counter_names.is_empty() {
        out.push_str("  counters\n");
        for name in counter_names {
            diff_row(
                &mut out,
                &format!("  {name}"),
                &opt(counters_a.get(name)),
                &opt(counters_b.get(name)),
                "",
            );
        }
    }
    out
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "trace summary ({} events)", self.events)?;
        if let Some(solver) = &self.solver {
            write!(f, "  solver        {solver}")?;
            if let (Some(t), Some(r)) = (self.tasks, self.resources) {
                write!(f, "  ({t} tasks on {r} resources)")?;
            }
            writeln!(f)?;
        }
        writeln!(f, "  iterations    {}", self.iterations)?;
        if let Some(evals) = self.evaluations {
            writeln!(f, "  evaluations   {evals}")?;
        }
        if let Some(wall) = self.wall_ns {
            write!(f, "  wall time     {}", fmt_ns(wall))?;
            if let Some(per_iter) = wall.checked_div(self.iterations) {
                write!(f, "  ({} / iter)", fmt_ns(per_iter))?;
            }
            writeln!(f)?;
        }
        match (self.first_best, self.final_best) {
            (Some(first), Some(last)) => {
                writeln!(f, "  best cost     {first} -> {last}")?;
            }
            (None, Some(last)) => writeln!(f, "  best cost     {last}")?,
            _ => {}
        }
        if !self.best_curve.is_empty() {
            writeln!(f, "  convergence   {}", sparkline(&self.best_curve, 60))?;
        }
        match self.gamma_stable_after {
            Some(i) if self.iterations > 0 => {
                writeln!(
                    f,
                    "  gamma stable  after iteration {i} ({} of {} still moving)",
                    i, self.iterations
                )?;
            }
            _ => {}
        }
        if !self.phases.is_empty() {
            let total: u64 = self.phases.iter().map(|(_, ns)| ns).sum();
            writeln!(f, "  phase breakdown (total {})", fmt_ns(total))?;
            for (name, ns) in &self.phases {
                let share = if total > 0 {
                    100.0 * *ns as f64 / total as f64
                } else {
                    0.0
                };
                writeln!(f, "    {name:<12} {:>12}  {share:5.1}%", fmt_ns(*ns))?;
            }
        }
        if !self.pool.is_empty() {
            writeln!(
                f,
                "  pool chunks   {} dispatched, p50 {}, p95 {}, max {}",
                self.pool.count(),
                fmt_ns(self.pool.quantile(0.50)),
                fmt_ns(self.pool.quantile(0.95)),
                fmt_ns(self.pool.max()),
            )?;
        }
        if !self.counters.is_empty() {
            writeln!(f, "  counters")?;
            for (name, value) in &self.counters {
                writeln!(f, "    {name:<20} {value}")?;
            }
        }
        for (name, hist) in &self.gauges {
            writeln!(
                f,
                "  gauge {name}: n={} mean={:.1} p95={} max={}",
                hist.count(),
                hist.mean(),
                hist.quantile(0.95),
                hist.max(),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{IterEvent, PoolEvent, SpanEvent};

    fn iter(i: u64, best: f64, gamma: f64) -> Event {
        Event::Iter(IterEvent {
            iter: i,
            best,
            mean: best + 1.0,
            gamma: Some(gamma),
            elite_size: 8,
            wall_ns: 1000,
        })
    }

    #[test]
    fn summary_over_full_trace() {
        let events = vec![
            Event::RunStart {
                solver: "match-ce".into(),
                tasks: 32,
                resources: 4,
            },
            iter(0, 10.0, 12.0),
            iter(1, 8.0, 9.0),
            iter(2, 8.0, 8.5),
            iter(3, 7.5, 8.5),
            Event::Span(SpanEvent {
                name: "evaluate".into(),
                iter: 0,
                wall_ns: 900,
            }),
            Event::Span(SpanEvent {
                name: "sample".into(),
                iter: 0,
                wall_ns: 100,
            }),
            Event::Pool(PoolEvent {
                iter: 0,
                chunk: 0,
                len: 64,
                wall_ns: 450,
            }),
            Event::Counter {
                name: "evaluations".into(),
                value: 256,
            },
            Event::RunEnd {
                best: 7.5,
                iterations: 4,
                evaluations: 1024,
                wall_ns: 4_000_000,
            },
        ];
        let s = TraceSummary::from_events(&events);
        assert_eq!(s.solver.as_deref(), Some("match-ce"));
        assert_eq!(s.iterations, 4);
        assert_eq!(s.first_best, Some(10.0));
        assert_eq!(s.final_best, Some(7.5));
        assert_eq!(s.best_curve, vec![10.0, 8.0, 8.0, 7.5]);
        assert_eq!(s.evaluations, Some(1024));
        // γ values: [12, 9, 8.5, 8.5] — stable from index 2 on.
        assert_eq!(s.gamma_stable_after, Some(2));
        assert_eq!(s.phases[0], ("evaluate".to_string(), 900));
        assert_eq!(s.counters, vec![("evaluations".to_string(), 256)]);
        assert_eq!(s.pool.count(), 1);
        let text = s.render();
        assert!(text.contains("match-ce"));
        assert!(text.contains("phase breakdown"));
        assert!(text.contains("gamma stable"));
    }

    #[test]
    fn summary_of_empty_trace() {
        let s = TraceSummary::from_events(&[]);
        assert_eq!(s.iterations, 0);
        assert!(s.final_best.is_none());
        assert!(s.gamma_stable_after.is_none());
        // Rendering must not panic on the degenerate case.
        let _ = s.render();
    }

    #[test]
    fn gamma_stability_edge_cases() {
        assert_eq!(gamma_stable_after(&[]), None);
        assert_eq!(gamma_stable_after(&[5.0]), Some(0));
        assert_eq!(gamma_stable_after(&[5.0, 5.0, 5.0]), Some(0));
        assert_eq!(gamma_stable_after(&[9.0, 7.0, 5.0, 5.0]), Some(2));
        // Never stabilizes until the very end.
        assert_eq!(gamma_stable_after(&[4.0, 3.0, 2.0, 1.0]), Some(3));
    }

    #[test]
    fn diff_of_two_traces() {
        let base = vec![
            Event::RunStart {
                solver: "FastMap-GA".into(),
                tasks: 48,
                resources: 48,
            },
            iter(0, 40.0, 1.0),
            iter(1, 30.0, 1.0),
            Event::Span(SpanEvent {
                name: "evaluate".into(),
                iter: 0,
                wall_ns: 8_000,
            }),
            Event::Counter {
                name: "full_evaluations".into(),
                value: 120,
            },
            Event::RunEnd {
                best: 30.0,
                iterations: 2,
                evaluations: 120,
                wall_ns: 2_000_000,
            },
        ];
        let mut fast = base.clone();
        // The B trace: same search, half the wall time, extra counter.
        fast[3] = Event::Span(SpanEvent {
            name: "evaluate".into(),
            iter: 0,
            wall_ns: 4_000,
        });
        fast.push(Event::Counter {
            name: "mutation_swaps".into(),
            value: 7,
        });
        fast[5] = Event::RunEnd {
            best: 30.0,
            iterations: 2,
            evaluations: 120,
            wall_ns: 1_000_000,
        };
        let a = TraceSummary::from_events(&base);
        let b = TraceSummary::from_events(&fast);
        let text = render_diff(&a, "seq.jsonl", &b, "batched.jsonl");
        assert!(text.contains("A = seq.jsonl"));
        assert!(text.contains("B = batched.jsonl"));
        assert!(
            text.contains("A/B = 2.00x"),
            "wall-time ratio missing:\n{text}"
        );
        assert!(text.contains("+0.0%"), "final-cost delta missing:\n{text}");
        assert!(text.contains("convergence A"));
        assert!(text.contains("convergence B"));
        assert!(text.contains("phase budgets"));
        assert!(text.contains("-50.0%"), "phase delta missing:\n{text}");
        // Counter present in only one trace renders as `-` on the other side.
        assert!(text.contains("mutation_swaps"));
        let swap_line = text.lines().find(|l| l.contains("mutation_swaps")).unwrap();
        assert!(swap_line.contains('-') && swap_line.contains('7'));
    }

    #[test]
    fn diff_of_empty_traces_renders() {
        let a = TraceSummary::from_events(&[]);
        let b = TraceSummary::from_events(&[]);
        let text = render_diff(&a, "a", &b, "b");
        assert!(text.contains("trace diff"));
        assert!(!text.contains("phase budgets"));
    }

    #[test]
    fn best_curve_monotone_for_any_input() {
        // Hand-rolled property check: pseudo-random traces, the running
        // best must never increase.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..200 {
            let n = (next() % 50 + 1) as usize;
            let events: Vec<Event> = (0..n)
                .map(|i| iter(i as u64, (next() % 10_000) as f64 / 10.0, 1.0))
                .collect();
            let s = TraceSummary::from_events(&events);
            assert_eq!(s.best_curve.len(), n);
            for w in s.best_curve.windows(2) {
                assert!(w[1] <= w[0], "best curve must be non-increasing");
            }
        }
    }
}
