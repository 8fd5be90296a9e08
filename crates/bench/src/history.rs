//! Bench-history bookkeeping: fold the per-run `BENCH_*.json` artefacts
//! into an append-only `BENCH_history.jsonl`, one labelled line per
//! artefact, so CI (and local runs) accumulate a trend file instead of
//! overwriting a snapshot.
//!
//! Each appended line is a single JSON object:
//!
//! ```json
//! {"label":"<sha or --label>","source":"BENCH_sampling.json","bench":{...}}
//! ```
//!
//! where `bench` is the artefact compacted onto one line. The file
//! stays `jq`-friendly: `jq -s 'map(.bench.matcher_mt.batched_ms)'`.

use std::fmt::Write as _;

/// Compact a JSON document onto one line: drop all whitespace that sits
/// outside string literals. Content inside strings (including escaped
/// quotes) is preserved byte-for-byte.
pub fn compact_json(pretty: &str) -> String {
    let mut out = String::with_capacity(pretty.len());
    let mut in_string = false;
    let mut escaped = false;
    for c in pretty.chars() {
        if in_string {
            out.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
        } else if c == '"' {
            in_string = true;
            out.push(c);
        } else if !c.is_whitespace() {
            out.push(c);
        }
    }
    out
}

/// Escape a string for embedding inside a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Build one history line (no trailing newline) for a bench artefact.
///
/// `source` is the artefact's file name, `label` identifies the run
/// (commit SHA in CI, `local` otherwise), and `body` is the artefact's
/// JSON text, compacted before embedding.
pub fn history_line(label: &str, source: &str, body: &str) -> String {
    format!(
        "{{\"label\":\"{}\",\"source\":\"{}\",\"bench\":{}}}",
        escape(label),
        escape(source),
        compact_json(body)
    )
}

/// The host a measurement came from, as the JSON object every
/// `BENCH_*.json` artefact records: CPU count, CPU model, SIMD level.
pub fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().replace('"', "'"))
        })
        .unwrap_or_else(|| "unknown".to_string());
    #[cfg(target_arch = "x86_64")]
    let simd = if std::arch::is_x86_feature_detected!("avx512f") {
        "avx512f"
    } else if std::arch::is_x86_feature_detected!("avx2") {
        "avx2"
    } else {
        "sse2"
    };
    #[cfg(not(target_arch = "x86_64"))]
    let simd = std::env::consts::ARCH;
    format!("{{\"nproc\": {nproc}, \"cpu\": \"{cpu}\", \"simd\": \"{simd}\"}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compaction_strips_layout_but_not_string_content() {
        let pretty = "{\n  \"bench\": \"sampling\",\n  \"note\": \"two  spaces \\\" and } brace\",\n  \"n\": [1, 2]\n}\n";
        assert_eq!(
            compact_json(pretty),
            "{\"bench\":\"sampling\",\"note\":\"two  spaces \\\" and } brace\",\"n\":[1,2]}"
        );
    }

    #[test]
    fn history_line_embeds_label_source_and_compact_body() {
        let line = history_line("abc123", "BENCH_ga.json", "{\n \"a\": 1\n}\n");
        assert_eq!(
            line,
            "{\"label\":\"abc123\",\"source\":\"BENCH_ga.json\",\"bench\":{\"a\":1}}"
        );
        assert!(!line.contains('\n'), "history lines must stay one line");
    }

    #[test]
    fn labels_with_quotes_are_escaped() {
        let line = history_line("a\"b", "f.json", "{}");
        assert!(line.contains("a\\\"b"));
    }
}
