//! The result one workload run hands back to `perfbench/run.py`: named
//! metrics with units, per-class attempted/failed counts, and the
//! correctness failures seen, as one JSON line.

use std::fmt::Write as _;

/// Where a metric belongs in the benchmark's output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A metric named in `BENCHMARK.json`'s `end_to_end` list.
    EndToEnd,
    /// A workload-specific end-to-end figure printed beside them.
    Detail,
    /// A per-layer metric of a traced run.
    Layer,
}

impl Kind {
    fn key(self) -> &'static str {
        match self {
            Kind::EndToEnd => "end_to_end",
            Kind::Detail => "detail",
            Kind::Layer => "per_layer",
        }
    }
}

#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(Kind, String, f64, &'static str)>,
    classes: Vec<(String, u64, u64)>,
    errors: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, kind: Kind, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if value.is_finite() {
            self.metrics.push((kind, name, value, unit));
        } else {
            self.error(format!("metric {name} is not finite ({value})"));
        }
    }

    /// Records `attempted` operations of `class`, `failed` of them failed.
    pub fn count(&mut self, class: &str, attempted: u64, failed: u64) {
        match self.classes.iter_mut().find(|(c, _, _)| c == class) {
            Some(entry) => {
                entry.1 += attempted;
                entry.2 += failed;
            }
            None => self.classes.push((class.to_string(), attempted, failed)),
        }
    }

    /// Records a failed correctness check (the run is then incorrect).
    pub fn error(&mut self, message: impl Into<String>) {
        let message = message.into();
        eprintln!("perfbench: check failed: {message}");
        self.errors.push(message);
    }

    /// Fails the run unless `ok`.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.error(message());
        }
    }

    pub fn to_json(&self, workload: &str) -> String {
        let mut out = format!(
            "{{\"workload\":{},\"correct\":{}",
            quote(workload),
            self.errors.is_empty()
        );
        out.push_str(",\"classes\":{");
        for (i, (class, attempted, failed)) in self.classes.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(
                out,
                "{sep}{}:{{\"attempted\":{attempted},\"failed\":{failed}}}",
                quote(class)
            );
        }
        out.push_str("},\"metrics\":[");
        for (i, (kind, name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(
                out,
                "{sep}{{\"kind\":\"{}\",\"name\":{},\"value\":{value:?},\"unit\":{}}}",
                kind.key(),
                quote(name),
                quote(unit)
            );
        }
        out.push_str("],\"errors\":[");
        for (i, e) in self.errors.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(out, "{sep}{}", quote(e));
        }
        out.push_str("]}");
        out
    }
}

/// A JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
