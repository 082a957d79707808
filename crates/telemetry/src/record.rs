//! Per-step channel recording: [`Sample`]s, their JSONL encoding and the
//! JSONL file sink.
//!
//! A *channel* is one named per-step signal (tenant power, inlet
//! temperature, battery state of charge, …). Traces are written after a
//! run from the values it returned, so recording never touches a
//! simulation or its RNG state.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use crate::json::{parse_flat_object, JsonObject, JsonValue};

/// One recorded channel value.
#[derive(Debug, Clone, PartialEq)]
pub enum ChannelValue {
    /// A continuous signal (kW, °C, state of charge, …).
    F64(f64),
    /// A counter or index.
    U64(u64),
    /// A flag (capping, outage, alarm, …).
    Bool(bool),
    /// A discrete label (e.g. the attacker's action).
    Str(&'static str),
}

impl From<f64> for ChannelValue {
    fn from(v: f64) -> Self {
        ChannelValue::F64(v)
    }
}

impl From<u64> for ChannelValue {
    fn from(v: u64) -> Self {
        ChannelValue::U64(v)
    }
}

impl From<bool> for ChannelValue {
    fn from(v: bool) -> Self {
        ChannelValue::Bool(v)
    }
}

impl From<&'static str> for ChannelValue {
    fn from(v: &'static str) -> Self {
        ChannelValue::Str(v)
    }
}

/// One step's worth of channels, borrowed from the producer's stack.
#[derive(Debug, Clone, Copy)]
pub struct Sample<'a> {
    /// Producer-defined step index (the simulator's slot number).
    pub step: u64,
    /// Channel name → value pairs, in the producer's canonical order.
    pub channels: &'a [(&'static str, ChannelValue)],
}

/// Encodes one sample as a single JSONL line (no trailing newline).
///
/// The `step` field always comes first; channels follow in producer order.
pub fn sample_to_jsonl(sample: &Sample<'_>) -> String {
    let mut o = JsonObject::new();
    o.u64("step", sample.step);
    for (name, value) in sample.channels {
        match value {
            ChannelValue::F64(v) => o.f64(name, *v),
            ChannelValue::U64(v) => o.u64(name, *v),
            ChannelValue::Bool(v) => o.bool(name, *v),
            ChannelValue::Str(v) => o.str(name, v),
        };
    }
    o.finish()
}

/// Decodes one JSONL line back into a step index and channel values.
///
/// Inverse of [`sample_to_jsonl`] up to value types: numbers come back as
/// [`JsonValue::Num`] whether they were recorded as `F64` or `U64`.
///
/// # Errors
///
/// Returns a message if the line is not a flat JSON object or lacks a
/// numeric `step` field.
pub fn parse_jsonl_line(line: &str) -> Result<(u64, Vec<(String, JsonValue)>), String> {
    let mut fields = parse_flat_object(line)?;
    if fields.first().map(|(n, _)| n.as_str()) != Some("step") {
        return Err("first field must be \"step\"".into());
    }
    let (_, step) = fields.remove(0);
    let step = step.as_f64().ok_or("\"step\" must be a number")? as u64;
    Ok((step, fields))
}

/// A buffered JSONL file sink: one flat JSON object per recorded step.
#[derive(Debug)]
pub struct JsonlRecorder {
    out: BufWriter<File>,
    /// The first write error, kept for [`JsonlRecorder::flush`] to return.
    error: Option<std::io::Error>,
}

impl JsonlRecorder {
    /// Creates (truncating) the JSONL file at `path`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be created.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        Ok(JsonlRecorder {
            out: BufWriter::new(File::create(path)?),
            error: None,
        })
    }

    /// Writes one sample as one line. A write error is kept for
    /// [`JsonlRecorder::flush`] to return.
    pub fn record(&mut self, sample: &Sample<'_>) {
        let line = sample_to_jsonl(sample);
        if let Err(e) = self
            .out
            .write_all(line.as_bytes())
            .and_then(|()| self.out.write_all(b"\n"))
        {
            self.error.get_or_insert(e);
        }
    }

    /// Flushes buffered output (called at the end of a run).
    ///
    /// # Errors
    ///
    /// Returns the first I/O error met since the last flush: `record`
    /// cannot report one, so the sink keeps it for here.
    pub fn flush(&mut self) -> std::io::Result<()> {
        match self.error.take() {
            Some(e) => Err(e),
            None => self.out.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_channels() -> Vec<(&'static str, ChannelValue)> {
        vec![
            ("benign_kw", ChannelValue::F64(5.321)),
            ("slot_count", ChannelValue::U64(17)),
            ("capping", ChannelValue::Bool(false)),
            ("action", ChannelValue::Str("attack")),
        ]
    }

    #[test]
    fn jsonl_line_round_trips() {
        let channels = sample_channels();
        let line = sample_to_jsonl(&Sample {
            step: 42,
            channels: &channels,
        });
        let (step, fields) = parse_jsonl_line(&line).unwrap();
        assert_eq!(step, 42);
        assert_eq!(fields.len(), 4);
        assert_eq!(fields[0].0, "benign_kw");
        assert_eq!(fields[0].1.as_f64().unwrap().to_bits(), 5.321f64.to_bits());
        assert_eq!(fields[1].1.as_f64().unwrap(), 17.0);
        assert!(!fields[2].1.as_bool().unwrap());
        assert_eq!(fields[3].1.as_str().unwrap(), "attack");
    }

    #[test]
    fn jsonl_file_sink_writes_one_line_per_step() {
        let dir = std::env::temp_dir().join("hbm_telemetry_record_test");
        let path = dir.join("run.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let mut rec = JsonlRecorder::create(&path).unwrap();
            let channels = sample_channels();
            for step in 0..3u64 {
                rec.record(&Sample {
                    step,
                    channels: &channels,
                });
            }
            rec.flush().unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for (i, line) in lines.iter().enumerate() {
            let (step, fields) = parse_jsonl_line(line).unwrap();
            assert_eq!(step, i as u64);
            assert_eq!(fields.len(), 4);
        }
    }

    #[test]
    fn parse_rejects_missing_step() {
        assert!(parse_jsonl_line("{\"x\":1.0}").is_err());
    }
}
