//! The harness report: raw samples and observations, serialized as JSON
//! for `run.py`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write;

/// One lane of the fleet check: its batch-engine metrics next to the
/// scalar re-run's, both as `Debug` strings (shortest round-trip floats,
/// so equal strings mean bit-identical values).
pub struct LaneCheck {
    pub lane: usize,
    pub batch: String,
    pub scalar: String,
}

/// One experiment of the serve check: the served final metrics body next
/// to the twin supervisor's after replaying the same operations.
pub struct TwinCheck {
    pub experiment: String,
    pub served: String,
    pub twin: String,
}

#[derive(Default)]
pub struct Report {
    /// Raw samples by name: `(unit, values)`.
    pub series: BTreeMap<String, (&'static str, Vec<f64>)>,
    /// Scalars by name: `(unit, value)`.
    pub values: BTreeMap<String, (&'static str, f64)>,
    /// `run_sharded` calls made in the measured window (fleet).
    pub ops: u64,
    pub lanes: Vec<LaneCheck>,
    /// Response count by HTTP status, over every request sent.
    pub statuses: BTreeMap<u16, u64>,
    /// Requests that never got a parseable response.
    pub transport_errors: u64,
    pub twins: Vec<TwinCheck>,
}

impl Report {
    pub fn push(&mut self, name: &str, unit: &'static str, value: f64) {
        self.series
            .entry(name.to_string())
            .or_insert((unit, Vec::new()))
            .1
            .push(value);
    }

    pub fn extend(&mut self, name: &str, unit: &'static str, values: &[f64]) {
        for &v in values {
            self.push(name, unit, v);
        }
    }

    pub fn value(&mut self, name: &str, unit: &'static str, value: f64) {
        self.values.insert(name.to_string(), (unit, value));
    }

    /// Folds another report's samples and observations into this one.
    pub fn merge(&mut self, other: Report) {
        for (name, (unit, values)) in other.series {
            self.extend(&name, unit, &values);
        }
        self.values.extend(other.values);
        self.ops += other.ops;
        self.lanes.extend(other.lanes);
        for (status, n) in other.statuses {
            *self.statuses.entry(status).or_default() += n;
        }
        self.transport_errors += other.transport_errors;
        self.twins.extend(other.twins);
    }

    /// Writes the report as one JSON object, streamed (a session's samples
    /// run to megabytes; building them into one string first would show
    /// up in the workload's peak RSS).
    pub fn write_json(&self, out: &mut impl Write) -> std::io::Result<()> {
        out.write_all(b"{\"series\":{")?;
        for (i, (name, (unit, values))) in self.series.iter().enumerate() {
            sep(out, i)?;
            write!(
                out,
                "{}:{{\"unit\":{},\"values\":[",
                quote(name),
                quote(unit)
            )?;
            for (j, v) in values.iter().enumerate() {
                sep(out, j)?;
                out.write_all(number(*v).as_bytes())?;
            }
            out.write_all(b"]}")?;
        }
        out.write_all(b"},\"values\":{")?;
        for (i, (name, (unit, v))) in self.values.iter().enumerate() {
            sep(out, i)?;
            write!(
                out,
                "{}:{{\"unit\":{},\"value\":{}}}",
                quote(name),
                quote(unit),
                number(*v)
            )?;
        }
        write!(out, "}},\"ops\":{},\"lanes\":[", self.ops)?;
        for (i, l) in self.lanes.iter().enumerate() {
            sep(out, i)?;
            write!(
                out,
                "{{\"lane\":{},\"batch\":{},\"scalar\":{}}}",
                l.lane,
                quote(&l.batch),
                quote(&l.scalar)
            )?;
        }
        out.write_all(b"],\"statuses\":{")?;
        for (i, (status, n)) in self.statuses.iter().enumerate() {
            sep(out, i)?;
            write!(out, "\"{status}\":{n}")?;
        }
        write!(
            out,
            "}},\"transport_errors\":{},\"twins\":[",
            self.transport_errors
        )?;
        for (i, t) in self.twins.iter().enumerate() {
            sep(out, i)?;
            write!(
                out,
                "{{\"experiment\":{},\"served\":{},\"twin\":{}}}",
                quote(&t.experiment),
                quote(&t.served),
                quote(&t.twin)
            )?;
        }
        out.write_all(b"]}\n")
    }
}

fn sep(out: &mut impl Write, i: usize) -> std::io::Result<()> {
    if i > 0 {
        out.write_all(b",")?;
    }
    Ok(())
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn quote(text: &str) -> String {
    let mut s = String::with_capacity(text.len() + 2);
    s.push('"');
    for c in text.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quote_escapes_control_and_quote_characters() {
        assert_eq!(quote("a\"b\\c\nd\u{1}"), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn report_serializes_series_values_and_checks() {
        let mut r = Report::default();
        r.push("op_ms", "ms", 1.5);
        r.push("op_ms", "ms", 2.0);
        r.value("rate", "1/s", 10.0);
        *r.statuses.entry(200).or_default() += 3;
        r.ops = 2;
        let mut out = Vec::new();
        r.write_json(&mut out).unwrap();
        let json = String::from_utf8(out).unwrap();
        assert!(json.contains("\"op_ms\":{\"unit\":\"ms\",\"values\":[1.5,2.0]}"));
        assert!(json.contains("\"rate\":{\"unit\":\"1/s\",\"value\":10.0}"));
        assert!(json.contains("\"statuses\":{\"200\":3}"));
        assert!(json.contains("\"ops\":2"));
    }
}
