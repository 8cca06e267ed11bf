//! Labeled data series for figure reproduction.
//!
//! A paper figure is a set of named series over shared x-labels (e.g.
//! Figure 6(a): x = {small, medium, large, xlarge}, series = {Reactive,
//! Proactive}). `SeriesSet` holds exactly that and renders to text or CSV.

use std::fmt::Write as _;

/// One named series of y-values.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledSeries {
    pub label: String,
    pub values: Vec<f64>,
}

impl LabeledSeries {
    pub fn new(label: impl Into<String>, values: Vec<f64>) -> Self {
        LabeledSeries {
            label: label.into(),
            values,
        }
    }
}

/// A figure's worth of series over common x-labels.
#[derive(Debug, Clone, Default)]
pub struct SeriesSet {
    pub x_labels: Vec<String>,
    pub series: Vec<LabeledSeries>,
}

impl SeriesSet {
    pub fn new<S: Into<String>>(x_labels: impl IntoIterator<Item = S>) -> Self {
        SeriesSet {
            x_labels: x_labels.into_iter().map(Into::into).collect(),
            series: Vec::new(),
        }
    }

    /// Add a series; its length must match the x-labels.
    pub fn push(&mut self, series: LabeledSeries) -> &mut Self {
        assert_eq!(
            series.values.len(),
            self.x_labels.len(),
            "series '{}' length mismatch",
            series.label
        );
        self.series.push(series);
        self
    }

    pub fn get(&self, label: &str) -> Option<&LabeledSeries> {
        self.series.iter().find(|s| s.label == label)
    }

    /// Render as an aligned text block (one row per x-label).
    pub fn to_text(&self, value_fmt: impl Fn(f64) -> String) -> String {
        let mut out = String::new();
        let xw = self
            .x_labels
            .iter()
            .map(|l| l.len())
            .max()
            .unwrap_or(1)
            .max(4);
        // Header.
        let _ = write!(out, "{:<xw$}", "x");
        let widths: Vec<usize> = self
            .series
            .iter()
            .map(|s| {
                s.label.len().max(
                    s.values
                        .iter()
                        .map(|&v| value_fmt(v).len())
                        .max()
                        .unwrap_or(0),
                ) + 2
            })
            .collect();
        for (s, w) in self.series.iter().zip(&widths) {
            let _ = write!(out, "{:>w$}", s.label, w = *w);
        }
        out.push('\n');
        for (i, x) in self.x_labels.iter().enumerate() {
            let _ = write!(out, "{x:<xw$}");
            for (s, w) in self.series.iter().zip(&widths) {
                let _ = write!(out, "{:>w$}", value_fmt(s.values[i]), w = *w);
            }
            out.push('\n');
        }
        out
    }

    /// Render as CSV with an `x` column followed by one column per series.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("x");
        for s in &self.series {
            out.push(',');
            out.push_str(&csv_escape(&s.label));
        }
        out.push('\n');
        for (i, x) in self.x_labels.iter().enumerate() {
            out.push_str(&csv_escape(x));
            for s in &self.series {
                let _ = write!(out, ",{}", s.values[i]);
            }
            out.push('\n');
        }
        out
    }
}

/// Quote one CSV field per RFC 4180: a field holding a comma, a double
/// quote or a newline is wrapped in double quotes, with inner quotes
/// doubled; any other field is returned as is.
pub fn csv_escape(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set() -> SeriesSet {
        let mut s = SeriesSet::new(["small", "medium"]);
        s.push(LabeledSeries::new("Reactive", vec![0.25, 0.28]));
        s.push(LabeledSeries::new("Proactive", vec![0.22, 0.26]));
        s
    }

    #[test]
    fn lookup_by_label() {
        let s = set();
        assert_eq!(s.get("Reactive").unwrap().values, vec![0.25, 0.28]);
        assert!(s.get("nope").is_none());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_series_rejected() {
        let mut s = SeriesSet::new(["a", "b", "c"]);
        s.push(LabeledSeries::new("bad", vec![1.0]));
    }

    #[test]
    fn text_render_contains_all_cells() {
        let txt = set().to_text(|v| format!("{v:.2}"));
        for needle in ["small", "medium", "Reactive", "Proactive", "0.25", "0.26"] {
            assert!(txt.contains(needle), "missing {needle} in:\n{txt}");
        }
    }

    #[test]
    fn csv_roundtrip_shape() {
        let csv = set().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "x,Reactive,Proactive");
        assert!(lines[1].starts_with("small,0.25,"));
    }

    #[test]
    fn csv_escaping() {
        let mut s = SeriesSet::new(["a,b"]);
        s.push(LabeledSeries::new("se\"ries", vec![1.0]));
        let csv = s.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"se\"\"ries\""));
    }
}
