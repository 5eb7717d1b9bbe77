//! Plain-text rendering helpers shared by the experiment binaries and benches.

use dejavu_simcore::TimeSeries;
use std::fmt::Write as _;

/// A simple text report builder.
#[derive(Debug, Clone, Default)]
pub struct Report {
    text: String,
}

impl Report {
    /// Creates an empty report.
    pub fn new(title: &str) -> Self {
        let mut r = Report {
            text: String::new(),
        };
        r.heading(title);
        r
    }

    /// Adds a heading line.
    pub fn heading(&mut self, title: &str) {
        let _ = writeln!(self.text, "== {title} ==");
    }

    /// Adds a `key: value` line.
    pub fn kv(&mut self, key: &str, value: impl std::fmt::Display) {
        let _ = writeln!(self.text, "  {key:<42} {value}");
    }

    /// Adds a raw line.
    pub fn line(&mut self, line: impl std::fmt::Display) {
        let _ = writeln!(self.text, "{line}");
    }

    /// Adds an hourly summary of a time series as a compact row of numbers.
    pub fn hourly(&mut self, label: &str, series: &TimeSeries, hours: usize) {
        let means = series.hourly_means(hours);
        let rendered: Vec<String> = means.iter().map(|v| format!("{v:.1}")).collect();
        let _ = writeln!(self.text, "  {label:<14} {}", rendered.join(" "));
    }

    /// The rendered report.
    pub fn into_text(self) -> String {
        self.text
    }

    /// The rendered report (borrowed).
    pub fn text(&self) -> &str {
        &self.text
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.text)
    }
}

/// Formats a fraction as a percentage string.
pub fn pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dejavu_simcore::SimDuration;

    #[test]
    fn report_renders_sections_and_values() {
        let mut r = Report::new("demo");
        r.kv("savings", pct(0.55));
        let mut s = TimeSeries::new("x", SimDuration::from_hours(1.0));
        s.push(1.0);
        s.push(3.0);
        r.hourly("series", &s, 2);
        let text = r.to_string();
        assert!(text.contains("demo"));
        assert!(text.contains("55.0%"));
        assert!(text.contains("series"));
        assert!(!Report::default().into_text().contains("=="));
    }
}
