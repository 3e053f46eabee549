//! Committed performance baselines.
//!
//! A [`Baseline`] is a flat `name → value` table persisted as plain JSON
//! (`BENCH_baseline.json` at the repository root) so performance PRs can
//! claim *measured* wins: the `bench_diff` binary re-measures the current
//! tree and prints the ratio against the committed numbers.
//!
//! The vendored `serde_json` stand-in uses a binary codec, so the (tiny)
//! JSON emitter/parser for the human-readable committed file lives here.

use std::collections::BTreeMap;
use std::path::Path;

/// A named table of benchmark measurements.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Baseline {
    /// Measurement name → value (units encoded in the name).
    pub entries: BTreeMap<String, f64>,
}

impl Baseline {
    /// Inserts or replaces a measurement.
    pub fn set(&mut self, name: &str, value: f64) {
        self.entries.insert(name.to_string(), value);
    }

    /// Looks up a measurement.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.get(name).copied()
    }

    /// Serialises to pretty JSON (one entry per line, sorted by name).
    fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (name, value)) in self.entries.iter().enumerate() {
            let comma = if i + 1 < self.entries.len() { "," } else { "" };
            out.push_str(&format!("  \"{name}\": {value:.1}{comma}\n"));
        }
        out.push_str("}\n");
        out
    }

    /// Parses the flat JSON produced by [`Baseline::to_json`].
    fn from_json(text: &str) -> Result<Baseline, String> {
        let mut entries = BTreeMap::new();
        let body = text.trim();
        let body = body
            .strip_prefix('{')
            .and_then(|b| b.strip_suffix('}'))
            .ok_or_else(|| "baseline JSON must be a flat object".to_string())?;
        for piece in body.split(',') {
            let piece = piece.trim();
            if piece.is_empty() {
                continue;
            }
            let (name, value) = piece
                .split_once(':')
                .ok_or_else(|| format!("malformed baseline entry: {piece:?}"))?;
            let name = name
                .trim()
                .strip_prefix('"')
                .and_then(|n| n.strip_suffix('"'))
                .ok_or_else(|| format!("baseline key must be quoted: {name:?}"))?;
            let value: f64 = value
                .trim()
                .parse()
                .map_err(|e| format!("baseline value for {name:?} is not a number: {e}"))?;
            entries.insert(name.to_string(), value);
        }
        Ok(Baseline { entries })
    }

    /// Loads a baseline file.
    pub fn load(path: &Path) -> Result<Baseline, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Baseline::from_json(&text)
    }

    /// Writes the baseline to a file.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, self.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_json() {
        let mut baseline = Baseline::default();
        baseline.set("skewed/static/crit_ns", 123456.7);
        baseline.set("skewed/adaptive/crit_ns", 65432.1);
        let text = baseline.to_json();
        let parsed = Baseline::from_json(&text).unwrap();
        assert_eq!(parsed.get("skewed/static/crit_ns"), Some(123456.7));
        assert_eq!(parsed.get("skewed/adaptive/crit_ns"), Some(65432.1));
        assert_eq!(parsed.entries.len(), 2);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Baseline::from_json("not json").is_err());
        assert!(Baseline::from_json("{\"a\" 1}").is_err());
        assert!(Baseline::from_json("{\"a\": x}").is_err());
        assert!(Baseline::from_json("{unquoted: 1}").is_err());
    }

    #[test]
    fn empty_object_parses() {
        let parsed = Baseline::from_json("{}\n").unwrap();
        assert!(parsed.entries.is_empty());
        assert_eq!(Baseline::default().to_json(), "{\n}\n");
    }
}
