//! Run manifests: the machine-readable record a figure leaves behind.
//!
//! With `--manifest <dir>`, every figure writes `<dir>/<figure>.json`
//! capturing how the run was configured (quick mode, seed, thread count,
//! git revision), how long it took, the figure's *headline* result values
//! (the handful of numbers a reader would quote from the figure), and a
//! snapshot of the [`traxtent::obs`] metrics the upper stack exported.
//!
//! Manifests are the durable per-PR artifact behind the regression workflow:
//! `results/baseline/` holds a committed reference run, and `bench
//! bench_diff` (see [`crate::diff`]) compares a fresh `results/manifest/` tree
//! against it with configurable tolerances.
//!
//! The workspace has no serializer dependency, so the manifest is written
//! by hand here and read back through [`traxtent::obs::json`], the same way
//! trace events and spans are. The format is a fixed-shape object:
//!
//! ```json
//! {
//!   "figure": "fig1",
//!   "quick": true,
//!   "seed": 24301,
//!   "threads": 4,
//!   "git_rev": "ade8bdc",
//!   "wall_secs": 1.52,
//!   "headline": {"aligned_eff_at_track": 0.73},
//!   "metrics": {"workloads.requests": 40000}
//! }
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use traxtent::obs::json;

/// One run's manifest: configuration, cost, headline results, and metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Figure name, e.g. `fig6` or `fig6_writes` — also the file stem.
    pub figure: String,
    /// Whether the run used `--quick` sample counts.
    pub quick: bool,
    /// Base RNG seed.
    pub seed: u64,
    /// Worker threads used.
    pub threads: usize,
    /// `git rev-parse --short HEAD` at run time, or `unknown`.
    pub git_rev: String,
    /// Wall-clock duration of the run, seconds.
    pub wall_secs: f64,
    /// The figure's headline result values, keyed by a stable name.
    pub headline: BTreeMap<String, f64>,
    /// Counter/gauge snapshot exported by the layers the run exercised.
    pub metrics: BTreeMap<String, u64>,
    /// Named time-series: one row of named values per sampling window
    /// (see `server::timeline`). Serialized only when non-empty, so
    /// manifests without telemetry keep their historical byte shape.
    pub timeline: BTreeMap<String, Vec<BTreeMap<String, f64>>>,
}

impl Manifest {
    /// An empty manifest for `figure` with the given run configuration.
    pub fn new(figure: &str, quick: bool, seed: u64, threads: usize) -> Self {
        Manifest {
            figure: figure.to_string(),
            quick,
            seed,
            threads,
            git_rev: "unknown".to_string(),
            wall_secs: 0.0,
            headline: BTreeMap::new(),
            metrics: BTreeMap::new(),
            timeline: BTreeMap::new(),
        }
    }

    /// Serializes the manifest as pretty-printed JSON (trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"figure\": {},", json::string(&self.figure));
        let _ = writeln!(out, "  \"quick\": {},", self.quick);
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        let _ = writeln!(out, "  \"git_rev\": {},", json::string(&self.git_rev));
        let _ = writeln!(out, "  \"wall_secs\": {},", json_f64(self.wall_secs));
        let headline = object(&self.headline, |v| json_f64(*v));
        let _ = writeln!(out, "  \"headline\": {headline},");
        let metrics = object(&self.metrics, u64::to_string);
        let more = if self.timeline.is_empty() { "" } else { "," };
        let _ = writeln!(out, "  \"metrics\": {metrics}{more}");
        if !self.timeline.is_empty() {
            out.push_str("  \"timeline\": {\n");
            for (i, (name, rows)) in self.timeline.iter().enumerate() {
                let _ = writeln!(out, "    {}: [", json::string(name),);
                for (j, row) in rows.iter().enumerate() {
                    let obj = object(row, |v| json_f64(*v));
                    let _ = writeln!(
                        out,
                        "      {obj}{}",
                        if j + 1 < rows.len() { "," } else { "" }
                    );
                }
                let _ = writeln!(
                    out,
                    "    ]{}",
                    if i + 1 < self.timeline.len() { "," } else { "" }
                );
            }
            out.push_str("  }\n");
        }
        out.push_str("}\n");
        out
    }

    /// Parses a manifest serialized by [`Manifest::to_json`]. Unknown keys
    /// are ignored so the format can grow; missing keys keep their
    /// [`Manifest::new`] defaults except `figure`, which is required.
    pub fn parse_json(text: &str) -> Result<Self, String> {
        let value = json::parse(text)?;
        let obj = value.as_object().ok_or("manifest is not a JSON object")?;
        let mut m = Manifest::new("", false, 0, 1);
        for (key, v) in obj {
            match key.as_str() {
                "figure" => m.figure = v.as_str().ok_or("figure must be a string")?.to_string(),
                "quick" => m.quick = v.as_bool().ok_or("quick must be a bool")?,
                "seed" => m.seed = v.as_u64().ok_or("seed must be an integer")?,
                "threads" => {
                    m.threads = v.as_u64().ok_or("threads must be an integer")? as usize;
                }
                "git_rev" => {
                    m.git_rev = v.as_str().ok_or("git_rev must be a string")?.to_string();
                }
                "wall_secs" => m.wall_secs = finite(v, "wall_secs")?,
                "headline" => {
                    let h = v.as_object().ok_or("headline must be an object")?;
                    for (k, hv) in h {
                        let num = finite(hv, &format!("headline {}", json::string(k)))?;
                        m.headline.insert(k.clone(), num);
                    }
                }
                "metrics" => {
                    let mm = v.as_object().ok_or("metrics must be an object")?;
                    for (k, mv) in mm {
                        let num = mv.as_u64().ok_or("metric values must be integers")?;
                        m.metrics.insert(k.clone(), num);
                    }
                }
                "timeline" => {
                    let tl = v.as_object().ok_or("timeline must be an object")?;
                    for (name, series) in tl {
                        let rows = series.as_array().ok_or("timeline series must be arrays")?;
                        let mut parsed = Vec::with_capacity(rows.len());
                        for row in rows {
                            let obj = row.as_object().ok_or("timeline rows must be objects")?;
                            let mut map = BTreeMap::new();
                            for (k, rv) in obj {
                                let key =
                                    format!("timeline {} {}", json::string(name), json::string(k));
                                map.insert(k.clone(), finite(rv, &key)?);
                            }
                            parsed.push(map);
                        }
                        m.timeline.insert(name.clone(), parsed);
                    }
                }
                _ => {}
            }
        }
        if m.figure.is_empty() {
            return Err("manifest has no figure name".into());
        }
        Ok(m)
    }

    /// Loads and parses `path`.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
        Self::parse_json(&text).map_err(|e| format!("`{}`: {e}", path.display()))
    }

    /// Loads every `*.json` manifest under `dir`, keyed by figure name.
    pub fn load_dir(dir: &Path) -> Result<BTreeMap<String, Manifest>, String> {
        let entries = std::fs::read_dir(dir)
            .map_err(|e| format!("cannot read directory `{}`: {e}", dir.display()))?;
        let mut out = BTreeMap::new();
        for entry in entries {
            let path = entry.map_err(|e| e.to_string())?.path();
            if path.extension().is_some_and(|e| e == "json") {
                let m = Manifest::load(&path)?;
                out.insert(m.figure.clone(), m);
            }
        }
        Ok(out)
    }

    /// Writes the manifest to `<dir>/<figure>.json`, creating `dir` first.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.figure));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// `{"key": value, ...}` on one line, each value written by `value`.
fn object<V>(entries: &BTreeMap<String, V>, value: impl Fn(&V) -> String) -> String {
    let fields: Vec<String> = entries
        .iter()
        .map(|(k, v)| format!("{}: {}", json::string(k), value(v)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The working tree's short revision, or `unknown` outside a git checkout.
pub(crate) fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The finite number `v`, or an error naming `key`: `1e999` parses to
/// infinity, which [`json_f64`] cannot write back.
fn finite(v: &json::Value, key: &str) -> Result<f64, String> {
    match v.as_f64() {
        Some(x) if x.is_finite() => Ok(x),
        Some(x) => Err(format!("{key} must be finite, got {x}")),
        None => Err(format!("{key} must be a number")),
    }
}

/// Formats a finite `f64` so it round-trips through [`json::parse`].
///
/// # Panics
///
/// Panics on NaN or infinity — headline values are always finite.
fn json_f64(v: f64) -> String {
    assert!(v.is_finite(), "manifest values must be finite, got {v}");
    let s = format!("{v}");
    // `Display` omits the decimal point for integral values; keep it so the
    // value reads back as the number it is in any JSON tooling.
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        let mut m = Manifest::new("fig1", true, 0x5eed, 4);
        m.git_rev = "abc1234".into();
        m.wall_secs = 1.5;
        m.headline.insert("aligned_eff".into(), 0.7312);
        m.headline.insert("unaligned_eff".into(), 0.51);
        m.metrics.insert("workloads.requests".into(), 40000);
        m
    }

    #[test]
    fn json_round_trips() {
        let m = sample();
        let back = Manifest::parse_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn round_trips_awkward_values() {
        let mut m = sample();
        m.figure = "fig\"6_writes\\".into();
        m.seed = u64::MAX;
        m.wall_secs = 0.1 + 0.2; // not exactly representable
        m.headline.insert("tiny".into(), 1e-12);
        m.headline.insert("whole".into(), 3.0);
        m.metrics.insert("big".into(), u64::MAX);
        let back = Manifest::parse_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn timeline_round_trips_and_stays_out_of_plain_manifests() {
        let plain = sample();
        assert!(
            !plain.to_json().contains("timeline"),
            "no timeline key without telemetry"
        );
        let mut m = sample();
        let row = |start: f64, done: f64| {
            let mut r = BTreeMap::new();
            r.insert("start_ms".to_string(), start);
            r.insert("completed".to_string(), done);
            r.insert("p99_ms".to_string(), 17.25);
            r
        };
        m.timeline
            .insert("clook_s6".into(), vec![row(0.0, 41.0), row(200.0, 38.0)]);
        m.timeline.insert("empty_series".into(), Vec::new());
        let back = Manifest::parse_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Manifest::parse_json("").is_err());
        assert!(Manifest::parse_json("[1, 2]").is_err());
        assert!(Manifest::parse_json("{\"figure\": \"x\"} trailing").is_err());
        assert!(
            Manifest::parse_json("{\"quick\": true}").is_err(),
            "no figure"
        );
        let truncated = &sample().to_json()[..40];
        assert!(Manifest::parse_json(truncated).is_err());
    }

    #[test]
    fn rejects_numbers_that_overflow_naming_the_key() {
        for (text, key) in [
            ("{\"figure\": \"f\", \"wall_secs\": 1e999}", "wall_secs"),
            (
                "{\"figure\": \"f\", \"headline\": {\"h\": -1e999}}",
                "headline \"h\"",
            ),
            (
                "{\"figure\": \"f\", \"timeline\": {\"t\": [{\"p99_ms\": 1e999}]}}",
                "timeline \"t\" \"p99_ms\"",
            ),
        ] {
            let err = Manifest::parse_json(text).unwrap_err();
            assert!(err.starts_with(&format!("{key} must be finite")), "{err}");
        }
    }

    #[test]
    fn unknown_keys_are_ignored() {
        let m = Manifest::parse_json("{\"figure\": \"f\", \"future_field\": 1.25}").unwrap();
        assert_eq!(m.figure, "f");
    }

    #[test]
    fn write_load_dir_round_trip() {
        let dir = std::env::temp_dir().join(format!("traxtent-manifest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let m = sample();
        let path = m.write_to(&dir).unwrap();
        assert_eq!(path, dir.join("fig1.json"));
        let loaded = Manifest::load_dir(&dir).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded["fig1"], m);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
