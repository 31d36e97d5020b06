//! Manifest comparison: the engine behind `bench bench_diff`.
//!
//! Compares two directories of run manifests (see [`crate::manifest`]) —
//! typically the committed `results/baseline/` against a fresh
//! `results/manifest/` — and classifies every headline-value change against
//! configurable tolerances. Simulated results are deterministic given the
//! same seed and sample counts, so their tolerance can be tight; wall-clock
//! time varies with the machine and is only checked when a wall tolerance
//! is explicitly given.

use crate::manifest::Manifest;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// What counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct Tolerances {
    /// Maximum relative change of a headline value, e.g. `0.02` for ±2 %.
    pub headline_rel: f64,
    /// Maximum relative wall-time *increase* before the slowdown counts as
    /// a regression; `None` reports wall time without judging it.
    pub wall_rel: Option<f64>,
}

impl Default for Tolerances {
    /// ±2 % on headline values, wall time informational only.
    fn default() -> Self {
        Tolerances {
            headline_rel: 0.02,
            wall_rel: None,
        }
    }
}

/// The outcome of comparing two manifest sets.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Human-readable per-figure lines, in figure order.
    pub lines: Vec<String>,
    /// One entry per regression found; empty means the diff passes.
    pub regressions: Vec<String>,
}

impl Report {
    /// True when nothing exceeded its tolerance.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }

    /// The whole report as printable text, regressions summarized last.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            let _ = writeln!(out, "{line}");
        }
        if self.passed() {
            let _ = writeln!(out, "PASS: all figures within tolerance");
        } else {
            let _ = writeln!(out, "FAIL: {} regression(s)", self.regressions.len());
            for r in &self.regressions {
                let _ = writeln!(out, "  regression: {r}");
            }
        }
        out
    }
}

/// Relative change from `base` to `cur`, guarding against a zero baseline.
fn rel_delta(base: f64, cur: f64) -> f64 {
    let denom = base.abs().max(1e-12);
    (cur - base) / denom
}

/// Compares two manifest maps (figure → manifest).
pub fn diff_manifests(
    baseline: &BTreeMap<String, Manifest>,
    current: &BTreeMap<String, Manifest>,
    tol: &Tolerances,
) -> Report {
    let mut report = Report::default();
    for (figure, base) in baseline {
        let Some(cur) = current.get(figure) else {
            report
                .lines
                .push(format!("{figure}: MISSING from current run"));
            report
                .regressions
                .push(format!("{figure}: manifest missing from current run"));
            continue;
        };
        diff_one(figure, base, cur, tol, &mut report);
    }
    for figure in current.keys() {
        if !baseline.contains_key(figure) {
            report
                .lines
                .push(format!("{figure}: new figure (no baseline) — ignored"));
        }
    }
    report
}

/// Compares one figure's manifests, appending lines and regressions.
fn diff_one(figure: &str, base: &Manifest, cur: &Manifest, tol: &Tolerances, report: &mut Report) {
    if base.quick != cur.quick || base.seed != cur.seed {
        report.lines.push(format!(
            "{figure}: config differs (quick {} -> {}, seed {} -> {}) — values not comparable",
            base.quick, cur.quick, base.seed, cur.seed
        ));
        report.regressions.push(format!(
            "{figure}: compared runs use different configs (quick/seed)"
        ));
        return;
    }
    for (key, bval) in &base.headline {
        match cur.headline.get(key) {
            None => {
                report
                    .lines
                    .push(format!("{figure}: {key} missing from current manifest"));
                report
                    .regressions
                    .push(format!("{figure}: headline `{key}` disappeared"));
            }
            Some(cval) => {
                let rel = rel_delta(*bval, *cval);
                let over = rel.abs() > tol.headline_rel;
                report.lines.push(format!(
                    "{figure}: {key} {bval:.6} -> {cval:.6} ({:+.2}%){}",
                    rel * 100.0,
                    if over { "  EXCEEDS TOLERANCE" } else { "" }
                ));
                if over {
                    report.regressions.push(format!(
                        "{figure}: `{key}` changed {:+.2}% (tolerance ±{:.2}%)",
                        rel * 100.0,
                        tol.headline_rel * 100.0
                    ));
                }
            }
        }
    }
    for key in cur.headline.keys() {
        if !base.headline.contains_key(key) {
            report.lines.push(format!(
                "{figure}: new headline `{key}` (no baseline) — ignored"
            ));
        }
    }
    let wall_rel = rel_delta(base.wall_secs, cur.wall_secs);
    let wall_over = tol.wall_rel.is_some_and(|w| wall_rel > w);
    report.lines.push(format!(
        "{figure}: wall {:.2}s -> {:.2}s ({:+.1}%){}",
        base.wall_secs,
        cur.wall_secs,
        wall_rel * 100.0,
        if wall_over { "  EXCEEDS TOLERANCE" } else { "" }
    ));
    if wall_over {
        report.regressions.push(format!(
            "{figure}: wall time rose {:+.1}% (tolerance +{:.1}%)",
            wall_rel * 100.0,
            tol.wall_rel.unwrap_or(0.0) * 100.0
        ));
    }
    let changed_metrics = base
        .metrics
        .iter()
        .filter(|(k, v)| cur.metrics.get(*k) != Some(v))
        .count()
        + cur
            .metrics
            .keys()
            .filter(|k| !base.metrics.contains_key(*k))
            .count();
    if changed_metrics > 0 {
        report.lines.push(format!(
            "{figure}: {changed_metrics} metric cell(s) differ (informational)"
        ));
    }
    for (name, brows) in &base.timeline {
        match cur.timeline.get(name) {
            None => report.lines.push(format!(
                "{figure}: timeline `{name}` missing from current manifest (informational)"
            )),
            Some(crows) => {
                let differing = brows.iter().zip(crows).filter(|(b, c)| b != c).count()
                    + brows.len().abs_diff(crows.len());
                if differing > 0 {
                    report.lines.push(format!(
                        "{figure}: timeline `{name}` {differing} row(s) differ (informational)"
                    ));
                }
            }
        }
    }
}

/// Loads both directories and compares them, restricted to the named
/// figures when `only` is non-empty. Asking for a figure the baseline does
/// not have is an error — a gate that silently compares nothing would
/// always pass.
pub fn diff_dirs_only(
    baseline: &Path,
    current: &Path,
    tol: &Tolerances,
    only: &[String],
) -> Result<Report, String> {
    let mut base = Manifest::load_dir(baseline)?;
    if base.is_empty() {
        return Err(format!("no manifests found in `{}`", baseline.display()));
    }
    let mut cur = Manifest::load_dir(current)?;
    if !only.is_empty() {
        for figure in only {
            if !base.contains_key(figure) {
                return Err(format!(
                    "--only {figure}: no such figure in `{}`",
                    baseline.display()
                ));
            }
        }
        base.retain(|k, _| only.contains(k));
        cur.retain(|k, _| only.contains(k));
    }
    Ok(diff_manifests(&base, &cur, tol))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest(figure: &str, headline: &[(&str, f64)]) -> Manifest {
        let mut m = Manifest::new(figure, true, 7, 1);
        m.wall_secs = 2.0;
        for (k, v) in headline {
            m.headline.insert(k.to_string(), *v);
        }
        m
    }

    fn map(ms: Vec<Manifest>) -> BTreeMap<String, Manifest> {
        ms.into_iter().map(|m| (m.figure.clone(), m)).collect()
    }

    #[test]
    fn identical_runs_pass() {
        let base = map(vec![manifest("fig1", &[("eff", 0.73)])]);
        let report = diff_manifests(&base, &base, &Tolerances::default());
        assert!(report.passed(), "{}", report.render());
        assert!(report.render().contains("PASS"));
    }

    #[test]
    fn within_tolerance_passes_beyond_fails() {
        let base = map(vec![manifest("fig1", &[("eff", 1.0)])]);
        let ok = map(vec![manifest("fig1", &[("eff", 1.015)])]);
        let bad = map(vec![manifest("fig1", &[("eff", 1.05)])]);
        let tol = Tolerances::default();
        assert!(diff_manifests(&base, &ok, &tol).passed());
        let report = diff_manifests(&base, &bad, &tol);
        assert!(!report.passed());
        assert!(
            report.render().contains("EXCEEDS TOLERANCE"),
            "{}",
            report.render()
        );
    }

    #[test]
    fn missing_figure_or_key_is_a_regression() {
        let base = map(vec![
            manifest("fig1", &[("eff", 1.0)]),
            manifest("fig3", &[("ms", 5.0)]),
        ]);
        let cur = map(vec![manifest("fig1", &[("other", 1.0)])]);
        let report = diff_manifests(&base, &cur, &Tolerances::default());
        assert_eq!(report.regressions.len(), 2, "{}", report.render());
    }

    #[test]
    fn extra_figures_and_keys_are_ignored() {
        let base = map(vec![manifest("fig1", &[("eff", 1.0)])]);
        let cur = map(vec![
            manifest("fig1", &[("eff", 1.0), ("bonus", 9.0)]),
            manifest("fig99", &[("x", 1.0)]),
        ]);
        assert!(diff_manifests(&base, &cur, &Tolerances::default()).passed());
    }

    #[test]
    fn wall_time_only_judged_when_tolerance_given() {
        let base = map(vec![manifest("fig1", &[("eff", 1.0)])]);
        let mut slow = manifest("fig1", &[("eff", 1.0)]);
        slow.wall_secs = 10.0;
        let cur = map(vec![slow]);
        assert!(diff_manifests(&base, &cur, &Tolerances::default()).passed());
        let tol = Tolerances {
            headline_rel: 0.02,
            wall_rel: Some(1.0),
        };
        let report = diff_manifests(&base, &cur, &tol);
        assert!(!report.passed());
        assert!(
            report.regressions[0].contains("wall time"),
            "{}",
            report.render()
        );
    }

    #[test]
    fn config_mismatch_is_flagged() {
        let base = map(vec![manifest("fig1", &[("eff", 1.0)])]);
        let mut other = manifest("fig1", &[("eff", 1.0)]);
        other.seed = 99;
        let report = diff_manifests(&base, &map(vec![other]), &Tolerances::default());
        assert!(!report.passed());
        assert!(
            report.regressions[0].contains("config"),
            "{}",
            report.render()
        );
    }

    #[test]
    fn zero_baseline_does_not_divide_by_zero() {
        let base = map(vec![manifest("fig1", &[("misses", 0.0)])]);
        let cur = map(vec![manifest("fig1", &[("misses", 0.0)])]);
        assert!(diff_manifests(&base, &cur, &Tolerances::default()).passed());
        let bad = map(vec![manifest("fig1", &[("misses", 1.0)])]);
        assert!(!diff_manifests(&base, &bad, &Tolerances::default()).passed());
    }

    #[test]
    fn timeline_rows_report_informationally() {
        let mut with_rows = manifest("server_timeline", &[("peak_p99_ms", 20.0)]);
        let mut row = BTreeMap::new();
        row.insert("start_ms".to_string(), 0.0);
        row.insert("completed".to_string(), 40.0);
        with_rows.timeline.insert("clook_s6".into(), vec![row]);
        let base = map(vec![with_rows.clone()]);
        // Identical timelines: silent.
        let report = diff_manifests(&base, &base, &Tolerances::default());
        assert!(report.passed());
        assert!(
            !report.render().contains("timeline `"),
            "{}",
            report.render()
        );
        // Changed rows: informational line, not a regression.
        let mut changed = with_rows.clone();
        changed.timeline.get_mut("clook_s6").unwrap()[0].insert("completed".into(), 41.0);
        let report = diff_manifests(&base, &map(vec![changed]), &Tolerances::default());
        assert!(report.passed(), "{}", report.render());
        assert!(
            report
                .render()
                .contains("timeline `clook_s6` 1 row(s) differ"),
            "{}",
            report.render()
        );
        // A dropped series is informational too; gating lives in headline.
        let mut dropped = with_rows;
        dropped.timeline.clear();
        let report = diff_manifests(&base, &map(vec![dropped]), &Tolerances::default());
        assert!(report.passed());
        assert!(report.render().contains("missing"), "{}", report.render());
    }

    #[test]
    fn only_filter_restricts_and_validates() {
        let dir = std::env::temp_dir().join(format!("traxtent-diff-only-{}", std::process::id()));
        let base_dir = dir.join("base");
        let cur_dir = dir.join("cur");
        let _ = std::fs::remove_dir_all(&dir);
        manifest("fig1", &[("eff", 0.5)])
            .write_to(&base_dir)
            .unwrap();
        manifest("replay", &[("ms", 3.0)])
            .write_to(&base_dir)
            .unwrap();
        // Current run regresses fig1 but not replay.
        manifest("fig1", &[("eff", 0.9)])
            .write_to(&cur_dir)
            .unwrap();
        manifest("replay", &[("ms", 3.0)])
            .write_to(&cur_dir)
            .unwrap();

        let tol = Tolerances::default();
        assert!(!diff_dirs_only(&base_dir, &cur_dir, &tol, &[])
            .unwrap()
            .passed());
        let only = vec!["replay".to_string()];
        let report = diff_dirs_only(&base_dir, &cur_dir, &tol, &only).unwrap();
        assert!(report.passed(), "{}", report.render());
        assert!(!report.render().contains("fig1"));

        let missing = vec!["nope".to_string()];
        let err = diff_dirs_only(&base_dir, &cur_dir, &tol, &missing).unwrap_err();
        assert!(err.contains("nope"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
