//! [`Run`], [`Row`] and [`CellObs`]: see the crate documentation.

use crate::manifest::Manifest;
use crate::Cli;
use server::{ServerConfig, SloSummary, Timeline, TimelineConfig};
use sim_disk::disk::DiskConfig;
use sim_disk::trace::{DiskSpanBridge, Fanout, JsonlSink, SharedSink, Tracer};
use std::fmt::{self, Display};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use traxtent::obs::span::{self, Span, SpanRecorder};
use traxtent::obs::Registry;

/// Prints a one-line error about an input the run cannot use or an output
/// it cannot produce, and exits 2.
pub fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// One row of a figure's table. Each number is stated once: it becomes a
/// formatted column and, where keyed, a manifest headline.
#[derive(Default)]
pub struct Row {
    cols: Vec<String>,
    last: f64,
    set: Vec<(String, f64)>,
    add: Vec<(String, f64)>,
    telemetry: Option<Telemetry>,
}

impl Row {
    /// An empty row.
    pub fn new() -> Self {
        Row::default()
    }

    /// A column that is not a headline: a label, or text around a number.
    pub fn col(mut self, text: impl Display) -> Self {
        self.cols.push(text.to_string());
        self
    }

    /// A numeric column with `decimals` fractional digits.
    pub fn num(mut self, value: f64, decimals: usize) -> Self {
        self.cols.push(format!("{value:.decimals$}"));
        self.last = value;
        self
    }

    /// An integer column.
    pub fn count(self, value: u64) -> Self {
        self.num(value as f64, 0)
    }

    /// Appends a unit to the column just pushed.
    pub fn unit(mut self, suffix: &str) -> Self {
        self.cols.last_mut().expect("a column").push_str(suffix);
        self
    }

    /// Records the number just pushed as headline `key`.
    pub fn key(self, key: impl Into<String>) -> Self {
        let last = self.last;
        self.set(key, last)
    }

    /// [`Row::key`] on the rows where `cond` holds.
    pub fn key_if(self, cond: bool, key: impl Into<String>) -> Self {
        if cond {
            self.key(key)
        } else {
            self
        }
    }

    /// Adds the number just pushed to headline `key`, a total over rows.
    pub fn sum(self, key: impl Into<String>) -> Self {
        let last = self.last;
        self.add(key, last)
    }

    /// Records headline `key` without a column.
    pub fn set(mut self, key: impl Into<String>, value: impl Into<f64>) -> Self {
        self.set.push((key.into(), value.into()));
        self
    }

    /// Adds to headline `key` without a column.
    pub fn add(mut self, key: impl Into<String>, value: impl Into<f64>) -> Self {
        self.add.push((key.into(), value.into()));
        self
    }

    /// Attaches an observed cell's spans and timeline (see [`CellObs`]).
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Appends `other`'s columns and headlines: a row assembled from parts.
    pub fn join(mut self, other: Row) -> Self {
        self.cols.extend(other.cols);
        self.set.extend(other.set);
        self.add.extend(other.add);
        self
    }
}

impl Display for Row {
    /// The tab-separated line.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.cols.join("\t"))
    }
}

/// What an observed cell of a sweep hands back with its row.
pub struct Telemetry {
    /// The cell's manifest tag, e.g. `s6_clook`.
    pub tag: String,
    /// The windowed series, under `--timeline`.
    pub timeline: Option<Timeline>,
    /// The SLO verdict over that series.
    pub slo: Option<SloSummary>,
    /// The served workload's span trees, under `--trace`.
    pub spans: Vec<Span>,
    /// Headlines for the timeline manifest.
    pub headlines: Vec<(String, f64)>,
}

/// Per-cell observability of a sweep (see [`Run::observe`]): a salted span
/// recorder under `--trace`, the windowed sampler under `--timeline`.
pub struct CellObs<'a> {
    run: &'a Run,
    spans: Option<SpanRecorder>,
    timeline: bool,
}

impl CellObs<'_> {
    /// [`Run::drive`], plus the span bridge woven in beside the trace sink
    /// when this cell records spans. The bridge only records while a
    /// request context is set, so set-up traffic stays invisible to it.
    pub fn drive(&self, config: DiskConfig) -> DiskConfig {
        let mut config = self.run.drive(config);
        if let Some(rec) = &self.spans {
            let trace = config
                .tracer
                .take()
                .expect("spans are only recorded under --trace");
            let bridge: SharedSink = Arc::new(Mutex::new(DiskSpanBridge::new(rec.clone())));
            config.tracer = Some(Tracer::from_sink(Fanout::new(vec![trace.sink(), bridge])));
        }
        config
    }

    /// Turns on what this cell records in a server configuration.
    pub fn server(&self, mut config: ServerConfig, timeline: TimelineConfig) -> ServerConfig {
        if self.timeline {
            config = config.with_timeline(timeline);
        }
        if let Some(rec) = &self.spans {
            config = config.with_spans(rec.clone());
        }
        config
    }

    /// The cell's span recorder, for layers that attach one directly.
    pub fn spans(&self) -> Option<&SpanRecorder> {
        self.spans.as_ref()
    }

    /// Drains the spans recorded so far into the cell's [`Telemetry`];
    /// what the cell does afterwards stays out of the export.
    pub fn telemetry(
        &self,
        tag: String,
        timeline: Option<Timeline>,
        slo: Option<SloSummary>,
    ) -> Telemetry {
        Telemetry {
            tag,
            timeline,
            slo,
            spans: self.spans.as_ref().map_or(Vec::new(), |r| r.take_sorted()),
            headlines: Vec::new(),
        }
    }
}

/// One figure's run: see the crate documentation.
pub struct Run {
    cli: Cli,
    /// The registry the layers' `export_metrics` report into; its snapshot
    /// is the manifest's `metrics` object.
    pub reg: Registry,
    tracer: Option<Tracer>,
    started: Instant,
    out: Mutex<Collected>,
}

/// What the printed rows have left behind for the epilogue.
struct Collected {
    manifest: Manifest,
    observed: Vec<Telemetry>,
}

impl std::ops::Deref for Run {
    type Target = Cli;

    fn deref(&self) -> &Cli {
        &self.cli
    }
}

impl Run {
    /// Opens the run for `figure` (the manifest's name and file stem):
    /// creates the `--manifest` directory and the `--trace`
    /// file now, so a bad path costs no simulation, and builds the sink.
    pub fn new(figure: &str, cli: Cli) -> Result<Run, String> {
        if let Some(dir) = &cli.manifest {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create manifest directory `{dir}`: {e}"))?;
        }
        let tracer = cli
            .trace
            .as_deref()
            .map(|path| {
                JsonlSink::create(path)
                    .map(Tracer::from_sink)
                    .map_err(|e| format!("cannot create trace file `{path}`: {e}"))
            })
            .transpose()?;
        let manifest = Manifest::new(figure, cli.quick, cli.seed, cli.threads);
        Ok(Run {
            out: Mutex::new(Collected {
                manifest,
                observed: Vec::new(),
            }),
            cli,
            reg: Registry::new(),
            tracer,
            started: Instant::now(),
        })
    }

    /// Names the manifest after a variant the flags selected: `replay`'s
    /// synthetic trace is `replay_synthetic`.
    pub fn rename(&self, figure: &str) {
        self.out().manifest.figure = figure.to_string();
    }

    /// Refuses `--faults` for a sweep whose determinism it would break.
    pub fn no_faults(&self, why: &str) {
        if self.fault.is_some() {
            die(why);
        }
    }

    /// Points `config` at the `--trace` sink and stamps the `--faults`
    /// config on it; with neither flag, returns it as is.
    /// Every drive a figure builds takes its config through here.
    pub fn drive(&self, mut config: DiskConfig) -> DiskConfig {
        if let Some(t) = &self.tracer {
            config.tracer = Some(t.clone());
        }
        if let Some(f) = self.fault {
            config.fault = f;
        }
        config
    }

    /// Prints the `# title` line and, unless empty, the column names.
    pub fn header(&self, title: &str, columns: &[&str]) {
        println!("# {title}");
        if !columns.is_empty() {
            println!("{}", columns.join("\t"));
        }
    }

    /// Runs `job` over `items` on `--threads` workers; results come back
    /// in item order (see [`traxtent::par::map`]). Jobs must not print.
    pub fn map<I, T, F>(&self, items: Vec<I>, job: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(usize, I) -> T + Sync,
    {
        traxtent::par::map(self.threads, items, job)
    }

    /// Prints one row and records its headlines and telemetry.
    pub fn row(&self, row: Row) {
        println!("{row}");
        let mut out = self.out();
        out.manifest.headline.extend(row.set);
        for (key, value) in row.add {
            *out.manifest.headline.entry(key).or_insert(0.0) += value;
        }
        out.observed.extend(row.telemetry);
    }

    /// One cell per item, one row per cell, printed in item order.
    pub fn sweep<I, F>(&self, items: Vec<I>, cell: F)
    where
        I: Send,
        F: Fn(usize, I) -> Row + Sync,
    {
        for row in self.map(items, cell) {
            self.row(row);
        }
    }

    /// One cell per (row, column) pair, each its own job; a printed row is
    /// `lead(row)` followed by that row's cells in column order.
    pub fn grid<R, C, L, F>(&self, rows: &[R], columns: &[C], lead: L, cell: F)
    where
        R: Sync,
        C: Sync,
        L: Fn(&R) -> Row,
        F: Fn(&R, &C) -> Row + Sync,
    {
        let jobs: Vec<(&R, &C)> = rows
            .iter()
            .flat_map(|r| columns.iter().map(move |c| (r, c)))
            .collect();
        let mut cells = self.map(jobs, |_, (r, c)| cell(r, c)).into_iter();
        for r in rows {
            let parts = cells.by_ref().take(columns.len());
            self.row(parts.fold(lead(r), Row::join));
        }
    }

    /// A headline recorded so far, for closing prose and derived headlines.
    ///
    /// # Panics
    ///
    /// Panics if no row recorded `key`.
    pub fn get(&self, key: &str) -> f64 {
        let out = self.out();
        let value = out.manifest.headline.get(key);
        *value.unwrap_or_else(|| panic!("no row recorded headline `{key}`"))
    }

    /// Records a headline derived from others.
    pub fn set(&self, key: &str, value: f64) {
        self.out().manifest.headline.insert(key.to_string(), value);
    }

    /// The observability of cell `index`, off unless `wanted`: under
    /// `--trace`, a span recorder salted with (seed, `domain`, `index`) so
    /// merged span ids never collide across cells and the export is
    /// identical at any `--threads`; under `--timeline`, the sampler.
    pub fn observe(&self, index: usize, domain: u32, wanted: bool) -> CellObs<'_> {
        let spans = (wanted && self.trace.is_some()).then(|| {
            let rec = SpanRecorder::new();
            rec.set_salt(span::derive_id(self.seed, domain, index as u64, 0));
            rec
        });
        CellObs {
            run: self,
            spans,
            timeline: wanted && self.has("--timeline"),
        }
    }

    /// Under `--timeline`, prints one windowed table per observed cell,
    /// with its SLO verdict, and records the series with the cells'
    /// timeline headlines — in a manifest of their own named `separate`,
    /// or in the figure's.
    pub fn print_timelines(&self, separate: Option<&str>) {
        if !self.has("--timeline") {
            return;
        }
        let started = Instant::now();
        let mut out = self.out();
        let Collected { manifest, observed } = &mut *out;
        let mut own = separate.map(|name| Manifest::new(name, self.quick, self.seed, self.threads));
        let target = own.as_mut().unwrap_or(manifest);
        for t in observed.iter() {
            let Some(series) = &t.timeline else { continue };
            println!(
                "## timeline {} (window {:.0} ms, {} buckets)",
                t.tag,
                series.window_ms,
                series.buckets.len()
            );
            print!("{series}");
            if let Some(slo) = &t.slo {
                println!("{slo}");
            }
            target.headline.extend(t.headlines.iter().cloned());
            target.timeline.insert(t.tag.clone(), series.rows());
        }
        if let Some(m) = own {
            write_manifest(&self.cli, m, &Registry::new(), started);
        }
    }

    /// The epilogue: exports the observed cells' merged span trees next to
    /// the `--trace` file (`<base>.spans.jsonl`, `<base>.chrome.json`;
    /// status on stderr), flushes the trace and writes the manifest.
    pub fn finish(self) {
        let Collected { manifest, observed } = self.out.into_inner().expect("cells have finished");
        let mut spans: Vec<Span> = observed.into_iter().flat_map(|t| t.spans).collect();
        if let (Some(path), false) = (&self.cli.trace, spans.is_empty()) {
            spans.sort_by_key(|s| (s.start_ns, s.id));
            let base = path.strip_suffix(".jsonl").unwrap_or(path);
            let jsonl: String = spans.iter().map(|s| s.to_json() + "\n").collect();
            for (file, text) in [
                (format!("{base}.spans.jsonl"), jsonl),
                (format!("{base}.chrome.json"), span::chrome_trace(&spans)),
            ] {
                if let Err(e) = std::fs::write(&file, text) {
                    die(&format!("cannot write span export `{file}`: {e}"));
                }
            }
            eprintln!(
                "{}: {} spans -> {base}.spans.jsonl, {base}.chrome.json",
                manifest.figure,
                spans.len()
            );
        }
        if let Some(t) = &self.tracer {
            t.flush();
        }
        write_manifest(&self.cli, manifest, &self.reg, self.started);
    }

    fn out(&self) -> std::sync::MutexGuard<'_, Collected> {
        self.out.lock().expect("a cell panicked while merging")
    }
}

/// Stamps wall time since `started`, the git revision and `registry`'s
/// snapshot on `manifest` and writes it, if `--manifest` was given.
fn write_manifest(cli: &Cli, mut manifest: Manifest, registry: &Registry, started: Instant) {
    let Some(dir) = &cli.manifest else { return };
    manifest.wall_secs = started.elapsed().as_secs_f64();
    manifest.git_rev = crate::manifest::git_rev();
    manifest.metrics = registry.snapshot().entries().iter().cloned().collect();
    if let Err(e) = manifest.write_to(Path::new(dir)) {
        die(&format!("cannot write manifest into `{dir}`: {e}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Grammar;
    use sim_disk::models::small_test_disk;
    use sim_disk::trace::TraceEvent;

    fn run_of(list: &[&str]) -> Run {
        let args = list.iter().map(|s| s.to_string());
        Run::new(
            "test",
            Cli::parse_args(args, &Grammar::figure(&[], &[])).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn drive_stamps_the_fault_config() {
        let cfg = run_of(&["--faults", "media=250,nodiag"]).drive(small_test_disk());
        assert_eq!(cfg.fault.media_per_million, 250);
        assert!(cfg.fault.diagnostics_unsupported);
        // Without the flag, the config's own faults are left alone.
        let mut cfg = small_test_disk();
        cfg.fault.transient_per_million = 42;
        let cfg = run_of(&[]).drive(cfg);
        assert_eq!(cfg.fault.transient_per_million, 42);
    }

    #[test]
    fn a_plain_run_leaves_configs_untouched_and_writes_nothing() {
        let run = run_of(&[]);
        assert!(run.drive(small_test_disk()).tracer.is_none());
        let obs = run.observe(0, 0xCE11, true);
        assert!(obs.spans().is_none() && obs.drive(small_test_disk()).tracer.is_none());
        run.row(Row::new().num(42.0, 1).key("value"));
        run.print_timelines(None);
        run.finish(); // no sinks, no --manifest: must be a no-op, not a panic
    }

    #[test]
    fn trace_reaches_driven_configs() {
        let path =
            std::env::temp_dir().join(format!("traxtent-trace-{}.jsonl", std::process::id()));
        let run = run_of(&["--trace", path.to_str().unwrap()]);
        let mut disk = sim_disk::Disk::new(run.drive(small_test_disk()));
        let c = disk.service(
            sim_disk::disk::Request::read(0, 64),
            sim_disk::SimTime::ZERO,
        );
        run.finish();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let responses: Vec<u64> = (text.lines())
            .filter_map(|l| match TraceEvent::parse_json(l).unwrap() {
                TraceEvent::Complete { response, .. } => Some(response),
                _ => None,
            })
            .collect();
        assert_eq!(responses, [c.response_time().as_ns()]);
    }

    #[test]
    fn rows_state_each_number_once_and_land_in_the_manifest() {
        let dir = std::env::temp_dir().join(format!("traxtent-run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let run = run_of(&["--threads", "2", "--manifest", dir.to_str().unwrap()]);
        run.reg.add("a.count", 3);
        let row = Row::new().col("x").num(1.25, 1).unit(" ms").key("ms");
        assert_eq!(row.to_string(), "x\t1.2 ms");
        run.sweep(vec![1.0, 2.0, 3.5], |i, v| {
            Row::new()
                .col(i)
                .num(v, 2)
                .sum("total")
                .key_if(i == 1, "second")
                .add("rows", 1)
                .set("last", v)
        });
        assert_eq!(run.get("total"), 6.5);
        assert_eq!(run.get("second"), 2.0);
        assert_eq!(run.get("rows"), 3.0);
        assert_eq!(run.get("last"), 3.5);
        run.rename("test_variant");
        run.finish();
        let m = Manifest::load(&dir.join("test_variant.json")).unwrap();
        assert_eq!(m.threads, 2);
        assert_eq!(m.headline["total"], 6.5);
        assert_eq!(m.metrics["a.count"], 3);
        assert!(m.wall_secs >= 0.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn grid_rows_are_lead_plus_cells_in_column_order() {
        let run = run_of(&["--threads", "3"]);
        run.grid(
            &[10u32, 20],
            &["a", "b", "c"],
            |r| Row::new().col(r),
            |r, c| Row::new().num(f64::from(*r), 0).key(format!("{c}{r}")),
        );
        assert_eq!((run.get("a10"), run.get("c20")), (10.0, 20.0));
    }

    #[test]
    fn unwritable_output_paths_are_errors_before_any_cell() {
        let file = std::env::temp_dir().join(format!("traxtent-run-file-{}", std::process::id()));
        std::fs::write(&file, "not a directory").unwrap();
        let under = file.join("sub");
        for flag in ["--manifest", "--trace"] {
            let args = [flag, under.to_str().unwrap()].map(String::from);
            let cli = Cli::parse_args(args, &Grammar::figure(&[], &[])).unwrap();
            let err = Run::new("test", cli).err().expect("path is under a file");
            assert!(err.contains(under.to_str().unwrap()), "{err}");
        }
        std::fs::remove_file(&file).unwrap();
    }
}
