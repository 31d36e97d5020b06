//! The paper's mechanism as the drives saw it, read back from a `--trace`
//! file: which requests crossed a track boundary.
//!
//! A request *crosses* when its `media` phases touch more distinct tracks
//! than its length needs, `⌈len / longest⌉`, where `longest` is the most
//! sectors any one visit of the trace moved (a whole track of the trace's
//! largest tracks, once any request read or wrote one). For a request no
//! longer than that the count is exact: it crosses when it touches a
//! second track. A request that never reaches the media (a cache hit)
//! touches no track and never crosses.
//!
//! The trace names no drive, but each drive numbers its requests 0, 1,
//! 2, … and a request's events are contiguous: a request continues the
//! drive that most recently issued the id before it, and id 0 starts a
//! new drive. Drives are numbered in order of first appearance, so in a
//! single-threaded trace each figure cell's drives follow the previous
//! cell's; two drives of one cell expecting the same id may trade
//! numbers, never with another cell's.

use sim_disk::disk::Op;
use sim_disk::trace::{TraceEvent, Value};

/// One request of the trace, as the crossing count reads it.
#[derive(Debug, Clone, PartialEq)]
pub struct Touch {
    /// The drive that served it, numbered in order of first appearance.
    pub drive: usize,
    /// Direction.
    pub op: Op,
    /// First logical block.
    pub lbn: u64,
    /// Length in sectors.
    pub len: u64,
    /// Distinct tracks its media phases touched.
    pub tracks: u64,
}

/// The requests of a trace, folded one event at a time.
#[derive(Debug, Default)]
pub struct Crossings {
    /// Per drive: the id its next request takes, and the request (in
    /// file order) it issued last.
    drives: Vec<(u64, usize)>,
    requests: Vec<Touch>,
    /// The open request's tracks, each counted once.
    open: Vec<u64>,
    /// The most sectors one visit moved.
    longest: u64,
}

impl Crossings {
    /// Reads one event; only `issue` and `media` matter.
    pub fn read(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::Issue {
                req, op, lbn, len, ..
            } => {
                let next = (self.drives.iter().enumerate())
                    .filter(|(_, d)| *req > 0 && d.0 == *req)
                    .max_by_key(|(_, d)| d.1)
                    .map(|(i, _)| i);
                let drive = next.unwrap_or_else(|| {
                    self.drives.push((0, 0));
                    self.drives.len() - 1
                });
                self.drives[drive] = (req + 1, self.requests.len());
                self.open.clear();
                self.requests.push(Touch {
                    drive,
                    op: *op,
                    lbn: *lbn,
                    len: *len,
                    tracks: 0,
                });
            }
            TraceEvent::Phase(p) if p.name == "media" => {
                let num = |key| match p.attrs.iter().find(|a| a.0 == key) {
                    Some((_, Value::Num(n))) => *n,
                    _ => 0,
                };
                self.longest = self.longest.max(num("sectors"));
                if let Some(request) = self.requests.last_mut() {
                    if !self.open.contains(&num("track")) {
                        self.open.push(num("track"));
                        request.tracks += 1;
                    }
                }
            }
            _ => {}
        }
    }

    /// Every request read so far, in file order.
    pub fn requests(&self) -> &[Touch] {
        &self.requests
    }

    /// How many drives the requests came from.
    pub fn drives(&self) -> usize {
        self.drives.len()
    }

    /// The most sectors one visit moved; `None` before any visit.
    pub fn longest(&self) -> Option<u64> {
        (self.longest > 0).then_some(self.longest)
    }

    /// Whether `request` touched more tracks than its length needs.
    pub fn crosses(&self, request: &Touch) -> bool {
        request.tracks > request.len.div_ceil(self.longest.max(1))
    }
}
