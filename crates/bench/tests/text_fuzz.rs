//! The text surfaces the `bench` subcommands read, fuzzed: replay traces (`replay
//! --input`), the `--faults` grammar, drive-event and span JSONL (the
//! `trace_report` / `trace_timeline` inputs) and run manifests
//! (`bench_diff`'s). Each property feeds its parser strings of random
//! tokens and valid text with random edits, and requires that the parser
//! never panics, that what it accepts renders back to itself wherever the
//! renderer promises that, and that an accepted trace that fits the drive
//! replays. Each parse of a case's text must also finish within
//! [`PARSE_BOUND`]. Run with `-- --nocapture`, each prints how often each
//! kind of acceptance and rejection ran, and fails if one ran fewer than
//! 16 times.

use proptest::prelude::*;
use sim_disk::disk::{Disk, Op};
use sim_disk::fault::{FaultConfig, Jitter, SpecError};
use sim_disk::models::small_test_disk;
use sim_disk::trace::{peek_event_name, Phase, TraceEvent, Value, PHASE_EVENTS};
use sim_disk::TraceRecord;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use traxtent::obs::json;
use traxtent::obs::span::Span;
use traxtent_bench::manifest::Manifest;
use workloads::replay::{parse_trace, render_trace, replay, ParseErrorKind};

// ---------------------------------------------------------------------
// Text and edits.
// ---------------------------------------------------------------------

/// The longest one parse of a case's text may take. The longest cases
/// (traces) are a few KB, which a linear parser reads in well under a
/// millisecond even unoptimized on a shared 2-core runner; a quadratic
/// one takes about twice the bound there.
const PARSE_BOUND: Duration = Duration::from_millis(50);

/// `parse(text)`, failing the case (which the harness then names by
/// number) if it took longer than [`PARSE_BOUND`] twice running: a slow
/// parser is slow again, a preempted thread seldom twice.
fn timed<T>(text: &str, parse: impl Fn(&str) -> T) -> T {
    let time = || {
        let start = Instant::now();
        let parsed = parse(text);
        (start.elapsed(), parsed)
    };
    let (took, parsed) = time();
    if took > PARSE_BOUND {
        let (again, _) = time();
        assert!(
            again <= PARSE_BOUND,
            "parsing {} bytes took {took:?}, then {again:?}: over the {PARSE_BOUND:?} bound",
            text.len()
        );
    }
    parsed
}

/// One edit: `(kind, position, token)`, the position and token taken
/// modulo what they index.
type Edit = (u8, usize, usize);

/// How a case's text is made from its valid text, `(shape, edits,
/// tokens)`: the valid text (shape 0), tokens alone (1), or the valid text
/// edited (2–5).
type Text = (u8, Vec<Edit>, Vec<usize>);

/// A case's [`Text`]; its tokens are few, and then more often a whole
/// value, or many.
fn text_of(tokens: &'static [&'static str]) -> impl Strategy<Value = Text> {
    let edit = (0u8..5, 0usize..1 << 20, 0usize..1 << 10);
    let picks = prop_oneof![
        prop::collection::vec(0..tokens.len(), 0..4),
        prop::collection::vec(0..tokens.len(), 0..40),
    ];
    (0u8..6, prop::collection::vec(edit, 1..4), picks)
}

/// A surface's grammar, as far as the edits need it.
struct Grammar {
    /// What an inserted or replacing token is drawn from.
    tokens: &'static [&'static str],
    /// What separates the fields of a line.
    sep: char,
    /// What replaces field `i` of a line (the last list serves the rest)
    /// and what an appended field is drawn from (the last list).
    fields: &'static [&'static [&'static str]],
}

impl Grammar {
    /// The text of a case over `valid`.
    fn text(&self, valid: String, (shape, edits, picks): Text) -> String {
        match shape {
            0 => valid,
            1 => picks.iter().map(|&i| self.tokens[i]).collect(),
            _ => self.edit(&valid, &edits),
        }
    }

    /// `text` with each edit applied in turn: 0 deletes the character at
    /// the position, 1 inserts a token there, 2 replaces the word there
    /// (letters, digits and `.+-`) with a token; 3 replaces field
    /// `position / 7` of line `position`, and 4 appends a field — before a
    /// closing `}`, so that a JSON object's new key overrides an old one.
    fn edit(&self, text: &str, edits: &[Edit]) -> String {
        let word = |c: char| c.is_alphanumeric() || ".+-".contains(c);
        let mut text = text.to_string();
        for &(kind, at, token) in edits {
            let pick = |list: &[&'static str]| list[token % list.len()];
            let fields = |i: usize| self.fields[i.min(self.fields.len() - 1)];
            let char_at = at % (text.chars().count() + 1);
            let i = (text.char_indices().nth(char_at)).map_or(text.len(), |(i, _)| i);
            let (head, tail) = text.split_at(i);
            text = match kind {
                0 => head.to_string() + &tail.chars().skip(1).collect::<String>(),
                1 => [head, pick(self.tokens), tail].concat(),
                2 => {
                    let (head, tail) = (head.trim_end_matches(word), tail.trim_start_matches(word));
                    [head, pick(self.tokens), tail].concat()
                }
                3 => {
                    let mut lines: Vec<String> = text.split('\n').map(String::from).collect();
                    let n = lines.len();
                    let line = &mut lines[at % n];
                    let mut parts: Vec<&str> = line.split(self.sep).collect();
                    let field = (at / 7) % parts.len();
                    parts[field] = pick(fields(field));
                    *line = parts.join(&self.sep.to_string());
                    lines.join("\n")
                }
                _ => {
                    let body = text.trim_end();
                    let (body, close) = body.strip_suffix('}').map_or((body, ""), |b| (b, "}"));
                    format!("{body}{}{}{close}", self.sep, pick(fields(usize::MAX)))
                }
            };
        }
        text
    }
}

// ---------------------------------------------------------------------
// Replay traces.
// ---------------------------------------------------------------------

#[rustfmt::skip]
const TRACE: Grammar = Grammar {
    tokens: &["0", "1", "7", ".", "e", "-", "+", " ", "\t", "R", "W", "x", "\n", "#", "é"],
    sep: ' ',
    fields: &[
        &["0", "0.5", "1e12", "-1", "nan", "inf", "1e-9", "x", "", "1e300", "18446744073709.552",
          "1000000000000.001"],
        &["R", "W", "w", "Q", ""],
        &["0", "18446744073709551615", "ten", "18446744073709551615", "", "-1"],
        &["0", "8", "", "eight", "18446744073709551616", "8 9", "4294967295", "4294967296"],
    ],
};

/// `(arrival step in µs, write, lbn, sectors)` records, rendered: a few,
/// or a few KB of them, which is what [`PARSE_BOUND`] is sized for.
fn arb_trace() -> impl Strategy<Value = String> {
    let record = || (0u64..5_000, 0u8..2, 0u64..100_000, 1u64..600);
    let records = prop_oneof![
        prop::collection::vec(record(), 1..5),
        prop::collection::vec(record(), 1..200),
    ];
    (records, 0u8..2).prop_map(|(raw, header)| {
        let mut text = String::new();
        if header == 1 {
            text.push_str("# <arrival_ms> <R|W> <lbn> <sectors>\n");
        }
        let mut arrival_us = 0;
        for (step, write, lbn, sectors) in raw {
            arrival_us += step;
            let op = if write == 1 { 'W' } else { 'R' };
            let (ms, us) = (arrival_us / 1000, arrival_us % 1000);
            text.push_str(&format!("{ms}.{us:03} {op} {lbn} {sectors}\n"));
        }
        text
    })
}

fn trace_verdict(kind: &ParseErrorKind) -> &'static str {
    match kind {
        ParseErrorKind::MissingField(_) => "missing_field",
        ParseErrorKind::BadField(_) => "bad_field",
        ParseErrorKind::NegativeArrival => "negative_arrival",
        ParseErrorKind::FarArrival => "far_arrival",
        ParseErrorKind::BadOp(_) => "bad_op",
        ParseErrorKind::ZeroSectors => "zero_sectors",
        ParseErrorKind::TooManySectors => "too_many_sectors",
        ParseErrorKind::RangeOverflow => "range_overflow",
        ParseErrorKind::TrailingFields => "trailing_fields",
        ParseErrorKind::NonMonotoneArrival => "non_monotone_arrival",
    }
}

/// A trace `parse_trace` accepts renders to text it accepts again, with
/// the same requests — and, where every arrival is a whole microsecond
/// (what the renderer's three decimals hold), the same arrivals; and one
/// whose requests fit the drive replays on it.
#[test]
fn replay_traces_parse_render_and_replay() {
    let name = "replay_traces_parse_render_and_replay";
    let capacity = small_test_disk().geometry.capacity_lbns();
    let mut tally = Tally::default();
    for_cases(
        name,
        4096,
        (arb_trace(), text_of(TRACE.tokens)),
        |(valid, text)| {
            let text = TRACE.text(valid, text);
            let records = match timed(&text, parse_trace) {
                Ok(records) => records,
                Err(e) => return tally.note(trace_verdict(&e.kind)),
            };
            tally.note("accepted");
            let again = parse_trace(&render_trace(&records)).expect("a rendered trace parses");
            let requests = |r: &[TraceRecord]| r.iter().map(|r| r.request).collect::<Vec<_>>();
            assert_eq!(requests(&again), requests(&records));
            if records.iter().all(|r| r.arrival.as_ns() % 1_000 == 0) {
                assert_eq!(again, records);
            }
            if !records.is_empty() && records.iter().all(|r| r.request.fits(capacity)) {
                replay(&mut Disk::new(small_test_disk()), &records);
                tally.note("replayed");
            }
        },
    );
    tally.require(
        name,
        &[
            "accepted",
            "replayed",
            "missing_field",
            "bad_field",
            "negative_arrival",
            "far_arrival",
            "bad_op",
            "zero_sectors",
            "too_many_sectors",
            "range_overflow",
            "trailing_fields",
            "non_monotone_arrival",
        ],
    );
}

// ---------------------------------------------------------------------
// The `--faults` grammar.
// ---------------------------------------------------------------------

#[rustfmt::skip]
const SPEC: Grammar = Grammar {
    tokens: &["media", "seek", "nodiag", "=", ",", ":", "uniform", "gauss", "0", "5", ".", "-", " ",
              "é"],
    sep: ',',
    fields: &[&["media=5", "media=x", "bogus=1", "seek=uniform:0", "seek=gauss:2", "rot=triangle:0.5",
                "hs=uniform:abc", "hs=uniform", "nodiag", "", "transient=-1", "grown=4294967296",
                "rot=gauss:nan", "seek=uniform:1", "nodiag=1"]],
};

/// Entries of the grammar, well-formed, possibly repeated.
fn arb_spec() -> impl Strategy<Value = String> {
    let entry = (0usize..7, 0u32..2_000_000, 1u32..=1_000, 0u8..2);
    prop::collection::vec(entry, 0..5).prop_map(|entries| {
        let text: Vec<String> = (entries.into_iter())
            .map(|(key, ppm, frac, shape)| {
                let dist = ["uniform", "gauss"][shape as usize];
                let frac = f64::from(frac) / 1_000.0;
                match key {
                    0 => format!("media={ppm}"),
                    1 => format!("grown={ppm}"),
                    2 => format!("transient={ppm}"),
                    3 => format!("seek={dist}:{frac}"),
                    4 => format!("hs={dist}:{frac}"),
                    5 => format!("rot={dist}:{frac}"),
                    _ => "nodiag".to_string(),
                }
            })
            .collect();
        text.join(",")
    })
}

fn spec_verdict(e: &SpecError) -> &'static str {
    match e {
        SpecError::Empty => "empty",
        SpecError::NotKeyValue { .. } => "not_key_value",
        SpecError::BadRate { .. } => "bad_rate",
        SpecError::UnknownKey { .. } => "unknown_key",
        SpecError::DuplicateKey { .. } => "duplicate_key",
        SpecError::BadJitterShape { .. } => "bad_jitter_shape",
        SpecError::BadJitterFraction { .. } => "bad_jitter_fraction",
        SpecError::JitterFractionRange { .. } => "jitter_fraction_range",
        SpecError::UnknownJitter { .. } => "unknown_jitter",
    }
}

/// `FaultConfig::parse_spec` never panics, and every jitter it accepts
/// has a fraction in `(0, 1]`.
#[test]
fn fault_specs_parse_or_say_why_not() {
    let name = "fault_specs_parse_or_say_why_not";
    let mut tally = Tally::default();
    for_cases(
        name,
        2048,
        (arb_spec(), text_of(SPEC.tokens)),
        |(valid, text)| {
            let text = SPEC.text(valid, text);
            let config = match timed(&text, FaultConfig::parse_spec) {
                Ok(config) => config,
                Err(e) => return tally.note(spec_verdict(&e)),
            };
            tally.note("accepted");
            for jitter in [
                config.seek_jitter,
                config.head_switch_jitter,
                config.rot_jitter,
            ] {
                if let Jitter::Uniform(f) | Jitter::Gaussian(f) = jitter {
                    assert!(f > 0.0 && f <= 1.0, "{text:?} gave {jitter:?}");
                }
            }
        },
    );
    tally.require(
        name,
        &[
            "accepted",
            "empty",
            "not_key_value",
            "bad_rate",
            "unknown_key",
            "duplicate_key",
            "bad_jitter_shape",
            "bad_jitter_fraction",
            "jitter_fraction_range",
            "unknown_jitter",
        ],
    );
}

// ---------------------------------------------------------------------
// JSON lines and manifests.
// ---------------------------------------------------------------------

#[rustfmt::skip]
const JSON_TOKENS: &[&str] = &[
    "{", "}", "[", "]", ",", ":", "\"", "\\", "\\u00e9", "\\ud800", "\\q", "0", "-1", "1e999",
    "18446744073709551616", "1.5", "true", "null", "\"ev\"", "é", " ", "[]",
];

/// A JSON surface whose fields are `"key":value` pairs cut at commas.
const fn json_grammar(pairs: &'static [&'static [&'static str]]) -> Grammar {
    Grammar {
        tokens: JSON_TOKENS,
        sep: ',',
        fields: pairs,
    }
}

/// Two of each value only some events carry, so that enough land on one.
#[rustfmt::skip]
const EVENT: Grammar = json_grammar(&[&[
    "\"op\":\"bogus\"", "\"op\":\"bogus\"", "\"track\":4294967296", "\"track\":4294967296",
    "\"from_cyl\":4294967296", "\"to_cyl\":4294967296", "\"ev\":\"bogus\"", "\"ev\":\"issue\"",
    "\"req\":-1", "\"t\":\"x\"", "\"cache_hit\":1", "\"kind\":7", "\"dur\":1.5",
]]);

/// A number as the drive and the span recorder emit them: small, huge,
/// or anything.
fn num() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..1_000, Just(u64::MAX), 0u64..u64::MAX]
}

/// Strings a kind, a name or an attribute list may hold, escapes and all.
#[rustfmt::skip]
const STRINGS: &[&str] = &["media_retry", "", "a\"b\\c", "tab\there", "é", "\u{1}", "k=v,x=1"];

/// A drive event of any kind: a [`PHASE_EVENTS`] row's, then an issue, a
/// SCSI command or a completion.
fn arb_event() -> impl Strategy<Value = TraceEvent> {
    let fields = prop::collection::vec(num(), 12..13);
    let kinds = PHASE_EVENTS.len() + 3;
    (0..kinds, fields, 0usize..STRINGS.len(), 0u8..4).prop_map(|(kind, f, s, flags)| {
        let (req, t, dur) = (f[0], f[1], f[2]);
        let op = if flags & 1 == 1 { Op::Write } else { Op::Read };
        let text = STRINGS[s].to_string();
        if let Some(&(name, has_dur, keys)) = PHASE_EVENTS.get(kind) {
            let attrs = keys.iter().zip(&f[3..]).map(|(&k, &n)| match k {
                "kind" => (k, Value::Text(text.clone())),
                "from_cyl" | "to_cyl" | "track" => (k, Value::Num(u64::from(n as u32))),
                _ => (k, Value::Num(n)),
            });
            return TraceEvent::Phase(Phase {
                name,
                req,
                t,
                dur: has_dur.then_some(dur),
                attrs: attrs.collect(),
            });
        }
        match kind - PHASE_EVENTS.len() {
            0 => TraceEvent::Issue {
                req,
                t,
                op,
                lbn: f[3],
                len: f[4],
            },
            1 => TraceEvent::ScsiCommand { t, dur, kind: text },
            _ => TraceEvent::Complete {
                req,
                t,
                op,
                lbn: f[3],
                len: f[4],
                cache_hit: flags & 2 == 2,
                queue: f[5],
                overhead: f[6],
                seek: f[7],
                head_switch: f[8],
                rot_latency: f[9],
                media: f[10],
                bus: f[11],
                write_settle: f[0],
                response: f[1],
            },
        }
    })
}

/// One tally branch per event kind: the [`PHASE_EVENTS`] rows, then the
/// three typed events.
#[rustfmt::skip]
const ACCEPTED: [&str; 13] = [
    "accepted:queue", "accepted:seek", "accepted:head_switch", "accepted:settle",
    "accepted:rot_wait", "accepted:media", "accepted:cache_hit", "accepted:cache_fill",
    "accepted:bus", "accepted:fault", "accepted:issue", "accepted:scsi_command",
    "accepted:complete",
];

/// A rejected JSON text's kind: unreadable, not an object, or what the
/// parser's message says — a field missing, of the wrong JSON type, or of
/// the right type with a value the field cannot hold.
fn json_verdict(text: &str, message: &str) -> &'static str {
    match json::parse(text) {
        Err(_) => return "not_json",
        Ok(value) if value.as_object().is_none() => return "not_an_object",
        Ok(_) => {}
    }
    let kinds = [
        ("missing", "missing_field"),
        ("u32", "bad_value"),
        ("out of range", "bad_value"),
        ("nonzero", "bad_value"),
        ("unknown op", "bad_value"),
        ("unknown event", "unknown_event"),
        ("no figure", "no_figure"),
        ("must be finite", "not_finite"),
    ];
    (kinds.iter().find(|(needle, _)| message.contains(needle))).map_or("wrong_type", |k| k.1)
}

/// A drive-event line `TraceEvent::parse_json` accepts renders to a line
/// that parses to the same event, and `peek_event_name` names both; on
/// any text, neither panics.
#[test]
fn event_lines_parse_render_and_peek() {
    let name = "event_lines_parse_render_and_peek";
    let mut tally = Tally::default();
    for_cases(
        name,
        4096,
        (arb_event(), text_of(JSON_TOKENS)),
        |(event, text)| {
            let text = EVENT.text(event.to_json(), text);
            let peeked = timed(&text, peek_event_name);
            let event = match timed(&text, TraceEvent::parse_json) {
                Ok(event) => event,
                Err(e) => return tally.note(json_verdict(&text, &e)),
            };
            let kind = Some(event.name());
            let branch = ACCEPTED
                .iter()
                .find(|b| b.strip_prefix("accepted:") == kind);
            tally.note(branch.expect("every event kind has a branch"));
            let line = event.to_json();
            assert_eq!(TraceEvent::parse_json(&line).as_ref(), Ok(&event), "{line}");
            let name = Some(event.name().to_string());
            assert_eq!((&peeked, &peek_event_name(&line)), (&name, &name), "{text}");
        },
    );
    let phases = PHASE_EVENTS.map(|row| row.0);
    let typed = ["issue", "scsi_command", "complete"];
    let kinds: Vec<_> = ACCEPTED
        .map(|b| b.strip_prefix("accepted:").unwrap_or(b))
        .into();
    assert_eq!(
        kinds,
        [&phases[..], &typed[..]].concat(),
        "one branch per kind"
    );
    let rejected = [
        "not_json",
        "not_an_object",
        "missing_field",
        "wrong_type",
        "bad_value",
        "unknown_event",
    ];
    tally.require(name, &[&ACCEPTED[..], &rejected[..]].concat());
}

#[rustfmt::skip]
const SPAN: Grammar = json_grammar(&[&[
    "\"id\":0", "\"track\":4294967296", "\"parent\":-1", "\"start\":\"x\"", "\"attrs\":7",
    "\"span\":\"seek\"", "\"ev\":\"issue\"", "\"end\":1.5",
]]);

fn arb_span() -> impl Strategy<Value = Span> {
    let names = ["request", "vol_cmd", "seek", "a\"b", "é"];
    let shape = (0usize..names.len(), 0u64..1 << 33, 0usize..STRINGS.len());
    (num(), num(), shape, num(), num()).prop_map(
        move |(id, parent, (name, track, attrs), start_ns, end_ns)| Span {
            id: id.max(1),
            parent,
            name: names[name].to_string(),
            track: track as u32,
            start_ns,
            end_ns,
            attrs: STRINGS[attrs].to_string(),
        },
    )
}

/// A span line `Span::parse_json` accepts renders to a line that parses
/// to the same span, which `peek_event_name` names as a span.
#[test]
fn span_lines_parse_render_and_peek() {
    let name = "span_lines_parse_render_and_peek";
    let mut tally = Tally::default();
    for_cases(
        name,
        2048,
        (arb_span(), text_of(JSON_TOKENS)),
        |(span, text)| {
            let text = SPAN.text(span.to_json(), text);
            let peeked = timed(&text, peek_event_name);
            let span = match timed(&text, Span::parse_json) {
                Ok(span) => span,
                Err(e) => return tally.note(json_verdict(&text, &e)),
            };
            tally.note("accepted");
            assert!(peeked.is_some(), "{text}");
            let line = span.to_json();
            assert_eq!(Span::parse_json(&line).as_ref(), Ok(&span), "{line}");
            assert_eq!(peek_event_name(&line), Some(format!("span:{}", span.name)));
        },
    );
    tally.require(
        name,
        &[
            "accepted",
            "not_json",
            "not_an_object",
            "missing_field",
            "wrong_type",
            "bad_value",
        ],
    );
}

#[rustfmt::skip]
const MANIFEST: Grammar = json_grammar(&[&[
    "\"figure\":\"\"", "\"figure\":7", "\"quick\":1", "\"seed\":-1", "\"threads\":\"x\"",
    "\"headline\":[]", "\"metrics\":{\"m\":1.5}", "\"timeline\":{\"t\":[1]}", "\"wall_secs\":1e999",
    "\"git_rev\":\"abc\"", "\"headline\":{\"h\":1e999}",
]]);

fn arb_manifest() -> impl Strategy<Value = Manifest> {
    let figures = ["fig1", "a\"b\\c", "é", "tab\there"];
    let values = [0.0, 1.5, 0.1 + 0.2, 1e-12, 3.0, 1e300, -2.5];
    let value = move || (0usize..values.len()).prop_map(move |i| values[i]);
    let key = || 0usize..STRINGS.len();
    let run = (0usize..figures.len(), 0u8..2, num(), 1usize..64, value());
    let headline = prop::collection::vec((key(), value()), 0..3);
    let metrics = prop::collection::vec((key(), num()), 0..3);
    let timeline = prop::collection::vec((key(), value(), value()), 0..3);
    (run, headline, metrics, timeline).prop_map(
        move |((figure, quick, seed, threads, wall), headline, metrics, timeline)| {
            let mut m = Manifest::new(figures[figure], quick == 1, seed, threads);
            m.wall_secs = wall;
            let key = |k: usize| STRINGS[k].to_string();
            m.headline = headline.into_iter().map(|(k, v)| (key(k), v)).collect();
            m.metrics = metrics.into_iter().map(|(k, v)| (key(k), v)).collect();
            for (k, a, b) in timeline {
                let row = BTreeMap::from([("start_ms".to_string(), a), ("p99_ms".to_string(), b)]);
                m.timeline.entry(key(k)).or_default().push(row);
            }
            m
        },
    )
}

/// A manifest `Manifest::parse_json` accepts renders to text that parses
/// to the same manifest; a number that overflows to infinity is rejected.
#[test]
fn manifests_parse_and_render() {
    let name = "manifests_parse_and_render";
    let mut tally = Tally::default();
    for_cases(
        name,
        2048,
        (arb_manifest(), text_of(JSON_TOKENS)),
        |(manifest, text)| {
            let text = MANIFEST.text(manifest.to_json(), text);
            let manifest = match timed(&text, Manifest::parse_json) {
                Ok(manifest) => manifest,
                Err(e) => return tally.note(json_verdict(&text, &e)),
            };
            tally.note("accepted");
            let again = manifest.to_json();
            assert_eq!(
                Manifest::parse_json(&again).as_ref(),
                Ok(&manifest),
                "{again}"
            );
        },
    );
    tally.require(
        name,
        &[
            "accepted",
            "not_finite",
            "not_json",
            "not_an_object",
            "wrong_type",
            "no_figure",
        ],
    );
}
