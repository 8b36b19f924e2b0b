//! Span recording from the benchmark's side of each call into the program.
//!
//! Every timed call goes through [`Tracer::begin`]/[`Tracer::end`]: the
//! clock is always read (the end-to-end samples come from those
//! durations), and on traced rounds the interval is also kept as a span
//! with its parent and round id. [`Tracer::begin_detail`] is for the
//! fine-grained calls nested inside an epoch: on untraced rounds it reads
//! no clock at all, so an untraced round pays nothing for them, and a
//! traced round keeps the first [`DETAIL_SPANS`] of them, which bounds the
//! spans of one round.
//!
//! Spans stay in memory until [`Tracer::write_tsv`] at the end of the run.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Parent / round id of a span recorded outside any round (set-up).
pub const NONE: u32 = u32::MAX;

/// Name of the span around one whole round.
pub const ROUND: &str = "round";

/// Detail spans kept per traced round.
pub const DETAIL_SPANS: u32 = 600;

/// One recorded interval, in nanoseconds since the tracer's origin.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub round: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open interval. `span` is the index of its recorded span, or
/// [`NONE`] when the current round is untraced.
#[must_use]
pub struct Token {
    start_ns: u64,
    span: u32,
    clocked: bool,
}

pub struct Tracer {
    origin: Instant,
    recording: bool,
    round: u32,
    details_left: u32,
    open: Vec<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            recording: false,
            round: NONE,
            details_left: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer was made.
    fn clock(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Set whether the following calls are recorded, and under which round
    /// id ([`NONE`] for set-up).
    pub fn set_recording(&mut self, recording: bool, round: u32) {
        debug_assert!(self.open.is_empty(), "recording switched inside an open span");
        self.recording = recording;
        self.round = round;
        self.details_left = DETAIL_SPANS;
    }

    /// Open an interval whose duration the caller needs either way.
    pub fn begin(&mut self, name: &'static str) -> Token {
        let start_ns = self.clock();
        let span = if self.recording {
            let idx = self.spans.len() as u32;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied().unwrap_or(NONE),
                round: self.round,
            });
            self.open.push(idx);
            idx
        } else {
            NONE
        };
        Token { start_ns, span, clocked: true }
    }

    /// Open an interval that only a traced round needs.
    pub fn begin_detail(&mut self, name: &'static str) -> Token {
        if self.recording && self.details_left > 0 {
            self.details_left -= 1;
            self.begin(name)
        } else {
            Token { start_ns: 0, span: NONE, clocked: false }
        }
    }

    /// Close `token`; returns its duration in nanoseconds (0 for an
    /// unclocked detail token).
    pub fn end(&mut self, token: Token) -> u64 {
        if !token.clocked {
            return 0;
        }
        let end_ns = self.clock();
        if token.span != NONE {
            let top = self.open.pop();
            debug_assert_eq!(top, Some(token.span), "spans closed out of order");
            self.spans[token.span as usize].end_ns = end_ns;
        }
        end_ns - token.start_ns
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::dur_ns).collect()
    }

    /// Per traced round: the share of the round span covered by its
    /// direct children.
    pub fn round_coverage(&self, round_name: &str) -> Vec<f64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NONE {
                covered[span.parent as usize] += span.dur_ns();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == round_name && s.dur_ns() > 0)
            .map(|(i, s)| covered[i] as f64 / s.dur_ns() as f64)
            .collect()
    }

    /// Write every span as one tab-separated line under a `#` header.
    pub fn write_tsv(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# {header}")?;
        writeln!(out, "id\tparent\tround\tname\tstart_ns\tend_ns")?;
        let id = |v: u32| if v == NONE { -1 } else { i64::from(v) };
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{}",
                id(s.parent),
                id(s.round),
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}
