//! The traced run's span store: spans recorded by the harness around its
//! own calls into the program, kept in memory while cells run and written
//! out as CSV when the benchmark ends.

use std::io::Write;
use std::time::Instant;

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One synchronous `invoke` of a write.
    InvokeWrite,
    /// One synchronous `invoke` of a read.
    InvokeRead,
    /// One pipelined window, submit to last reply (parent of the next two).
    Window,
    /// `invoke_many` of a window's operations.
    Submit,
    /// Waiting for every future of a window.
    Wait,
    /// One timed block of a layer probe.
    Probe,
}

impl SpanKind {
    fn name(self) -> &'static str {
        match self {
            SpanKind::InvokeWrite => "invoke.write",
            SpanKind::InvokeRead => "invoke.read",
            SpanKind::Window => "window",
            SpanKind::Submit => "window.submit",
            SpanKind::Wait => "window.wait",
            SpanKind::Probe => "probe",
        }
    }
}

/// One recorded span. `id` is unique within its buffer; `parent` is the
/// `id` of the span that caused it, 0 for a root.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    kind: SpanKind,
    id: u32,
    parent: u32,
    start_ns: u64,
    dur_ns: u32,
}

/// A preallocated span buffer owned by one thread. Recording past the
/// capacity drops the span and counts it, so a long cell cannot grow the
/// buffer (and allocate) inside the measured window.
#[derive(Debug)]
pub struct SpanBuf {
    epoch: Instant,
    spans: Vec<Span>,
    next_id: u32,
    dropped: u64,
}

impl SpanBuf {
    /// A buffer for up to `capacity` spans, timed from `epoch`.
    pub fn new(epoch: Instant, capacity: usize) -> SpanBuf {
        SpanBuf {
            epoch,
            spans: Vec::with_capacity(capacity),
            next_id: 1,
            dropped: 0,
        }
    }

    /// Record a span from `start` to `end`; returns its id for children to
    /// name as parent.
    pub fn record(&mut self, kind: SpanKind, parent: u32, start: Instant, end: Instant) -> u32 {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1).max(1);
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return id;
        }
        self.spans.push(Span {
            kind,
            id,
            parent,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            dur_ns: nanos_u32(end.saturating_duration_since(start)),
        });
        id
    }

    /// Spans recorded (dropped ones excluded).
    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

/// A duration as whole nanoseconds, saturating at `u32::MAX` (4.29 s —
/// longer than any operation that did not time out).
pub fn nanos_u32(d: std::time::Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// Where a buffer's spans came from, for the CSV's leading columns.
#[derive(Debug, Clone)]
pub struct SpanSource {
    /// Backend name, or the probe's name for probe spans.
    pub scope: String,
    /// Round of the run.
    pub round: usize,
    /// Client index (0 for probes).
    pub client: usize,
}

/// Rows kept per buffer in the CSV: whole span trees, evenly strided, so
/// the file stays readable while every buffer is represented.
const CSV_ROOTS_PER_BUFFER: usize = 2000;

/// All spans of a run, written as one CSV at exit.
#[derive(Debug, Default)]
pub struct SpanLog {
    buffers: Vec<(SpanSource, SpanBuf)>,
}

impl SpanLog {
    /// Keep `buf` for the final CSV.
    pub fn keep(&mut self, source: SpanSource, buf: SpanBuf) {
        self.buffers.push((source, buf));
    }

    /// Spans held (dropped and unsampled ones included in neither).
    pub fn total(&self) -> usize {
        self.buffers.iter().map(|(_, buf)| buf.len()).sum()
    }

    /// Write the CSV: one row per span of every `stride`-th span tree of
    /// each buffer, where `stride` keeps at most
    /// [`CSV_ROOTS_PER_BUFFER`] trees per buffer. Start times are
    /// nanoseconds since the run's epoch.
    pub fn write_csv(&self, workload: &str, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(
            out,
            "workload,scope,round,client,span,id,parent,start_ns,dur_ns,stride,dropped"
        )?;
        for (source, buf) in &self.buffers {
            let roots = buf.spans.iter().filter(|s| s.parent == 0).count();
            let stride = roots.div_ceil(CSV_ROOTS_PER_BUFFER).max(1) as u32;
            // Roots are numbered in recording order; a child carries its
            // root's id as parent (trees are one level deep).
            let mut root_index = 0u32;
            let mut kept_root = 0u32;
            for span in &buf.spans {
                let keep = if span.parent == 0 {
                    let keep = root_index.is_multiple_of(stride);
                    root_index += 1;
                    if keep {
                        kept_root = span.id;
                    }
                    keep
                } else {
                    span.parent == kept_root
                };
                if keep {
                    writeln!(
                        out,
                        "{workload},{},{},{},{},{},{},{},{},{stride},{}",
                        source.scope,
                        source.round,
                        source.client,
                        span.kind.name(),
                        span.id,
                        span.parent,
                        span.start_ns,
                        span.dur_ns,
                        buf.dropped,
                    )?;
                }
            }
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn full_buffer_drops_instead_of_growing() {
        let epoch = Instant::now();
        let mut buf = SpanBuf::new(epoch, 2);
        for _ in 0..5 {
            buf.record(
                SpanKind::InvokeWrite,
                0,
                epoch,
                epoch + Duration::from_micros(3),
            );
        }
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.dropped, 3);
        assert_eq!(buf.spans.capacity(), 2);
    }

    #[test]
    fn csv_keeps_children_with_their_sampled_roots() {
        let epoch = Instant::now();
        let mut buf = SpanBuf::new(epoch, 3 * 3 * CSV_ROOTS_PER_BUFFER);
        for w in 0..(3 * CSV_ROOTS_PER_BUFFER) as u64 {
            let start = epoch + Duration::from_micros(10 * w);
            let end = start + Duration::from_micros(9);
            let mid = start + Duration::from_micros(2);
            // Children are recorded after the root they point to.
            let root = buf.record(SpanKind::Window, 0, start, end);
            buf.record(SpanKind::Submit, root, start, mid);
            buf.record(SpanKind::Wait, root, mid, end);
        }
        let mut log = SpanLog::default();
        log.keep(
            SpanSource {
                scope: "primary".into(),
                round: 1,
                client: 0,
            },
            buf,
        );
        let mut csv = Vec::new();
        log.write_csv("w", &mut csv).unwrap();
        let text = String::from_utf8(csv).unwrap();
        let rows: Vec<&str> = text.lines().skip(1).collect();
        assert_eq!(rows.len(), 3 * CSV_ROOTS_PER_BUFFER);
        assert!(rows[0].starts_with("w,primary,1,0,window,1,0,0,9000,3,0"));
        assert!(rows[1].contains(",window.submit,2,1,0,2000,"));
        assert!(rows[2].contains(",window.wait,3,1,2000,7000,"));
        // The next kept tree is the fourth window (ids 10, 11, 12).
        assert!(rows[3].contains(",window,10,0,30000,9000,"));
    }
}
