//! Trace sinks: where emitted events go.

use std::fs::File;
use std::io::{self, BufWriter, Seek, SeekFrom, Write};
use std::path::Path;

use mobic_sim::SimTime;
use serde::{Deserialize, Serialize};

use crate::TraceEvent;

/// A resume position inside a JSONL trace: how many lines (and the
/// exact byte offset) the sink had durably recorded when a checkpoint
/// was taken. Stored in snapshots so a resumed run can truncate the
/// partially-written tail and continue appending — producing a trace
/// byte-identical to an uninterrupted run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceCursor {
    /// Lines recorded so far.
    pub lines: u64,
    /// Bytes written so far (every line plus its trailing newline).
    pub bytes: u64,
}

/// A destination for structured simulation events.
///
/// The simulation loop holds a `&mut dyn TraceSink` and consults
/// [`enabled`](Self::enabled) **once per run**: when it returns
/// `false` the loop skips event construction entirely, so a disabled
/// sink costs nothing on the hot path. Implementations must therefore
/// keep `enabled` constant for the lifetime of the sink.
pub trait TraceSink {
    /// Whether this sink wants events at all. Defaults to `true`;
    /// [`NullSink`] overrides it to `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Records one event stamped with the simulation time it
    /// describes. Must be infallible on the hot path — sinks that can
    /// fail (I/O) latch their first error and surface it when
    /// finished.
    fn record(&mut self, at: SimTime, event: &TraceEvent);

    /// Flushes any buffering so everything recorded so far is durable.
    /// Called right before a checkpoint captures [`cursor`](Self::cursor);
    /// the default is a no-op for sinks with nothing to flush. I/O
    /// errors are latched like [`record`](Self::record) errors.
    fn sync(&mut self) {}

    /// The sink's resume position, if it has one. `None` (the default)
    /// means the sink cannot be resumed byte-exactly — checkpointing a
    /// traced run requires a `Some` cursor.
    fn cursor(&self) -> Option<TraceCursor> {
        None
    }
}

/// The zero-cost disabled sink: reports `enabled() == false` and
/// discards anything recorded anyway.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _at: SimTime, _event: &TraceEvent) {}
}

/// One trace line as serialized: the timestamp in integer
/// microseconds, then the flattened event with its `kind` tag.
#[derive(Serialize)]
struct Line<'a> {
    t_us: u64,
    #[serde(flatten)]
    event: &'a TraceEvent,
}

/// A sink that appends one compact JSON object per event to any
/// [`Write`] target — the on-disk trace format (`*.jsonl`).
///
/// Lines are appended in processing order; every field is a pure
/// function of `(config, seed)`, so identical runs produce
/// byte-identical files (asserted by the `trace_determinism` suite).
///
/// I/O errors cannot interrupt the simulation: the first error is
/// latched, subsequent records become no-ops, and the error surfaces
/// from [`finish`](Self::finish).
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    lines: u64,
    bytes: u64,
    /// Per-line serialization buffer, reused across records so each
    /// event costs one `write_all` and zero steady-state allocations.
    buf: Vec<u8>,
    error: Option<io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer. Callers with raw `File`s should wrap them in a
    /// [`BufWriter`] (or use [`JsonlSink::create`]) — the sink writes
    /// one small chunk per event.
    #[must_use]
    pub fn new(out: W) -> Self {
        JsonlSink {
            out,
            lines: 0,
            bytes: 0,
            buf: Vec::new(),
            error: None,
        }
    }

    /// Number of lines successfully recorded so far.
    #[must_use]
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Bytes successfully recorded so far (including newlines).
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Surfaces the first I/O error encountered while recording, or
    /// the flush error.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

#[expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "an append-only JSONL stream cannot be written atomically, and is not a results artifact"
)]
impl JsonlSink<BufWriter<File>> {
    /// Creates (truncating) a trace file at `path`, with parent
    /// directories, buffered for per-event appends.
    ///
    /// # Errors
    ///
    /// Returns directory-creation and file-creation errors.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        Ok(JsonlSink::new(BufWriter::new(File::create(path)?)))
    }

    /// Reopens an existing trace file for appending after a crash:
    /// truncates it to `cursor.bytes` (discarding any partially
    /// written tail past the checkpoint) and resumes the line/byte
    /// counters, so the continued trace is byte-identical to one from
    /// an uninterrupted run.
    ///
    /// # Errors
    ///
    /// Returns open/metadata/truncate errors, and `InvalidData` if the
    /// file is already shorter than the cursor claims (the trace and
    /// the snapshot disagree — resuming would corrupt the stream).
    pub fn resume(path: impl AsRef<Path>, cursor: TraceCursor) -> io::Result<Self> {
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path.as_ref())?;
        let len = file.metadata()?.len();
        if len < cursor.bytes {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "trace file {} is shorter ({len} B) than its checkpoint cursor ({} B)",
                    path.as_ref().display(),
                    cursor.bytes
                ),
            ));
        }
        file.set_len(cursor.bytes)?;
        file.seek(SeekFrom::End(0))?;
        let mut sink = JsonlSink::new(BufWriter::new(file));
        sink.lines = cursor.lines;
        sink.bytes = cursor.bytes;
        Ok(sink)
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, at: SimTime, event: &TraceEvent) {
        if self.error.is_some() {
            return;
        }
        let line = Line {
            t_us: at.as_micros(),
            event,
        };
        self.buf.clear();
        let result = serde_json::to_writer(&mut self.buf, &line)
            .map_err(io::Error::from)
            .and_then(|()| {
                self.buf.push(b'\n');
                self.out.write_all(&self.buf)
            });
        match result {
            Ok(()) => {
                self.lines += 1;
                self.bytes += self.buf.len() as u64;
            }
            Err(e) => self.error = Some(e),
        }
    }

    fn sync(&mut self) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self.out.flush() {
            self.error = Some(e);
        }
    }

    fn cursor(&self) -> Option<TraceCursor> {
        Some(TraceCursor {
            lines: self.lines,
            bytes: self.bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled_and_silent() {
        let mut s = NullSink;
        assert!(!s.enabled());
        s.record(SimTime::ZERO, &TraceEvent::HelloTx { node: 0, seq: 0 });
    }

    #[test]
    fn jsonl_lines_carry_timestamp_then_kind() {
        let mut sink = JsonlSink::new(Vec::new());
        assert!(sink.enabled());
        sink.record(
            SimTime::from_secs(2),
            &TraceEvent::HelloRx {
                tx: 1,
                rx: 2,
                rx_power_dbm: -80.0,
            },
        );
        assert_eq!(sink.lines(), 1);
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        assert_eq!(
            text,
            "{\"t_us\":2000000,\"kind\":\"hello_rx\",\"tx\":1,\"rx\":2,\"rx_power_dbm\":-80.0}\n"
        );
    }

    #[test]
    fn identical_event_streams_serialize_identically() {
        let run = || {
            let mut sink = JsonlSink::new(Vec::new());
            for i in 0..10u32 {
                sink.record(
                    SimTime::from_micros(u64::from(i) * 7),
                    &TraceEvent::HelloTx {
                        node: i,
                        seq: u64::from(i),
                    },
                );
            }
            sink.finish().unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn cursor_tracks_lines_and_exact_bytes() {
        let mut sink = JsonlSink::new(Vec::new());
        assert_eq!(sink.cursor(), Some(TraceCursor::default()));
        for i in 0..5u32 {
            sink.record(
                SimTime::from_micros(u64::from(i)),
                &TraceEvent::HelloTx {
                    node: i,
                    seq: u64::from(i),
                },
            );
        }
        let cursor = sink.cursor().unwrap();
        assert_eq!(cursor.lines, 5);
        assert_eq!(sink.bytes(), cursor.bytes);
        let bytes = sink.finish().unwrap();
        assert_eq!(bytes.len() as u64, cursor.bytes);
        // A mid-stream cursor points at a line boundary.
        assert_eq!(bytes[cursor.bytes as usize - 1], b'\n');
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "plants a trace shorter than its cursor"
    )]
    fn resume_truncates_tail_and_continues_byte_identically() {
        let dir = std::env::temp_dir().join("mobic-trace-resume-test");
        let path = dir.join("t.jsonl");
        let ev = |i: u32| TraceEvent::HelloTx {
            node: i,
            seq: u64::from(i),
        };
        // Uninterrupted reference run: 6 events.
        let mut full = JsonlSink::create(&path).unwrap();
        for i in 0..6 {
            full.record(SimTime::from_micros(u64::from(i)), &ev(i));
        }
        full.finish().unwrap();
        let reference = std::fs::read(&path).unwrap();

        // Interrupted run: checkpoint after 3 events, then write junk
        // (a torn line past the checkpoint) before "crashing".
        let mut partial = JsonlSink::create(&path).unwrap();
        for i in 0..3 {
            partial.record(SimTime::from_micros(u64::from(i)), &ev(i));
        }
        partial.sync();
        let cursor = partial.cursor().unwrap();
        let mut file = partial.finish().unwrap().into_inner().unwrap();
        file.write_all(b"{\"t_us\":9999,\"kind\":\"hel").unwrap();
        drop(file);

        // Resume from the cursor and replay the remaining events.
        let mut resumed = JsonlSink::resume(&path, cursor).unwrap();
        assert_eq!(resumed.lines(), 3);
        assert_eq!(resumed.bytes(), cursor.bytes);
        for i in 3..6 {
            resumed.record(SimTime::from_micros(u64::from(i)), &ev(i));
        }
        resumed.finish().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), reference);

        // A trace shorter than its cursor is refused.
        std::fs::write(&path, b"x").unwrap();
        assert!(JsonlSink::resume(&path, cursor).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_writes_a_real_file() {
        let dir = std::env::temp_dir().join("mobic-trace-sink-test");
        let path = dir.join("t.jsonl");
        let mut sink = JsonlSink::create(&path).unwrap();
        sink.record(SimTime::ZERO, &TraceEvent::IndexRefresh { nodes: 5 });
        sink.finish().unwrap().into_inner().unwrap().sync_all().ok();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("index_refresh"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
