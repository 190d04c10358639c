//! Spans recorded by the benchmark's own code around batches of calls into
//! each layer's public function. Only traced runs record them.
//!
//! A span carries a name, start, end, the span that caused it and the id of
//! the operation batch it belongs to. Spans stay in memory until the run
//! ends; [`Trace::write`] then writes them out with each span's self time
//! (its duration minus the part its children cover).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Spans kept for the trace file, in all and from each recorder, so every
/// thread's run is sampled; per-name timings are kept for every span.
const KEPT_SPANS: usize = 50_000;
const KEPT_PER_RECORDER: usize = 256;

/// Marks a span without a parent.
pub const ROOT: u32 = u32::MAX;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: u16,
    pub batch: u64,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls into the layer the span covers.
    pub count: u32,
}

/// One thread's spans, merged into a [`Trace`] when the thread is done.
#[derive(Default)]
pub struct Recorder {
    spans: Vec<Span>,
}

impl Recorder {
    /// Opens a span now and returns its index, to be closed by [`Recorder::close`].
    pub fn open(&mut self, name: u16, batch: u64, parent: u32) -> u32 {
        let start = now_ns();
        self.spans.push(Span {
            name,
            batch,
            parent,
            start_ns: start,
            end_ns: start,
            count: 0,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, index: u32, count: u32) {
        let span = &mut self.spans[index as usize];
        span.end_ns = now_ns();
        span.count = count;
    }
}

#[derive(Default)]
struct Store {
    names: Vec<String>,
    /// Per-call nanoseconds of every closed span, by name.
    per_call: Vec<Vec<f32>>,
    kept: Vec<Span>,
}

/// The spans of one phase of a run.
#[derive(Default)]
pub struct Trace {
    store: Mutex<Store>,
}

impl Trace {
    /// The id of `name`, registered on first use. Call outside hot loops.
    pub fn name(&self, name: &str) -> u16 {
        let mut store = self.store.lock().expect("trace store poisoned");
        if let Some(i) = store.names.iter().position(|n| n == name) {
            return i as u16;
        }
        store.names.push(name.to_string());
        store.per_call.push(Vec::new());
        (store.names.len() - 1) as u16
    }

    pub fn merge(&self, recorder: Recorder) {
        let mut store = self.store.lock().expect("trace store poisoned");
        let base = store.kept.len() as u32;
        // Keep whole span trees: cut the recorder's spans before a root.
        let room = KEPT_SPANS
            .saturating_sub(store.kept.len())
            .min(KEPT_PER_RECORDER);
        let keep = if recorder.spans.len() <= room {
            recorder.spans.len()
        } else {
            recorder.spans[..=room]
                .iter()
                .rposition(|s| s.parent == ROOT)
                .unwrap_or(0)
        };
        for span in &recorder.spans {
            if span.count > 0 {
                let per_call = (span.end_ns - span.start_ns) as f32 / span.count as f32;
                store.per_call[span.name as usize].push(per_call);
            }
        }
        store
            .kept
            .extend(recorder.spans.into_iter().take(keep).map(|mut s| {
                if s.parent != ROOT {
                    s.parent += base;
                }
                s
            }));
    }

    /// Per-call nanoseconds of every span named `name`.
    pub fn per_call(&self, name: &str) -> Vec<f64> {
        let store = self.store.lock().expect("trace store poisoned");
        match store.names.iter().position(|n| n == name) {
            Some(i) => store.per_call[i].iter().map(|&v| v as f64).collect(),
            None => Vec::new(),
        }
    }

    /// Appends the kept spans as JSON lines, with self times, followed by one
    /// summary line per span name.
    pub fn write(&self, phase: &str, out: &mut impl Write) -> std::io::Result<()> {
        let store = self.store.lock().expect("trace store poisoned");
        let mut child_ns = vec![0u64; store.kept.len()];
        for span in &store.kept {
            if span.parent != ROOT {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut self_by_name: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for (i, span) in store.kept.iter().enumerate() {
            let name = store.names[span.name as usize].as_str();
            let duration = span.end_ns - span.start_ns;
            let self_ns = duration.saturating_sub(child_ns[i]);
            let entry = self_by_name.entry(name).or_default();
            entry.0 += 1;
            entry.1 += self_ns;
            let parent = if span.parent == ROOT {
                "null".to_string()
            } else {
                span.parent.to_string()
            };
            writeln!(
                out,
                "{{\"phase\":\"{phase}\",\"span\":{i},\"name\":\"{name}\",\"batch\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"count\":{},\"self_ns\":{self_ns}}}",
                span.batch, span.start_ns, span.end_ns, span.count
            )?;
        }
        for (name, (spans, self_ns)) in self_by_name {
            writeln!(
                out,
                "{{\"phase\":\"{phase}\",\"summary\":\"{name}\",\"kept_spans\":{spans},\"self_ns\":{self_ns}}}"
            )?;
        }
        Ok(())
    }
}

/// Writes every phase's spans to `path`.
pub fn write_file(path: &Path, phases: &[(&str, &Trace)]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (phase, trace) in phases {
        trace.write(phase, &mut out)?;
    }
    out.flush()
}
