//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer: a name (`layer.call`), start and end
//! on the recorder's clock, the span that caused it, and the operation it
//! belongs to. Spans are kept in memory and written out as JSON lines when
//! the run ends. A disabled recorder runs the wrapped call and records
//! nothing, so the untraced path pays one branch.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run, starting at 1.
    pub id: u64,
    /// The causing span's id, or 0 for a root.
    pub parent: u64,
    /// The operation this span belongs to.
    pub op: u64,
    /// `layer.call`, e.g. `pipeline.run_cell_group`.
    pub name: &'static str,
    /// Start, in ns since the recorder was built.
    pub start_ns: u64,
    /// End, in ns since the recorder was built.
    pub end_ns: u64,
}

impl Span {
    /// The layer: the name up to its first dot.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in ns.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The recorder: spans behind a mutex (pool workers record concurrently).
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder that records only when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span named `name` under `parent`, passing `f` the
    /// new span's id so nested calls can name it as their parent. When
    /// disabled, `f` gets id 0 and nothing is recorded.
    pub fn span<R>(&self, name: &'static str, parent: u64, op: u64, f: impl FnOnce(u64) -> R) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans.lock().expect("span recorder lock").push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Every span recorded so far, ordered by start.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span recorder lock").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Self time of every span, by id: its duration minus the part of its
/// interval that the union of its children covers. Children running in
/// parallel on the pool overlap; the union counts their shared time once.
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|k| {
                    k.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// Total self time per layer, in seconds.
#[must_use]
pub fn layer_self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let own = self_times(spans);
    let mut layers = BTreeMap::new();
    for s in spans {
        *layers.entry(s.layer()).or_insert(0.0) += own[&s.id] as f64 * 1e-9;
    }
    layers
}

/// Writes spans as JSON lines, each with its self time.
///
/// # Errors
///
/// Returns the I/O error of creating or writing `path`.
pub fn dump_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    let own = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns, own[&s.id]
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: "core.test",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) ⊃ a [10,30) ⊃ b [15,20); root ⊃ c [50,90).
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 2, 15, 20),
            span(4, 1, 50, 90),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 20 - 40);
        assert_eq!(own[&2], 20 - 5);
        assert_eq!(own[&3], 5);
        assert_eq!(own[&4], 40);
        let total: u64 = own.values().sum();
        assert_eq!(total, 100, "self times partition a fully nested tree");
    }

    #[test]
    fn overlapping_children_count_once_and_clip_to_the_parent() {
        // Two pool workers overlap on [20,40); one child outlives its
        // parent's recorded end and is clipped.
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 20, 60),
            span(4, 1, 90, 120),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 50 - 10);
    }

    #[test]
    fn recorder_links_parents_and_disabled_records_nothing() {
        let rec = Recorder::new(true);
        rec.span("core.outer", 0, 7, |outer| {
            rec.span("pipeline.inner", outer, 7, |_| ());
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "core.outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "pipeline.inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let layers = layer_self_seconds(&spans);
        assert!(layers.contains_key("core") && layers.contains_key("pipeline"));

        let off = Recorder::new(false);
        assert_eq!(off.span("core.outer", 0, 1, |id| id), 0);
        assert!(off.spans().is_empty());
    }
}
