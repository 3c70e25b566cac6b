//! Span recorder for traced runs.
//!
//! A span wraps one call the benchmark makes into a layer's public API.
//! Each has a name (`layer.operation`), start, end, parent and request
//! id. Spans nest by call structure: the benchmark drives every layer
//! from its main thread, so the open spans form a stack and a span's
//! parent is the span open around it. Closed spans are kept in memory
//! (up to [`KEEP_SPANS`]) and written out once, when the run ends; the
//! per-name aggregates (count, durations, self time) cover every span.
//!
//! Self time is a span's duration minus the time its direct children
//! cover. Children are strictly nested inside their parent, so the
//! subtraction is exact.
//!
//! Tracing is off by default: [`span`] then only checks a flag and calls
//! the closure.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// Raw spans kept for the trace file; aggregates keep counting past it.
const KEEP_SPANS: usize = 200_000;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Aggregate over every closed span of one name.
#[derive(Debug, Clone, Default)]
struct Agg {
    durations_ns: Vec<u64>,
    self_ns: u64,
}

struct Open {
    id: u64,
    parent: Option<u64>,
    req: u64,
    name: &'static str,
    start: Instant,
    children_ns: u64,
}

struct Recorder {
    origin: Instant,
    next_id: u64,
    stack: Vec<Open>,
    kept: Vec<Span>,
    dropped: u64,
    aggs: BTreeMap<&'static str, Agg>,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        origin: Instant::now(),
        next_id: 0,
        stack: Vec::new(),
        kept: Vec::new(),
        dropped: 0,
        aggs: BTreeMap::new(),
    });
}

/// Turn span recording on or off for the calls that follow.
pub fn set_enabled(on: bool) {
    ENABLED.with(|e| e.set(on));
}

pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Run `f` inside a span named `name` (`layer.operation`) for request
/// `req`. A no-op wrapper while tracing is off.
pub fn span<R>(name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let id = r.next_id;
        r.next_id += 1;
        let parent = r.stack.last().map(|o| o.id);
        r.stack.push(Open {
            id,
            parent,
            req,
            name,
            start: Instant::now(),
            children_ns: 0,
        });
    });
    let out = f();
    let end = Instant::now();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let open = r.stack.pop().expect("span stack underflow");
        let dur = end.duration_since(open.start).as_nanos() as u64;
        if let Some(p) = r.stack.last_mut() {
            p.children_ns += dur;
        }
        let agg = r.aggs.entry(open.name).or_default();
        agg.durations_ns.push(dur);
        agg.self_ns += dur.saturating_sub(open.children_ns);
        if r.kept.len() < KEEP_SPANS {
            let start_ns = open.start.duration_since(r.origin).as_nanos() as u64;
            r.kept.push(Span {
                id: open.id,
                parent: open.parent,
                req: open.req,
                name: open.name,
                start_ns,
                end_ns: start_ns + dur,
            });
        } else {
            r.dropped += 1;
        }
    });
    out
}

/// How many `name` spans have closed so far — a mark for [`since`].
pub fn mark(name: &str) -> usize {
    REC.with(|r| {
        r.borrow()
            .aggs
            .get(name)
            .map_or(0, |a| a.durations_ns.len())
    })
}

/// Durations (seconds) of the `name` spans closed after `mark`.
pub fn since(name: &str, mark: usize) -> Vec<f64> {
    REC.with(|r| {
        r.borrow().aggs.get(name).map_or_else(Vec::new, |a| {
            a.durations_ns
                .iter()
                .skip(mark)
                .map(|&d| d as f64 / 1e9)
                .collect()
        })
    })
}

/// Summed self time (seconds) of every span whose name starts with
/// `layer.`.
pub fn layer_self_s(layer: &str) -> f64 {
    REC.with(|r| {
        r.borrow()
            .aggs
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(layer))
            .map(|(_, a)| a.self_ns)
            .sum::<u64>() as f64
            / 1e9
    })
}

/// `(spans closed, spans kept for the file)`.
pub fn counts() -> (u64, usize) {
    REC.with(|r| {
        let r = r.borrow();
        (r.kept.len() as u64 + r.dropped, r.kept.len())
    })
}

/// Write the kept spans as JSON lines (one span per line) to `path`.
pub fn write(path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    REC.with(|r| -> std::io::Result<()> {
        for s in &r.borrow().kept {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    })?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        set_enabled(true);
        span("a.outer", 1, || {
            span("b.inner", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        set_enabled(false);
        let (outer, inner) = (since("a.outer", 0), since("b.inner", 0));
        assert_eq!((outer.len(), inner.len()), (1, 1));
        assert!(inner[0] >= 0.005);
        let self_s = layer_self_s("a");
        assert!(
            (self_s - (outer[0] - inner[0])).abs() < 1e-8,
            "self time {self_s}"
        );
        assert_eq!(layer_self_s("b"), inner[0]);
        span("c.untraced", 2, || ());
        assert_eq!(mark("c.untraced"), 0, "no spans while tracing is off");
    }
}
