//! In-memory span recording for the traced run.
//!
//! A span is one timed call the benchmark makes into a layer's public
//! function (or a benchmark-level container such as a whole session):
//! name, start, end, parent, and a group id shared by every span of
//! one session, request or ingest iteration. Each load-generating
//! thread owns its own [`Tracer`]; spans are merged and written out
//! when the run ends, never during it.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Name prefixes that mark a *layer* span (a call into the program
/// under test). Every other span name is a benchmark container.
pub const LAYERS: [&str; 6] = ["store.", "core.", "model.", "query.", "serve.", "trace."];

pub fn is_layer(name: &str) -> bool {
    LAYERS.iter().any(|p| name.starts_with(p))
}

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub group: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records spans for one thread. A disabled tracer runs the closures
/// and records nothing, so traced and untraced code can share a body.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: u64,
    group: u64,
    stack: Vec<u64>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recording tracer. `thread` keeps span ids unique when several
    /// threads' spans are merged; `epoch` is the run's shared time zero.
    pub fn new(epoch: Instant, thread: u64) -> Tracer {
        Tracer {
            enabled: true,
            epoch,
            next_id: thread << 40,
            group: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new(Instant::now(), 0)
        }
    }

    /// Start a new group (session, request or iteration): spans opened
    /// from now on carry this id.
    pub fn set_group(&mut self, group: u64) {
        self.group = group;
    }

    /// Time `f` as a span named `name`, nested under the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().copied();
        self.stack.push(id);
        let start = self.epoch.elapsed();
        let out = f(self);
        let end = self.epoch.elapsed();
        self.stack.pop();
        self.spans.push(Span {
            id,
            parent,
            group: self.group,
            name,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
        });
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Every span's parent exists, belongs to the same group and encloses
/// the child in time.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    if by_id.len() != spans.len() {
        return Err("duplicate span ids".into());
    }
    for s in spans {
        if s.end_ns < s.start_ns {
            return Err(format!("span {} ends before it starts", s.name));
        }
        let Some(pid) = s.parent else { continue };
        let Some(p) = by_id.get(&pid) else {
            return Err(format!("span {} has a missing parent", s.name));
        };
        if p.group != s.group {
            return Err(format!(
                "span {} crosses groups ({} vs {})",
                s.name, p.group, s.group
            ));
        }
        if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
            return Err(format!("span {} escapes its parent {}", s.name, p.name));
        }
    }
    Ok(())
}

/// Per group, the summed milliseconds of spans named `name`; groups
/// without such a span are skipped.
pub fn per_group_ms(spans: &[Span], name: &str) -> Vec<f64> {
    let mut sums: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *sums.entry(s.group).or_default() += s.ms();
    }
    sums.into_values().collect()
}

/// Durations (ms) of every span named `name`, in start order.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    let mut hits: Vec<&Span> = spans.iter().filter(|s| s.name == name).collect();
    hits.sort_by_key(|s| s.start_ns);
    hits.into_iter().map(Span::ms).collect()
}

/// Share of root-span wall time that no outermost layer span covers:
/// benchmark glue, checks and anything the layer calls miss.
pub fn unaccounted_share(spans: &[Span]) -> f64 {
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let under_layer = |s: &Span| {
        let mut cur = s.parent;
        while let Some(id) = cur {
            let p = by_id[&id];
            if is_layer(p.name) {
                return true;
            }
            cur = p.parent;
        }
        false
    };
    let root_ns: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let layer_ns: u64 = spans
        .iter()
        .filter(|s| is_layer(s.name) && !under_layer(s))
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    if root_ns == 0 {
        return 0.0;
    }
    1.0 - layer_ns as f64 / root_ns as f64
}

/// Write spans as JSON lines, in start order.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.start_ns, s.id));
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in sorted {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {parent}, \"group\": {}, \"name\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.group, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_share_groups() {
        let mut tr = Tracer::new(Instant::now(), 3);
        tr.set_group(7);
        tr.span("session", |tr| {
            tr.span("store.open", |_| std::hint::black_box(1 + 1));
            tr.span("load", |tr| tr.span("core.compose", |_| ()));
        });
        let spans = tr.into_spans();
        assert_eq!(spans.len(), 4);
        assert!(spans.iter().all(|s| s.group == 7 && s.id >> 40 == 3));
        check_nesting(&spans).unwrap();
        let root = spans.iter().find(|s| s.name == "session").unwrap();
        assert!(root.parent.is_none());
        let share = unaccounted_share(&spans);
        assert!((0.0..=1.0).contains(&share), "{share}");
    }

    #[test]
    fn nesting_violations_are_reported() {
        let bad = vec![
            Span {
                id: 1,
                parent: None,
                group: 1,
                name: "a",
                start_ns: 10,
                end_ns: 20,
            },
            Span {
                id: 2,
                parent: Some(1),
                group: 1,
                name: "store.open",
                start_ns: 5,
                end_ns: 15,
            },
        ];
        assert!(check_nesting(&bad).is_err());
        let cross = vec![
            Span {
                id: 1,
                parent: None,
                group: 1,
                name: "a",
                start_ns: 10,
                end_ns: 20,
            },
            Span {
                id: 2,
                parent: Some(1),
                group: 2,
                name: "store.open",
                start_ns: 12,
                end_ns: 15,
            },
        ];
        assert!(check_nesting(&cross).is_err());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::disabled();
        assert_eq!(tr.span("store.open", |_| 5), 5);
        assert!(tr.into_spans().is_empty());
    }
}
