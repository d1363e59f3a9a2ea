//! In-memory spans recorded around calls into each layer, from outside the
//! program under test. Kept in memory during the traced iteration and
//! written out as JSON lines when the benchmark ends.

use std::collections::HashMap;
use std::io::{self, Write};
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// The span that was open when this one started (its cause).
    pub parent: Option<u32>,
    pub name: &'static str,
    pub layer: &'static str,
    /// Index into the recorder's request table, when the call carried a
    /// request identifier.
    pub request: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Single-threaded span recorder: spans nest by call structure, so the
/// parent of a span is whatever span is open when it starts.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    requests: Vec<String>,
    request_index: HashMap<String, u32>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            requests: Vec::new(),
            request_index: HashMap::new(),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn start(&mut self, name: &'static str, layer: &'static str, request: Option<&str>) -> u32 {
        let request = request.map(|r| match self.request_index.get(r) {
            Some(&ix) => ix,
            None => {
                let ix = self.requests.len() as u32;
                self.requests.push(r.to_owned());
                self.request_index.insert(r.to_owned(), ix);
                ix
            }
        });
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            layer,
            request,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: u32) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn request_name(&self, span: &Span) -> Option<&str> {
        span.request.map(|ix| self.requests[ix as usize].as_str())
    }

    /// One JSON object per span, in start order.
    pub fn write_jsonl(&self, out: &mut dyn Write) -> io::Result<()> {
        for span in &self.spans {
            let line = Json::obj([
                ("id", Json::Num(f64::from(span.id))),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                ),
                ("name", Json::str(span.name)),
                ("layer", Json::str(span.layer)),
                (
                    "request",
                    self.request_name(span).map_or(Json::Null, Json::str),
                ),
                ("start_ns", Json::Num(span.start_ns as f64)),
                ("end_ns", Json::Num(span.end_ns as f64)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        Ok(())
    }
}

/// Opens a span when tracing is on; the untraced and the traced replay are
/// one piece of code, handed a recorder or not.
pub fn start_span(
    rec: &mut Option<&mut Recorder>,
    name: &'static str,
    layer: &'static str,
) -> Option<u32> {
    rec.as_mut().map(|r| r.start(name, layer, None))
}

/// Closes what [`start_span`] opened.
pub fn end_span(rec: &mut Option<&mut Recorder>, id: Option<u32>) {
    if let (Some(r), Some(id)) = (rec.as_mut(), id) {
        r.end(id);
    }
}

/// A span's self time is its duration minus the part its direct children
/// cover; children never overlap each other on one thread.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent as usize] = own[parent as usize].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Total self time of the spans selected by `key`, per key.
pub fn self_time_by<'a, K: std::hash::Hash + Eq>(
    spans: &'a [Span],
    key: impl Fn(&'a Span) -> K,
) -> HashMap<K, u64> {
    let own = self_times_ns(spans);
    let mut totals = HashMap::new();
    for (span, own_ns) in spans.iter().zip(own) {
        *totals.entry(key(span)).or_insert(0) += own_ns;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            layer,
            request: None,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root 0..100 { a 10..40 { b 15..25 }, c 50..90 }
        let spans = vec![
            span(0, None, "harness", 0, 100),
            span(1, Some(0), "sim", 10, 40),
            span(2, Some(1), "protocol", 15, 25),
            span(3, Some(0), "sim", 50, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        let by_layer = self_time_by(&spans, |s| s.layer);
        assert_eq!(by_layer["harness"], 30);
        assert_eq!(by_layer["sim"], 60);
        assert_eq!(by_layer["protocol"], 10);
        // Self times partition the root's duration.
        assert_eq!(by_layer.values().sum::<u64>(), 100);
    }

    #[test]
    fn recorder_links_parents_and_requests() {
        let mut rec = Recorder::default();
        let root = rec.start("session", "harness", None);
        let a = rec.start("on_message", "protocol", Some("req-1"));
        rec.end(a);
        let b = rec.start("on_message", "protocol", Some("req-1"));
        let c = rec.start("inner", "services", Some("req-2"));
        rec.end(c);
        rec.end(b);
        rec.end(root);
        let spans = rec.spans();
        assert_eq!(spans[a as usize].parent, Some(root));
        assert_eq!(spans[c as usize].parent, Some(b));
        assert_eq!(spans[a as usize].request, spans[b as usize].request);
        assert_eq!(rec.request_name(&spans[c as usize]), Some("req-2"));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));

        let mut out = Vec::new();
        rec.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        let first = Json::parse(lines[1]).unwrap();
        assert_eq!(first.get("request").and_then(Json::as_str), Some("req-1"));
        assert_eq!(first.get("parent").and_then(Json::as_f64), Some(0.0));
    }
}
