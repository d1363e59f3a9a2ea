//! Snapshots: owned, ordered views of a registry, plus the JSON
//! exporter and its reader.

use std::fmt::Write as _;

/// Number of histogram buckets a registry histogram carries: bucket 0
/// holds exactly 0, bucket `i >= 1` holds values with `i` significant
/// bits, up to bucket 64 for values in `[2^63, u64::MAX]`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// One named, keyed metric value inside a snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricEntry<T> {
    /// The static metric name, owned for snapshot portability.
    pub name: String,
    /// The dynamic key dimension ("" for unkeyed instruments).
    pub key: String,
    /// The recorded value.
    pub value: T,
}

/// An owned histogram state: observation count, sum, and log2 bucket
/// counts with trailing zero buckets trimmed.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Log2 bucket counts (see [`HISTOGRAM_BUCKETS`]); trailing zeros
    /// trimmed so snapshots stay compact.
    pub buckets: Vec<u64>,
}

/// One span, resolved to owned strings, ordered by its canonical key.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SpanSnap {
    /// Static scope label ("replica.round", "request").
    pub scope: String,
    /// The request this span belongs to.
    pub request: String,
    /// The protocol round (0 when not round-scoped).
    pub round: u64,
    /// Opening tick.
    pub start_tick: u64,
    /// Closing tick; `None` if still open at snapshot time.
    pub end_tick: Option<u64>,
}

/// A deterministic, owned view of one registry: every vector sorted by
/// `(name, key)` — spans by their full key — so equal work yields
/// byte-identical serializations.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Counter values, sorted by `(name, key)`.
    pub counters: Vec<MetricEntry<u64>>,
    /// Gauge values, sorted by `(name, key)`.
    pub gauges: Vec<MetricEntry<i64>>,
    /// Histogram states, sorted by `(name, key)`.
    pub histograms: Vec<MetricEntry<HistogramSnapshot>>,
    /// Spans in canonical order.
    pub spans: Vec<SpanSnap>,
}

impl MetricsSnapshot {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
    }

    /// Looks up an unkeyed counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counter_with_key(name, "")
    }

    /// Looks up a keyed counter.
    pub fn counter_with_key(&self, name: &str, key: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|e| e.name == name && e.key == key)
            .map(|e| e.value)
    }

    /// Sums a counter across all keys (e.g. total sent over every link).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|e| e.name == name)
            .map(|e| e.value)
            .sum()
    }

    /// Looks up an unkeyed gauge by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges
            .iter()
            .find(|e| e.name == name && e.key.is_empty())
            .map(|e| e.value)
    }

    /// Looks up an unkeyed histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|e| e.name == name && e.key.is_empty())
            .map(|e| &e.value)
    }

    /// Serializes to a single compact JSON object — the form embedded in
    /// trace-file meta sections.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":[");
        for (i, e) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"key\":{},\"value\":{}}}",
                json_str(&e.name),
                json_str(&e.key),
                e.value
            );
        }
        out.push_str("],\"gauges\":[");
        for (i, e) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"key\":{},\"value\":{}}}",
                json_str(&e.name),
                json_str(&e.key),
                e.value
            );
        }
        out.push_str("],\"histograms\":[");
        for (i, e) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"key\":{},\"count\":{},\"sum\":{},\"buckets\":[",
                json_str(&e.name),
                json_str(&e.key),
                e.value.count,
                e.value.sum
            );
            for (j, b) in e.value.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{b}");
            }
            out.push_str("]}");
        }
        out.push_str("],\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"scope\":{},\"request\":{},\"round\":{},\"start\":{},\"end\":",
                json_str(&s.scope),
                json_str(&s.request),
                s.round,
                s.start_tick
            );
            match s.end_tick {
                Some(t) => {
                    let _ = write!(out, "{t}");
                }
                None => out.push_str("null"),
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Parses the compact form produced by [`MetricsSnapshot::to_json`].
    /// Accepts exactly that shape (this is a fixture/meta reader, not a
    /// general JSON parser); returns `None` on any mismatch.
    pub fn from_json(text: &str) -> Option<MetricsSnapshot> {
        let mut p = Parser { text, i: 0 };
        p.eat(b'{')?;
        p.key("counters")?;
        let mut snap = MetricsSnapshot::default();
        p.array(|p| {
            p.eat(b'{')?;
            p.key("name")?;
            let name = p.string()?;
            p.eat(b',')?;
            p.key("key")?;
            let key = p.string()?;
            p.eat(b',')?;
            p.key("value")?;
            let value = p.number()?;
            p.eat(b'}')?;
            snap.counters.push(MetricEntry { name, key, value });
            Some(())
        })?;
        p.eat(b',')?;
        p.key("gauges")?;
        p.array(|p| {
            p.eat(b'{')?;
            p.key("name")?;
            let name = p.string()?;
            p.eat(b',')?;
            p.key("key")?;
            let key = p.string()?;
            p.eat(b',')?;
            p.key("value")?;
            let value = p.signed()?;
            p.eat(b'}')?;
            snap.gauges.push(MetricEntry { name, key, value });
            Some(())
        })?;
        p.eat(b',')?;
        p.key("histograms")?;
        p.array(|p| {
            p.eat(b'{')?;
            p.key("name")?;
            let name = p.string()?;
            p.eat(b',')?;
            p.key("key")?;
            let key = p.string()?;
            p.eat(b',')?;
            p.key("count")?;
            let count = p.number()?;
            p.eat(b',')?;
            p.key("sum")?;
            let sum = p.number()?;
            p.eat(b',')?;
            p.key("buckets")?;
            let mut buckets = Vec::new();
            p.array(|p| {
                buckets.push(p.number()?);
                Some(())
            })?;
            p.eat(b'}')?;
            snap.histograms.push(MetricEntry {
                name,
                key,
                value: HistogramSnapshot {
                    count,
                    sum,
                    buckets,
                },
            });
            Some(())
        })?;
        p.eat(b',')?;
        p.key("spans")?;
        p.array(|p| {
            p.eat(b'{')?;
            p.key("scope")?;
            let scope = p.string()?;
            p.eat(b',')?;
            p.key("request")?;
            let request = p.string()?;
            p.eat(b',')?;
            p.key("round")?;
            let round = p.number()?;
            p.eat(b',')?;
            p.key("start")?;
            let start_tick = p.number()?;
            p.eat(b',')?;
            p.key("end")?;
            let end_tick = if p.peek() == Some(b'n') {
                p.literal("null")?;
                None
            } else {
                Some(p.number()?)
            };
            p.eat(b'}')?;
            snap.spans.push(SpanSnap {
                scope,
                request,
                round,
                start_tick,
                end_tick,
            });
            Some(())
        })?;
        p.eat(b'}')?;
        if p.i == text.len() {
            Some(snap)
        } else {
            None
        }
    }
}

/// Escapes `s` as a JSON string token (quotes included).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Minimal cursor over the exact byte shapes [`MetricsSnapshot::to_json`]
/// emits (no whitespace, fixed key order). `i` is a byte offset that only
/// ever advances past whole characters.
struct Parser<'a> {
    text: &'a str,
    i: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Option<()> {
        if self.peek() == Some(c) {
            self.i += 1;
            Some(())
        } else {
            None
        }
    }

    fn literal(&mut self, s: &str) -> Option<()> {
        if self.text[self.i..].starts_with(s) {
            self.i += s.len();
            Some(())
        } else {
            None
        }
    }

    fn key(&mut self, name: &str) -> Option<()> {
        self.eat(b'"')?;
        self.literal(name)?;
        self.eat(b'"')?;
        self.eat(b':')
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek()? {
                b'"' => {
                    self.i += 1;
                    return Some(out);
                }
                b'\\' => {
                    self.i += 1;
                    match self.peek()? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self.text.get(self.i + 1..self.i + 5)?;
                            let code = u32::from_str_radix(hex, 16).ok()?;
                            out.push(char::from_u32(code)?);
                            self.i += 4;
                        }
                        _ => return None,
                    }
                    self.i += 1;
                }
                _ => {
                    let c = self.text[self.i..].chars().next()?;
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }

    /// The digits at the cursor, after an optional leading `-` when
    /// `signed`; `None` when there are no digits.
    fn digits(&mut self, signed: bool) -> Option<&str> {
        let start = self.i;
        if signed && self.peek() == Some(b'-') {
            self.i += 1;
        }
        let first = self.i;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.i += 1;
        }
        (self.i > first).then(|| &self.text[start..self.i])
    }

    fn number(&mut self) -> Option<u64> {
        self.digits(false)?.parse().ok()
    }

    fn signed(&mut self) -> Option<i64> {
        self.digits(true)?.parse().ok()
    }

    /// Parses `[elem,elem,...]` where `elem` delegates to `f`.
    fn array(&mut self, mut f: impl FnMut(&mut Self) -> Option<()>) -> Option<()> {
        self.eat(b'[')?;
        if self.peek() == Some(b']') {
            self.i += 1;
            return Some(());
        }
        loop {
            f(self)?;
            match self.peek()? {
                b',' => self.i += 1,
                b']' => {
                    self.i += 1;
                    return Some(());
                }
                _ => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry<T>(name: &str, key: &str, value: T) -> MetricEntry<T> {
        MetricEntry {
            name: name.to_owned(),
            key: key.to_owned(),
            value,
        }
    }

    fn sample() -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![
                entry("ledger.events", "", 42),
                entry("sim.link.sent", "p0->p1", 7),
            ],
            gauges: vec![
                entry("checker.dirty", "", -2),
                entry("gauge.max", "", i64::MAX),
                entry("gauge.min", "", i64::MIN),
            ],
            histograms: vec![entry(
                "verdict.lag",
                "",
                HistogramSnapshot {
                    count: 3,
                    sum: 12,
                    buckets: vec![0, 1, 2],
                },
            )],
            spans: vec![SpanSnap {
                scope: "request".to_owned(),
                request: "req-0".to_owned(),
                round: 1,
                start_tick: 10,
                end_tick: Some(20),
            }],
        }
    }

    #[test]
    fn json_roundtrip_exact() {
        let snap = sample();
        let json = snap.to_json();
        let back = MetricsSnapshot::from_json(&json).expect("roundtrip parse");
        assert_eq!(back, snap);
        assert_eq!(back.to_json(), json);
        // Open spans and empty snapshots roundtrip too.
        let mut open = MetricsSnapshot::default();
        open.spans.push(SpanSnap {
            scope: "s".to_owned(),
            request: "needs \"escaping\"\n".to_owned(),
            round: 0,
            start_tick: 1,
            end_tick: None,
        });
        assert_eq!(
            MetricsSnapshot::from_json(&open.to_json()),
            Some(open.clone())
        );
        assert_eq!(
            MetricsSnapshot::from_json(&MetricsSnapshot::default().to_json()),
            Some(MetricsSnapshot::default())
        );
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert_eq!(MetricsSnapshot::from_json(""), None);
        assert_eq!(MetricsSnapshot::from_json("{}"), None);
        let good = sample().to_json();
        assert_eq!(MetricsSnapshot::from_json(&good[..good.len() - 1]), None);
        let trailing = format!("{good} ");
        assert_eq!(MetricsSnapshot::from_json(&trailing), None);
        // One past `i64::MAX`, and one below `i64::MIN`: out of a gauge's
        // range, not wrapped.
        for (token, out_of_range) in [
            ("9223372036854775807", "9223372036854775808"),
            ("-9223372036854775808", "-9223372036854775809"),
        ] {
            assert!(good.contains(token));
            let bad = good.replace(token, out_of_range);
            assert_eq!(MetricsSnapshot::from_json(&bad), None);
        }
    }
}
