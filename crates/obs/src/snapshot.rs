//! Snapshots: owned, ordered, mergeable views of a registry, plus the
//! text/JSON exporters.

use std::collections::BTreeMap;
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

impl HistogramSnapshot {
    /// Folds `other` into `self`: counts and sums add, buckets add
    /// pointwise. This is a commutative monoid, so fleet merges are
    /// order-independent.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }

    /// Mean observation, or 0 for an empty histogram.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
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

/// A deterministic, owned view of one registry (or a merge of several):
/// every vector sorted by `(name, key)` — spans by their full key — so
/// equal work yields byte-identical serializations.
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

fn merge_entries<T: Clone>(
    into: &mut Vec<MetricEntry<T>>,
    from: &[MetricEntry<T>],
    mut fold: impl FnMut(&mut T, &T),
) {
    let mut map: BTreeMap<(String, String), T> =
        into.drain(..).map(|e| ((e.name, e.key), e.value)).collect();
    for entry in from {
        match map.entry((entry.name.clone(), entry.key.clone())) {
            std::collections::btree_map::Entry::Occupied(mut slot) => {
                fold(slot.get_mut(), &entry.value);
            }
            std::collections::btree_map::Entry::Vacant(slot) => {
                slot.insert(entry.value.clone());
            }
        }
    }
    *into = map
        .into_iter()
        .map(|((name, key), value)| MetricEntry { name, key, value })
        .collect();
}

impl MetricsSnapshot {
    /// Folds `other` into `self`: counters add, gauges add, histograms
    /// merge bucketwise, spans take the sorted multiset union. Merging is
    /// associative and commutative, so a fleet can fold worker snapshots
    /// in any grouping and land on the same bytes.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        merge_entries(&mut self.counters, &other.counters, |a, b| *a += b);
        merge_entries(&mut self.gauges, &other.gauges, |a, b| *a += b);
        merge_entries(&mut self.histograms, &other.histograms, |a, b| a.merge(b));
        self.spans.extend(other.spans.iter().cloned());
        self.spans.sort();
    }

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
        self.histogram_with_key(name, "")
    }

    /// Looks up a keyed histogram.
    pub fn histogram_with_key(&self, name: &str, key: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|e| e.name == name && e.key == key)
            .map(|e| &e.value)
    }

    /// Renders the stable text table: fixed column layout, `(name, key)`
    /// order, no wall-clock anything — pinned by a golden test.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("== counters ==\n");
            for e in &self.counters {
                let _ = writeln!(out, "{:<40} {:<12} {}", e.name, e.key, e.value);
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("== gauges ==\n");
            for e in &self.gauges {
                let _ = writeln!(out, "{:<40} {:<12} {}", e.name, e.key, e.value);
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("== histograms ==\n");
            for e in &self.histograms {
                let _ = writeln!(
                    out,
                    "{:<40} {:<12} count={} sum={} mean={}",
                    e.name,
                    e.key,
                    e.value.count,
                    e.value.sum,
                    e.value.mean()
                );
            }
        }
        if !self.spans.is_empty() {
            out.push_str("== spans ==\n");
            for s in &self.spans {
                let end = match s.end_tick {
                    Some(t) => t.to_string(),
                    None => "open".to_owned(),
                };
                let _ = writeln!(
                    out,
                    "{:<24} {:<16} round={:<4} start={} end={}",
                    s.scope, s.request, s.round, s.start_tick, end
                );
            }
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
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
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
        };
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
        if p.i == p.b.len() {
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
/// emits (no whitespace, fixed key order).
struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
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
        if self.b[self.i..].starts_with(s.as_bytes()) {
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
                            let hex = self.b.get(self.i + 1..self.i + 5)?;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            out.push(char::from_u32(code)?);
                            self.i += 4;
                        }
                        _ => return None,
                    }
                    self.i += 1;
                }
                _ => {
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.b[self.i..]).ok()?;
                    let c = rest.chars().next()?;
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Option<u64> {
        let start = self.i;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.i += 1;
        }
        if self.i == start {
            return None;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()?
            .parse()
            .ok()
    }

    fn signed(&mut self) -> Option<i64> {
        let neg = self.peek() == Some(b'-');
        if neg {
            self.i += 1;
        }
        let mag = self.number()? as i64;
        Some(if neg { -mag } else { mag })
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
    use proptest::prelude::*;

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
            gauges: vec![entry("checker.dirty", "", -2)],
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
    fn merge_adds_and_unions() {
        let mut a = sample();
        let mut b = MetricsSnapshot::default();
        b.counters.push(entry("ledger.events", "", 8));
        b.counters.push(entry("new.metric", "", 1));
        b.histograms.push(entry(
            "verdict.lag",
            "",
            HistogramSnapshot {
                count: 1,
                sum: 100,
                buckets: vec![0, 0, 0, 0, 0, 0, 0, 1],
            },
        ));
        a.merge(&b);
        assert_eq!(a.counter("ledger.events"), Some(50));
        assert_eq!(a.counter("new.metric"), Some(1));
        let h = a.histogram("verdict.lag").unwrap();
        assert_eq!((h.count, h.sum), (4, 112));
        assert_eq!(h.buckets, vec![0, 1, 2, 0, 0, 0, 0, 1]);
        assert_eq!(a.counter_total("sim.link.sent"), 7);
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
    }

    fn arb_buckets() -> impl Strategy<Value = Vec<u64>> {
        prop::collection::vec(0u64..50, 0..10)
    }

    proptest! {
        #[test]
        fn histogram_merge_is_commutative(
            ca in 0u64..1000, sa in 0u64..100_000, ba in arb_buckets(),
            cb in 0u64..1000, sb in 0u64..100_000, bb in arb_buckets(),
        ) {
            let a = HistogramSnapshot { count: ca, sum: sa, buckets: ba };
            let b = HistogramSnapshot { count: cb, sum: sb, buckets: bb };
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba_m = b.clone();
            ba_m.merge(&a);
            // Normalize trailing zeros: merge never trims.
            let mut ab_b = ab.buckets.clone();
            let mut ba_b = ba_m.buckets.clone();
            while ab_b.last() == Some(&0) { ab_b.pop(); }
            while ba_b.last() == Some(&0) { ba_b.pop(); }
            prop_assert_eq!((ab.count, ab.sum, ab_b), (ba_m.count, ba_m.sum, ba_b));
        }

        #[test]
        fn histogram_merge_is_associative(
            ca in 0u64..1000, sa in 0u64..100_000, ba in arb_buckets(),
            cb in 0u64..1000, sb in 0u64..100_000, bb in arb_buckets(),
            cc in 0u64..1000, sc in 0u64..100_000, bc_v in arb_buckets(),
        ) {
            let a = HistogramSnapshot { count: ca, sum: sa, buckets: ba };
            let b = HistogramSnapshot { count: cb, sum: sb, buckets: bb };
            let c = HistogramSnapshot { count: cc, sum: sc, buckets: bc_v };
            let mut left = a.clone();
            left.merge(&b);
            left.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut right = a.clone();
            right.merge(&bc);
            prop_assert_eq!(
                (left.count, left.sum, left.buckets),
                (right.count, right.sum, right.buckets)
            );
        }
    }

    #[test]
    fn golden_text_render() {
        let expected = "\
== counters ==
ledger.events                                         42
sim.link.sent                            p0->p1       7
== gauges ==
checker.dirty                                         -2
== histograms ==
verdict.lag                                           count=3 sum=12 mean=4
== spans ==
request                  req-0            round=1    start=10 end=20
";
        assert_eq!(sample().render_text(), expected);
        assert_eq!(
            MetricsSnapshot::default().render_text(),
            "(no metrics recorded)\n"
        );
    }
}
