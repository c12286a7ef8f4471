//! Run-level report and the two exporters: Chrome trace-event JSON
//! (Perfetto-loadable) and `/proc`-style plain-text snapshots.

use std::fmt::Write;

use essio_stream::sketch::LogHistogram;
use essio_trace::Op;
use serde::{Serialize, Value};

use crate::registry::MetricsRegistry;
use crate::span::{NetEvent, PhysSpan, Span};

/// Everything the obs plane collected over one run: closed request spans,
/// physical disk commands, delayed PVM sends, and the merged metrics
/// registry. Plain data — safe to move across threads and merge across
/// campaign seeds.
#[derive(Debug, Clone, Default)]
pub struct ObsReport {
    /// Cluster size the run used.
    pub nodes: u8,
    /// Virtual end time of the run.
    pub duration_us: u64,
    /// All request spans, per node in (begin, id) order.
    pub spans: Vec<Span>,
    /// All physical disk commands, per node in dispatch order.
    pub phys: Vec<PhysSpan>,
    /// PVM sends that were delayed by retransmit backoff.
    pub net: Vec<NetEvent>,
    /// Hierarchical metrics merged across the cluster.
    pub metrics: MetricsRegistry,
    /// Spans force-closed by a crash or the end of the run.
    pub unclosed: u64,
}

/// Track ids within each node's process in the Chrome trace.
const TID_DISK: u32 = 1;
const TID_FAULTS: u32 = 2;
const TID_NET: u32 = 3;

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

fn i(v: u64) -> Value {
    Value::Int(v as i128)
}

/// A compact JSON object being written into a string, one field at a time.
/// Keys are written as given: every key the exporter uses is a plain ASCII
/// identifier, which needs no escaping.
struct Obj<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> Obj<'a> {
    fn open(out: &'a mut String) -> Self {
        out.push('{');
        Obj { out, empty: true }
    }

    /// Write the separator and `"key":`, returning the string for the value.
    fn key(&mut self, key: &str) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
        self.out
    }

    fn int(&mut self, key: &str, v: u64) -> &mut Self {
        push_u64(self.key(key), v);
        self
    }

    fn str(&mut self, key: &str, v: &str) -> &mut Self {
        push_json_str(self.key(key), v);
        self
    }

    fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.key(key).push_str(if v { "true" } else { "false" });
        self
    }

    fn close(&mut self) {
        self.out.push('}');
    }

    /// Close a top-level event and write the separator that
    /// [`ObsReport::chrome_trace`] strips after the last one.
    fn close_event(self) {
        self.out.push_str("},");
    }
}

/// Decimal digits of `v`, as `serde_json` formats an integer.
fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
}

/// A JSON string literal with `serde_json`'s escapes: quote, backslash,
/// `\n`, `\r`, `\t`, and `\u00XX` for other control characters.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("String writes are infallible");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl ObsReport {
    /// Attach the cluster's delayed-send events and fold them into the
    /// `net` metrics scope (called once by the experiment runner).
    pub fn add_net_events(&mut self, events: Vec<NetEvent>, retransmits: u64) {
        let mut backoff = LogHistogram::new();
        let mut backoff_total = 0u64;
        for e in &events {
            backoff.observe(e.backoff_us);
            backoff_total += e.backoff_us;
        }
        let net = self.metrics.scope("net");
        net.counter("retransmit_frames", retransmits);
        net.counter("delayed_sends", events.len() as u64);
        net.counter("backoff_us", backoff_total);
        if !events.is_empty() {
            net.hist("send_backoff_us", &backoff);
        }
        self.net = events;
    }

    /// Render the whole run as Chrome trace-event JSON, loadable in
    /// Perfetto (`ui.perfetto.dev`). One process per node; within it a
    /// `disk` track of physical commands, a `faults` track of
    /// failure/retry markers, a `net` track of delayed PVM sends, and
    /// request spans as async begin/end pairs grouped by operation.
    /// All timestamps are virtual microseconds.
    ///
    /// Events are written straight into one pre-sized string, in the
    /// compact form `serde_json::to_string` gives a `Value` tree with the
    /// same fields in the same order.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::with_capacity(
            64 + 400 * self.nodes as usize
                + 560 * self.spans.len()
                + 360 * self.phys.len()
                + 200 * self.net.len(),
        );
        out.push_str("{\"traceEvents\":[");
        for node in 0..self.nodes {
            let mut ev = Obj::open(&mut out);
            ev.str("name", "process_name")
                .str("ph", "M")
                .int("pid", node as u64);
            let mut args = Obj::open(ev.key("args"));
            write!(args.key("name"), "\"node{node:02}\"").expect("String writes are infallible");
            args.close();
            ev.close_event();
            for (tid, name) in [(TID_DISK, "disk"), (TID_FAULTS, "faults"), (TID_NET, "net")] {
                let mut ev = Obj::open(&mut out);
                ev.str("name", "thread_name")
                    .str("ph", "M")
                    .int("pid", node as u64)
                    .int("tid", tid as u64);
                Obj::open(ev.key("args")).str("name", name).close();
                ev.close_event();
            }
        }
        for span in &self.spans {
            let cat = if span.kind.is_kernel() {
                "kernel"
            } else {
                "request"
            };
            for (ph, ts) in [("b", span.begin_us), ("e", span.end_us)] {
                let mut ev = Obj::open(&mut out);
                ev.str("name", span.kind.label())
                    .str("cat", cat)
                    .str("ph", ph);
                write!(ev.key("id"), "\"0x{:x}\"", span.uid())
                    .expect("String writes are infallible");
                ev.int("pid", span.node as u64).int("tid", 0).int("ts", ts);
                if ph == "b" {
                    let mut args = Obj::open(ev.key("args"));
                    args.int("span", span.uid())
                        .int("pid", span.pid.map(|p| p as u64).unwrap_or(0))
                        .int("cache_hits", span.cache_hits as u64)
                        .int("cache_misses", span.cache_misses as u64)
                        .int("ra_window", span.ra_window as u64)
                        .int("ra_blocks", span.ra_blocks as u64)
                        .int("tokens", span.tokens as u64)
                        .int("records", span.records as u64)
                        .int("bytes", span.bytes)
                        .int("queue_wait_us", span.queue_wait_us)
                        .int("service_us", span.service_us)
                        .int("retry_us", span.retry_us)
                        .int("retries", span.retries as u64)
                        .int("relocations", span.relocations as u64)
                        .int("net_delay_us", span.net_delay_us);
                    if span.truncated {
                        args.bool("truncated", true);
                    }
                    args.close();
                }
                ev.close_event();
            }
        }
        for ph in &self.phys {
            let op = match ph.op {
                Op::Read => "read",
                Op::Write => "write",
            };
            let span = ((ph.node as u64) << 48) | ph.span;
            let mut ev = Obj::open(&mut out);
            write!(ev.key("name"), "\"{op} {}@{}\"", ph.nsectors, ph.sector)
                .expect("String writes are infallible");
            ev.str("cat", "disk")
                .str("ph", "X")
                .int("pid", ph.node as u64)
                .int("tid", TID_DISK as u64)
                .int("ts", ph.dispatch_us)
                .int("dur", ph.complete_us.saturating_sub(ph.dispatch_us));
            let mut args = Obj::open(ev.key("args"));
            args.int("sector", ph.sector)
                .int("nsectors", ph.nsectors as u64);
            // A fieldless variant's name needs no escaping.
            write!(args.key("origin"), "\"{:?}\"", ph.origin)
                .expect("String writes are infallible");
            args.int("span", span)
                .int("submit_us", ph.submit_us)
                .int("queue_depth", ph.queue_depth as u64)
                .bool("retry", ph.retry)
                .bool("failed", ph.failed)
                .bool("truncated", ph.truncated)
                .close();
            ev.close_event();
            if ph.failed || ph.retry {
                let mut ev = Obj::open(&mut out);
                ev.str("name", if ph.failed { "media-fail" } else { "retry" })
                    .str("cat", "faults")
                    .str("ph", "i")
                    .str("s", "t")
                    .int("pid", ph.node as u64)
                    .int("tid", TID_FAULTS as u64)
                    .int("ts", ph.dispatch_us);
                Obj::open(ev.key("args"))
                    .int("sector", ph.sector)
                    .int("span", span)
                    .close();
                ev.close_event();
            }
        }
        for e in &self.net {
            let mut ev = Obj::open(&mut out);
            ev.str("name", "retransmit")
                .str("cat", "net")
                .str("ph", "i")
                .str("s", "t")
                .int("pid", e.from_node as u64)
                .int("tid", TID_NET as u64)
                .int("ts", e.at_us);
            Obj::open(ev.key("args"))
                .int("from_pid", e.from_pid as u64)
                .int("to_pid", e.to_pid as u64)
                .int("attempts", e.attempts as u64)
                .int("backoff_us", e.backoff_us)
                .close();
            ev.close_event();
        }
        // Every event is followed by a separator; drop the last one.
        if out.ends_with(',') {
            out.pop();
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }

    /// `/proc`-style plain-text snapshot for one node, mirroring the
    /// paper's proc-fs spooling of driver statistics.
    pub fn proc_snapshot(&self, node: u8) -> String {
        let prefix = format!("node{node:02}/");
        let mut out = format!("=== /proc/essio/node{node:02} ===\n");
        out.push_str(&self.metrics.render_text(&prefix));
        out
    }

    /// `/proc`-style snapshot of every node plus the cluster-wide scopes.
    pub fn proc_text(&self) -> String {
        let mut out = String::new();
        for node in 0..self.nodes {
            out.push_str(&self.proc_snapshot(node));
        }
        out.push_str("=== /proc/essio/cluster ===\n");
        let mut seen = std::collections::BTreeSet::new();
        for path in self.metrics.scopes.keys() {
            if !path.starts_with("node") && seen.insert(path.clone()) {
                out.push_str(&self.metrics.render_text(path));
            }
        }
        out
    }
}

impl Serialize for ObsReport {
    /// Compact summary (counts + full metrics); the span/phys lists are
    /// exported through [`ObsReport::chrome_trace`] instead.
    fn to_value(&self) -> Value {
        obj(vec![
            ("nodes", i(self.nodes as u64)),
            ("duration_us", i(self.duration_us)),
            ("spans", i(self.spans.len() as u64)),
            ("phys_cmds", i(self.phys.len() as u64)),
            ("delayed_sends", i(self.net.len() as u64)),
            ("unclosed_spans", i(self.unclosed)),
            ("metrics", self.metrics.to_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The direct writer renders integers, booleans and escaped strings
    /// exactly as `serde_json` renders the equivalent `Value` object.
    #[test]
    fn direct_writer_matches_serde_json() {
        let text = "quote\" back\\ nl\n cr\r tab\t bell\u{7} unit\u{1f} é ∑";
        let mut out = String::new();
        let mut o = Obj::open(&mut out);
        o.int("zero", 0)
            .int("max", u64::MAX)
            .str("text", text)
            .bool("yes", true)
            .bool("no", false);
        Obj::open(o.key("args")).int("n", 1_234_567_890).close();
        o.close();
        let tree = obj(vec![
            ("zero", i(0)),
            ("max", i(u64::MAX)),
            ("text", Value::String(text.into())),
            ("yes", Value::Bool(true)),
            ("no", Value::Bool(false)),
            ("args", obj(vec![("n", i(1_234_567_890))])),
        ]);
        assert_eq!(out, serde_json::to_string(&tree).unwrap());
    }

    #[test]
    fn empty_report_is_a_valid_trace() {
        let json = ObsReport::default().chrome_trace();
        assert_eq!(json, r#"{"traceEvents":[],"displayTimeUnit":"ms"}"#);
    }
}
