//! Spans recorded by the harness around its calls into each layer.
//!
//! The program itself carries no spans yet (scoped counters inside the
//! crates are a later issue), so every span here starts and ends in this
//! crate: `gen_input`, `setup_probe`, each `run[..]`, `verify`, and each
//! ladder rung. They are kept in memory and written out once, at exit.

use std::time::Instant;

use crate::json::Json;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_s: f64,
    pub end_s: f64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
}

/// All spans of one workload's run share the workload name as identifier.
pub struct Recorder {
    origin: Instant,
    pub id: String,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(id: &str) -> Recorder {
        Recorder {
            origin: Instant::now(),
            id: id.to_string(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`, nested under whichever span is
    /// open; returns `f`'s result and the span's duration in seconds.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> R) -> (R, f64) {
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_s: self.origin.elapsed().as_secs_f64(),
            end_s: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        let end = self.origin.elapsed().as_secs_f64();
        self.spans[idx].end_s = end;
        (r, end - self.spans[idx].start_s)
    }

    /// A span's self time: its duration minus what its children cover.
    pub fn self_time(&self, idx: usize) -> f64 {
        let s = &self.spans[idx];
        let children: f64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(idx))
            .map(|c| c.end_s - c.start_s)
            .sum();
        (s.end_s - s.start_s) - children
    }

    pub fn to_json(&self) -> Json {
        let spans: Vec<Json> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut o = Json::obj();
                o.set("name", s.name.as_str())
                    .set("start_s", s.start_s)
                    .set("end_s", s.end_s)
                    .set("self_s", self.self_time(i))
                    .set("parent", s.parent.map_or(Json::Null, Json::from));
                o
            })
            .collect();
        let mut o = Json::obj();
        o.set("id", self.id.as_str()).set("spans", Json::Arr(spans));
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_self_time() {
        let mut r = Recorder::new("w");
        r.span("outer", |r| {
            r.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        assert_eq!(r.spans.len(), 2);
        assert_eq!(r.spans[1].parent, Some(0));
        assert_eq!(r.spans[0].parent, None);
        let outer = r.spans[0].end_s - r.spans[0].start_s;
        assert!(r.self_time(0) <= outer - 0.005 + 1e-9);
        assert!(r.self_time(1) >= 0.005);
    }
}
