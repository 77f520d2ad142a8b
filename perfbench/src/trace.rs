//! An in-memory span recorder: name, start, end, parent and request id
//! per span, written out as JSON lines when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span under `parent`; returns its result and
    /// the span's id.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: usize,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let request = self.spans[parent].request;
        let id = self.begin(name, Some(parent), request);
        let out = f();
        self.end(id);
        (out, id)
    }

    /// Runs `f` `reps` times, each inside its own span under `parent`;
    /// returns the last result and the shortest duration in
    /// microseconds (the warm cost, free of one-off cache misses).
    pub fn span_min<R>(
        &mut self,
        name: &'static str,
        parent: usize,
        reps: usize,
        mut f: impl FnMut() -> R,
    ) -> (R, f64) {
        let mut best = f64::INFINITY;
        let mut out = None;
        for _ in 0..reps.max(1) {
            let (r, id) = self.span(name, parent, &mut f);
            best = best.min(self.us(id));
            out = Some(r);
        }
        (out.expect("at least one repetition"), best)
    }

    /// A span's duration in microseconds.
    pub fn us(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        (s.end_ns - s.start_ns) as f64 / 1e3
    }

    /// Every span's self time in microseconds: its duration minus the
    /// part of it that its children cover.
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(parent, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = parent.start_ns;
                for (start, end) in kids {
                    let start = start.max(reach);
                    let end = end.min(parent.end_ns);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                (parent.end_ns - parent.start_ns - covered) as f64 / 1e3
            })
            .collect()
    }

    /// Writes every span, with its self time, as one JSON object per
    /// line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for ((id, s), self_us) in self.spans.iter().enumerate().zip(self.self_times_us()) {
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"request\": {}, \"self_us\": {self_us}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request,
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let rec = Recorder {
            origin: Instant::now(),
            spans: vec![
                Span {
                    name: "root",
                    start_ns: 0,
                    end_ns: 100,
                    parent: None,
                    request: 1,
                },
                Span {
                    name: "a",
                    start_ns: 10,
                    end_ns: 30,
                    parent: Some(0),
                    request: 1,
                },
                Span {
                    name: "b",
                    start_ns: 20,
                    end_ns: 50,
                    parent: Some(0),
                    request: 1,
                },
                Span {
                    name: "c",
                    start_ns: 60,
                    end_ns: 70,
                    parent: Some(0),
                    request: 1,
                },
            ],
        };
        let self_us = rec.self_times_us();
        assert_eq!(self_us[0], 0.05);
        assert_eq!(self_us[3], 0.01);
    }
}
