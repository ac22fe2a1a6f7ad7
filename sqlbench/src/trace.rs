//! In-memory span recording for the traced run. Spans are timed from
//! the benchmark's side of each call into a layer's public function;
//! spans of one statement share a request id. They stay in memory and
//! are written out once, when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub req: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Execution strategy, on `exec.execute` spans.
    pub strategy: Option<&'static str>,
    /// Whether the cache served the artifact, on `exec.execute` spans.
    pub cache_hit: Option<bool>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    requests: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            requests: 0,
        }
    }

    /// A fresh request id.
    pub fn next_req(&mut self) -> u64 {
        self.requests += 1;
        self.requests
    }

    /// Request ids handed out so far.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, req: u64, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            req,
            name,
            parent,
            start_ns,
            end_ns: start_ns,
            strategy: None,
            cache_hit: None,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) -> &mut Span {
        let end_ns = self.now();
        let s = &mut self.spans[span];
        s.end_ns = end_ns;
        s
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        req: u64,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(req, name, parent);
        let out = f();
        self.close(span);
        out
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let own = self.self_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<String>| v.unwrap_or_else(|| "null".to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"req\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\
                 \"dur_ns\":{},\"self_ns\":{},\"strategy\":{},\"cache_hit\":{}}}",
                s.req,
                s.name,
                opt(s.parent.map(|p| p.to_string())),
                s.start_ns,
                s.dur_ns(),
                own[i],
                opt(s.strategy.map(|n| format!("\"{n}\""))),
                opt(s.cache_hit.map(|h| h.to_string())),
            )?;
        }
        out.flush()
    }
}

/// Linear-interpolated quantile of `v` (sorted in place); 0 when empty.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}
