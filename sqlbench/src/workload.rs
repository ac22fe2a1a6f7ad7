//! The three workloads: set-up, the seeded operation stream, one call
//! path per operation, and the answer check against the reference
//! evaluator.

use std::collections::HashMap;
use std::sync::Arc;

use strcalc_alphabet::Alphabet;
use strcalc_analyze::Analyzer;
use strcalc_core::plan::PlanChecker;
use strcalc_core::{
    AutomataEngine, AutomatonCache, CacheStatsSnapshot, EvalOutput, ExecReport, Plan, Planner,
    Query,
};
use strcalc_relational::{Database, Relation};
use strcalc_sqlfront::{compile_select, parse_select, Catalog, CompiledSql};

use crate::reference::{self as r, Digest, Tables};
use crate::rng::Rng;
use crate::statements::{Prepared, ScanStmt, ALTERNATING_SLOT, INTERVAL, SCAN_SLOTS};
use crate::trace::Tracer;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    AdhocSmall,
    ScanLarge,
    PreparedRw,
}

/// Reads per write interval in `prepared_rw`, plus the write itself.
const INTERVAL_OPS: u64 = INTERVAL.len() as u64 + 1;
/// Write intervals per `prepared_rw` episode; each episode restarts
/// from a loaded table, so the table size stays in a fixed range no
/// matter how many operations a run completes.
const EPISODE_INTERVALS: u64 = 20;
pub const EPISODE_OPS: u64 = INTERVAL_OPS * EPISODE_INTERVALS;
/// Loaded tables of `prepared_rw`. Successive episodes start from each
/// in turn, so that a run's figures average over several seeded
/// 300-row tables instead of hanging on the luck of one.
const BASES: u64 = 4;
/// Cache budget of `prepared_rw`: about three episodes' worth of
/// artifacts, so stale instance-keyed entries fill it early in a run
/// and are evicted from then on, and memory stops growing with the
/// number of operations a run completes.
const CACHE_BYTES: usize = 1 << 20;

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::AdhocSmall, Kind::ScanLarge, Kind::PreparedRw];

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::AdhocSmall => "adhoc_small",
            Kind::ScanLarge => "scan_large",
            Kind::PreparedRw => "prepared_rw",
        }
    }

    /// Rows of `faculty` at load.
    fn faculty_rows(self) -> usize {
        match self {
            Kind::AdhocSmall => 60,
            Kind::ScanLarge => 100_000,
            Kind::PreparedRw => 300,
        }
    }

    /// Longest `faculty.name`, in symbols.
    fn name_max(self) -> usize {
        match self {
            Kind::ScanLarge => 24,
            _ => 8,
        }
    }

    /// Set-ups per untraced run; the run reports their median.
    pub fn setup_reps(self) -> usize {
        match self {
            Kind::AdhocSmall => 101,
            Kind::ScanLarge => 15,
            Kind::PreparedRw => 31,
        }
    }

    /// Operations in one cycle of the stream: the statement rotation,
    /// or one write interval. Every cycle has the same mix.
    pub fn cycle_ops(self) -> u64 {
        match self {
            Kind::PreparedRw => INTERVAL_OPS,
            _ => SCAN_SLOTS as u64,
        }
    }

    /// Operations in one pass of the stream. Passes repeat until the run
    /// ends: `adhoc_small` and `scan_large` cycle through a fixed list of
    /// generated statements, `prepared_rw` through its episodes. Every
    /// position of a pass is the same work in every pass, so the
    /// end-to-end run can time each one many times. A statement pass is
    /// a multiple of eight rotations, so that every SIMILAR pattern of
    /// the fixed set is in it equally often whatever the seed.
    pub fn pass_ops(self) -> u64 {
        let rotations = r::SIMILAR.len() as u64 * SCAN_SLOTS as u64;
        match self {
            Kind::AdhocSmall => 3 * rotations,
            Kind::ScanLarge => rotations,
            Kind::PreparedRw => EPISODE_OPS * BASES,
        }
    }

    /// Whether operation `i` of a traced run is traced: every other
    /// operation, with the phase flipped each cycle so that every
    /// statement slot is traced as often as not.
    pub fn traces_op(self, i: u64) -> bool {
        let cycle = self.cycle_ops();
        (i % cycle + i / cycle).is_multiple_of(2)
    }

    /// Operations in a traced run of `seconds` seconds. A fixed count,
    /// not a time limit, so that counts repeat exactly for a seed.
    pub fn trace_ops(self, seconds: u64) -> u64 {
        let per_10s = match self {
            Kind::AdhocSmall => 2000,
            Kind::ScanLarge => 200,
            Kind::PreparedRw => 10 * EPISODE_OPS,
        };
        (per_10s * seconds / 10).max(2)
    }
}

/// Alphabet, catalog and the symbol→text map used to read answers.
pub struct Env {
    alphabet: Alphabet,
    catalog: Catalog,
    glyphs: Vec<u8>,
}

impl Env {
    pub fn new() -> Env {
        let alphabet = Alphabet::ab();
        let mut catalog = Catalog::new();
        catalog.add_table("faculty", &["name", "dept"]);
        catalog.add_table("dept", &["head"]);
        let glyphs = alphabet
            .syms()
            .map(|s| alphabet.char_of(s).expect("own symbol") as u8)
            .collect();
        Env {
            alphabet,
            catalog,
            glyphs,
        }
    }

    /// The digest of the program's answer, with each tuple keyed as the
    /// reference evaluator keys it.
    fn digest(&self, rel: &Relation) -> Digest {
        let (mut d, mut key) = (Digest::default(), Vec::new());
        for t in rel.iter() {
            key.clear();
            for (i, s) in t.iter().enumerate() {
                if i > 0 {
                    key.push(b'|');
                }
                key.extend(s.syms().iter().map(|&c| self.glyphs[c as usize]));
            }
            d.add(&key);
        }
        d
    }

    fn load(&self, t: &Tables) -> Database {
        let mut db = Database::new();
        for (name, dept) in &t.faculty {
            db.insert("faculty", vec![self.parse(name), self.parse(dept)])
                .expect("faculty has arity 2");
        }
        for head in &t.dept {
            db.insert("dept", vec![self.parse(head)])
                .expect("dept has arity 1");
        }
        db
    }

    fn parse(&self, s: &str) -> strcalc_alphabet::Str {
        self.alphabet.parse(s).expect("generated over the alphabet")
    }
}

/// Table set `table` of a seed; only `prepared_rw` uses more than one.
fn generate(kind: Kind, seed: u64, table: u64) -> Tables {
    let mut rng = Rng::new(seed, 1 + 16 * table);
    let faculty = (0..kind.faculty_rows())
        .map(|_| (rng.word_between(1, kind.name_max()), rng.word_between(1, 4)))
        .collect();
    // Eight distinct four-symbol heads: half of all four-symbol words,
    // so the PREFIX and IN subqueries keep their selectivity across
    // seeds.
    let mut dept: Vec<String> = Vec::new();
    while dept.len() < 8 {
        let head = rng.word(4);
        if !dept.contains(&head) {
            dept.push(head);
        }
    }
    Tables { faculty, dept }
}

/// One operation of the stream.
pub enum Op {
    /// Ad-hoc statement `i` of the pass, run through `run_sql`'s path.
    Adhoc(usize),
    /// A read of prepared statement `i`.
    Read(usize),
    /// An insert into `faculty`.
    Write(String, String),
}

struct PreparedPlan {
    stmt: Prepared,
    compiled: CompiledSql,
    plan: Plan,
}

/// What a read returned.
pub struct ReadResult {
    pub out: EvalOutput,
    pub report: ExecReport,
    compiled: Option<CompiledSql>,
    plan: Option<Plan>,
}

/// The benchmark's optional tracer for one request.
pub struct Tr<'a> {
    pub tracer: &'a mut Tracer,
    pub req: u64,
    pub root: usize,
}

fn step<T>(tr: &mut Option<Tr<'_>>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tr {
        Some(t) => t.tracer.time(t.req, name, Some(t.root), f),
        None => f(),
    }
}

/// A workload's state: the loaded database, the benchmark's mirror of
/// its rows, and the position in the operation stream.
pub struct Run {
    kind: Kind,
    env: Arc<Env>,
    tables: Tables,
    db: Database,
    next: u64,
    stmt_rng: Rng,
    write_rng: Rng,
    similar_offset: usize,
    /// The statements of an `adhoc_small` or `scan_large` pass,
    /// generated during the first pass.
    adhoc: Vec<ScanStmt>,
    bases: Vec<(Tables, Database)>,
    prepared: Vec<PreparedPlan>,
    cache: Option<Arc<AutomatonCache>>,
    /// Digests of the reference answers for the current database
    /// version, by statement index; cleared by every write.
    memo: HashMap<usize, Digest>,
    /// Self-test hook: corrupt the next checked answer.
    pub corrupt_next: bool,
}

impl Run {
    /// Data generation and load; for `prepared_rw` also compiling,
    /// planning and one warm-up evaluation of every prepared statement.
    /// With a tracer, the prepared statements' compile path is traced.
    pub fn setup(kind: Kind, seed: u64, env: &Arc<Env>, mut tracer: Option<&mut Tracer>) -> Run {
        let tables = generate(kind, seed, 0);
        let db = env.load(&tables);
        let mut run = Run {
            kind,
            env: Arc::clone(env),
            tables,
            db,
            next: 0,
            stmt_rng: Rng::new(seed, 2),
            write_rng: Rng::new(seed, 3),
            similar_offset: Rng::new(seed, 4).below(r::SIMILAR.len()),
            adhoc: Vec::new(),
            bases: Vec::new(),
            prepared: Vec::new(),
            cache: None,
            memo: HashMap::new(),
            corrupt_next: false,
        };
        if kind == Kind::PreparedRw {
            let cache = Arc::new(AutomatonCache::with_budget(CACHE_BYTES));
            let planner =
                Planner::for_engine(&AutomataEngine::new().with_cache(Arc::clone(&cache)));
            for stmt in Prepared::all(&mut Rng::new(seed, 5)) {
                let sql = stmt.sql();
                let mut tr = tracer.as_deref_mut().map(|tracer| {
                    let req = tracer.next_req();
                    let root = tracer.open(req, "request", None);
                    Tr { tracer, req, root }
                });
                let parsed = step(&mut tr, "sqlfront.parse", || {
                    parse_select(&env.alphabet, &sql)
                });
                let parsed = parsed.unwrap_or_else(|e| panic!("{sql}: {e}"));
                let compiled = step(&mut tr, "sqlfront.compile", || {
                    compile_select(&env.alphabet, &env.catalog, &parsed)
                })
                .unwrap_or_else(|e| panic!("{sql}: {e}"));
                let plan = step(&mut tr, "plan.plan", || compiled.plan(&planner))
                    .unwrap_or_else(|e| panic!("{sql}: {e}"));
                let warm = execute(&plan, &run.db, &mut tr);
                if let Some(t) = tr {
                    t.tracer.close(t.root);
                }
                warm.unwrap_or_else(|e| panic!("{sql}: {e}"));
                run.prepared.push(PreparedPlan {
                    stmt,
                    compiled,
                    plan,
                });
            }
            run.bases.push((run.tables.clone(), run.db.clone()));
            for table in 1..BASES {
                let tables = generate(kind, seed, table);
                let db = env.load(&tables);
                run.bases.push((tables, db));
            }
            run.cache = Some(cache);
        }
        run
    }

    /// `(hits, misses, evictions, bytes)` of the attached cache; zeros
    /// when the workload runs without one.
    pub fn cache_stats(&self) -> [u64; 4] {
        self.cache.as_ref().map_or([0; 4], |c| {
            let s: CacheStatsSnapshot = c.stats();
            [s.hits, s.misses, s.evictions, s.bytes as u64]
        })
    }

    /// The next operation of the stream. Between `prepared_rw`
    /// episodes this also restores a loaded table, outside any timed
    /// span.
    pub fn next_op(&mut self) -> Op {
        let i = self.next;
        self.next += 1;
        match self.kind {
            Kind::AdhocSmall | Kind::ScanLarge => {
                let pos = (i % self.kind.pass_ops()) as usize;
                if pos == self.adhoc.len() {
                    let (slot, rotation) = (pos % SCAN_SLOTS, pos / SCAN_SLOTS);
                    let similar = (self.similar_offset + rotation) % r::SIMILAR.len();
                    let stmt = ScanStmt::generate(&mut self.stmt_rng, slot, similar);
                    self.adhoc.push(stmt);
                }
                Op::Adhoc(pos)
            }
            Kind::PreparedRw => {
                let pos = i % EPISODE_OPS;
                if pos == 0 {
                    let (tables, db) = &self.bases[(i / EPISODE_OPS % BASES) as usize];
                    self.tables = tables.clone();
                    self.db = db.clone();
                    self.memo.clear();
                }
                let (interval, k) = (pos / INTERVAL_OPS, (pos % INTERVAL_OPS) as usize);
                if k == 0 {
                    return self.new_row();
                }
                let slot = k - 1;
                if slot == ALTERNATING_SLOT {
                    Op::Read(4 + (interval % 2) as usize)
                } else {
                    Op::Read(INTERVAL[slot])
                }
            }
        }
    }

    /// A seeded row not yet in `faculty`, so every write changes the
    /// table's fingerprint.
    fn new_row(&mut self) -> Op {
        loop {
            let row = (
                self.write_rng.word_between(1, 8),
                self.write_rng.word_between(1, 4),
            );
            if !self.tables.faculty.contains(&row) {
                return Op::Write(row.0, row.1);
            }
        }
    }

    /// Runs a read through its call path.
    pub fn read(&self, op: &Op, tr: &mut Option<Tr<'_>>) -> Result<ReadResult, String> {
        match op {
            Op::Adhoc(i) => {
                // `run_sql`'s path, keeping the plan and the report.
                let sql = self.adhoc[*i].sql();
                let env = &self.env;
                let parsed = step(tr, "sqlfront.parse", || parse_select(&env.alphabet, &sql))
                    .map_err(|e| e.to_string())?;
                let compiled = step(tr, "sqlfront.compile", || {
                    compile_select(&env.alphabet, &env.catalog, &parsed)
                })
                .map_err(|e| e.to_string())?;
                let plan = step(tr, "plan.plan", || compiled.plan(&Planner::new()))
                    .map_err(|e| e.to_string())?;
                let (out, report) = execute(&plan, &self.db, tr)?;
                Ok(ReadResult {
                    out,
                    report,
                    compiled: Some(compiled),
                    plan: Some(plan),
                })
            }
            Op::Read(i) => {
                let (out, report) = execute(&self.prepared[*i].plan, &self.db, tr)?;
                Ok(ReadResult {
                    out,
                    report,
                    compiled: None,
                    plan: None,
                })
            }
            Op::Write(..) => unreachable!("writes go through Run::write"),
        }
    }

    pub fn write(&mut self, name: &str, dept: &str, tr: &mut Option<Tr<'_>>) -> Result<(), String> {
        let row = vec![self.env.parse(name), self.env.parse(dept)];
        let db = &mut self.db;
        step(tr, "relational.insert", || db.insert("faculty", row)).map_err(|e| e.to_string())
    }

    /// After a write: mirror it in the reference rows.
    pub fn mirror_write(&mut self, name: String, dept: String) {
        self.tables.faculty.push((name, dept));
        self.memo.clear();
    }

    /// The sub-layer calls of a traced read, re-invoked outside its
    /// request span: inference and analysis on the lowered formula,
    /// plan verification, and the database fingerprint.
    pub fn reinvoke(&self, op: &Op, res: &ReadResult, tracer: &mut Tracer, req: u64) {
        let (compiled, plan) = match op {
            Op::Read(i) => (&self.prepared[*i].compiled, &self.prepared[*i].plan),
            _ => (
                res.compiled
                    .as_ref()
                    .expect("ad-hoc reads keep their compile"),
                res.plan.as_ref().expect("ad-hoc reads keep their plan"),
            ),
        };
        let q = &compiled.query;
        let alphabet = &self.env.alphabet;
        let inferred = tracer.time(req, "core.infer", None, || {
            Query::infer(alphabet.clone(), q.head.clone(), q.formula.clone())
        });
        std::hint::black_box(inferred.is_ok());
        let analysis = tracer.time(req, "analyze.analyze", None, || {
            Analyzer::new(q.calculus.structure_class())
                .monoid_cap(1_000_000)
                .analyze(alphabet, &q.formula)
        });
        std::hint::black_box(analysis.has_errors());
        let lint = tracer.time(req, "plan.verify", None, || {
            PlanChecker::for_plan(plan).check(&plan.root)
        });
        std::hint::black_box(lint);
        let fp = tracer.time(req, "relational.fingerprint", None, || {
            self.db.fingerprint()
        });
        std::hint::black_box(fp);
    }

    /// Checks a read against the reference evaluator; the error says
    /// why the operation failed.
    pub fn check(&mut self, op: &Op, res: &Result<ReadResult, String>) -> Result<(), String> {
        let res = res.as_ref().map_err(|e| format!("error: {e}"))?;
        if !res.report.verdict.is_exact() || !res.report.degradations.is_empty() {
            return Err(format!(
                "not exact: {} {:?}",
                res.report.verdict.render(),
                res.report.degradations
            ));
        }
        let EvalOutput::Finite(rel) = &res.out else {
            return Err("infinite answer".to_string());
        };
        let mut got = self.env.digest(rel);
        if std::mem::take(&mut self.corrupt_next) {
            // One extra tuple, which no answer over {a, b} can hold.
            got.add(b"corrupted");
        }
        let (tables, adhoc, prepared) = (&self.tables, &self.adhoc, &self.prepared);
        let expected = match op {
            Op::Adhoc(i) => self
                .memo
                .entry(*i)
                .or_insert_with(|| r::digest(&adhoc[*i].reference(tables))),
            Op::Read(i) => self
                .memo
                .entry(*i)
                .or_insert_with(|| r::digest(&prepared[*i].stmt.reference(tables))),
            Op::Write(..) => unreachable!("writes have no answer"),
        };
        if *expected == got {
            Ok(())
        } else {
            Err(format!(
                "wrong answer: {} rows, reference has {}",
                got.rows, expected.rows
            ))
        }
    }

    /// SQL text of a read, for failure reports.
    pub fn sql_of(&self, op: &Op) -> String {
        match op {
            Op::Adhoc(i) => self.adhoc[*i].sql(),
            Op::Read(i) => self.prepared[*i].stmt.sql(),
            Op::Write(n, d) => format!("INSERT faculty ('{n}', '{d}')"),
        }
    }

    /// Rows of the table the scans read.
    pub fn faculty_rows(&self) -> usize {
        self.db.relation("faculty").map_or(0, Relation::len)
    }
}

/// `Plan::execute`, as one `exec.execute` span tagged with the executed
/// strategy and the cache outcome.
fn execute(
    plan: &Plan,
    db: &Database,
    tr: &mut Option<Tr<'_>>,
) -> Result<(EvalOutput, ExecReport), String> {
    let res = match tr {
        Some(t) => {
            let span = t.tracer.open(t.req, "exec.execute", Some(t.root));
            let res = plan.execute(db);
            let s = t.tracer.close(span);
            if let Ok((_, report)) = &res {
                s.strategy = Some(report.strategy.name());
                s.cache_hit = Some(report.cache_hit);
            }
            res
        }
        None => plan.execute(db),
    };
    res.map_err(|e| e.to_string())
}
