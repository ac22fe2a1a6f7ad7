//! Plan execution: the engines as node executors, governed by budgets.
//!
//! [`Plan::run`] is the one execution body. It dispatches on the plan's
//! root operator and strategy and hands the work to the matching
//! executor — the automata engine's artifact pipeline, the enumeration
//! interpreter, the bounded search, or a scan — and reports
//! post-execution actuals (states built, bytes held, cache hits, tuples
//! materialized) for `EXPLAIN`. A run produces either the answer
//! relation or a sentence's truth value ([`Mode`]); the two modes share
//! every step except the executor's leaf, which picks the evaluator
//! call and projects the answer. [`Plan::execute`] and
//! [`Plan::execute_bool`] are `run` under the planner-seeded budget and
//! the production context. Before executing, the plan is re-verified by
//! planlint (defense in depth: a plan mutated after `Planner::build` is
//! rejected here), and afterwards the actuals are cross-checked against
//! the plan's resource certificate — an actual exceeding its certified
//! bound is a calibration bug in the abstract domain and surfaces as an
//! `SA240` entry in [`ExecReport::cert_violations`].
//!
//! Execution is *resource-governed*: every run holds a [`Budget`]
//! capability (the planner-seeded one for [`Plan::execute`], or an
//! explicit one handed to [`Plan::run`]). A pre-execution governor
//! walks the plan tree handing each node an explicit sub-budget
//! ([`Budget::child_for`]) and checking the node's certified demand
//! against the budget it was *handed* — not against ambient caps. The
//! walk is recorded as a per-node [`BudgetLedger`]. On exhaustion the
//! run degrades structurally per [`DegradationPolicy`]:
//!
//! * exact automata → a bounded collapse-domain verdict (SA401), in
//!   the PR 2 `Validated`/`Refuted`/`Unknown` shape ([`ExecVerdict`]);
//! * dense batched tables → the sparse per-tuple DFA walk (SA402);
//! * a cold cache whose recompilation the budget denies → the same
//!   bounded fallback, surfaced as recompile-denied (SA403);
//! * a bounded search whose depth the capability clamps (SA404).
//!
//! Every degradation is an SA4xx event in the report — never silent —
//! and under `DegradationPolicy::Fail` the run is instead rejected
//! with `CoreError::BudgetExhausted`.
//!
//! Beyond the pre-execution governor, every run carries an [`ExecCx`]
//! (execution context) holding three robustness hooks:
//!
//! * a [`Clock`] behind a cooperative [`Deadline`], polled at coarse
//!   checkpoints inside every long-running loop — a finite
//!   `wall_time_ms` now terminates the run *in flight* (SA411 scan
//!   truncation, SA412 search clamp, SA413 compile abort) instead of
//!   being noticed post-hoc at settlement;
//! * an optional [`SharedLedger`] the run must reserve against before
//!   executing — over-subscription across concurrent runs surfaces as
//!   `CoreError::AdmissionDenied`, optionally after evicting cold cache
//!   entries to cover a byte shortfall (SA430);
//! * a [`FaultPlan`] of deterministic injection points (SA431),
//!   recorded into the report so traces replay injected runs —
//!   including real deadline fires, re-armed at their recorded
//!   checkpoint index — bit for bit.

use std::sync::Arc;

use strcalc_alphabet::{Str, Sym};
use strcalc_analyze::planlint::{fmt_bound, ResourceCert};
use strcalc_analyze::{Code, ScanPlan};
use strcalc_automata::DenseDfa;
use strcalc_relational::{Database, Relation};

use crate::budget::{
    Budget, BudgetAccount, BudgetLedger, CacheEvent, Degradation, DegradationPolicy, ExecVerdict,
    LedgerEntry, UNLIMITED,
};
use crate::cache::DenseArtifact;
use crate::clock::{Clock, Deadline, MonotonicClock, VirtualClock};
use crate::concat::ConcatEvaluator;
use crate::engine::AutomataEngine;
use crate::enumeval::{require_sentence, EnumEngine};
use crate::faults::FaultPlan;
use crate::ledger::{AdmissionShortfall, Reservation, ReserveRequest, SharedLedger};
use crate::query::{CoreError, EvalOutput, Query};

use super::ir::{Plan, PlanNode, PlanOp, PlanSource, Strategy};
use super::lint::PlanChecker;

/// Post-execution actuals, rendered into `EXPLAIN` output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecReport {
    pub strategy: Strategy,
    /// States of the compiled automaton (automata strategy; 0 otherwise).
    pub automaton_states: usize,
    /// Approximate bytes held by the compiled artifact (automata
    /// strategy; 0 otherwise). Same accounting as the cache budget.
    pub artifact_bytes: usize,
    /// Whether the compiled artifact was served by the shared cache.
    pub cache_hit: bool,
    /// Tuples the executor materialized (or sampled, for infinite
    /// outputs), in either mode: a boolean run that scans or enumerates
    /// counts its projected witness tuple, one that only reads a
    /// compiled sentence automaton counts none.
    pub tuples_enumerated: usize,
    /// Size of the finite quantifier domain (interpreter strategies; 0
    /// for automata).
    pub domain_size: usize,
    /// SA240 calibration warnings: actuals that exceeded the plan's
    /// resource certificate. Empty when the certificate held (always,
    /// unless the abstract domain is miscalibrated).
    pub cert_violations: Vec<String>,
    /// Trustworthiness of the answer under the handed budget: `Exact`
    /// when the run completed as planned, `Bounded`/`Unknown` when it
    /// degraded. A degraded run is never reported as exact.
    pub verdict: ExecVerdict,
    /// SA4xx structural degradation events, in order. Empty iff the
    /// handed budget covered the run (the no-silent-truncation
    /// invariant: reduced work ⇒ a recorded event).
    pub degradations: Vec<Degradation>,
    /// The governor's per-node ledger: what each node was handed, what
    /// its certificate demanded, whether the hand-down covered it.
    pub ledger: BudgetLedger,
    /// Cache interactions in execution order (the deterministic trace
    /// pins this sequence).
    pub cache_events: Vec<CacheEvent>,
    /// The fault plan this run is replayable under: the injected points
    /// it was armed with, plus — when a real clock fired the deadline —
    /// the checkpoint index of that fire, so replay re-arms the same
    /// event without a clock. `FaultPlan::none()` for an undisturbed
    /// run.
    pub faults: FaultPlan,
}

impl ExecReport {
    /// A clean (no-degradation) report skeleton for `strategy`.
    fn clean(strategy: Strategy) -> ExecReport {
        ExecReport {
            strategy,
            automaton_states: 0,
            artifact_bytes: 0,
            cache_hit: false,
            tuples_enumerated: 0,
            domain_size: 0,
            cert_violations: Vec::new(),
            verdict: ExecVerdict::Exact,
            degradations: Vec::new(),
            ledger: BudgetLedger::default(),
            cache_events: Vec::new(),
            faults: FaultPlan::none(),
        }
    }

    /// Stable one-line rendering for `EXPLAIN ... ANALYZE`-style output.
    pub fn summary(&self) -> String {
        let mut line = match self.strategy {
            Strategy::Automata => format!(
                "automaton states {}, bytes {}, cache {}, tuples enumerated {}",
                self.automaton_states,
                self.artifact_bytes,
                if self.cache_hit { "hit" } else { "miss" },
                self.tuples_enumerated
            ),
            Strategy::ActiveDomainEnum | Strategy::BoundedSearch => format!(
                "domain size {}, tuples enumerated {}",
                self.domain_size, self.tuples_enumerated
            ),
            Strategy::LikeLinearScan => format!(
                "rows scanned {}, tuples enumerated {}",
                self.domain_size, self.tuples_enumerated
            ),
            Strategy::DenseDfaScan => format!(
                "dense states {}, table bytes {}, cache {}, rows scanned {}, \
                 tuples enumerated {}",
                self.automaton_states,
                self.artifact_bytes,
                if self.cache_hit { "hit" } else { "miss" },
                self.domain_size,
                self.tuples_enumerated
            ),
        };
        for v in &self.cert_violations {
            line.push_str("; ");
            line.push_str(v);
        }
        for d in &self.degradations {
            line.push_str("; ");
            line.push_str(&d.render());
        }
        if !self.verdict.is_exact() {
            line.push_str("; verdict ");
            line.push_str(&self.verdict.render());
        }
        if !self.faults.is_none() {
            line.push_str("; faults ");
            line.push_str(&self.faults.summary());
        }
        line
    }
}

/// What a run answers: the query's answer relation, or a sentence's
/// truth value. The caller chooses; a sentence may run in either mode,
/// and the modes differ on truncation (a boolean `false` over part of
/// the work established nothing, so it reports `Unknown` where the
/// rows-mode subset reports `Bounded`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Rows,
    Bool,
}

impl Mode {
    /// The mode trace replay re-runs `plan` in: boolean for a sentence,
    /// rows otherwise. A run whose trace must replay records in it.
    pub fn of(plan: &Plan) -> Mode {
        if plan.is_boolean() {
            Mode::Bool
        } else {
            Mode::Rows
        }
    }
}

/// The answer of one [`Plan::run`], in the mode it was asked for.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    Rows(EvalOutput),
    Bool(bool),
}

impl Answer {
    /// Unwraps a rows-mode answer.
    ///
    /// # Panics
    ///
    /// Panics on a boolean answer.
    pub fn expect_rows(self) -> EvalOutput {
        match self {
            Answer::Rows(out) => out,
            Answer::Bool(_) => panic!("boolean answer where rows were expected"),
        }
    }

    /// Unwraps a boolean answer.
    ///
    /// # Panics
    ///
    /// Panics on a rows-mode answer.
    pub fn expect_bool(&self) -> bool {
        match self {
            Answer::Bool(value) => *value,
            Answer::Rows(_) => panic!("rows answer where a boolean was expected"),
        }
    }
}

/// The governor's view of one run: the per-node ledger from the
/// pre-execution walk, degradation events as they accrue, and the
/// cache probe that decides the recompile-denied path.
struct Governance {
    ledger: BudgetLedger,
    degradations: Vec<Degradation>,
    /// Any ledger entry whose handed budget did not cover its demand.
    exhausted: bool,
    /// Ledger path of the first exhausted node.
    first_exhausted: Option<String>,
    /// Whether the plan carries a `CacheLookup` node whose artifact is
    /// already resident (serving it costs no fresh capability).
    cache_resident: bool,
    /// Whether the plan carries a `CacheLookup` node at all.
    has_cache_lookup: bool,
    /// Cache events that happen *before* the executor runs (admission
    /// evictions); prepended to the executor's own events so the trace
    /// keeps execution order.
    cache_events: Vec<CacheEvent>,
}

impl Governance {
    fn exhausted_at(&self) -> String {
        self.first_exhausted
            .clone()
            .unwrap_or_else(|| "root".into())
    }
}

/// One governed run in flight: what every executor step reads (the
/// handed budget, the context, the deadline, the mode) and the
/// governance it appends to.
struct Run<'a> {
    budget: &'a Budget,
    cx: &'a ExecCx,
    deadline: Deadline,
    mode: Mode,
    gov: Governance,
}

/// The execution context a governed run carries alongside its
/// [`Budget`]: the clock its deadline reads, the shared admission
/// ledger it reserves against, and the deterministic fault plan it is
/// armed with. [`Plan::execute`] and [`Plan::execute_bool`] use
/// [`ExecCx::production`]; trace replay hands [`Plan::run`]
/// [`ExecCx::replay`] so recorded runs — including deadline fires and
/// injected faults — reproduce bit for bit.
#[derive(Clone)]
pub struct ExecCx {
    /// Deterministic injection points for this run.
    pub faults: FaultPlan,
    /// The clock backing the run's deadline. Production: a monotonic
    /// clock; replay: a frozen [`VirtualClock`] (only a recorded fire
    /// checkpoint can expire the deadline).
    pub clock: Arc<dyn Clock>,
    /// The cross-query admission pool, if this run is subject to one.
    pub ledger: Option<Arc<SharedLedger>>,
}

impl std::fmt::Debug for ExecCx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecCx")
            .field("faults", &self.faults)
            .field("ledger", &self.ledger.is_some())
            .finish()
    }
}

impl ExecCx {
    /// The production context: a real monotonic clock, no fault
    /// injection, no shared ledger.
    pub fn production() -> ExecCx {
        ExecCx {
            faults: FaultPlan::none(),
            clock: Arc::new(MonotonicClock::new()),
            ledger: None,
        }
    }

    /// The replay context for a recorded fault plan: a frozen virtual
    /// clock (wall time cannot fire anything; only the plan's recorded
    /// checkpoint can), and an unlimited ledger exactly when the plan
    /// injects ledger contention (so the SA431 admission path replays).
    pub fn replay(faults: FaultPlan) -> ExecCx {
        ExecCx {
            ledger: if faults.ledger_contention {
                Some(Arc::new(SharedLedger::unlimited()))
            } else {
                None
            },
            faults,
            clock: Arc::new(VirtualClock::frozen()),
        }
    }

    /// Arms this context with a fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> ExecCx {
        self.faults = faults;
        self
    }

    /// Attaches a shared admission ledger.
    pub fn with_ledger(mut self, ledger: Arc<SharedLedger>) -> ExecCx {
        self.ledger = Some(ledger);
        self
    }

    /// Substitutes the clock (tests drive a [`VirtualClock`]).
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> ExecCx {
        self.clock = clock;
        self
    }

    /// The deadline this run polls: an injected fire point wins over
    /// the clock (replay and chaos runs must be clock-independent);
    /// otherwise a finite `wall_time_ms` arms the context's clock, and
    /// an unlimited budget costs one relaxed atomic per checkpoint.
    fn deadline_for(&self, budget: &Budget) -> Deadline {
        if let Some(n) = self.faults.deadline_at_checkpoint {
            Deadline::firing_at_checkpoint(n)
        } else if budget.wall_time_ms != UNLIMITED {
            Deadline::with_clock(Arc::clone(&self.clock), budget.wall_time_ms)
        } else {
            Deadline::unlimited()
        }
    }

    /// The fault plan to record into the report: the armed plan, plus
    /// the deadline's fire checkpoint when it fired — this is how a
    /// *real* clock expiry becomes a deterministic, replayable event.
    fn recorded(&self, deadline: &Deadline) -> FaultPlan {
        let mut plan = self.faults;
        // The trace records what *happened*, not what was armed: an
        // injected fire point the run never reached is dropped (the
        // run was exact; replay needs no deadline), and a real-clock
        // fire becomes the checkpoint index replay re-arms.
        plan.deadline_at_checkpoint = deadline.fired_at();
        plan
    }
}

impl Plan {
    /// Executes the plan against `db` under the planner-seeded budget
    /// (see [`Plan::seeded_budget`]); seeded budgets admit their own
    /// certificate, so this is the exact, back-compat entry point.
    pub fn execute(
        &self,
        db: &strcalc_relational::Database,
    ) -> Result<(EvalOutput, ExecReport), CoreError> {
        let (answer, report) = self.run(db, &self.budget, &ExecCx::production(), Mode::Rows)?;
        Ok((answer.expect_rows(), report))
    }

    /// Boolean (sentence) execution under the planner-seeded budget.
    pub fn execute_bool(
        &self,
        db: &strcalc_relational::Database,
    ) -> Result<(bool, ExecReport), CoreError> {
        let (answer, report) = self.run(db, &self.budget, &ExecCx::production(), Mode::Bool)?;
        Ok((answer.expect_bool(), report))
    }

    /// Executes the plan under an explicit [`Budget`] capability and
    /// execution context, answering in `mode`. This is the
    /// full-governance entry point. The governor hands every plan node
    /// a sub-budget, records the [`BudgetLedger`], and on exhaustion
    /// degrades structurally per the budget's [`DegradationPolicy`]
    /// (or rejects the run under `Fail`); the context's clock backs
    /// the in-flight deadline, its ledger gates admission, and its
    /// fault plan arms deterministic injection points. Degraded answers
    /// carry a non-`Exact` [`ExecVerdict`] and SA4xx events — never a
    /// silently truncated result. A truncated boolean run that already
    /// found a witness reports `Bounded` (`true` over a prefix of the
    /// work is sound); one that found no witness reports `Unknown` —
    /// absence was not established.
    pub fn run(
        &self,
        db: &Database,
        budget: &Budget,
        cx: &ExecCx,
        mode: Mode,
    ) -> Result<(Answer, ExecReport), CoreError> {
        if mode == Mode::Bool {
            require_sentence(self.is_boolean())?;
        }
        self.lint_gate()?;
        let mut run = Run {
            budget,
            cx,
            deadline: cx.deadline_for(budget),
            mode,
            gov: self.govern(db, budget),
        };
        let _reservation = self.admit(&mut run)?;
        self.fail_gate(&run)?;
        let (answer, mut report) = match (&self.root.op, self.strategy) {
            (PlanOp::EnumerateFinite, Strategy::Automata) => {
                let q = self.typed_query()?;
                // Past the budget check, one checkpoint covers the whole
                // compile: product construction is not incrementally
                // interruptible, so the poll happens before committing
                // to it.
                if run.gov.exhausted {
                    self.degraded_bounded(q, db, &mut run)?
                } else if run.deadline.checkpoint() || cx.faults.abort_compile {
                    self.compile_aborted(q, db, &mut run)?
                } else {
                    self.run_automata(q, db, &mut run)?
                }
            }
            (PlanOp::EnumerateFinite, Strategy::ActiveDomainEnum) => {
                let q = self.typed_query()?;
                let engine = self.enum_engine();
                let domain_size = engine.domain(q, db).len();
                let (rel, seen, truncated) = engine.eval_deadlined(q, db, &run.deadline)?;
                let cut = truncated.then(|| {
                    let what = match mode {
                        Mode::Rows => {
                            format!("enumerated {seen} of {domain_size} frontier candidates")
                        }
                        Mode::Bool => "quantifier evaluation interrupted mid-frontier".to_string(),
                    };
                    (Code::DeadlineScanTruncated, what)
                });
                let report = ExecReport {
                    domain_size,
                    ..ExecReport::clean(self.strategy)
                };
                self.leaf(&mut run, rel, cut, report)?
            }
            (PlanOp::BoundedSearch { budget: bound }, Strategy::BoundedSearch) => {
                let (evaluator, verdict) = self.governed_search(*bound, &mut run);
                let (rel, explored, truncated) =
                    evaluator.eval_deadlined(self.formula(), self.head(), db, &run.deadline)?;
                let cut = truncated.then(|| {
                    (
                        Code::DeadlineSearchClamped,
                        format!("explored {explored} depth-0 assignments"),
                    )
                });
                let report = ExecReport {
                    domain_size: evaluator.domain_size(),
                    verdict,
                    ..ExecReport::clean(self.strategy)
                };
                self.leaf(&mut run, rel, cut, report)?
            }
            (PlanOp::LikeScan { plan }, Strategy::LikeLinearScan) => {
                self.sparse_scan(plan, db, &mut run)?
            }
            // The dense → sparse structural degradation: the dense
            // tables' certified bytes exceeded the handed budget, so
            // the scan falls back to the sparse per-tuple DFA walk.
            // Same answer (the sparse walk is exact), no dense tables
            // held — the verdict stays `Exact` but the degradation is
            // still SA402-recorded.
            (PlanOp::DenseScan { plan, .. }, Strategy::DenseDfaScan) if run.gov.exhausted => {
                run.gov.degradations.push(Degradation::new(
                    Code::DegradedDenseToSparse,
                    run.gov.exhausted_at(),
                    "dense tables exceed the handed byte budget; falling back to the sparse \
                     per-tuple DFA walk"
                        .to_string(),
                ));
                self.sparse_scan(plan, db, &mut run)?
            }
            (PlanOp::DenseScan { plan, .. }, Strategy::DenseDfaScan) => {
                let retain = self.dense_fault_gate(&mut run);
                let (rel, stats) = run_dense_scan(
                    plan,
                    db,
                    self.alphabet(),
                    &self.engine,
                    &run.deadline,
                    retain,
                )?;
                let cut = stats.truncated.then(|| {
                    (
                        Code::DeadlineScanTruncated,
                        format!("scanned {} rows", stats.rows_scanned),
                    )
                });
                let report = self.dense_report(stats);
                self.leaf(&mut run, rel, cut, report)?
            }
            (op, strategy) => {
                return Err(CoreError::Unsupported(format!(
                    "malformed plan: root {} under strategy {}",
                    op.name(),
                    strategy.name()
                )))
            }
        };
        self.settle(&mut run, &report);
        let mut events = std::mem::take(&mut run.gov.cache_events);
        events.append(&mut report.cache_events);
        report.cache_events = events;
        report.faults = cx.recorded(&run.deadline);
        report.degradations = run.gov.degradations;
        report.ledger = run.gov.ledger;
        Ok((answer, report))
    }

    /// The leaf step every relation-producing executor ends in. A
    /// deadline cut (`cut` names its SA41x code and work watermark)
    /// downgrades the verdict — `Bounded` when the partial answer is
    /// still sound in this mode, `Unknown` when a boolean run found no
    /// witness before the fire. The report counts the tuples the
    /// executor materialized, and the answer is the relation (rows) or
    /// its non-emptiness (bool).
    fn leaf(
        &self,
        run: &mut Run,
        rel: Relation,
        cut: Option<(Code, String)>,
        mut report: ExecReport,
    ) -> Result<(Answer, ExecReport), CoreError> {
        if let Some((code, what)) = cut {
            let sound = run.mode == Mode::Rows || !rel.is_empty();
            report.verdict = self.truncate(run, code, what, sound)?;
        }
        report.tuples_enumerated = rel.len();
        let answer = match run.mode {
            Mode::Rows => Answer::Rows(EvalOutput::Finite(rel)),
            Mode::Bool => Answer::Bool(!rel.is_empty()),
        };
        Ok((answer, report))
    }

    /// The exact automata executor: compiles (or serves from the
    /// cache) the query's automaton and reads the answer off it. A
    /// boolean run compiles the sentence automaton and reads its truth
    /// value; it materializes no tuples.
    fn run_automata(
        &self,
        q: &Query,
        db: &Database,
        run: &mut Run,
    ) -> Result<(Answer, ExecReport), CoreError> {
        let retain = !run.cx.faults.fail_cache_insert;
        if !retain && self.engine.cache.is_some() {
            run.gov.degradations.push(Degradation::new(
                Code::FaultInjected,
                "root",
                "injected cache-insert failure: the compiled artifact is not retained".to_string(),
            ));
        }
        let (artifact, fresh) = match run.mode {
            Mode::Rows => self.engine.compile_shared_with(q, db, retain)?,
            Mode::Bool => self.engine.compile_bool_shared_with(q, db, retain)?,
        };
        let (answer, tuples) = match run.mode {
            Mode::Rows => {
                let out = self.engine.eval_artifact(q, db, &artifact)?;
                let tuples = match &out {
                    EvalOutput::Finite(rel) => rel.len(),
                    EvalOutput::Infinite { sample } => sample.len(),
                };
                (Answer::Rows(out), tuples)
            }
            Mode::Bool => (Answer::Bool(artifact.auto.is_true()), 0),
        };
        let states = artifact.auto.num_states();
        let bytes = artifact.auto.approx_bytes();
        let mut report = ExecReport {
            automaton_states: states,
            artifact_bytes: bytes,
            cache_hit: !fresh,
            tuples_enumerated: tuples,
            cert_violations: self.calibrate(states, bytes),
            ..ExecReport::clean(self.strategy)
        };
        if self.engine.cache.is_some() {
            report
                .cache_events
                .push(CacheEvent::lookup("automaton", !fresh));
        }
        Ok((answer, report))
    }

    /// The sparse scan executor (the LIKE route, and the dense route's
    /// SA402 fallback).
    fn sparse_scan(
        &self,
        plan: &ScanPlan,
        db: &Database,
        run: &mut Run,
    ) -> Result<(Answer, ExecReport), CoreError> {
        let (rel, scanned, truncated) =
            run_scan(plan, db, self.alphabet().len() as Sym, &run.deadline)?;
        let cut = truncated.then(|| {
            (
                Code::DeadlineScanTruncated,
                format!("scanned {scanned} rows"),
            )
        });
        let report = ExecReport {
            domain_size: scanned,
            ..ExecReport::clean(self.strategy)
        };
        self.leaf(run, rel, cut, report)
    }

    /// The enumeration interpreter at this plan's slack and memoization
    /// settings.
    fn enum_engine(&self) -> EnumEngine {
        EnumEngine {
            slack: self.slack,
            memoize: self.memoize,
        }
    }

    /// The pre-execution governor: walks the plan tree handing each
    /// node an explicit sub-budget and checking its certified demand
    /// against the budget it was *handed* — this is where the ambient
    /// `Complement { cap }` / `BoundedSearch { budget }` limits are
    /// subsumed into one capability system. A `CacheLookup` subtree
    /// whose artifact is already resident demands nothing (serving a
    /// hit costs no fresh states or bytes); a cold one demands its
    /// full certificate, which is what the recompile-denied path (SA403)
    /// keys off.
    fn govern(&self, db: &Database, budget: &Budget) -> Governance {
        let mut has_cache_lookup = false;
        self.root.visit(&mut |n| {
            if matches!(n.op, PlanOp::CacheLookup { .. }) {
                has_cache_lookup = true;
            }
        });
        let cache_resident = has_cache_lookup
            && match (self.engine.cache(), self.typed_query()) {
                (Some(cache), Ok(q)) => cache.get(&self.engine.cache_key(q, db)).is_some(),
                _ => false,
            };
        let mut gov = Governance {
            ledger: BudgetLedger::default(),
            degradations: Vec::new(),
            exhausted: false,
            first_exhausted: None,
            cache_resident,
            has_cache_lookup,
            cache_events: Vec::new(),
        };
        govern_node(&self.root, budget, "root", cache_resident, false, &mut gov);
        gov
    }

    /// Cross-query admission: reserves the plan's peak certified demand
    /// (plus one run slot) against the context's [`SharedLedger`], if
    /// any. A shortfall is not immediately fatal — when the engine
    /// holds a cache, cold entries are evicted to cover missing bytes
    /// (SA430, with a typed cache event) and the reservation retried;
    /// only a shortfall that survives eviction denies the run. The
    /// returned guard holds the reservation until settlement (drop).
    fn admit(&self, run: &mut Run) -> Result<Option<Reservation>, CoreError> {
        let Some(ledger) = &run.cx.ledger else {
            return Ok(None);
        };
        let gov = &mut run.gov;
        let peak = subtree_peak(&self.root);
        let req = ReserveRequest {
            states: peak.states.hi,
            bytes: peak.bytes.hi,
        };
        let first = if run.cx.faults.ledger_contention {
            gov.degradations.push(Degradation::new(
                Code::FaultInjected,
                "root",
                "injected ledger contention: the first reservation attempt reports an \
                 artificial byte shortfall"
                    .to_string(),
            ));
            Err(AdmissionShortfall {
                bytes: req.bytes.max(1),
                ..AdmissionShortfall::default()
            })
        } else {
            ledger.try_reserve(req)
        };
        let short = match first {
            Ok(r) => return Ok(Some(r)),
            Err(short) => short,
        };
        if short.bytes > 0 {
            if let Some(cache) = self.engine.cache() {
                let (freed, dropped) = cache.evict_for_reservation(short.bytes as usize);
                if dropped > 0 {
                    gov.cache_events
                        .push(CacheEvent::reservation_eviction(format!(
                            "reservation-evict:{dropped}"
                        )));
                    gov.degradations.push(Degradation::new(
                        Code::AdmissionReservationEvicted,
                        "root",
                        format!(
                            "evicted {dropped} cold cache entries ({freed} bytes) to cover a \
                             reservation shortfall"
                        ),
                    ));
                    ledger.credit_bytes(freed as u64);
                }
            }
        }
        match ledger.try_reserve(req) {
            Ok(r) => Ok(Some(r)),
            Err(short) => Err(CoreError::AdmissionDenied {
                detail: format!(
                    "{short} for a request of {} states, {} bytes",
                    req.states, req.bytes
                ),
            }),
        }
    }

    /// The shared deadline-expiry response: records the SA41x event
    /// (checkpoint index and work-seen watermark — deterministic
    /// quantities, never elapsed time) and downgrades the verdict, or
    /// rejects the run outright under `DegradationPolicy::Fail`.
    /// `sound` says whether the partial answer is a sound bound
    /// (`Bounded`) or established nothing (`Unknown`).
    fn truncate(
        &self,
        run: &mut Run,
        code: Code,
        what: String,
        sound: bool,
    ) -> Result<ExecVerdict, CoreError> {
        let checkpoint = run.deadline.fired_at().unwrap_or(0);
        let detail = format!("deadline fired at checkpoint {checkpoint}: {what}");
        if run.budget.degradation_policy == DegradationPolicy::Fail {
            return Err(CoreError::DeadlineExpired { checkpoint, detail });
        }
        run.gov
            .degradations
            .push(Degradation::new(code, "root", detail.clone()));
        Ok(if sound {
            ExecVerdict::Bounded { reason: detail }
        } else {
            ExecVerdict::Unknown { reason: detail }
        })
    }

    /// The deadline-fired-before-compile (or injected-abort) response:
    /// automaton compilation is abandoned and the query is evaluated
    /// over the bounded collapse domain instead (SA413). The collapse
    /// evaluation runs under a fresh unlimited deadline, not the run's —
    /// the degradation *is* the response, and it must complete to
    /// report something sound rather than unwind into an empty answer
    /// (and it adds no checkpoints to the run's replayable count).
    fn compile_aborted(
        &self,
        q: &Query,
        db: &Database,
        run: &mut Run,
    ) -> Result<(Answer, ExecReport), CoreError> {
        let fired = run.deadline.fired_at();
        let checkpoint = fired.unwrap_or_else(|| run.deadline.checkpoints());
        if run.budget.degradation_policy == DegradationPolicy::Fail {
            return Err(CoreError::DeadlineExpired {
                checkpoint,
                detail: "automaton compilation abandoned before it started".to_string(),
            });
        }
        if run.cx.faults.abort_compile && fired.is_none() {
            run.gov.degradations.push(Degradation::new(
                Code::FaultInjected,
                "root",
                "injected compile abort".to_string(),
            ));
        }
        let engine = self.enum_engine();
        let domain_size = engine.domain(q, db).len();
        let rel = engine.eval(q, db)?;
        run.gov.degradations.push(Degradation::new(
            Code::DeadlineCompileAborted,
            "root",
            format!(
                "automaton compilation aborted at checkpoint {checkpoint}; evaluated over \
                 the bounded collapse domain ({domain_size} strings)"
            ),
        ));
        let report = ExecReport {
            domain_size,
            verdict: ExecVerdict::Bounded {
                reason: format!(
                    "compile aborted at checkpoint {checkpoint}: evaluated over the bounded \
                     collapse domain ({domain_size} strings)"
                ),
            },
            ..ExecReport::clean(self.strategy)
        };
        self.leaf(run, rel, None, report)
    }

    /// Whether the dense executor may retain freshly densified tables
    /// in the cache; `false` under an injected cache-insert failure
    /// (SA431-recorded).
    fn dense_fault_gate(&self, run: &mut Run) -> bool {
        if run.cx.faults.fail_cache_insert && self.engine.cache.is_some() {
            run.gov.degradations.push(Degradation::new(
                Code::FaultInjected,
                "root",
                "injected cache-insert failure: densified tables are not retained".to_string(),
            ));
            return false;
        }
        true
    }

    /// Rejects the run under the fail policy when the governor found
    /// an exhausted node.
    fn fail_gate(&self, run: &Run) -> Result<(), CoreError> {
        let gov = &run.gov;
        if gov.exhausted && run.budget.degradation_policy == DegradationPolicy::Fail {
            let node = gov.exhausted_at();
            let entry = gov.ledger.entries.iter().find(|e| !e.within);
            return Err(CoreError::BudgetExhausted {
                node,
                detail: entry.map(LedgerEntry::render).unwrap_or_default(),
            });
        }
        Ok(())
    }

    /// The exact → bounded structural degradation: the automata
    /// executor's certified demand exceeded its handed budget, so the
    /// query is evaluated over the bounded collapse domain instead and
    /// the answer carries a `Bounded` verdict (the PR 2 shape) — a
    /// sound statement about a bounded domain, never a silently
    /// truncated exact answer. Surfaced as SA403 when a shared cache
    /// could have served the run but the artifact was cold and the
    /// budget denies recompiling it, SA401 otherwise.
    fn degraded_bounded(
        &self,
        q: &Query,
        db: &Database,
        run: &mut Run,
    ) -> Result<(Answer, ExecReport), CoreError> {
        let gov = &mut run.gov;
        let node = gov.exhausted_at();
        let demand = self
            .root_cert
            .map(|c| fmt_bound(c.states.hi))
            .unwrap_or_else(|| "?".into());
        let handed = fmt_handed(run.budget.states);
        if gov.has_cache_lookup && self.engine.cache.is_some() && !gov.cache_resident {
            gov.degradations.push(Degradation::new(
                Code::DegradedRecompileDenied,
                node.clone(),
                format!(
                    "artifact not resident and recompilation (certified states ≤{demand}) \
                     exceeds the handed budget (states ≤{handed}); degrading to a bounded verdict"
                ),
            ));
            gov.degradations.push(Degradation::new(
                Code::DegradedExactToBounded,
                node,
                "exact automata evaluation degraded to the bounded collapse domain".to_string(),
            ));
        } else {
            gov.degradations.push(Degradation::new(
                Code::DegradedExactToBounded,
                node,
                format!(
                    "certified states ≤{demand} exceed the handed budget (states ≤{handed}); \
                     evaluating over the bounded collapse domain"
                ),
            ));
        }
        let engine = self.enum_engine();
        let domain_size = engine.domain(q, db).len();
        let (rel, seen, truncated) = engine.eval_deadlined(q, db, &run.deadline)?;
        // The bounded fallback can itself run out of time; the verdict
        // stays `Bounded` (a subset of a bounded answer is still a
        // sound bound) but the truncation is SA411-visible with its
        // frontier watermark.
        let cut = truncated.then(|| {
            (
                Code::DeadlineScanTruncated,
                format!("enumerated {seen} of {domain_size} frontier candidates"),
            )
        });
        let report = ExecReport {
            domain_size,
            ..ExecReport::clean(self.strategy)
        };
        let (answer, mut report) = self.leaf(run, rel, cut, report)?;
        report.verdict = ExecVerdict::Bounded {
            reason: format!(
                "budget-exhausted: evaluated over the bounded collapse domain \
                 ({domain_size} strings)"
            ),
        };
        Ok((answer, report))
    }

    /// The bounded-search executor under governance: runs at the
    /// *minimum* of the plan's declared bound and the handed
    /// `search_depth` capability (this subsumes the ambient
    /// `BoundedSearch { budget }` operand), recording SA404 when the
    /// capability clamps.
    fn governed_search(&self, bound: usize, run: &mut Run) -> (ConcatEvaluator, ExecVerdict) {
        let effective = bound.min(run.budget.search_depth);
        let verdict = if effective < bound {
            run.gov.degradations.push(Degradation::new(
                Code::DegradedSearchDepthClamped,
                "root",
                format!(
                    "search depth clamped {bound} → {effective} by the handed budget; \
                     assignments range over Σ^≤{effective}"
                ),
            ));
            ExecVerdict::Bounded {
                reason: format!("search depth clamped to {effective} by the handed budget"),
            }
        } else {
            ExecVerdict::Exact
        };
        (
            ConcatEvaluator::new(self.alphabet().clone(), effective),
            verdict,
        )
    }

    /// Post-execution settlement: charges the observed actuals to a
    /// [`BudgetAccount`] (fresh compilations only — a cache hit serves
    /// resident bytes the cache's own budget already accounts). Any
    /// overdraft is an SA400 event — the run completed, but the
    /// capability was overdrawn, and that is never silent. Wall time is
    /// *not* checked here: the in-flight [`Deadline`] already enforced
    /// it at checkpoints, deterministically, so settlement has nothing
    /// nondeterministic left to add.
    fn settle(&self, run: &mut Run, report: &ExecReport) {
        let mut acct = BudgetAccount::new(run.budget);
        let (states, bytes) = if report.cache_hit {
            (0, 0)
        } else {
            (report.automaton_states as u64, report.artifact_bytes as u64)
        };
        let ok = acct.charge_states(states) && acct.charge_bytes(bytes);
        if !ok {
            run.gov.degradations.push(Degradation::new(
                Code::BudgetExhausted,
                "root",
                format!(
                    "post-execution actuals ({states} states, {bytes} bytes) overdrew the \
                     handed budget ({})",
                    run.budget.summary()
                ),
            ));
        }
    }

    /// Re-verifies the plan before executing it. `Planner::build` only
    /// hands out verified plans, so this rejects plans mutated after
    /// planning (or forged without going through the planner).
    fn lint_gate(&self) -> Result<(), CoreError> {
        let report = PlanChecker::for_plan(self).check(&self.root);
        if report.has_errors() {
            return Err(CoreError::PlanRejected {
                stage: "execute".to_string(),
                diagnostics: report.rendered_errors(),
            });
        }
        Ok(())
    }

    /// Cross-checks executed actuals against the plan's resource
    /// certificate; each violated bound yields one SA240 line. The
    /// certificate is a sound upper bound, so any violation means the
    /// abstract domain (not the executor) is miscalibrated.
    fn calibrate(&self, states: usize, bytes: usize) -> Vec<String> {
        let mut violations = Vec::new();
        let Some(cert) = self.root_cert else {
            return violations;
        };
        if cert.is_zero() {
            return violations;
        }
        if states as u64 > cert.states.hi {
            violations.push(format!(
                "SA240: actual automaton states {} exceed the certified bound {}",
                states,
                fmt_bound(cert.states.hi)
            ));
        }
        if bytes as u64 > cert.bytes.hi {
            violations.push(format!(
                "SA240: actual artifact bytes {} exceed the certified bound {}",
                bytes,
                fmt_bound(cert.bytes.hi)
            ));
        }
        violations
    }

    /// `EXPLAIN` actuals for a dense scan. Dense tables report through
    /// the automaton channels — `automaton_states` is the widest table,
    /// `artifact_bytes` the sum of all tables held — so the SA240
    /// calibration cross-check runs against the dense certificate.
    fn dense_report(&self, stats: DenseScanStats) -> ExecReport {
        ExecReport {
            automaton_states: stats.states,
            artifact_bytes: stats.bytes,
            cache_hit: stats.used_cache && !stats.any_fresh,
            domain_size: stats.rows_scanned,
            cert_violations: self.calibrate(stats.states, stats.bytes),
            cache_events: stats.events,
            ..ExecReport::clean(self.strategy)
        }
    }

    fn typed_query(&self) -> Result<&crate::query::Query, CoreError> {
        match &self.source {
            PlanSource::Query(q) => Ok(q),
            PlanSource::Raw { .. } => Err(CoreError::Unsupported(
                "this strategy requires a typed query".into(),
            )),
        }
    }
}

/// `∞` for an unlimited dimension, `fmt_bound` otherwise.
fn fmt_handed(v: u64) -> String {
    if v == UNLIMITED {
        "∞".to_string()
    } else {
        fmt_bound(v)
    }
}

/// One step of the governor's walk: records the ledger entry for
/// `node` against the budget it was handed, then hands each child an
/// explicit sub-budget clamped to the child's own certificate.
/// `resident` marks a subtree served by a warm cache (demand zero).
fn govern_node(
    node: &PlanNode,
    handed: &Budget,
    path: &str,
    cache_resident: bool,
    resident: bool,
    gov: &mut Governance,
) {
    let resident = resident || (cache_resident && matches!(node.op, PlanOp::CacheLookup { .. }));
    let zero = ResourceCert::ZERO;
    let demand = if resident {
        &zero
    } else {
        node.cert.as_ref().unwrap_or(&zero)
    };
    let within = handed.admits(demand);
    gov.ledger.entries.push(LedgerEntry {
        node: path.to_string(),
        op: node.op.name().to_string(),
        handed_states: handed.states,
        handed_bytes: handed.bytes,
        demand_states: demand.states.hi,
        demand_bytes: demand.bytes.hi,
        within,
    });
    if !within {
        gov.exhausted = true;
        if gov.first_exhausted.is_none() {
            gov.first_exhausted = Some(path.to_string());
        }
    }
    for (i, c) in node.children.iter().enumerate() {
        // The hand-down clamps to the child's *subtree peak*, not the
        // child's own certificate: certificates are not monotone down
        // the tree (a product can peak above the minimized root), and
        // a child must be handed enough capability for its deepest
        // intermediate, never more than the parent holds.
        let child_budget = handed.child_for(&subtree_peak(c));
        let child_path = format!("{path}/{i}");
        govern_node(c, &child_budget, &child_path, cache_resident, resident, gov);
    }
}

/// The peak certified demand anywhere in `node`'s subtree (interval
/// upper bounds only — this is what a capability must cover to let the
/// subtree run). Exposed to the planner for budget seeding.
pub(crate) fn subtree_peak(node: &PlanNode) -> ResourceCert {
    let mut peak = ResourceCert::ZERO;
    node.visit(&mut |n| {
        if let Some(c) = &n.cert {
            peak.states.hi = peak.states.hi.max(c.states.hi);
            peak.bytes.hi = peak.bytes.hi.max(c.bytes.hi);
        }
    });
    peak
}

/// The linear-scan executor: one pass over the stored relation, LIKE
/// matchers and column equalities applied tuple-by-tuple, head columns
/// projected. No automaton is constructed anywhere on this path.
/// Returns the output relation, the number of rows scanned (the
/// `EXPLAIN` actuals report it as `domain_size` — and, on truncation,
/// the rows-seen watermark), and whether the deadline cut the scan
/// short. The deadline is polled once per [`DENSE_BATCH`] rows, not
/// per row, to stay inside the checkpoint-overhead gate.
fn run_scan(
    plan: &ScanPlan,
    db: &Database,
    k: Sym,
    deadline: &Deadline,
) -> Result<(Relation, usize, bool), CoreError> {
    let rel = scan_relation(plan, db)?;
    // General filters on this route walk the language's sparse DFA per
    // tuple (the planner routes them to the dense executor; this
    // fallback keeps the linear entry total for hand-built plans, is
    // the baseline the throughput bench measures against, and is the
    // dense executor's SA402 degradation target).
    let sparse: Vec<_> = plan
        .dense_filters
        .iter()
        .map(|(col, lang, _)| (*col, lang.to_dfa(k)))
        .collect();
    let mut out = Relation::new(plan.projection.len());
    let mut scanned = 0usize;
    let mut truncated = false;
    'tuple: for t in rel.iter() {
        if scanned.is_multiple_of(DENSE_BATCH) && deadline.checkpoint() {
            truncated = true;
            break 'tuple;
        }
        scanned += 1;
        if !passes_row_filters(plan, t, k) {
            continue 'tuple;
        }
        for (col, dfa) in &sparse {
            if !dfa.accepts(&t[*col]) {
                continue 'tuple;
            }
        }
        out.insert(plan.projection.iter().map(|&c| t[c].clone()).collect());
    }
    Ok((out, scanned, truncated))
}

/// Validates the scan plan's relation against the database.
fn scan_relation<'a>(plan: &ScanPlan, db: &'a Database) -> Result<&'a Relation, CoreError> {
    let rel = db.relation(&plan.relation).ok_or_else(|| {
        CoreError::Unsupported(format!(
            "scan plan names a relation `{}` the database does not hold",
            plan.relation
        ))
    })?;
    if rel.arity() != plan.arity {
        return Err(CoreError::Unsupported(format!(
            "scan plan expects `{}` with arity {}, database holds arity {}",
            plan.relation,
            plan.arity,
            rel.arity()
        )));
    }
    Ok(rel)
}

/// The per-tuple filters shared by both scan executors: column
/// equalities, the in-alphabet guard, and the linear LIKE matchers.
///
/// The alphabet guard mirrors the automaton route's convention for
/// stored strings containing symbols outside `Σ`: the relation trie is
/// intersected with language atoms whose automata (and whose
/// cylindrification fresh-letter range) only cover `0..k`, so any tuple
/// with an out-of-`Σ` symbol in *any* column denotes `∅` there. The
/// scans must agree, not silently match raw bytes.
fn passes_row_filters(plan: &ScanPlan, t: &[Str], k: Sym) -> bool {
    for &(i, j) in &plan.eq_cols {
        if t[i] != t[j] {
            return false;
        }
    }
    for s in t {
        if s.syms().iter().any(|&b| b >= k) {
            return false;
        }
    }
    for (col, matcher, _) in &plan.filters {
        if !matcher.matches(t[*col].syms()) {
            return false;
        }
    }
    true
}

/// Actuals from one dense-scan execution.
struct DenseScanStats {
    rows_scanned: usize,
    /// Widest dense table (states), for the SA240 state channel.
    states: usize,
    /// Total bytes of all dense tables held.
    bytes: usize,
    /// Whether any table was densified on this call (a cache miss, or
    /// no cache attached).
    any_fresh: bool,
    /// Whether a shared cache served the tables.
    used_cache: bool,
    /// Per-table cache events, in filter order.
    events: Vec<CacheEvent>,
    /// Whether the deadline cut the batch loop short; `rows_scanned` is
    /// then the watermark of rows actually processed.
    truncated: bool,
}

/// Rows per dense batch: small enough that the gather buffer and mask
/// stay cache-resident, large enough to amortize the per-batch setup.
const DENSE_BATCH: usize = 4096;

/// The batched dense-scan executor.
///
/// Pass 1 runs the cheap tuple-at-a-time filters (equalities, alphabet
/// guard, linear matchers) into a batch mask; pass 2 streams each
/// batch's column through the byte-class-compressed dense tables with
/// [`DenseDfa::match_mask`] — one table dispatch per batch per filter,
/// not per row. Tables are served from the engine's shared cache when
/// one is attached (keyed by language and alphabet only, so they
/// survive instance changes).
fn run_dense_scan(
    plan: &ScanPlan,
    db: &Database,
    alphabet: &strcalc_alphabet::Alphabet,
    engine: &AutomataEngine,
    deadline: &Deadline,
    retain: bool,
) -> Result<(Relation, DenseScanStats), CoreError> {
    let k = alphabet.len() as Sym;
    let rel = scan_relation(plan, db)?;
    let mut stats = DenseScanStats {
        rows_scanned: 0,
        states: 0,
        bytes: 0,
        any_fresh: false,
        used_cache: engine.cache.is_some(),
        events: Vec::new(),
        truncated: false,
    };
    let mut tables: Vec<(usize, Arc<DenseArtifact>)> = Vec::with_capacity(plan.dense_filters.len());
    for (col, lang, _) in &plan.dense_filters {
        let densify = || {
            Ok::<_, CoreError>(DenseArtifact::from_dense(DenseDfa::compile(
                &lang.to_dfa(k),
            )))
        };
        let (artifact, fresh) = match engine.cache() {
            // An injected cache-insert failure (`retain == false`)
            // still probes the cache — a resident table serves — but a
            // fresh densification is not written back.
            Some(cache) if retain => {
                cache.get_or_insert_dense_with(engine.dense_cache_key(lang, alphabet), densify)?
            }
            Some(cache) => match cache.get_dense(&engine.dense_cache_key(lang, alphabet)) {
                Some(hit) => (hit, false),
                None => (Arc::new(densify()?), true),
            },
            None => (Arc::new(densify()?), true),
        };
        stats.states = stats.states.max(artifact.dfa.num_states() as usize);
        stats.bytes += artifact.bytes;
        stats.any_fresh |= fresh;
        if stats.used_cache {
            stats
                .events
                .push(CacheEvent::lookup(format!("dense:{col}"), !fresh));
        }
        tables.push((*col, artifact));
    }

    let tuples: Vec<&Vec<Str>> = rel.iter().collect();
    let mut out = Relation::new(plan.projection.len());
    let mut mask = [false; DENSE_BATCH];
    let mut col_buf: Vec<&Str> = Vec::with_capacity(DENSE_BATCH);
    for batch in tuples.chunks(DENSE_BATCH) {
        // One deadline poll per batch, *before* committing to it: a
        // fire terminates the scan at a batch boundary with the
        // rows-seen watermark intact, not at settlement.
        if deadline.checkpoint() {
            stats.truncated = true;
            break;
        }
        stats.rows_scanned += batch.len();
        let live = &mut mask[..batch.len()];
        for (m, t) in live.iter_mut().zip(batch) {
            *m = passes_row_filters(plan, t, k);
        }
        for (col, artifact) in &tables {
            col_buf.clear();
            col_buf.extend(batch.iter().map(|t| &t[*col]));
            artifact.dfa.match_mask(&col_buf, live);
        }
        for (m, t) in live.iter().zip(batch) {
            if *m {
                out.insert(plan.projection.iter().map(|&c| t[c].clone()).collect());
            }
        }
    }
    Ok((out, stats))
}
