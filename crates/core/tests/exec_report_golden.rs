//! Golden-file pin of the executor's observable report: one line per
//! governed run, holding the answer, `ExecReport::summary()`, the
//! verdict, the SA4xx degradations, the governor's ledger and the
//! recorded `FaultPlan`.
//!
//! Runs: every query of `tests/corpus/{fig2,fragments}.queries` in rows
//! mode, the existential closure of each in boolean mode, and the
//! copy-language query `concat::ww_query()` open (rows) and closed
//! (boolean) — the only bounded-search plans. Each runs under seven
//! conditions on a fresh cached engine: the seeded budget, a starved
//! budget, a deadline firing at checkpoint 1 and at checkpoint 2, an
//! injected cache-insert failure, an injected compile abort, and
//! injected ledger contention. To regenerate after an intentional
//! change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p strcalc-core --test exec_report_golden
//! ```

use std::sync::Arc;

use strcalc_alphabet::Alphabet;
use strcalc_core::cache::AutomatonCache;
use strcalc_core::concat::ww_query;
use strcalc_core::{
    Answer, AutomataEngine, Budget, Calculus, CoreError, EvalOutput, ExecCx, ExecReport, FaultPlan,
    Mode, Plan, Planner, Query,
};
use strcalc_logic::{parse_formula, Formula};
use strcalc_relational::Database;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/exec_reports.txt");
const CORPORA: [&str; 2] = ["fig2.queries", "fragments.queries"];

/// One query to pin: its calculus (`None` for a raw formula), head and
/// formula source.
struct Case {
    calculus: Option<Calculus>,
    head: Vec<String>,
    src: String,
}

fn corpus_cases() -> Vec<Case> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus");
    let mut cases = Vec::new();
    for file in CORPORA {
        let text = std::fs::read_to_string(format!("{dir}/{file}")).expect("corpus file");
        for line in text.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let parts: Vec<&str> = line.splitn(3, '|').collect();
            let [calc, head, src] = parts[..] else {
                panic!("corpus line `{line}` is not `CALC | head | formula`");
            };
            let calculus = match calc.trim() {
                "S" => Calculus::S,
                "S_left" => Calculus::SLeft,
                "S_reg" => Calculus::SReg,
                "S_len" => Calculus::SLen,
                other => panic!("unknown calculus `{other}`"),
            };
            cases.push(Case {
                calculus: Some(calculus),
                head: head.split_whitespace().map(str::to_string).collect(),
                src: src.trim().to_string(),
            });
        }
    }
    cases
}

/// The existential closure of a case: every head variable quantified.
fn closure(case: &Case) -> Case {
    let src = case
        .head
        .iter()
        .rev()
        .fold(case.src.clone(), |body, v| format!("exists {v}. ({body})"));
    Case {
        calculus: case.calculus,
        head: Vec::new(),
        src,
    }
}

/// The fig. 2 unary `U` instance plus the `R`/`T` fixtures the fragment
/// corpus mentions.
fn database(ab: &Alphabet) -> Database {
    let mut db = Database::new();
    db.insert_unary_parsed(ab, "U", &["", "a", "ab", "aab", "ba", "bab", "abab", "bba"])
        .expect("fresh relation");
    db.insert_unary_parsed(ab, "R", &["", "a", "ab", "ba", "bab", "abba"])
        .expect("fresh relation");
    for (l, r) in [("a", "ab"), ("a", "a"), ("ab", "abba"), ("ba", "b")] {
        db.insert(
            "T",
            vec![ab.parse(l).expect("ab"), ab.parse(r).expect("ab")],
        )
        .expect("arity 2");
    }
    db
}

/// Plans a case on `engine`: typed when the calculus admits it, through
/// the formula entry point for the concat fragment (as trace replay
/// does).
fn plan_case(engine: &AutomataEngine, ab: &Alphabet, case: &Case) -> Result<Plan, CoreError> {
    let planner = Planner::for_engine(engine);
    let formula_plan = |f: &Formula| planner.plan_formula(ab, &case.head, f);
    match case.calculus {
        Some(calc) => match Query::parse(calc, ab.clone(), case.head.clone(), &case.src) {
            Ok(q) => planner.plan(&q),
            Err(CoreError::FragmentViolation { .. }) => {
                formula_plan(&parse_formula(ab, &case.src).expect("corpus formula parses"))
            }
            Err(e) => Err(e),
        },
        None => formula_plan(&parse_formula(ab, &case.src).expect("formula parses")),
    }
}

fn conditions() -> Vec<(&'static str, Option<Budget>, FaultPlan)> {
    let starved = Budget {
        states: 1,
        bytes: 1,
        ..Budget::unlimited()
    };
    let fault = |f: fn(&mut FaultPlan)| {
        let mut plan = FaultPlan::none();
        f(&mut plan);
        plan
    };
    vec![
        ("seeded", None, FaultPlan::none()),
        ("starved", Some(starved), FaultPlan::none()),
        (
            "deadline@1",
            None,
            fault(|p| p.deadline_at_checkpoint = Some(1)),
        ),
        (
            "deadline@2",
            None,
            fault(|p| p.deadline_at_checkpoint = Some(2)),
        ),
        (
            "fail-cache-insert",
            None,
            fault(|p| p.fail_cache_insert = true),
        ),
        ("abort-compile", None, fault(|p| p.abort_compile = true)),
        (
            "ledger-contention",
            None,
            fault(|p| p.ledger_contention = true),
        ),
    ]
}

/// One governed run in the requested mode; the answer is rendered as
/// its tuple count (rows) or truth value (bool).
fn run(
    plan: &Plan,
    db: &Database,
    budget: &Budget,
    cx: &ExecCx,
    mode: Mode,
) -> Result<(String, ExecReport), CoreError> {
    let (answer, report) = plan.run(db, budget, cx, mode)?;
    let answer = match answer {
        Answer::Bool(value) => value.to_string(),
        Answer::Rows(EvalOutput::Finite(rel)) => format!("{} rows", rel.len()),
        Answer::Rows(EvalOutput::Infinite { sample }) => {
            format!("infinite, sample {}", sample.len())
        }
    };
    Ok((answer, report))
}

fn render_line(
    mode: Mode,
    cond: &str,
    label: &str,
    result: Result<(String, ExecReport), CoreError>,
) -> String {
    let body = match result {
        Err(e) => format!("error {e}"),
        Ok((answer, report)) => {
            let degradations: Vec<String> =
                report.degradations.iter().map(|d| d.render()).collect();
            let ledger: Vec<String> = report.ledger.entries.iter().map(|e| e.render()).collect();
            format!(
                "answer {answer} || summary {} || verdict {} || degradations [{}] || ledger [{}] || faults {:?}",
                report.summary(),
                report.verdict.render(),
                degradations.join(" | "),
                ledger.join(" | "),
                report.faults
            )
        }
    };
    let mode = match mode {
        Mode::Rows => "rows",
        Mode::Bool => "bool",
    };
    format!("{mode} {cond} {label} => {body}\n")
}

fn render_all() -> String {
    let ab = Alphabet::ab();
    let db = database(&ab);
    let mut runs: Vec<(Mode, Case)> = Vec::new();
    for case in corpus_cases() {
        let closed = closure(&case);
        runs.push((Mode::Rows, case));
        runs.push((Mode::Bool, closed));
    }
    let ww = ww_query();
    runs.push((
        Mode::Rows,
        Case {
            calculus: None,
            head: vec!["x".into()],
            src: ww.render(&ab),
        },
    ));
    runs.push((
        Mode::Bool,
        Case {
            calculus: None,
            head: Vec::new(),
            src: Formula::exists("x", ww).render(&ab),
        },
    ));
    let mut out = String::new();
    for (mode, case) in &runs {
        let label = format!("[{}] {}", case.head.join(" "), case.src);
        for (cond, budget, faults) in conditions() {
            let engine = AutomataEngine::new().with_cache(Arc::new(AutomatonCache::new()));
            let result = plan_case(&engine, &ab, case).and_then(|plan| {
                let budget = budget.unwrap_or_else(|| plan.seeded_budget());
                let cx = if faults.is_none() {
                    ExecCx::production()
                } else {
                    ExecCx::replay(faults)
                };
                run(&plan, &db, &budget, &cx, *mode)
            });
            out.push_str(&render_line(*mode, cond, &label, result));
        }
    }
    out
}

#[test]
fn exec_reports_match_golden() {
    let rendered = render_all();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("golden file missing; run with UPDATE_GOLDEN=1 to create it");
    for (i, (got, want)) in rendered.lines().zip(golden.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "exec report line {} drifted from {GOLDEN}",
            i + 1
        );
    }
    assert_eq!(
        rendered.lines().count(),
        golden.lines().count(),
        "exec report line count drifted from {GOLDEN}"
    );
}
