//! Differential tests for the range-restriction and fragment passes.
//!
//! The analyzer computes each subformula's restricted-variable set once
//! per (node, context) and reads each language's DFA facts from one
//! table per analysis. Two checks guard that against the direct
//! definition:
//!
//! * **Oracle.** [`oracle`] is the per-node definition, kept here as a
//!   test-only reference: the range-restriction rules with the nested
//!   `∧` fixpoint evaluated from scratch at every conjunction, and the
//!   fragment pass's safe-range flag re-derived at every node by calling
//!   it on the node's subtree. On generated formulas the analyzer must
//!   give the same [`SafeRangeInfo`], the same per-node safe-range flags
//!   (paths included), and the same `SA010`/`SA011` findings.
//! * **Golden.** The full rendered analysis of the same corpus —
//!   diagnostics (codes, severities, paths, messages, notes, order),
//!   fragment tables, evaluation classes and admission reports — is
//!   pinned byte for byte in `tests/golden/analysis_corpus.txt`, as one
//!   FNV-1a hash of each formula's rendering (the renderings run to
//!   ~3 KB per formula; a drifted one is printed in full). To
//!   regenerate after an intentional change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p strcalc-analyze --test analysis_differential
//! ```

use std::collections::{BTreeSet, HashMap};

use strcalc_alphabet::{Alphabet, Sym};
use strcalc_analyze::{admission, Analysis, Analyzer, Code, FormulaPath, PathSeg, SafeRangeInfo};
use strcalc_automata::dfa::Finiteness;
use strcalc_automata::Regex;
use strcalc_logic::{Atom, Formula, Lang, Restrict, StructureClass, Term};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/analysis_corpus.txt"
);

/// Number of generated formulas (on top of the fixed SQL-shaped ones).
const GENERATED: usize = 90;

// ---------------------------------------------------------------------
// Corpus
// ---------------------------------------------------------------------

/// A small deterministic generator (xorshift64*), so the corpus and the
/// golden file never depend on a proptest seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Languages drawn repeatedly, so one formula mentions the same language
/// at several atoms: finite (`ab|ba`), star-free (`ab.*`, `.*ab.*`,
/// `a.*b.*a`) and not star-free (`(ab)*`, `(aa)*`).
const PATTERNS: [&str; 6] = ["ab.*", "(ab)*", "ab|ba", ".*ab.*", "(aa)*", "a.*b.*a"];

const VARS: [&str; 4] = ["x", "y", "z", "w"];

fn ab() -> Alphabet {
    Alphabet::ab()
}

fn lang(i: usize) -> Lang {
    let src = PATTERNS[i % PATTERNS.len()];
    match Regex::parse(&ab(), src) {
        Ok(re) => Lang::named(src, re),
        Err(e) => panic!("{src}: {e}"),
    }
}

fn var(rng: &mut Rng) -> Term {
    Term::var(VARS[rng.below(VARS.len())])
}

fn term(rng: &mut Rng) -> Term {
    match rng.below(8) {
        0 => var(rng).append(rng.below(2) as Sym),
        1 => var(rng).prepend(rng.below(2) as Sym),
        2 => var(rng).trim_leading(0),
        _ => var(rng),
    }
}

fn atom(rng: &mut Rng) -> Formula {
    match rng.below(16) {
        0 | 1 => Formula::rel("R", vec![term(rng)]),
        2 => Formula::rel("S", vec![var(rng), var(rng)]),
        3 => Formula::prefix(term(rng), term(rng)),
        4 => Formula::eq(var(rng), term(rng)),
        5 => Formula::eq_len(var(rng), var(rng)),
        6 => Formula::last_sym(var(rng), rng.below(2) as Sym),
        7 => Formula::lex_leq(var(rng), var(rng)),
        8 => Formula::cover(var(rng), var(rng)),
        9..=11 => Formula::in_lang(var(rng), lang(rng.below(PATTERNS.len()))),
        12 => Formula::p_l(var(rng), var(rng), lang(rng.below(PATTERNS.len()))),
        13 => Formula::concat_eq(var(rng), var(rng), var(rng)),
        14 => Formula::shorter_eq(var(rng), var(rng)),
        _ => {
            if rng.below(2) == 0 {
                Formula::True
            } else {
                Formula::False
            }
        }
    }
}

/// A conjunction chain of `n` conjuncts, left- or right-nested.
fn chain(rng: &mut Rng, n: usize, depth: usize) -> Formula {
    let parts: Vec<Formula> = (0..n).map(|_| formula(rng, depth)).collect();
    let left = rng.below(2) == 0;
    let mut it = parts.into_iter();
    let first = it.next().unwrap_or(Formula::True);
    if left {
        it.fold(first, Formula::and)
    } else {
        let rest: Vec<Formula> = it.collect();
        let mut acc = None;
        for f in rest.into_iter().rev() {
            acc = Some(match acc {
                None => f,
                Some(a) => f.and(a),
            });
        }
        match acc {
            None => first,
            Some(a) => first.and(a),
        }
    }
}

fn restrict(rng: &mut Rng) -> Restrict {
    match rng.below(3) {
        0 => Restrict::Active,
        1 => Restrict::PrefixDom,
        _ => Restrict::LengthDom,
    }
}

fn formula(rng: &mut Rng, depth: usize) -> Formula {
    if depth == 0 || rng.below(3) == 0 {
        return atom(rng);
    }
    let v = VARS[rng.below(VARS.len())];
    match rng.below(11) {
        0 | 1 => chain(rng, 2, depth - 1),
        2 => formula(rng, depth - 1).or(formula(rng, depth - 1)),
        3 => formula(rng, depth - 1).not(),
        4 => formula(rng, depth - 1).implies(formula(rng, depth - 1)),
        5 => formula(rng, depth - 1).iff(formula(rng, depth - 1)),
        6 | 7 => Formula::exists(v, formula(rng, depth - 1)),
        8 => Formula::exists_r(restrict(rng), v, formula(rng, depth - 1)),
        9 => Formula::forall(v, formula(rng, depth - 1)),
        _ => Formula::forall_r(restrict(rng), v, formula(rng, depth - 1)),
    }
}

/// Wraps `f` in zero to two existentials, restricted or not.
fn quantifier_prefix(rng: &mut Rng, mut f: Formula) -> Formula {
    for _ in 0..rng.below(3) {
        let v = VARS[rng.below(VARS.len())];
        f = match rng.below(3) {
            0 => Formula::exists_r(Restrict::Active, v, f),
            1 => Formula::exists_r(restrict(rng), v, f),
            _ => Formula::exists(v, f),
        };
    }
    f
}

/// One generated formula: half are a conjunction chain of four to six
/// conjuncts under a quantifier prefix (the shape SQL lowers to), a
/// quarter conjoin a disjunction with a negation, and the rest are
/// free-form mixes of `∨`, `¬`, `→`, `↔` and all quantifier kinds.
fn generated(rng: &mut Rng) -> Formula {
    match rng.below(4) {
        0 => formula(rng, 3),
        1 => {
            let f = formula(rng, 1)
                .or(formula(rng, 1))
                .and(formula(rng, 1).not())
                .and(atom(rng))
                .and(atom(rng));
            quantifier_prefix(rng, f)
        }
        _ => {
            let n = 4 + rng.below(3);
            let f = chain(rng, n, 1);
            quantifier_prefix(rng, f)
        }
    }
}

/// The formulas `compile_select` produces for LIKE/SIMILAR lookups: an
/// ∃-prefix over a relation atom, language filters (one language
/// repeated) and head aliases.
fn sql_shaped() -> Vec<Formula> {
    let head = |i: usize, v: &str| Formula::eq(Term::var(format!("col{i}")), Term::var(v));
    let rel = || Formula::rel("faculty", vec![Term::var("n"), Term::var("d")]);
    let close = |f: Formula| Formula::exists("n", Formula::exists("d", f));
    vec![
        close(
            rel()
                .and(Formula::in_lang(Term::var("n"), lang(0)))
                .and(head(0, "n")),
        ),
        close(
            rel()
                .and(Formula::in_lang(Term::var("n"), lang(0)))
                .and(Formula::in_lang(Term::var("d"), lang(3)))
                .and(head(0, "n"))
                .and(head(1, "d")),
        ),
        close(
            rel()
                .and(Formula::in_lang(Term::var("n"), lang(5)))
                .and(Formula::in_lang(Term::var("d"), lang(5)))
                .and(Formula::in_lang(Term::var("n"), lang(1)))
                .and(head(0, "n"))
                .and(head(1, "d")),
        ),
        close(
            rel()
                .and(Formula::exists_r(
                    Restrict::Active,
                    "h",
                    Formula::rel("dept", vec![Term::var("h")])
                        .and(Formula::prefix(Term::var("h"), Term::var("n"))),
                ))
                .and(Formula::in_lang(Term::var("n"), lang(2)).not())
                .and(head(0, "n")),
        ),
    ]
}

/// Formulas for the primitives the generator never draws: `fa`, `ins`
/// and `shorter`, and `prepend`/`trim` nested inside `append`, where
/// SA001 names the first responsible term function.
fn pinned() -> Vec<Formula> {
    let (x, y, p) = (|| Term::var("x"), || Term::var("y"), || Term::var("p"));
    vec![
        Formula::exists(
            "y",
            Formula::rel("R", vec![y()]).and(Formula::prepends(x(), y(), 0)),
        ),
        Formula::rel("R", vec![x()])
            .and(Formula::rel("R", vec![y()]))
            .and(Formula::exists(
                "p",
                Formula::insert_after(x(), p(), y(), 1),
            )),
        Formula::rel("R", vec![x()])
            .and(Formula::shorter(y(), x()))
            .and(Formula::in_lang(y(), lang(1))),
        Formula::rel("R", vec![x()])
            .and(Formula::eq(y(), x().prepend(0).append(1)))
            .and(Formula::prefix(
                x().trim_leading(0).append(0).append(1),
                y(),
            ))
            .and(Formula::rel(
                "R",
                vec![x().trim_leading(1).append(0).prepend(1)],
            )),
        Formula::prepends(x(), y(), 1).and(Formula::in_lang(x(), lang(4))),
    ]
}

/// `(formula, declared calculus, monoid cap)` triples. A small cap on
/// some entries leaves star-freeness undecided (SA003/SA304), so the
/// cap-keyed verdicts are exercised too.
fn corpus() -> Vec<(Formula, StructureClass, usize)> {
    let mut out: Vec<(Formula, StructureClass, usize)> = sql_shaped()
        .into_iter()
        .map(|f| (f, StructureClass::SReg, 1_000_000))
        .collect();
    let mut rng = Rng(0x5eed_cafe_f00d_0001);
    for i in 0..GENERATED {
        let declared = if i % 2 == 0 {
            StructureClass::S
        } else {
            StructureClass::SLen
        };
        let cap = if i % 5 == 4 { 2 } else { 1_000_000 };
        out.push((generated(&mut rng), declared, cap));
    }
    for f in pinned() {
        for declared in [
            StructureClass::S,
            StructureClass::SLeft,
            StructureClass::SReg,
        ] {
            for cap in [1_000_000, 2] {
                out.push((f.clone(), declared, cap));
            }
        }
    }
    out
}

fn analyze(f: &Formula, declared: StructureClass, cap: usize) -> Analysis {
    Analyzer::new(declared).monoid_cap(cap).analyze(&ab(), f)
}

// ---------------------------------------------------------------------
// Oracle: the per-node definition
// ---------------------------------------------------------------------

mod oracle {
    use super::*;

    /// A restricted-variable set; `All` is the top element.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Rst {
        All,
        Set(BTreeSet<String>),
    }

    impl Rst {
        fn empty() -> Rst {
            Rst::Set(BTreeSet::new())
        }

        pub fn contains(&self, v: &str) -> bool {
            match self {
                Rst::All => true,
                Rst::Set(s) => s.contains(v),
            }
        }

        fn insert(&mut self, v: String) {
            if let Rst::Set(s) = self {
                s.insert(v);
            }
        }

        fn union(self, other: Rst) -> Rst {
            match (self, other) {
                (Rst::All, _) | (_, Rst::All) => Rst::All,
                (Rst::Set(mut a), Rst::Set(b)) => {
                    a.extend(b);
                    Rst::Set(a)
                }
            }
        }

        fn intersect(self, other: Rst) -> Rst {
            match (self, other) {
                (Rst::All, r) | (r, Rst::All) => r,
                (Rst::Set(a), Rst::Set(b)) => Rst::Set(a.intersection(&b).cloned().collect()),
            }
        }

        fn remove(mut self, v: &str) -> Rst {
            if let Rst::Set(s) = &mut self {
                s.remove(v);
            }
            self
        }
    }

    /// `(code, path, message)` of an `SA010`/`SA011` finding.
    pub type Found = (Code, String, String);

    pub struct Oracle {
        k: Sym,
        /// Language finiteness by regex: the oracle re-walks subtrees
        /// exponentially often, so it memoizes the one expensive leaf.
        finite: HashMap<Regex, bool>,
    }

    impl Oracle {
        pub fn new(k: Sym) -> Oracle {
            Oracle {
                k,
                finite: HashMap::new(),
            }
        }

        fn lang_finite(&mut self, l: &Lang) -> bool {
            let k = self.k;
            *self.finite.entry(l.regex.clone()).or_insert_with(|| {
                matches!(
                    l.to_dfa(k).finiteness(),
                    Finiteness::Empty | Finiteness::Finite(_)
                )
            })
        }

        fn rpre(t: &Term, out: &mut Rst) {
            match t {
                Term::Var(v) => out.insert(v.clone()),
                Term::Const(_) | Term::TrimLeading(..) => {}
                Term::Append(inner, _) | Term::Prepend(_, inner) => Oracle::rpre(inner, out),
            }
        }

        fn rpre_of(t: &Term) -> Rst {
            let mut out = Rst::empty();
            Oracle::rpre(t, &mut out);
            out
        }

        fn term_finite(t: &Term, ctx: &Rst) -> bool {
            let mut vars = BTreeSet::new();
            t.free_vars_into(&mut vars);
            vars.iter().all(|v| ctx.contains(v))
        }

        fn rr_atom(&mut self, a: &Atom, ctx: &Rst) -> Rst {
            let mut out = Rst::empty();
            let flow = |src: &Term, dst: &Term, out: &mut Rst| {
                if Oracle::term_finite(src, ctx) {
                    *out = std::mem::replace(out, Rst::empty()).union(Oracle::rpre_of(dst));
                }
            };
            match a {
                Atom::Rel(_, ts) => {
                    for t in ts {
                        out = out.union(Oracle::rpre_of(t));
                    }
                }
                Atom::Eq(x, y)
                | Atom::Cover(x, y)
                | Atom::Prepends(x, y, _)
                | Atom::EqLen(x, y) => {
                    flow(x, y, &mut out);
                    flow(y, x, &mut out);
                }
                Atom::Prefix(x, y)
                | Atom::StrictPrefix(x, y)
                | Atom::ShorterEq(x, y)
                | Atom::Shorter(x, y) => flow(y, x, &mut out),
                Atom::PL(x, y, l) => {
                    flow(y, x, &mut out);
                    if self.lang_finite(l) {
                        flow(x, y, &mut out);
                    }
                }
                Atom::InLang(t, l) => {
                    if self.lang_finite(l) {
                        out = out.union(Oracle::rpre_of(t));
                    }
                }
                Atom::ConcatEq(x, y, z) => {
                    if Oracle::term_finite(z, ctx) {
                        out = out.union(Oracle::rpre_of(x)).union(Oracle::rpre_of(y));
                    }
                    if Oracle::term_finite(x, ctx) && Oracle::term_finite(y, ctx) {
                        out = out.union(Oracle::rpre_of(z));
                    }
                }
                Atom::InsertAfter(x, p, y, _) => {
                    if Oracle::term_finite(x, ctx) {
                        out = out.union(Oracle::rpre_of(y)).union(Oracle::rpre_of(p));
                    }
                    if Oracle::term_finite(y, ctx) {
                        out = out.union(Oracle::rpre_of(x)).union(Oracle::rpre_of(p));
                    }
                }
                Atom::LastSym(..) | Atom::FirstSym(..) | Atom::LexLeq(..) => {}
            }
            out
        }

        /// The restricted set of `f` under `ctx`, by the rules verbatim:
        /// every `∧` runs its own fixpoint from the empty set, calling
        /// itself on both conjuncts each round.
        pub fn rr(
            &mut self,
            f: &Formula,
            ctx: &Rst,
            path: &FormulaPath,
            out: &mut Vec<Found>,
        ) -> Rst {
            match f {
                Formula::True => Rst::empty(),
                Formula::False => Rst::All,
                Formula::Atom(a) => self.rr_atom(a, ctx),
                Formula::And(a, b) => {
                    let mut acc = Rst::empty();
                    loop {
                        let ctx2 = ctx.clone().union(acc.clone());
                        let next = acc
                            .clone()
                            .union(self.rr(a, &ctx2, path, &mut Vec::new()))
                            .union(self.rr(b, &ctx2, path, &mut Vec::new()));
                        if next == acc {
                            break;
                        }
                        acc = next;
                    }
                    let ctx2 = ctx.clone().union(acc.clone());
                    self.rr(a, &ctx2, &path.child(PathSeg::AndLhs), out);
                    self.rr(b, &ctx2, &path.child(PathSeg::AndRhs), out);
                    acc
                }
                Formula::Or(a, b) => {
                    let ra = self.rr(a, ctx, &path.child(PathSeg::OrLhs), out);
                    let rb = self.rr(b, ctx, &path.child(PathSeg::OrRhs), out);
                    ra.intersect(rb)
                }
                Formula::Not(g) => {
                    self.rr(g, &Rst::empty(), &path.child(PathSeg::NotArg), out);
                    Rst::empty()
                }
                Formula::Implies(a, b) => {
                    self.rr(a, &Rst::empty(), &path.child(PathSeg::ImpliesLhs), out);
                    self.rr(b, &Rst::empty(), &path.child(PathSeg::ImpliesRhs), out);
                    Rst::empty()
                }
                Formula::Iff(a, b) => {
                    self.rr(a, &Rst::empty(), &path.child(PathSeg::IffLhs), out);
                    self.rr(b, &Rst::empty(), &path.child(PathSeg::IffRhs), out);
                    Rst::empty()
                }
                Formula::Exists(v, g) => {
                    let body = path.child(PathSeg::QuantBody(v.clone()));
                    let inner = self.rr(g, &ctx.clone().remove(v), &body, out);
                    if !inner.contains(v) {
                        out.push((
                            Code::QuantifierNotRangeRestricted,
                            path.to_string(),
                            format!(
                                "existentially quantified variable {v} is not \
                                 range-restricted in its scope: evaluation must search \
                                 an unbounded domain"
                            ),
                        ));
                    }
                    inner.remove(v)
                }
                Formula::Forall(v, g) | Formula::ForallR(_, v, g) => {
                    let body = path.child(PathSeg::QuantBody(v.clone()));
                    self.rr(g, &Rst::empty(), &body, out);
                    Rst::empty()
                }
                Formula::ExistsR(r, v, g) => {
                    let mut inner_ctx = ctx.clone().remove(v);
                    if *r == Restrict::Active {
                        inner_ctx.insert(v.clone());
                    }
                    let body = path.child(PathSeg::QuantBody(v.clone()));
                    self.rr(g, &inner_ctx, &body, out).remove(v)
                }
            }
        }

        /// The range-restriction pass: restricted/unrestricted free
        /// variables plus every `SA010`/`SA011` finding.
        pub fn safe_range(&mut self, f: &Formula) -> (SafeRangeInfo, Vec<Found>) {
            let mut found = Vec::new();
            let restricted = self.rr(f, &Rst::empty(), &FormulaPath::root(), &mut found);
            let mut info = SafeRangeInfo {
                restricted: BTreeSet::new(),
                unrestricted_free: Vec::new(),
            };
            for v in f.free_vars() {
                if restricted.contains(&v) {
                    info.restricted.insert(v);
                } else {
                    found.push((
                        Code::FreeVarNotRangeRestricted,
                        FormulaPath::root().to_string(),
                        format!(
                            "free variable {v} is not range-restricted: the output may be \
                             infinite on some database"
                        ),
                    ));
                    info.unrestricted_free.push(v);
                }
            }
            (info, found)
        }

        /// The fragment pass's per-node safe-range flags in postorder,
        /// each sampled by a fresh `rr` over the node's subtree.
        pub fn flags(&mut self, f: &Formula) -> Vec<(String, bool)> {
            let mut out = Vec::new();
            self.walk(f, &Rst::empty(), &FormulaPath::root(), &mut out);
            out
        }

        fn restricted_in(&mut self, f: &Formula, ctx: &Rst) -> Rst {
            self.rr(f, ctx, &FormulaPath::root(), &mut Vec::new())
        }

        fn walk(
            &mut self,
            f: &Formula,
            ctx: &Rst,
            path: &FormulaPath,
            out: &mut Vec<(String, bool)>,
        ) {
            match f {
                Formula::True | Formula::False | Formula::Atom(_) => {}
                Formula::Not(g) => self.walk(g, &Rst::empty(), &path.child(PathSeg::NotArg), out),
                Formula::And(a, b) => {
                    let acc = self.restricted_in(f, ctx);
                    let ctx2 = ctx.clone().union(acc);
                    self.walk(a, &ctx2, &path.child(PathSeg::AndLhs), out);
                    self.walk(b, &ctx2, &path.child(PathSeg::AndRhs), out);
                }
                Formula::Or(a, b) => {
                    self.walk(a, ctx, &path.child(PathSeg::OrLhs), out);
                    self.walk(b, ctx, &path.child(PathSeg::OrRhs), out);
                }
                Formula::Implies(a, b) => {
                    self.walk(a, &Rst::empty(), &path.child(PathSeg::ImpliesLhs), out);
                    self.walk(b, &Rst::empty(), &path.child(PathSeg::ImpliesRhs), out);
                }
                Formula::Iff(a, b) => {
                    self.walk(a, &Rst::empty(), &path.child(PathSeg::IffLhs), out);
                    self.walk(b, &Rst::empty(), &path.child(PathSeg::IffRhs), out);
                }
                Formula::Exists(v, g) => {
                    let body = path.child(PathSeg::QuantBody(v.clone()));
                    self.walk(g, &ctx.clone().remove(v), &body, out);
                }
                Formula::Forall(v, g) | Formula::ForallR(_, v, g) => {
                    let body = path.child(PathSeg::QuantBody(v.clone()));
                    self.walk(g, &Rst::empty(), &body, out);
                }
                Formula::ExistsR(r, v, g) => {
                    let mut inner_ctx = ctx.clone().remove(v);
                    if *r == Restrict::Active {
                        inner_ctx.insert(v.clone());
                    }
                    let body = path.child(PathSeg::QuantBody(v.clone()));
                    self.walk(g, &inner_ctx, &body, out);
                }
            }
            let restricted = self.restricted_in(f, ctx);
            let safe = f
                .free_vars()
                .iter()
                .all(|v| restricted.contains(v) || ctx.contains(v));
            out.push((path.to_string(), safe));
        }
    }
}

#[test]
fn analysis_matches_the_per_node_oracle() {
    for (i, (f, declared, cap)) in corpus().into_iter().enumerate() {
        let analysis = analyze(&f, declared, cap);
        let mut oracle = oracle::Oracle::new(2);

        let (info, mut expected) = oracle.safe_range(&f);
        assert_eq!(analysis.safe_range, info, "#{i} safe-range info: {f}");

        let flags: Vec<(String, bool)> = analysis
            .fragment
            .table
            .iter()
            .map(|(p, pt)| (p.to_string(), pt.safe_range))
            .collect();
        assert_eq!(flags, oracle.flags(&f), "#{i} fragment table: {f}");
        assert_eq!(
            analysis.fragment.root.safe_range,
            flags.last().is_some_and(|(_, s)| *s),
            "#{i} root point: {f}"
        );

        let mut got: Vec<oracle::Found> = analysis
            .diagnostics
            .iter()
            .filter(|d| {
                matches!(
                    d.code,
                    Code::FreeVarNotRangeRestricted | Code::QuantifierNotRangeRestricted
                )
            })
            .map(|d| (d.code, d.path.to_string(), d.message.clone()))
            .collect();
        got.sort();
        expected.sort();
        assert_eq!(got, expected, "#{i} SA010/SA011 findings: {f}");
    }
}

/// The corpus covers what the oracle is meant to stress.
#[test]
fn corpus_has_deep_chains_repeated_languages_and_mixes() {
    fn and_depth(f: &Formula) -> usize {
        match f {
            Formula::And(a, b) => 1 + and_depth(a).max(and_depth(b)),
            Formula::Not(g)
            | Formula::Exists(_, g)
            | Formula::Forall(_, g)
            | Formula::ExistsR(_, _, g)
            | Formula::ForallR(_, _, g) => and_depth(g),
            Formula::Or(a, b) | Formula::Implies(a, b) | Formula::Iff(a, b) => {
                and_depth(a).max(and_depth(b))
            }
            _ => 0,
        }
    }
    let corpus = corpus();
    let chains = corpus.iter().filter(|(f, ..)| and_depth(f) >= 4).count();
    let mut repeated = 0;
    let (mut adom, mut or_not) = (0, 0);
    for (f, ..) in &corpus {
        let mut langs: Vec<Regex> = Vec::new();
        let (mut has_adom, mut has_or, mut has_not) = (false, false, false);
        f.visit(&mut |g| match g {
            Formula::Atom(Atom::InLang(_, l)) | Formula::Atom(Atom::PL(_, _, l)) => {
                langs.push(l.regex.clone())
            }
            Formula::ExistsR(Restrict::Active, ..) => has_adom = true,
            Formula::Or(..) => has_or = true,
            Formula::Not(..) => has_not = true,
            _ => {}
        });
        let distinct: BTreeSet<String> = langs.iter().map(|r| format!("{r:?}")).collect();
        if distinct.len() < langs.len() {
            repeated += 1;
        }
        if has_adom {
            adom += 1;
        }
        if has_or && has_not {
            or_not += 1;
        }
    }
    assert!(
        chains >= 30,
        "{chains} formulas with conjunction chains ≥4 deep"
    );
    assert!(repeated >= 10, "{repeated} formulas repeat a language");
    assert!(adom >= 10, "{adom} formulas quantify over adom");
    assert!(or_not >= 5, "{or_not} formulas mix ∨ and ¬");
}

// ---------------------------------------------------------------------
// Golden
// ---------------------------------------------------------------------

/// FNV-1a, 64-bit: stable across platforms and toolchains.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The full rendering of one corpus entry.
fn render(f: &Formula, declared: StructureClass, cap: usize) -> String {
    let analysis = analyze(f, declared, cap);
    let mut out = format!("safe-range: {:?}\n", analysis.safe_range);
    out.push_str(&format!(
        "signature: {:?}; class {}\n",
        analysis.signature,
        analysis.fragment.class.name()
    ));
    for (path, point) in &analysis.fragment.table {
        out.push_str(&format!("  {path}: {}\n", point.summary()));
    }
    out.push_str(&analysis.render());
    out.push_str(&format!(
        "admission: {}\n",
        admission::classify(f, 2, cap).summary()
    ));
    out
}

#[test]
fn analysis_corpus_matches_golden() {
    let entries: Vec<(String, String)> = corpus()
        .into_iter()
        .enumerate()
        .map(|(i, (f, declared, cap))| {
            let full = render(&f, declared, cap);
            let line = format!(
                "#{i} {} cap {cap} {:016x} {f}",
                declared.name(),
                fnv1a(&full)
            );
            (line, full)
        })
        .collect();
    let rendered: String = entries
        .iter()
        .map(|(line, _)| format!("{line}\n"))
        .collect();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("golden file missing; run with UPDATE_GOLDEN=1 to create it");
    let want: Vec<&str> = golden.lines().collect();
    assert_eq!(
        want.len(),
        entries.len(),
        "corpus size drifted from {GOLDEN}"
    );
    for ((line, full), want) in entries.iter().zip(want) {
        assert_eq!(
            line, want,
            "analysis output drifted from {GOLDEN}; this entry now renders as:\n{full}\n\
             if intentional, regenerate with UPDATE_GOLDEN=1"
        );
    }
}
