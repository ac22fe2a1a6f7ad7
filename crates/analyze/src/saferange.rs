//! Pass 2: range restriction (static safety).
//!
//! Computes the set of *range-restricted* variables of a formula: those
//! whose satisfying values are provably confined to a finite set
//! determined by the database (and the restricted variables around
//! them). A query whose free variables are all range-restricted has
//! finite output on every database; a free variable outside the set is a
//! *potential* source of infinite output and is flagged
//! [`Code::FreeVarNotRangeRestricted`] (the static counterpart of the
//! paper's safety story, Theorems 3 and 7 — safety itself is undecidable,
//! so the analysis is a sound under-approximation: it may warn on safe
//! queries, but every query the dynamic check
//! (`strcalc_core::safety::state_safety`) rejects is flagged here).
//!
//! The rules mark a variable restricted only when its range is finite
//! *given the already-restricted variables*:
//!
//! * `R(t̄)` restricts every variable under an injective term chain
//!   (`append`/`prepend`) — the term's value is a database entry, and
//!   finitely many variable values map to it. `TRIM_a` is not injective
//!   (everything not starting with `a` trims to `ε`), so it restricts
//!   nothing.
//! * `t₁ = t₂`, `Cover`, `F_a`, `el`: once either side is finite the
//!   other side has finitely many values (for `el`: finitely many strings
//!   of each length), so restriction flows both ways.
//! * `t₁ ⪯ t₂`, `shorter(eq)`, `P_L`: a finite right side leaves finitely
//!   many left values (prefixes / shorter strings); the converse is
//!   false. `P_L` additionally flows left-to-right when `L` is finite.
//! * `in(t, L)` restricts `t` when `L` is a finite language.
//! * `concat(a, b, c)` (`c = a·b`): `c` finite ⇒ finitely many splits;
//!   `a` and `b` finite ⇒ `c` finite.
//! * `ins(x, p, y)`: `x` and `y` determine each other up to finitely many
//!   insertion/deletion points, and `p ⪯ x`.
//! * `∧` iterates to a fixpoint (restriction discovered by one conjunct
//!   feeds the others); `∨` intersects; negative contexts (`¬`, `→`,
//!   `↔`, `∀`) restrict nothing.
//! * `∃x ∈ adom` makes `x` restricted *inside its body*: the active
//!   domain is finite and independent of other variables. The other
//!   restricted ranges (`dom↓`, `|x| ≤ adom`) do **not** restrict, since
//!   they include prefixes (resp. length-bounded neighbourhoods) of the
//!   *enclosing free variables'* values — in `∃y ∈ dom↓. x ⪯ y`, `y` may
//!   be `x` itself, so treating `y` as finite would wrongly certify an
//!   output that contains every string.
//!
//! Unrestricted `∃x` whose variable is not range-restricted in its body
//! additionally gets [`Code::QuantifierNotRangeRestricted`]: evaluation
//! must search an unbounded domain (the automata engine can, but the
//! restricted-quantifier collapse of Proposition 2/Theorem 2 is the
//! cheaper form).

use std::collections::BTreeSet;

use strcalc_alphabet::Sym;
use strcalc_logic::{Atom, Formula, LangFacts, Restrict, Term};

use crate::diag::{Code, Finding, FormulaPath, PathSeg};

/// Result of the range-restriction pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SafeRangeInfo {
    /// Free variables of the whole formula that are range-restricted.
    pub restricted: BTreeSet<String>,
    /// Free variables that are not — each carries an SA010 finding.
    pub unrestricted_free: Vec<String>,
}

/// A set of restricted variables; `All` is the top element (used for
/// unsatisfiable subformulas, where every variable is trivially
/// confined).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Rst {
    All,
    Set(BTreeSet<String>),
}

impl Rst {
    fn empty() -> Rst {
        Rst::Set(BTreeSet::new())
    }

    fn contains(&self, v: &str) -> bool {
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

/// Runs the pass over `f` (with alphabet size `k`; language finiteness
/// for `in`/`pl` atoms comes from `facts`). Besides the summary and the
/// findings it returns every subformula's safe-range flag — all its free
/// variables restricted in its conjunction context — in postorder
/// (children before parents, left before right), which the fragment pass
/// reads for its per-node lattice points.
pub(crate) fn check(
    f: &Formula,
    k: Sym,
    facts: &LangFacts,
) -> (SafeRangeInfo, Vec<bool>, Vec<Finding>) {
    let mut walk = Walk {
        k,
        facts,
        findings: Vec::new(),
        node_safe: Vec::new(),
    };
    let restricted = walk.walk(f, &Rst::empty(), &FormulaPath::root());
    let Walk {
        mut findings,
        node_safe,
        ..
    } = walk;
    let free = f.free_vars();
    let mut restricted_free = BTreeSet::new();
    let mut unrestricted_free = Vec::new();
    for v in &free {
        if restricted.contains(v) {
            restricted_free.insert(v.clone());
        } else {
            unrestricted_free.push(v.clone());
            findings.push(
                Finding::new(
                    Code::FreeVarNotRangeRestricted,
                    FormulaPath::root(),
                    format!(
                        "free variable {v} is not range-restricted: the output may be \
                         infinite on some database"
                    ),
                )
                .with_note(
                    "safety is undecidable (Theorem 3); this static check is a sound \
                     under-approximation of the range-restricted fragment (Theorem 7)"
                        .to_string(),
                ),
            );
        }
    }
    (
        SafeRangeInfo {
            restricted: restricted_free,
            unrestricted_free,
        },
        node_safe,
        findings,
    )
}

/// Variables of `t` that are confined to finitely many values once the
/// value of `t` is confined to a finite set (i.e. the term is injective
/// as a function of each of them, composed from injective steps).
fn rpre(t: &Term, out: &mut Rst) {
    match t {
        Term::Var(v) => out.insert(v.clone()),
        Term::Const(_) => {}
        // append / prepend are injective: finitely many outputs ⇒
        // finitely many inputs.
        Term::Append(inner, _) | Term::Prepend(_, inner) => rpre(inner, out),
        // TRIM_a collapses everything not starting with `a` to ε.
        Term::TrimLeading(..) => {}
    }
}

fn rpre_of(t: &Term) -> Rst {
    let mut out = Rst::empty();
    rpre(t, &mut out);
    out
}

/// `true` iff every variable of `t` is in `ctx` — then `t` takes
/// finitely many values.
fn term_finite(t: &Term, ctx: &Rst) -> bool {
    let mut vars = BTreeSet::new();
    t.free_vars_into(&mut vars);
    vars.iter().all(|v| ctx.contains(v))
}

/// The body context of `∃x ∈ r` under `ctx`. Only the active domain is
/// finite independently of the enclosing variables; dom↓ and the
/// length-bounded range include values derived from them (see module
/// docs).
fn exists_r_ctx(r: &Restrict, v: &str, ctx: &Rst) -> Rst {
    let mut inner = ctx.clone().remove(v);
    if *r == Restrict::Active {
        inner.insert(v.to_string());
    }
    inner
}

/// The maximal conjuncts of a conjunction chain, left to right.
fn conjuncts<'f>(f: &'f Formula, out: &mut Vec<&'f Formula>) {
    match f {
        Formula::And(a, b) => {
            conjuncts(a, out);
            conjuncts(b, out);
        }
        other => out.push(other),
    }
}

/// The walk's state: the alphabet size, the analysis's language facts,
/// and the outputs of the recording walk.
struct Walk<'a> {
    k: Sym,
    facts: &'a LangFacts,
    findings: Vec<Finding>,
    /// Safe-range flag of every subformula, in postorder.
    node_safe: Vec<bool>,
}

impl Walk<'_> {
    /// Restricted variables contributed by an atom, given variables
    /// already restricted by the surrounding conjunction.
    fn atom(&self, a: &Atom, ctx: &Rst) -> Rst {
        let mut out = Rst::empty();
        // One-directional flow: if `src` is finite, `dst`'s preimage is.
        let flow = |src: &Term, dst: &Term, out: &mut Rst| {
            if term_finite(src, ctx) {
                *out = std::mem::replace(out, Rst::empty()).union(rpre_of(dst));
            }
        };
        match a {
            // Every term value is a database entry: finite unconditionally.
            Atom::Rel(_, ts) => {
                for t in ts {
                    out = out.union(rpre_of(t));
                }
            }
            // Bidirectional: either side finite ⇒ the other finite.
            Atom::Eq(x, y) | Atom::Cover(x, y) | Atom::Prepends(x, y, _) | Atom::EqLen(x, y) => {
                flow(x, y, &mut out);
                flow(y, x, &mut out);
            }
            // Right side finite ⇒ finitely many left values.
            Atom::Prefix(x, y)
            | Atom::StrictPrefix(x, y)
            | Atom::ShorterEq(x, y)
            | Atom::Shorter(x, y) => flow(y, x, &mut out),
            Atom::PL(x, y, l) => {
                flow(y, x, &mut out);
                // L finite: y = x·w for finitely many w.
                if self.facts.is_finite(l, self.k) {
                    flow(x, y, &mut out);
                }
            }
            Atom::InLang(t, l) => {
                if self.facts.is_finite(l, self.k) {
                    out = out.union(rpre_of(t));
                }
            }
            // c = a·b.
            Atom::ConcatEq(x, y, z) => {
                if term_finite(z, ctx) {
                    out = out.union(rpre_of(x)).union(rpre_of(y));
                }
                if term_finite(x, ctx) && term_finite(y, ctx) {
                    out = out.union(rpre_of(z));
                }
            }
            // y = x with one symbol inserted after p ⪯ x.
            Atom::InsertAfter(x, p, y, _) => {
                if term_finite(x, ctx) {
                    out = out.union(rpre_of(y)).union(rpre_of(p));
                }
                if term_finite(y, ctx) {
                    out = out.union(rpre_of(x)).union(rpre_of(p));
                }
            }
            // No finite preimage in either direction.
            Atom::LastSym(..) | Atom::FirstSym(..) | Atom::LexLeq(..) => {}
        }
        out
    }

    /// The restricted-variable set of `f`, given `ctx` already restricted
    /// by the enclosing conjunction. Builds no findings and no paths: the
    /// conjunction fixpoint calls it every round.
    fn restricted(&self, f: &Formula, ctx: &Rst) -> Rst {
        match f {
            Formula::True => Rst::empty(),
            // Unsatisfiable: every variable is vacuously confined.
            Formula::False => Rst::All,
            Formula::Atom(a) => self.atom(a, ctx),
            Formula::And(..) => {
                let mut parts = Vec::new();
                conjuncts(f, &mut parts);
                self.fixpoint(&parts, ctx)
            }
            Formula::Or(a, b) => self.restricted(a, ctx).intersect(self.restricted(b, ctx)),
            // Negative / mixed-polarity contexts restrict nothing.
            Formula::Not(_)
            | Formula::Implies(..)
            | Formula::Iff(..)
            | Formula::Forall(..)
            | Formula::ForallR(..) => Rst::empty(),
            Formula::Exists(v, g) => self.restricted(g, &ctx.clone().remove(v)).remove(v),
            Formula::ExistsR(r, v, g) => self.restricted(g, &exists_r_ctx(r, v, ctx)).remove(v),
        }
    }

    /// The least set `S` with `S = ⋃ᵢ restricted(cᵢ, ctx ∪ S)` over a
    /// chain's conjuncts: restriction found in one conjunct feeds the
    /// others (e.g. `R(x) ∧ y ⪯ x` needs `x` known finite to confine
    /// `y`). Solving the flattened chain at once gives the same set as
    /// nesting one fixpoint per binary `∧` (every conjunct is monotone
    /// in its context), without re-solving the inner ones each round.
    fn fixpoint(&self, parts: &[&Formula], ctx: &Rst) -> Rst {
        let mut acc = Rst::empty();
        loop {
            let ctx2 = ctx.clone().union(acc.clone());
            let mut next = acc.clone();
            for part in parts {
                next = next.union(self.restricted(part, &ctx2));
            }
            if next == acc {
                return acc;
            }
            acc = next;
        }
    }

    /// [`Walk::restricted`] once more, recording along the way: SA011
    /// findings for unrestricted existentials over unrestricted
    /// variables, and the safe-range flag of every node.
    fn walk(&mut self, f: &Formula, ctx: &Rst, path: &FormulaPath) -> Rst {
        let restricted = match f {
            Formula::True | Formula::False | Formula::Atom(_) => self.restricted(f, ctx),
            Formula::And(a, b) => {
                let mut parts = Vec::new();
                conjuncts(f, &mut parts);
                let acc = self.fixpoint(&parts, ctx);
                let ctx2 = ctx.clone().union(acc.clone());
                self.chain(a, &ctx2, &path.child(PathSeg::AndLhs));
                self.chain(b, &ctx2, &path.child(PathSeg::AndRhs));
                acc
            }
            Formula::Or(a, b) => {
                let ra = self.walk(a, ctx, &path.child(PathSeg::OrLhs));
                let rb = self.walk(b, ctx, &path.child(PathSeg::OrRhs));
                ra.intersect(rb)
            }
            // Negative / mixed-polarity contexts restrict nothing, but
            // still get walked for SA011.
            Formula::Not(g) => {
                self.walk(g, &Rst::empty(), &path.child(PathSeg::NotArg));
                Rst::empty()
            }
            Formula::Implies(a, b) => {
                self.walk(a, &Rst::empty(), &path.child(PathSeg::ImpliesLhs));
                self.walk(b, &Rst::empty(), &path.child(PathSeg::ImpliesRhs));
                Rst::empty()
            }
            Formula::Iff(a, b) => {
                self.walk(a, &Rst::empty(), &path.child(PathSeg::IffLhs));
                self.walk(b, &Rst::empty(), &path.child(PathSeg::IffRhs));
                Rst::empty()
            }
            Formula::Exists(v, g) => {
                let body_path = path.child(PathSeg::QuantBody(v.clone()));
                let inner = self.walk(g, &ctx.clone().remove(v), &body_path);
                if !inner.contains(v) {
                    self.findings.push(Finding::new(
                        Code::QuantifierNotRangeRestricted,
                        path.clone(),
                        format!(
                            "existentially quantified variable {v} is not range-restricted \
                             in its scope: evaluation must search an unbounded domain"
                        ),
                    ));
                }
                inner.remove(v)
            }
            // ∀ is ¬∃¬: nothing restricted; walk the body for SA011.
            Formula::Forall(v, g) | Formula::ForallR(_, v, g) => {
                self.walk(g, &Rst::empty(), &path.child(PathSeg::QuantBody(v.clone())));
                Rst::empty()
            }
            Formula::ExistsR(r, v, g) => {
                let body_path = path.child(PathSeg::QuantBody(v.clone()));
                self.walk(g, &exists_r_ctx(r, v, ctx), &body_path).remove(v)
            }
        };
        self.record(f, ctx, &restricted);
        restricted
    }

    /// Walks a node inside a conjunction chain whose top `∧` has solved
    /// the fixpoint, with `ctx2` its closed context. Every node of the
    /// chain sees `ctx2` unchanged, and an inner `∧`'s own fixpoint under
    /// `ctx2` stops after one round at the union of its conjuncts' sets,
    /// so the chain is walked without solving it again.
    fn chain(&mut self, f: &Formula, ctx2: &Rst, path: &FormulaPath) -> Rst {
        match f {
            Formula::And(a, b) => {
                let ra = self.chain(a, ctx2, &path.child(PathSeg::AndLhs));
                let rb = self.chain(b, ctx2, &path.child(PathSeg::AndRhs));
                let restricted = ra.union(rb);
                self.record(f, ctx2, &restricted);
                restricted
            }
            _ => self.walk(f, ctx2, path),
        }
    }

    /// Records `f`'s safe-range flag: every free variable restricted by
    /// `f` itself or by its context.
    fn record(&mut self, f: &Formula, ctx: &Rst, restricted: &Rst) {
        let safe = f
            .free_vars()
            .iter()
            .all(|v| restricted.contains(v) || ctx.contains(v));
        self.node_safe.push(safe);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use strcalc_alphabet::Alphabet;
    use strcalc_automata::Regex;
    use strcalc_logic::Lang;

    /// The pass with a fresh language-fact table, without the per-node
    /// flags.
    fn check(f: &Formula, k: Sym) -> (SafeRangeInfo, Vec<Finding>) {
        let (info, _, findings) = super::check(f, k, &LangFacts::new());
        (info, findings)
    }

    fn sa010(findings: &[Finding]) -> Vec<&Finding> {
        findings
            .iter()
            .filter(|f| f.code == Code::FreeVarNotRangeRestricted)
            .collect()
    }

    #[test]
    fn relation_restricts_its_variables() {
        let f = Formula::rel("R", vec![Term::var("x"), Term::var("y")]);
        let (info, findings) = check(&f, 2);
        assert!(info.unrestricted_free.is_empty());
        assert!(sa010(&findings).is_empty());
    }

    #[test]
    fn bare_prefix_leaves_free_var_unrestricted() {
        // x ⪯ y with both free: y unbounded, and so is x.
        let f = Formula::prefix(Term::var("x"), Term::var("y"));
        let (info, _) = check(&f, 2);
        assert_eq!(
            info.unrestricted_free,
            vec!["x".to_string(), "y".to_string()]
        );
    }

    #[test]
    fn prefix_of_database_value_is_restricted() {
        // R(y) ∧ x ⪯ y: conjunction fixpoint carries y's finiteness to x.
        let f = Formula::rel("R", vec![Term::var("y")])
            .and(Formula::prefix(Term::var("x"), Term::var("y")));
        let (info, findings) = check(&f, 2);
        assert!(info.unrestricted_free.is_empty(), "{findings:?}");
    }

    #[test]
    fn fixpoint_handles_order_independence() {
        // The restricting conjunct comes second: x ⪯ y ∧ R(y).
        let f = Formula::prefix(Term::var("x"), Term::var("y"))
            .and(Formula::rel("R", vec![Term::var("y")]));
        let (info, _) = check(&f, 2);
        assert!(info.unrestricted_free.is_empty());
    }

    #[test]
    fn negation_blocks_restriction() {
        let f = Formula::rel("R", vec![Term::var("x")]).not();
        let (info, _) = check(&f, 2);
        assert_eq!(info.unrestricted_free, vec!["x".to_string()]);
    }

    #[test]
    fn disjunction_intersects() {
        let f = Formula::rel("R", vec![Term::var("x")]).or(Formula::last_sym(Term::var("x"), 0));
        let (info, _) = check(&f, 2);
        assert_eq!(info.unrestricted_free, vec!["x".to_string()]);

        let g = Formula::rel("R", vec![Term::var("x")]).or(Formula::rel("S", vec![Term::var("x")]));
        let (info, _) = check(&g, 2);
        assert!(info.unrestricted_free.is_empty());
    }

    #[test]
    fn trim_is_not_injective() {
        // R(trim('a', x)): infinitely many x trim to the same entry.
        let f = Formula::rel("R", vec![Term::var("x").trim_leading(0)]);
        let (info, _) = check(&f, 2);
        assert_eq!(info.unrestricted_free, vec!["x".to_string()]);
    }

    #[test]
    fn append_chain_is_injective() {
        let f = Formula::rel("R", vec![Term::var("x").append(0).prepend(1)]);
        let (info, _) = check(&f, 2);
        assert!(info.unrestricted_free.is_empty());
    }

    #[test]
    fn finite_language_restricts() {
        let ab = Alphabet::ab();
        let fin = Lang::new(Regex::parse(&ab, "ab|ba").unwrap());
        let f = Formula::in_lang(Term::var("x"), fin);
        let (info, _) = check(&f, 2);
        assert!(info.unrestricted_free.is_empty());

        let inf = Lang::new(Regex::parse(&ab, "a*").unwrap());
        let g = Formula::in_lang(Term::var("x"), inf);
        let (info, _) = check(&g, 2);
        assert_eq!(info.unrestricted_free, vec!["x".to_string()]);
    }

    #[test]
    fn prefix_dom_quantifier_does_not_leak_restriction() {
        // ∃y ∈ dom↓. x ⪯ y: y's range includes x itself, so x must NOT
        // be considered restricted (the output contains every string).
        let f = Formula::exists_r(
            Restrict::PrefixDom,
            "y",
            Formula::prefix(Term::var("x"), Term::var("y")),
        );
        let (info, _) = check(&f, 2);
        assert_eq!(info.unrestricted_free, vec!["x".to_string()]);
    }

    #[test]
    fn active_domain_quantifier_restricts() {
        // ∃y ∈ adom. x ⪯ y: adom is finite, so x is a prefix of one of
        // finitely many strings.
        let f = Formula::exists_r(
            Restrict::Active,
            "y",
            Formula::prefix(Term::var("x"), Term::var("y")),
        );
        let (info, _) = check(&f, 2);
        assert!(info.unrestricted_free.is_empty());
    }

    #[test]
    fn unrestricted_exists_gets_sa011() {
        // ∃y. last(y, a) ∧ R(x): y unbounded inside its scope.
        let f = Formula::exists(
            "y",
            Formula::last_sym(Term::var("y"), 0).and(Formula::rel("R", vec![Term::var("x")])),
        );
        let (_, findings) = check(&f, 2);
        let sa011: Vec<_> = findings
            .iter()
            .filter(|f| f.code == Code::QuantifierNotRangeRestricted)
            .collect();
        assert_eq!(sa011.len(), 1);
        assert!(sa011[0].message.contains('y'));
    }

    #[test]
    fn restricted_exists_no_sa011() {
        let f = Formula::exists("y", Formula::rel("R", vec![Term::var("y")]));
        let (_, findings) = check(&f, 2);
        assert!(findings.is_empty());
    }

    #[test]
    fn concat_flows_both_ways() {
        // R(z) ∧ concat(x, y, z): z finite ⇒ finitely many splits.
        let f = Formula::rel("R", vec![Term::var("z")]).and(Formula::concat_eq(
            Term::var("x"),
            Term::var("y"),
            Term::var("z"),
        ));
        let (info, _) = check(&f, 2);
        assert!(info.unrestricted_free.is_empty());

        // R(x) ∧ R(y) ∧ concat(x, y, z): z = x·y is determined.
        let g = Formula::rel("R", vec![Term::var("x")])
            .and(Formula::rel("R", vec![Term::var("y")]))
            .and(Formula::concat_eq(
                Term::var("x"),
                Term::var("y"),
                Term::var("z"),
            ));
        let (info, _) = check(&g, 2);
        assert!(info.unrestricted_free.is_empty());
    }

    #[test]
    fn eqlen_flows_both_ways() {
        let f = Formula::rel("R", vec![Term::var("x")])
            .and(Formula::eq_len(Term::var("y"), Term::var("x")));
        let (info, _) = check(&f, 2);
        assert!(info.unrestricted_free.is_empty());
    }

    #[test]
    fn false_restricts_everything() {
        let f = Formula::prefix(Term::var("x"), Term::var("y")).and(Formula::False);
        let (info, _) = check(&f, 2);
        assert!(info.unrestricted_free.is_empty());
    }
}
