//! Pass 1: signature checking.
//!
//! Every atom and term is placed at the least structure in the
//! Figure-1 lattice whose primitives cover it — [`StructureClass::of_atom`]
//! and [`StructureClass::of_term`], the table
//! `strcalc_logic::transform::fragment` folds over — and each one above
//! the declared calculus is reported at its exact path
//! ([`Code::SignatureExceedsDeclared`], [`Code::ConcatInTameCalculus`]).
//! The pass has no walk of its own: the fragment pass's walk
//! ([`crate::fragments`]) runs this module's check on each atom.
//!
//! Same table as `transform::fragment`, total error policy: when
//! star-freeness cannot be decided under the monoid cap the language is
//! conservatively classified `S_reg` and a [`Code::StarFreeUndecided`]
//! finding is recorded instead of an error.

use strcalc_automata::AutomataError;
use strcalc_logic::{Atom, StructureClass, Term};

use crate::diag::{Code, Finding, FormulaPath, PathSeg};
use crate::fragments::lang_label;

/// Result of the signature pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignatureInfo {
    /// Least structure class covering the whole formula (conservative:
    /// undecided star-freeness counts as `S_reg`).
    pub inferred: StructureClass,
    /// Number of `in`/`pl` languages whose star-freeness was undecided.
    pub star_free_undecided: usize,
}

/// The check of one atom: reports its terms and its `predicate`
/// ([`StructureClass::of_atom`]'s verdict; undecided counts as `S_reg`)
/// above `declared`, and returns the atom's class, joined into `info`.
pub(crate) fn check_atom(
    a: &Atom,
    predicate: &Result<StructureClass, AutomataError>,
    declared: StructureClass,
    path: &FormulaPath,
    info: &mut SignatureInfo,
    findings: &mut Vec<Finding>,
) -> StructureClass {
    let mut class = StructureClass::S;
    for (i, t) in a.terms().into_iter().enumerate() {
        let term = StructureClass::of_term(t);
        if !term.leq(declared) {
            findings.push(Finding::new(
                Code::SignatureExceedsDeclared,
                path.child(PathSeg::Term(i)),
                format!(
                    "term function {} requires {} but the query is declared RC({})",
                    left_function(t),
                    term.name(),
                    declared.name()
                ),
            ));
        }
        class = class.join(term);
    }
    let atom = match predicate {
        Ok(atom) => *atom,
        Err(e) => {
            // Only `in`/`pl` atoms decide star-freeness.
            if let Atom::InLang(_, l) | Atom::PL(_, _, l) = a {
                info.star_free_undecided += 1;
                findings.push(
                    Finding::new(
                        Code::StarFreeUndecided,
                        path.clone(),
                        format!(
                            "star-freeness of language {} is undecided under the \
                             monoid cap; conservatively classified S_reg",
                            lang_label(l)
                        ),
                    )
                    .with_note(e.to_string()),
                );
            }
            StructureClass::SReg
        }
    };
    if !atom.leq(declared) {
        findings.push(if matches!(a, Atom::ConcatEq(..)) {
            Finding::new(
                Code::ConcatInTameCalculus,
                path.clone(),
                format!(
                    "concatenation atom in a query declared RC({})",
                    declared.name()
                ),
            )
            .with_note(
                "RC over concatenation is computationally complete \
                 (Proposition 1); no tame calculus admits it"
                    .to_string(),
            )
        } else {
            Finding::new(
                Code::SignatureExceedsDeclared,
                path.clone(),
                format!(
                    "atom {} requires {} but the query is declared RC({})",
                    atom_name(a),
                    atom.name(),
                    declared.name()
                ),
            )
        });
    }
    info.inferred = info.inferred.join(class.join(atom));
    class.join(atom)
}

/// The function responsible for a term's `S_left` class: the first
/// `prepend` or `trim`, looking through `append`.
fn left_function(t: &Term) -> &'static str {
    match t {
        Term::Append(inner, _) => left_function(inner),
        Term::Prepend(..) => "prepend",
        Term::TrimLeading(..) => "trim",
        Term::Var(_) | Term::Const(_) => "<none>",
    }
}

/// Short display name for an atom kind.
fn atom_name(a: &Atom) -> &'static str {
    match a {
        Atom::Rel(..) => "relation",
        Atom::Eq(..) => "equality",
        Atom::Prefix(..) => "prefix",
        Atom::StrictPrefix(..) => "strict-prefix",
        Atom::Cover(..) => "cover",
        Atom::LastSym(..) => "last-symbol",
        Atom::FirstSym(..) => "first-symbol",
        Atom::Prepends(..) => "fa (prepend graph)",
        Atom::EqLen(..) => "el (equal length)",
        Atom::ShorterEq(..) => "shorteq",
        Atom::Shorter(..) => "shorter",
        Atom::LexLeq(..) => "lex",
        Atom::InLang(..) => "in (language membership)",
        Atom::PL(..) => "pl (pattern between prefixes)",
        Atom::ConcatEq(..) => "concat",
        Atom::InsertAfter(..) => "ins (insertion)",
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::{Analyzer, Diagnostic};
    use strcalc_alphabet::Alphabet;
    use strcalc_automata::Regex;
    use strcalc_logic::{Formula, Lang};

    /// The analysis's signature result and its SA00x diagnostics (the
    /// first codes in order).
    fn check(
        f: &Formula,
        declared: StructureClass,
        cap: usize,
    ) -> (SignatureInfo, Vec<Diagnostic>) {
        let mut analysis = Analyzer::new(declared)
            .monoid_cap(cap)
            .analyze(&Alphabet::ab(), f);
        analysis
            .diagnostics
            .retain(|d| d.code <= Code::StarFreeUndecided);
        (analysis.signature, analysis.diagnostics)
    }

    fn re(t: &str) -> Regex {
        Regex::parse(&Alphabet::ab(), t).unwrap()
    }

    #[test]
    fn prepend_term_flags_sa001_in_rc_s() {
        let f = Formula::eq(Term::var("y"), Term::var("x").prepend(0));
        let (info, findings) = check(&f, StructureClass::S, 100_000);
        assert_eq!(info.inferred, StructureClass::SLeft);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].code, Code::SignatureExceedsDeclared);
        assert_eq!(findings[0].path.to_string(), "root/term[1]");
        assert!(findings[0].message.contains("prepend"));
    }

    #[test]
    fn same_formula_clean_in_rc_sleft() {
        let f = Formula::eq(Term::var("y"), Term::var("x").prepend(0));
        let (_, findings) = check(&f, StructureClass::SLeft, 100_000);
        assert!(findings.is_empty());
    }

    #[test]
    fn concat_gets_sa002() {
        let f = Formula::concat_eq(Term::var("x"), Term::var("y"), Term::var("z"));
        let (info, findings) = check(&f, StructureClass::SLen, 100_000);
        assert_eq!(info.inferred, StructureClass::Concat);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].code, Code::ConcatInTameCalculus);
    }

    #[test]
    fn star_free_language_stays_in_s() {
        let f = Formula::in_lang(Term::var("x"), Lang::new(re("a*")));
        let (info, findings) = check(&f, StructureClass::S, 100_000);
        assert_eq!(info.inferred, StructureClass::S);
        assert!(findings.is_empty());
    }

    #[test]
    fn non_star_free_language_needs_sreg() {
        let f = Formula::in_lang(Term::var("x"), Lang::new(re("(aa)*")));
        let (info, findings) = check(&f, StructureClass::S, 100_000);
        assert_eq!(info.inferred, StructureClass::SReg);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].code, Code::SignatureExceedsDeclared);
    }

    #[test]
    fn monoid_cap_exhaustion_is_sa003_not_an_error() {
        // Cap of 1 cannot hold the transition monoid of (aa)*.
        let f = Formula::in_lang(Term::var("x"), Lang::new(re("(aa)*")));
        let (info, findings) = check(&f, StructureClass::SReg, 1);
        assert_eq!(info.inferred, StructureClass::SReg);
        assert_eq!(info.star_free_undecided, 1);
        assert!(findings.iter().any(|f| f.code == Code::StarFreeUndecided));
    }

    #[test]
    fn paths_locate_the_offending_atom() {
        let f = Formula::exists(
            "y",
            Formula::prefix(Term::var("x"), Term::var("y"))
                .and(Formula::eq_len(Term::var("x"), Term::var("y"))),
        );
        let (_, findings) = check(&f, StructureClass::S, 100_000);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].path.to_string(), "root/quant(y)/and.rhs");
    }

    #[test]
    fn infer_matches_logic_fragment_when_decidable() {
        use strcalc_logic::transform::fragment;
        let cases = [
            Formula::prefix(Term::var("x"), Term::var("y")),
            Formula::prepends(Term::var("x"), Term::var("y"), 0),
            Formula::eq_len(Term::var("x"), Term::var("y")),
            Formula::in_lang(Term::var("x"), Lang::new(re("(aa)*"))),
            Formula::concat_eq(Term::var("x"), Term::var("y"), Term::var("z")),
        ];
        for f in cases {
            let (info, _) = check(&f, StructureClass::Concat, 100_000);
            assert_eq!(info.inferred, fragment(&f, 2, 100_000).unwrap());
        }
    }
}
