//! Per-compile language facts.
//!
//! Fragment inference and static analysis ask three questions of every
//! `in`/`P_L` language: how many states its minimal DFA has, whether it
//! is finite, and whether it is star-free. Each answer needs the DFA, and
//! star-freeness a monoid exploration on top. A [`LangFacts`] table
//! builds each language's DFA at most once per alphabet size and decides
//! each question at most once — star-freeness once per monoid cap, since
//! the verdict (decided or not) depends on it.
//!
//! The table is keyed on the full regex structure and the alphabet size,
//! never on a hash of them. It is meant to live for one compile: create
//! it, hand it to every step that asks about languages, and drop it. It
//! keeps nothing across statements.

use std::cell::RefCell;
use std::collections::HashMap;

use strcalc_alphabet::Sym;
use strcalc_automata::dfa::Finiteness;
use strcalc_automata::starfree::is_star_free;
use strcalc_automata::{AutomataError, Dfa, Regex};

use crate::formula::Lang;

/// Language facts shared by the steps of one compile. See the module
/// docs.
#[derive(Debug, Default)]
pub struct LangFacts {
    entries: RefCell<HashMap<Regex, Vec<Entry>>>,
}

/// What is known about one language at one alphabet size.
#[derive(Debug)]
struct Entry {
    k: Sym,
    dfa: Dfa,
    finite: Option<bool>,
    /// Star-freeness verdicts by monoid cap.
    star_free: Vec<(usize, Result<bool, AutomataError>)>,
}

impl LangFacts {
    /// An empty table.
    pub fn new() -> LangFacts {
        LangFacts::default()
    }

    /// Number of distinct `(language, alphabet size)` pairs seen — the
    /// number of DFAs the table has built.
    pub fn len(&self) -> usize {
        self.entries.borrow().values().map(Vec::len).sum()
    }

    /// `true` iff no language has been asked about yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// State count of the language's minimal DFA over `k` symbols.
    pub fn states(&self, l: &Lang, k: Sym) -> usize {
        self.with(l, k, |e| e.dfa.len())
    }

    /// `true` iff the language is finite (or empty).
    pub fn is_finite(&self, l: &Lang, k: Sym) -> bool {
        self.with(l, k, |e| {
            *e.finite.get_or_insert_with(|| {
                matches!(
                    e.dfa.finiteness(),
                    Finiteness::Empty | Finiteness::Finite(_)
                )
            })
        })
    }

    /// Star-freeness of the language, decided under `monoid_cap` (an
    /// error when the transition monoid exceeds the cap).
    pub fn star_free(&self, l: &Lang, k: Sym, monoid_cap: usize) -> Result<bool, AutomataError> {
        self.with(l, k, |e| {
            if let Some((_, verdict)) = e.star_free.iter().find(|(cap, _)| *cap == monoid_cap) {
                return verdict.clone();
            }
            let verdict = is_star_free(&e.dfa, monoid_cap);
            e.star_free.push((monoid_cap, verdict.clone()));
            verdict
        })
    }

    /// Runs `f` on the entry for `(l, k)`, building the DFA on first use.
    fn with<R>(&self, l: &Lang, k: Sym, f: impl FnOnce(&mut Entry) -> R) -> R {
        let mut entries = self.entries.borrow_mut();
        // Look up by reference first: cloning the regex for the key is
        // only paid once per language.
        if !entries.contains_key(&l.regex) {
            entries.insert(l.regex.clone(), Vec::new());
        }
        let list = entries.get_mut(&l.regex).expect("entry inserted above");
        let i = match list.iter().position(|e| e.k == k) {
            Some(i) => i,
            None => {
                list.push(Entry {
                    k,
                    dfa: l.to_dfa(k),
                    finite: None,
                    star_free: Vec::new(),
                });
                list.len() - 1
            }
        };
        f(&mut list[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strcalc_alphabet::Alphabet;

    fn lang(src: &str) -> Lang {
        Lang::new(Regex::parse(&Alphabet::ab(), src).expect("test regex"))
    }

    #[test]
    fn answers_match_a_fresh_computation() {
        let facts = LangFacts::new();
        // Two rounds: the second is served from the table.
        for _ in 0..2 {
            for src in ["(aa)*", "ab|ba", "ab.*", "a*"] {
                let l = lang(src);
                for k in [2, 3] {
                    let dfa = l.to_dfa(k);
                    assert_eq!(facts.states(&l, k), dfa.len(), "{src} k={k}");
                    assert_eq!(
                        facts.is_finite(&l, k),
                        matches!(dfa.finiteness(), Finiteness::Empty | Finiteness::Finite(_)),
                        "{src} k={k}"
                    );
                    for cap in [1, 1_000_000] {
                        assert_eq!(
                            facts.star_free(&l, k, cap),
                            is_star_free(&dfa, cap),
                            "{src} k={k} cap={cap}"
                        );
                    }
                }
            }
        }
        // One entry per distinct (regex, k).
        assert_eq!(facts.len(), 8);
    }

    #[test]
    fn keys_on_structure_not_name() {
        let facts = LangFacts::new();
        let a = lang("ab.*");
        let b = Lang::named("LIKE 'ab%'", a.regex.clone());
        facts.states(&a, 2);
        facts.states(&b, 2);
        assert_eq!(facts.len(), 1);
        facts.states(&lang("ba.*"), 2);
        assert_eq!(facts.len(), 2);
    }
}
