//! The generated SQL statements, each with its SQL text and its answer
//! under the reference evaluator.

use crate::reference::{self as r, Answer, Tables, SIMILAR};
use crate::rng::Rng;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Col {
    Name,
    Dept,
}

impl Col {
    fn sql(self) -> &'static str {
        match self {
            Col::Name => "f.name",
            Col::Dept => "f.dept",
        }
    }
}

pub enum Pred {
    Like(String),
    Similar(usize),
}

impl Pred {
    fn holds(&self, s: &[u8]) -> bool {
        match self {
            Pred::Like(p) => r::like(p.as_bytes(), s),
            Pred::Similar(i) => SIMILAR[*i].1(s),
        }
    }
}

/// A single-table filter statement over `faculty`: a projection and a
/// conjunction of LIKE / SIMILAR filters.
pub struct ScanStmt {
    pub with_dept: bool,
    pub filters: Vec<(Col, Pred)>,
}

/// Statement shapes, one per slot of a fixed rotation. Fifteen slots
/// keep the median and p90 of a run inside one slot's latencies rather
/// than on the edge between two. Literal lengths are fixed per slot, so
/// a seed changes which symbols a pattern has but not its selectivity
/// class.
pub const SCAN_SLOTS: usize = 15;

impl ScanStmt {
    /// The statement in rotation slot `slot`; `similar` picks from the
    /// fixed SIMILAR pattern set. Infix words are unbordered (no proper
    /// prefix is also a suffix): every unbordered word of one length is
    /// equally likely to occur in a uniform random string, so the seed
    /// moves which rows match but not how many are expected to.
    pub fn generate(rng: &mut Rng, slot: usize, similar: usize) -> ScanStmt {
        use Col::{Dept, Name};
        let w = |rng: &mut Rng, n: usize| rng.word(n);
        let u = |rng: &mut Rng, n: usize| unbordered(rng, n);
        let filters = match slot {
            // Petersen linear classes.
            0 => vec![(Name, Pred::Like(w(rng, 6)))],
            1 => vec![(Name, Pred::Like(fixed_length(rng, 6, 3)))],
            2 => vec![(Name, Pred::Like(format!("{}%", w(rng, 2))))],
            3 => vec![(Name, Pred::Like(format!("{}%", w(rng, 7))))],
            4 => vec![(Name, Pred::Like(format!("%{}", w(rng, 2))))],
            5 => vec![(Name, Pred::Like(format!("%{}%", u(rng, 3))))],
            6 => vec![(Name, Pred::Like(format!("%{}%", u(rng, 7))))],
            7 => vec![(Name, Pred::Like(format!("{}%{}", w(rng, 2), w(rng, 2))))],
            // General LIKE: three segments, or `_` beside `%`.
            8 => vec![(
                Name,
                Pred::Like(format!("{}%{}%{}", w(rng, 1), w(rng, 1), w(rng, 1))),
            )],
            9 => vec![(Name, Pred::Like(format!("_%{}%", u(rng, 4))))],
            // SIMILAR from the fixed set.
            10 => vec![(Name, Pred::Similar(similar))],
            11 => vec![(
                Name,
                Pred::Similar((similar + SIMILAR.len() / 2) % SIMILAR.len()),
            )],
            // Conjunctions of the above.
            12 => vec![
                (Name, Pred::Like(format!("{}%", w(rng, 2)))),
                (Dept, Pred::Like(format!("%{}", w(rng, 1)))),
            ],
            13 => vec![
                (Name, Pred::Similar(similar)),
                (Name, Pred::Like(format!("%{}%", u(rng, 2)))),
            ],
            _ => vec![
                (
                    Name,
                    Pred::Like(format!("{}%{}%{}", w(rng, 1), w(rng, 1), w(rng, 1))),
                ),
                (Dept, Pred::Like(format!("{}%", w(rng, 1)))),
            ],
        };
        ScanStmt {
            with_dept: slot.is_multiple_of(3),
            filters,
        }
    }

    pub fn sql(&self) -> String {
        let cols = if self.with_dept {
            "f.name, f.dept"
        } else {
            "f.name"
        };
        let conds: Vec<String> = self
            .filters
            .iter()
            .map(|(c, p)| match p {
                Pred::Like(pat) => format!("{} LIKE '{pat}'", c.sql()),
                Pred::Similar(i) => format!("{} SIMILAR TO '{}'", c.sql(), SIMILAR[*i].0),
            })
            .collect();
        format!("SELECT {cols} FROM faculty f WHERE {}", conds.join(" AND "))
    }

    pub fn reference(&self, t: &Tables) -> Answer {
        let mut out = Vec::new();
        for (name, dept) in &t.faculty {
            let ok = self.filters.iter().all(|(c, p)| {
                p.holds(match c {
                    Col::Name => name.as_bytes(),
                    Col::Dept => dept.as_bytes(),
                })
            });
            if ok {
                out.push(if self.with_dept {
                    r::key(&[name.as_bytes(), dept.as_bytes()])
                } else {
                    r::key(&[name.as_bytes()])
                });
            }
        }
        r::finish(out)
    }
}

/// A seeded word of `len` symbols with no proper prefix equal to a
/// suffix of the same length.
fn unbordered(rng: &mut Rng, len: usize) -> String {
    loop {
        let w = rng.word(len);
        let b = w.as_bytes();
        if (1..len).all(|k| b[..k] != b[len - k..]) {
            return w;
        }
    }
}

/// A fixed-length LIKE pattern: `len` symbols with `holes` of them `_`.
fn fixed_length(rng: &mut Rng, len: usize, holes: usize) -> String {
    let mut p: Vec<u8> = rng.word(len).into_bytes();
    let mut placed = 0;
    while placed < holes {
        let i = rng.below(len);
        if p[i] != b'_' {
            p[i] = b'_';
            placed += 1;
        }
    }
    String::from_utf8(p).expect("ascii pattern")
}

/// The prepared statements of `prepared_rw`. The first six route to
/// the automata strategy, the last four to LIKE and dense scans.
pub enum Prepared {
    /// `EXISTS` subquery with `PREFIX(d.head, f.name)`.
    PrefixSub,
    /// `f.dept IN (SELECT d.head ...)`.
    InSub,
    /// `f.name < 'literal'`.
    LexLit(String),
    /// `f.name NOT LIKE 'p%'`.
    NotLike(String),
    /// `LENGTH(f.name) <= LENGTH(f.dept)`.
    LenLe,
    /// `f.dept < f.name`, per row.
    LexCols,
    /// `f.name LIKE 'p%'`, projecting both columns.
    Prefix(String),
    /// `f.name LIKE '%w%'`.
    Infix(String),
    /// `f.name SIMILAR TO ...`.
    Similar(usize),
    /// `f.name LIKE 'x%y%z'` (general class).
    General(String),
}

/// Statement indices into [`Prepared::all`] for one write interval:
/// after each insert, these thirteen reads run in this order. The
/// first read of an automata statement after a write misses the cache;
/// repeats within the interval hit. Thirteen slots keep the median and
/// p90 inside one slot's latencies.
pub const INTERVAL: [usize; 13] = [0, 6, 1, 0, 8, 2, 3, 7, 0, 1, 9, 4, 2];
/// The interval slot that alternates between statements 4 and 5.
pub const ALTERNATING_SLOT: usize = 11;

impl Prepared {
    pub fn all(rng: &mut Rng) -> Vec<Prepared> {
        vec![
            Prepared::PrefixSub,
            Prepared::InSub,
            Prepared::LexLit(format!("ab{}", rng.word(2))),
            Prepared::NotLike(format!("{}%", rng.word(1))),
            Prepared::LenLe,
            Prepared::LexCols,
            Prepared::Prefix(format!("{}%", rng.word(2))),
            Prepared::Infix(format!("%{}%", unbordered(rng, 3))),
            Prepared::Similar(rng.below(SIMILAR.len())),
            Prepared::General(format!("{}%{}%{}", rng.word(1), rng.word(1), rng.word(1))),
        ]
    }

    pub fn sql(&self) -> String {
        const F: &str = "SELECT f.name FROM faculty f WHERE";
        const FD: &str = "SELECT f.name, f.dept FROM faculty f WHERE";
        match self {
            Prepared::PrefixSub => {
                format!("{F} EXISTS (SELECT d.head FROM dept d WHERE PREFIX(d.head, f.name))")
            }
            Prepared::InSub => format!("{FD} f.dept IN (SELECT d.head FROM dept d)"),
            Prepared::LexLit(l) => format!("{F} f.name < '{l}'"),
            Prepared::NotLike(p) => format!("{F} f.name NOT LIKE '{p}'"),
            Prepared::LenLe => format!("{FD} LENGTH(f.name) <= LENGTH(f.dept)"),
            Prepared::LexCols => format!("{F} f.dept < f.name"),
            Prepared::Prefix(p) => format!("{FD} f.name LIKE '{p}'"),
            Prepared::Infix(p) => format!("{F} f.name LIKE '{p}'"),
            Prepared::Similar(i) => format!("{F} f.name SIMILAR TO '{}'", SIMILAR[*i].0),
            Prepared::General(p) => format!("{F} f.name LIKE '{p}'"),
        }
    }

    pub fn reference(&self, t: &Tables) -> Answer {
        let mut out = Vec::new();
        for (name, dept) in &t.faculty {
            let (n, d) = (name.as_bytes(), dept.as_bytes());
            let (hit, both) = match self {
                Prepared::PrefixSub => {
                    (t.dept.iter().any(|h| r::is_prefix(h.as_bytes(), n)), false)
                }
                Prepared::InSub => (r::member(&t.dept, d), true),
                Prepared::LexLit(l) => (r::lex_lt(n, l.as_bytes()), false),
                Prepared::NotLike(p) => (!r::like(p.as_bytes(), n), false),
                Prepared::LenLe => (n.len() <= d.len(), true),
                Prepared::LexCols => (r::lex_lt(d, n), false),
                Prepared::Prefix(p) => (r::like(p.as_bytes(), n), true),
                Prepared::Infix(p) | Prepared::General(p) => (r::like(p.as_bytes(), n), false),
                Prepared::Similar(i) => (SIMILAR[*i].1(n), false),
            };
            if hit {
                out.push(if both { r::key(&[n, d]) } else { r::key(&[n]) });
            }
        }
        r::finish(out)
    }
}
