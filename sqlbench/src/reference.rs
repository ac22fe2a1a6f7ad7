//! The reference evaluator: nested loops over the benchmark's own copy
//! of the stored rows, a hand-written LIKE matcher, one hand-written
//! predicate per fixed SIMILAR pattern, and hand-written prefix,
//! membership, length and lexicographic checks. Nothing here calls the
//! program under test, so a wrong answer from the program cannot also
//! be the expected one.

/// The stored rows, as text over `{a, b}`.
#[derive(Clone)]
pub struct Tables {
    /// `faculty(name, dept)`.
    pub faculty: Vec<(String, String)>,
    /// `dept(head)`.
    pub dept: Vec<String>,
}

/// A query answer: one key per output tuple (columns joined by `|`),
/// sorted and deduplicated, so set equality is vector equality.
pub type Answer = Vec<Vec<u8>>;

pub fn key(cols: &[&[u8]]) -> Vec<u8> {
    let mut k = Vec::with_capacity(cols.iter().map(|c| c.len() + 1).sum());
    for (i, c) in cols.iter().enumerate() {
        if i > 0 {
            k.push(b'|');
        }
        k.extend_from_slice(c);
    }
    k
}

pub fn finish(mut keys: Answer) -> Answer {
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// An answer's row count and the wrapping sum of its keys' hashes: what
/// the check keeps of a reference answer between the passes that repeat
/// it. The sum does not depend on the order of the keys, so the
/// program's answer is digested without sorting it.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Digest {
    pub rows: usize,
    hash: u64,
}

impl Digest {
    /// Adds one key; keys must be distinct.
    pub fn add(&mut self, key: &[u8]) {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        self.rows += 1;
        self.hash = self.hash.wrapping_add(h.finish());
    }
}

pub fn digest(a: &Answer) -> Digest {
    let mut d = Digest::default();
    for k in a {
        d.add(k);
    }
    d
}

/// SQL `LIKE`: `%` matches any string, `_` any one symbol. Greedy
/// matching with backtracking to the last `%`.
pub fn like(pattern: &[u8], s: &[u8]) -> bool {
    let (mut pi, mut si) = (0, 0);
    let mut star: Option<(usize, usize)> = None;
    while si < s.len() {
        if pi < pattern.len() && (pattern[pi] == b'_' || pattern[pi] == s[si]) {
            pi += 1;
            si += 1;
        } else if pi < pattern.len() && pattern[pi] == b'%' {
            star = Some((pi, si));
            pi += 1;
        } else if let Some((sp, ss)) = star {
            pi = sp + 1;
            si = ss + 1;
            star = Some((sp, ss + 1));
        } else {
            return false;
        }
    }
    pattern[pi..].iter().all(|&c| c == b'%')
}

/// A SIMILAR pattern and its membership predicate.
pub type Similar = (&'static str, fn(&[u8]) -> bool);

/// The fixed SIMILAR pattern set.
pub const SIMILAR: [Similar; 8] = [
    ("(ab|ba)+", |s| {
        !s.is_empty() && s.len() % 2 == 0 && s.chunks(2).all(|c| c != b"aa" && c != b"bb")
    }),
    ("a(a|b)*b", |s| {
        s.len() >= 2 && s[0] == b'a' && s[s.len() - 1] == b'b'
    }),
    ("(a|b)*abb(a|b)*", |s| s.windows(3).any(|w| w == b"abb")),
    ("b*(ab*ab*)*", |s| {
        s.iter().filter(|&&c| c == b'a').count() % 2 == 0
    }),
    ("(aa|bb)+", |s| {
        !s.is_empty() && s.len() % 2 == 0 && s.chunks(2).all(|c| c[0] == c[1])
    }),
    ("[ab]{3,6}", |s| (3..=6).contains(&s.len())),
    ("a+b+a+", |s| {
        // Exactly three maximal runs: a…, b…, a….
        let runs = 1 + s.windows(2).filter(|w| w[0] != w[1]).count();
        !s.is_empty() && s[0] == b'a' && runs == 3
    }),
    ("(a|b)*a(a|b)(a|b)", |s| {
        s.len() >= 3 && s[s.len() - 3] == b'a'
    }),
];

/// `p` is a prefix of `s`.
pub fn is_prefix(p: &[u8], s: &[u8]) -> bool {
    p.len() <= s.len() && p.iter().zip(s).all(|(x, y)| x == y)
}

/// Strict lexicographic order with `a < b`: the first differing symbol
/// decides, and a proper prefix precedes its extensions.
pub fn lex_lt(x: &[u8], y: &[u8]) -> bool {
    for (a, b) in x.iter().zip(y) {
        if a != b {
            return a < b;
        }
    }
    x.len() < y.len()
}

/// Membership of `s` in a column, by a linear search.
pub fn member(column: &[String], s: &[u8]) -> bool {
    column.iter().any(|c| c.as_bytes() == s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn like_matches_sql_semantics() {
        assert!(like(b"a%b", b"ab"));
        assert!(like(b"a%b", b"aabab"));
        assert!(!like(b"a%b", b"aba"));
        assert!(like(b"%aba%", b"babab"));
        assert!(like(b"a_b", b"aab"));
        assert!(!like(b"a_b", b"ab"));
        assert!(like(b"%", b""));
        assert!(like(b"a%a", b"aa"));
        assert!(!like(b"a%a", b"a"));
        assert!(like(b"%a_b%", b"bbaabb"));
    }

    #[test]
    fn similar_predicates() {
        let p = |i: usize| SIMILAR[i].1;
        assert!(p(0)(b"abba") && !p(0)(b"abb") && !p(0)(b"aa"));
        assert!(p(3)(b"baab") && !p(3)(b"bab"));
        assert!(p(6)(b"aabba") && !p(6)(b"aba b") && !p(6)(b"ab") && !p(6)(b"abab"));
        assert!(p(7)(b"babb") && !p(7)(b"bbab"));
    }

    #[test]
    fn lex_order() {
        assert!(lex_lt(b"a", b"ab") && lex_lt(b"ab", b"b") && !lex_lt(b"b", b"ab"));
        assert!(!lex_lt(b"ab", b"ab"));
    }
}
