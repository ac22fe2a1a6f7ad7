//! A seeded splitmix64 generator. The benchmark owns its randomness so
//! that the program under test only ever sees the generated SQL text and
//! rows, and the same seed always yields the same inputs.

pub struct Rng(u64);

impl Rng {
    /// An independent stream per `(seed, stream)` pair.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// A word over `{a, b}` of exactly `len` symbols.
    pub fn word(&mut self, len: usize) -> String {
        (0..len)
            .map(|_| if self.next_u64() & 1 == 0 { 'a' } else { 'b' })
            .collect()
    }

    /// A word over `{a, b}` with length uniform in `min..=max`.
    pub fn word_between(&mut self, min: usize, max: usize) -> String {
        let len = self.range(min, max);
        self.word(len)
    }
}
