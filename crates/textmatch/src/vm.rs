//! Pike-style NFA virtual machine.
//!
//! Executes a compiled [`Program`] over a haystack in
//! `O(len(program) × len(haystack))` time, tracking capture slots per
//! thread. Thread priority (order in the thread list) implements leftmost
//! and greediness semantics without backtracking.
//!
//! Two things keep a scan cheap:
//!
//! - **Literal-prefix prescan.** When every match must begin with the
//!   same literal run ([`Program`]'s prefix), a start thread is seeded
//!   only where the remaining haystack begins with it, and while no
//!   thread is live the scan jumps straight to the next occurrence with
//!   `str::find`. Patterns without a prefix seed at every position.
//! - **No allocation per character.** Threads keep their capture slots
//!   in flat per-instruction storage inside two reused thread lists,
//!   de-duplication uses a generation-stamped set, and chars are decoded
//!   from byte offsets as the scan reaches them.

use crate::ast::is_word_char;
use crate::compiler::{Inst, Program};

/// Searches `haystack` for the leftmost match starting at or after byte
/// offset `start`. Returns the capture slots (pairs of byte offsets) on
/// success: index 0 = whole match, index `i` = group `i`.
pub fn search(
    program: &Program,
    haystack: &str,
    start: usize,
) -> Option<Vec<Option<(usize, usize)>>> {
    Cache::new(program).search(program, haystack, start)
}

/// The VM's working memory for one program: reusable across searches of
/// that program, so iterating over many matches allocates once.
#[derive(Debug)]
pub(crate) struct Cache {
    clist: ThreadList,
    nlist: ThreadList,
    /// Slots of the thread being followed through its epsilon closure.
    scratch: Vec<Option<usize>>,
    /// Explicit depth-first stack for the epsilon closure.
    stack: Vec<Frame>,
    /// Slots of the highest-priority match found so far.
    matched: Vec<Option<usize>>,
}

/// One pending step of the epsilon closure.
#[derive(Debug, Clone, Copy)]
enum Frame {
    /// Follow the instruction at this pc.
    Explore(usize),
    /// Put a capture slot back to the value it had before a `Save`.
    Restore(usize, Option<usize>),
}

impl Cache {
    pub(crate) fn new(program: &Program) -> Self {
        let (n, slots) = (program.insts.len(), program.slots);
        Cache {
            clist: ThreadList::new(n, slots),
            nlist: ThreadList::new(n, slots),
            scratch: vec![None; slots],
            stack: Vec::new(),
            matched: vec![None; slots],
        }
    }

    /// [`search`] over this cache's working memory.
    pub(crate) fn search(
        &mut self,
        program: &Program,
        haystack: &str,
        start: usize,
    ) -> Option<Vec<Option<(usize, usize)>>> {
        let prefix = program.prefix.as_str();
        self.clist.clear();
        self.nlist.clear();
        let mut matched = false;
        let mut at = start;

        loop {
            // Only seed new start threads while no match has been found
            // (leftmost semantics); seed at lower priority than existing
            // threads so earlier starts win. A thread seeded where the
            // prefix does not follow would die within the prefix, so it
            // is never seeded; with no thread live, nothing can happen
            // before the prefix's next occurrence.
            if !matched {
                if self.clist.is_empty() && !prefix.is_empty() {
                    match haystack[at..].find(prefix) {
                        Some(skip) => at += skip,
                        None => break,
                    }
                }
                // (An empty prefix skips the comparison call, which would
                // otherwise cost more than the seed it guards.)
                if prefix.is_empty() || haystack.as_bytes()[at..].starts_with(prefix.as_bytes()) {
                    self.scratch.fill(None);
                    let Cache { clist, scratch, stack, .. } = self;
                    add_thread(program, clist, scratch, stack, 0, haystack, at);
                }
            }

            if self.clist.is_empty() && matched {
                break;
            }

            let ch = haystack[at..].chars().next();
            let next_at = at + ch.map_or(0, char::len_utf8);
            matched |= self.step(program, ch, haystack, next_at);

            std::mem::swap(&mut self.clist, &mut self.nlist);
            self.nlist.clear();

            if (matched && self.clist.is_empty()) || ch.is_none() {
                break;
            }
            at = next_at;
        }

        matched.then(|| {
            self.matched
                .chunks_exact(2)
                .map(|pair| match *pair {
                    [Some(s), Some(e)] => Some((s, e)),
                    _ => None,
                })
                .collect()
        })
    }

    /// Advances every thread of the current list over `ch` into the next
    /// list, in priority order. Returns whether a thread reached `Match`;
    /// its slots are then in `matched` and lower-priority threads are cut.
    fn step(
        &mut self,
        program: &Program,
        ch: Option<char>,
        haystack: &str,
        next_at: usize,
    ) -> bool {
        let Cache { clist, nlist, scratch, stack, matched } = self;
        for &pc in &clist.threads {
            let advance = match (&program.insts[pc], ch) {
                (Inst::Match, _) => {
                    matched.copy_from_slice(clist.slots(pc));
                    return true;
                }
                (Inst::Char(c), Some(hc)) => hc == *c,
                (Inst::Any, Some(hc)) => hc != '\n',
                (Inst::Class(set), Some(hc)) => set.contains(hc),
                _ => false,
            };
            if advance {
                scratch.copy_from_slice(clist.slots(pc));
                add_thread(program, nlist, scratch, stack, pc + 1, haystack, next_at);
            }
        }
        false
    }
}

/// Adds a thread at `pc` carrying the slots in `scratch` to `list`,
/// eagerly following non-consuming instructions (epsilon closure)
/// depth-first, higher-priority branch first, and de-duplicating by
/// program counter. `scratch` is back to its entry value on return.
fn add_thread(
    program: &Program,
    list: &mut ThreadList,
    scratch: &mut [Option<usize>],
    stack: &mut Vec<Frame>,
    pc: usize,
    haystack: &str,
    at: usize,
) {
    stack.push(Frame::Explore(pc));
    while let Some(frame) = stack.pop() {
        let mut pc = match frame {
            Frame::Explore(pc) => pc,
            Frame::Restore(slot, value) => {
                scratch[slot] = value;
                continue;
            }
        };
        while list.insert(pc) {
            pc = match &program.insts[pc] {
                Inst::Jmp(t) => *t,
                Inst::Split(a, b) => {
                    stack.push(Frame::Explore(*b));
                    *a
                }
                Inst::Save(n) => {
                    if let Some(slot) = scratch.get_mut(*n) {
                        stack.push(Frame::Restore(*n, *slot));
                        *slot = Some(at);
                    }
                    pc + 1
                }
                Inst::AssertStart if at == 0 => pc + 1,
                Inst::AssertEnd if at == haystack.len() => pc + 1,
                Inst::AssertWordBoundary if at_word_boundary(haystack, at) => pc + 1,
                Inst::AssertNotWordBoundary if !at_word_boundary(haystack, at) => pc + 1,
                Inst::AssertStart
                | Inst::AssertEnd
                | Inst::AssertWordBoundary
                | Inst::AssertNotWordBoundary => break,
                Inst::Char(_) | Inst::Any | Inst::Class(_) | Inst::Match => {
                    list.push(pc, scratch);
                    break;
                }
            };
        }
    }
}

/// The threads at one haystack position, in priority order, with their
/// capture slots stored flat per program counter.
#[derive(Debug)]
struct ThreadList {
    /// Program counters of consuming (or `Match`) threads, by priority.
    threads: Vec<usize>,
    /// `slots[pc * width..][..width]` are the slots of the thread at `pc`.
    slots: Vec<Option<usize>>,
    width: usize,
    /// `seen[pc] == generation` iff `pc` was visited at this position.
    seen: Vec<u32>,
    generation: u32,
}

impl ThreadList {
    fn new(n: usize, width: usize) -> Self {
        ThreadList {
            threads: Vec::new(),
            slots: vec![None; n * width],
            width,
            seen: vec![0; n],
            generation: 1,
        }
    }

    fn is_empty(&self) -> bool {
        self.threads.is_empty()
    }

    fn clear(&mut self) {
        self.threads.clear();
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.seen.fill(0);
            self.generation = 1;
        }
    }

    /// Marks `pc` visited; false if it already was at this position.
    fn insert(&mut self, pc: usize) -> bool {
        let fresh = self.seen[pc] != self.generation;
        self.seen[pc] = self.generation;
        fresh
    }

    fn push(&mut self, pc: usize, slots: &[Option<usize>]) {
        self.threads.push(pc);
        self.slots[pc * self.width..][..self.width].copy_from_slice(slots);
    }

    fn slots(&self, pc: usize) -> &[Option<usize>] {
        &self.slots[pc * self.width..][..self.width]
    }
}

fn at_word_boundary(haystack: &str, at: usize) -> bool {
    let before = haystack[..at].chars().next_back().map(is_word_char).unwrap_or(false);
    let after = haystack[at..].chars().next().map(is_word_char).unwrap_or(false);
    before != after
}

#[cfg(test)]
mod tests {
    use crate::Regex;

    #[test]
    fn greedy_vs_lazy_capture_positions() {
        let re = Regex::new(r#""(.*)""#).unwrap();
        let m = re.find(r#"say "a" and "b" now"#).unwrap();
        assert_eq!(m.get(1).unwrap().text(), r#"a" and "b"#);
        let re = Regex::new(r#""(.*?)""#).unwrap();
        let m = re.find(r#"say "a" and "b" now"#).unwrap();
        assert_eq!(m.get(1).unwrap().text(), "a");
    }

    #[test]
    fn group_in_loop_reports_last_iteration() {
        let re = Regex::new(r"(?:(a|b))+").unwrap();
        let m = re.find("abab").unwrap();
        assert_eq!(m.text(), "abab");
        assert_eq!(m.get(1).unwrap().text(), "b");
    }

    #[test]
    fn unmatched_group_is_none() {
        let re = Regex::new(r"(a)|(b)").unwrap();
        let m = re.find("b").unwrap();
        assert!(m.get(1).is_none());
        assert_eq!(m.get(2).unwrap().text(), "b");
    }

    #[test]
    fn dot_does_not_match_newline() {
        let re = Regex::new(r"a.b").unwrap();
        assert!(!re.is_match("a\nb"));
        assert!(re.is_match("axb"));
    }

    #[test]
    fn multibyte_offsets_are_byte_offsets() {
        let re = Regex::new("b").unwrap();
        let m = re.find("éb").unwrap();
        assert_eq!(m.start(), 2); // é is 2 bytes
    }

    #[test]
    fn leftmost_longest_among_greedy() {
        let re = Regex::new("a|ab").unwrap();
        // Alternation is first-match (PCRE-like), not POSIX longest.
        assert_eq!(re.find("ab").unwrap().text(), "a");
    }

    #[test]
    fn anchored_end_only() {
        let re = Regex::new(r"\d+$").unwrap();
        assert_eq!(re.find("a1 b22").unwrap().text(), "22");
    }

    fn spans(pattern: &str, haystack: &str) -> Vec<(usize, usize)> {
        Regex::new(pattern).unwrap().find_iter(haystack).map(|m| (m.start(), m.end())).collect()
    }

    #[test]
    fn prefix_at_the_very_end() {
        assert_eq!(spans("ab", "xxab"), [(2, 4)]);
        let re = Regex::new("price: ([0-9]*)").unwrap();
        let m = re.find("x price: ").unwrap();
        assert_eq!((m.start(), m.end()), (2, 9));
        assert_eq!(m.get(1).map(|c| (c.start(), c.end())), Some((9, 9)));
        assert!(re.find("x price:").is_none());
    }

    #[test]
    fn overlapping_prefix_candidates() {
        assert_eq!(spans("aab", "aaab"), [(1, 4)]);
        assert_eq!(spans("aa", "aaaaa"), [(0, 2), (2, 4)]);
        assert_eq!(spans("aab", "aaaabaab"), [(2, 5), (5, 8)]);
    }

    #[test]
    fn multibyte_prefix() {
        let re = Regex::new("é:(b+)").unwrap();
        let m = re.find("aé:é:bb").unwrap();
        assert_eq!((m.start(), m.end()), (4, 9));
        assert_eq!(m.get(1).unwrap().text(), "bb");
        assert_eq!(spans("é:", "é:é:xé"), [(0, 3), (3, 6)]);
    }

    #[test]
    fn empty_match_after_a_literal() {
        let re = Regex::new("a(b*)").unwrap();
        let m = re.find("xa").unwrap();
        assert_eq!((m.start(), m.end()), (1, 2));
        assert_eq!(m.get(1).map(|c| (c.start(), c.end())), Some((2, 2)));
        assert_eq!(spans("a(x?)", "aa"), [(0, 1), (1, 2)]);
    }

    #[test]
    fn anchored_literals() {
        assert_eq!(spans("^lit", "lit lit"), [(0, 3)]);
        assert!(spans("^lit", "xlit").is_empty());
        assert_eq!(spans("lit$", "lit lit"), [(4, 7)]);
        assert!(spans("lit$", "lit ").is_empty());
    }

    #[test]
    fn find_at_mid_haystack_sees_the_char_before_start() {
        let re = Regex::new(r"\bcat").unwrap();
        assert_eq!(re.find_at("concat cat", 3).unwrap().start(), 7);
        let re = Regex::new(r"\Bcat").unwrap();
        assert_eq!(re.find_at("concat cat", 3).unwrap().start(), 3);
        let re = Regex::new(r"cat\b").unwrap();
        assert_eq!(re.find_at("cats cat", 1).unwrap().start(), 5);
    }
}
