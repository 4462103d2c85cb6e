//! Pike-style NFA virtual machine.
//!
//! Executes a compiled [`Program`] over a haystack in
//! `O(len(program) × len(haystack))` time, tracking capture slots per
//! thread. Thread priority (order in the thread list) implements leftmost
//! and greediness semantics without backtracking.
//!
//! The search reads the haystack's bytes in place, starts a thread only
//! where the program's required literal prefix occurs, and jumps between
//! such candidates with a substring search whenever no thread is alive.
//! Every match begins with the prefix, so the threads that are never
//! started could only have died; the ones that are started run in the
//! order and lockstep of an unfiltered search, which keeps its
//! leftmost-first result and its linear bound. A thread that outranks
//! every other and sits on a terminal run (`\w+` at the end of
//! `brand: (\w+)`) is finished in one step: its run is consumed in a
//! tight loop. All working memory lives in a [`Scratch`] that one search
//! after another reuses; it grows with the live threads, not with the
//! program.

use crate::ast::is_word_char;
use crate::compiler::{Inst, Program, TerminalRun};

/// Marks a capture slot no `Save` has written.
pub const UNSET: usize = usize::MAX;

/// Working memory of [`search`], reusable across searches with the same
/// program (an iteration over all matches allocates it once).
#[derive(Debug)]
pub struct Scratch {
    clist: Threads,
    nlist: Threads,
    /// Pending work of the epsilon closure, in place of recursion.
    stack: Vec<Frame>,
    /// Capture slots along the path the closure is exploring.
    cur: Vec<usize>,
    /// Capture slots of the best match found so far.
    matched: Vec<usize>,
}

impl Scratch {
    /// Working memory for searches with `program`.
    pub fn new(program: &Program) -> Self {
        let n = program.insts.len();
        Scratch {
            clist: Threads::new(n),
            nlist: Threads::new(n),
            stack: Vec::new(),
            cur: vec![UNSET; program.slots],
            matched: vec![UNSET; program.slots],
        }
    }
}

/// The threads alive at one haystack position, highest priority first.
#[derive(Debug)]
struct Threads {
    /// `seen[pc] == generation` iff the closure visited `pc` at this
    /// position, so clearing is a counter bump whatever the program's
    /// size.
    seen: Vec<u32>,
    generation: u32,
    /// The visited instructions that consume a character (or are
    /// `Match`).
    pcs: Vec<usize>,
    /// `program.slots` capture offsets per entry of `pcs`, flat.
    slots: Vec<usize>,
}

impl Threads {
    fn new(insts: usize) -> Self {
        Threads { seen: vec![0; insts], generation: 0, pcs: Vec::new(), slots: Vec::new() }
    }

    fn clear(&mut self) {
        self.pcs.clear();
        self.slots.clear();
        if self.generation == u32::MAX {
            self.seen.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
    }

    /// Marks `pc` visited; `false` if it already was.
    fn visit(&mut self, pc: usize) -> bool {
        let seen = std::mem::replace(&mut self.seen[pc], self.generation);
        seen != self.generation
    }
}

#[derive(Debug)]
enum Frame {
    /// Follow the closure from this instruction.
    Explore(usize),
    /// Undo a `Save` once everything behind it has been explored.
    Restore { slot: usize, old: usize },
}

/// Searches `haystack` for the leftmost match starting at or after byte
/// offset `start` (a char boundary). Returns its capture slots, held in
/// `scratch` until the next search: slots `2i` and `2i + 1` are the byte
/// offsets of group `i` (0 = whole match), [`UNSET`] where the match did
/// not go through the group.
///
/// When the thread that outranks every other waits on a [`TerminalRun`]
/// whose instruction accepts the current character, the search ends
/// there: that thread takes the longest run and matches at its end, and
/// the `Match` it reaches one position later cuts every thread below it.
pub fn search<'s>(
    program: &Program,
    haystack: &str,
    start: usize,
    scratch: &'s mut Scratch,
) -> Option<&'s [usize]> {
    let Scratch { clist, nlist, stack, cur, matched } = scratch;
    // Swapped by reference after every step.
    let (mut clist, mut nlist) = (clist, nlist);
    let n = program.slots;
    let prefix = program.prefix.as_str();
    clist.clear();
    nlist.clear();
    let mut found = false;
    let mut at = start;
    loop {
        if clist.pcs.is_empty() {
            if found {
                break;
            }
            // Every match begins with the prefix, so with no thread alive
            // nothing can start before its next occurrence.
            if !prefix.is_empty() {
                at += haystack[at..].find(prefix)?;
            }
            // The visits left behind belong to the position jumped from.
            clist.clear();
            if program.skip > 0 {
                // The candidate's thread is the only one there can be
                // until the end of the prefix: resume it there.
                cur.fill(UNSET);
                cur[0] = at;
                at += prefix.len();
                add_thread(program, clist, stack, cur, 1 + program.skip, haystack, at);
            }
        }
        // Seed a new start only while no match has been found (leftmost
        // semantics), at lower priority than the threads already running
        // so earlier starts win.
        if !found && (prefix.is_empty() || haystack[at..].starts_with(prefix)) {
            cur.fill(UNSET);
            add_thread(program, clist, stack, cur, 0, haystack, at);
        }
        let c = char_at(haystack, at);
        let next = at + c.map_or(0, char::len_utf8);
        // The first thread outranks every other, the ones seeded later
        // included. On a terminal run that accepts `c` it cannot fail:
        // it prefers another lap to the exit, and its exit matches.
        if let (Some(c), Some(&pc)) = (c, clist.pcs.first()) {
            if let Some(run) = terminal_run(program, pc) {
                let inst = &program.insts[pc];
                if inst.consumes(c) {
                    #[cfg(test)]
                    tests::RUNS_FINISHED.with(|n| n.set(n.get() + 1));
                    matched.copy_from_slice(&clist.slots[..n]);
                    let end = run_end(run, inst, haystack, next);
                    for &slot in &run.saves {
                        matched[slot] = end;
                    }
                    return Some(matched);
                }
            }
        }
        for i in 0..clist.pcs.len() {
            let pc = clist.pcs[i];
            let advance = match &program.insts[pc] {
                Inst::Match => {
                    // Highest-priority match at this position; cut off
                    // all lower-priority threads.
                    matched.copy_from_slice(&clist.slots[i * n..(i + 1) * n]);
                    found = true;
                    break;
                }
                // Split/Jmp/Save/Assert are followed in add_thread.
                inst => c.is_some_and(|c| inst.consumes(c)),
            };
            if advance {
                cur.copy_from_slice(&clist.slots[i * n..(i + 1) * n]);
                add_thread(program, nlist, stack, cur, pc + 1, haystack, next);
            }
        }
        std::mem::swap(&mut clist, &mut nlist);
        nlist.clear();
        if c.is_none() {
            break;
        }
        at = next;
    }
    found.then_some(matched)
}

fn terminal_run(program: &Program, pc: usize) -> Option<&TerminalRun> {
    let i = program.runs.binary_search_by_key(&pc, |run| run.pc).ok()?;
    Some(&program.runs[i])
}

/// The end of the longest run of characters `inst` (the run's
/// instruction) accepts, starting at byte offset `at`.
fn run_end(run: &TerminalRun, inst: &Inst, haystack: &str, mut at: usize) -> usize {
    let bytes = haystack.as_bytes();
    while let Some(&b) = bytes.get(at) {
        if b < 0x80 {
            if run.ascii >> b & 1 == 0 {
                break;
            }
            at += 1;
        } else {
            let c = haystack[at..].chars().next().expect("a char boundary");
            if !inst.consumes(c) {
                break;
            }
            at += c.len_utf8();
        }
    }
    at
}

fn char_at(haystack: &str, at: usize) -> Option<char> {
    let b = *haystack.as_bytes().get(at)?;
    if b < 0x80 {
        Some(b as char)
    } else {
        haystack[at..].chars().next()
    }
}

/// Adds the thread `pc` with capture slots `cur` to `list`, following
/// non-consuming instructions (epsilon closure) and de-duplicating by
/// program counter. `cur` is left as it was passed in.
fn add_thread(
    program: &Program,
    list: &mut Threads,
    stack: &mut Vec<Frame>,
    cur: &mut [usize],
    pc: usize,
    haystack: &str,
    at: usize,
) {
    stack.push(Frame::Explore(pc));
    while let Some(frame) = stack.pop() {
        let mut pc = match frame {
            Frame::Explore(pc) => pc,
            Frame::Restore { slot, old } => {
                cur[slot] = old;
                continue;
            }
        };
        while list.visit(pc) {
            let pass = match &program.insts[pc] {
                Inst::Jmp(t) => {
                    pc = *t;
                    continue;
                }
                Inst::Split(a, b) => {
                    stack.push(Frame::Explore(*b));
                    pc = *a;
                    continue;
                }
                Inst::Save(slot) => {
                    stack.push(Frame::Restore { slot: *slot, old: cur[*slot] });
                    cur[*slot] = at;
                    true
                }
                Inst::AssertStart => at == 0,
                Inst::AssertEnd => at == haystack.len(),
                Inst::AssertWordBoundary => at_word_boundary(haystack, at),
                Inst::AssertNotWordBoundary => !at_word_boundary(haystack, at),
                _ => {
                    list.pcs.push(pc);
                    list.slots.extend_from_slice(cur);
                    false
                }
            };
            if !pass {
                break;
            }
            pc += 1;
        }
    }
}

fn at_word_boundary(haystack: &str, at: usize) -> bool {
    let before = haystack[..at].chars().next_back().map(is_word_char).unwrap_or(false);
    let after = haystack[at..].chars().next().map(is_word_char).unwrap_or(false);
    before != after
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use crate::Regex;

    thread_local! {
        /// Searches this thread ended on a terminal run.
        pub(super) static RUNS_FINISHED: Cell<usize> = const { Cell::new(0) };
    }

    /// A match as its whole span and the text of group 1.
    type Found<'h> = ((usize, usize), Option<&'h str>);

    /// Every match of `pattern` in `haystack`, and how many of the
    /// searches ended on a terminal run.
    fn runs<'h>(pattern: &str, haystack: &'h str) -> (Vec<Found<'h>>, usize) {
        let before = RUNS_FINISHED.with(Cell::get);
        let found = Regex::new(pattern)
            .unwrap()
            .find_iter(haystack)
            .map(|m| ((m.start(), m.end()), m.get(1).map(|c| c.text())))
            .collect();
        (found, RUNS_FINISHED.with(Cell::get) - before)
    }

    #[test]
    fn terminal_runs_finish_in_one_step() {
        // The loop sits inside an optional group beside a failed branch;
        // the `Match` behind the loop is the `?`'s skip.
        assert_eq!(runs(r"- b|[ab]([^\w ]+)?", "b--x"), (vec![((0, 3), Some("--"))], 1));
        // Here the run's first char is refused, so the skip matches.
        assert_eq!(runs(r"- b|[ab]([^\w ]+)?", "b c"), (vec![((0, 1), None)], 0));
        // A run that ends with the haystack.
        assert_eq!(
            runs(r"k=(\d+)", "k=1 k=234"),
            (vec![((0, 3), Some("1")), ((4, 9), Some("234"))], 2)
        );
        // Multibyte members, past the ASCII bitmap.
        assert_eq!(runs("([é日]+)", "xé日é日y"), (vec![((1, 11), Some("é日é日"))], 1));
        // The class holds the prefix's first char: the thread seeded at
        // the next `a` ranks below the run.
        assert_eq!(runs(r"a(\w+)", "aaaa"), (vec![((0, 4), Some("aaa"))], 1));
        assert_eq!(runs(r"ab*", "abbbc"), (vec![((0, 4), None)], 1));
    }

    #[test]
    fn loops_that_are_not_terminal_runs_step() {
        // Lazy: the exit is preferred.
        assert_eq!(runs(r"a(\w+?)", "abc"), (vec![((0, 2), Some("b"))], 0));
        // The exit passes an assertion.
        assert_eq!(runs(r"a(\w+)\b", "abc d"), (vec![((0, 3), Some("bc"))], 0));
        assert_eq!(runs(r"(\d+)$", "a1 b22"), (vec![((4, 6), Some("22"))], 0));
        // The body is not one instruction.
        assert_eq!(runs(r"((?:ab)+)", "ababx"), (vec![((0, 4), Some("abab"))], 0));
    }

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

    fn spans(pattern: &str, haystack: &str) -> Vec<(usize, usize)> {
        Regex::new(pattern).unwrap().find_iter(haystack).map(|m| (m.start(), m.end())).collect()
    }

    #[test]
    fn failed_candidate_then_matching_candidate() {
        let re = Regex::new(r"brand: (\w+)").unwrap();
        let m = re.find("brand: ! brand: x").unwrap();
        assert_eq!((m.start(), m.end()), (9, 17));
        assert_eq!(m.get(1).unwrap().text(), "x");
        // A candidate that dies inside the prefix of the next one.
        assert_eq!(spans("ab!", "abab!"), [(2, 5)]);
    }

    #[test]
    fn self_overlapping_prefix_starts_inside_a_candidate() {
        // The thread from 0 dies at `!`; the match starts at 2, inside
        // the first occurrence of the prefix `abab`.
        assert_eq!(spans("(?:abab)+!", "ababab!"), [(2, 7)]);
        assert_eq!(spans("aa", "aaaaa"), [(0, 2), (2, 4)]);
        assert_eq!(spans("aab", "aaab"), [(1, 4)]);
    }

    #[test]
    fn adjacent_candidates() {
        assert_eq!(spans("ab", "ababab"), [(0, 2), (2, 4), (4, 6)]);
        assert_eq!(spans("ab(c)?", "ababc"), [(0, 2), (2, 5)]);
    }

    #[test]
    fn patterns_without_a_prefix_are_not_filtered() {
        assert_eq!(spans("cat|dog", "a dog, a cat"), [(2, 5), (9, 12)]);
        assert_eq!(spans(r"[cd]\w+", "a dog, a cat"), [(2, 5), (9, 12)]);
        assert_eq!(spans("^ab", "abab"), [(0, 2)]);
        assert_eq!(spans(r"\bab", "ab cab ab"), [(0, 2), (7, 9)]);
        assert_eq!(spans(r"ab\b", "abc ab"), [(4, 6)]);
    }

    #[test]
    fn assertion_behind_a_skipped_prefix_sees_the_new_position() {
        // ` \b` fails at 1 and 2 (space, then `é`), then jumps to 5.
        assert_eq!(spans(r" \b", "a  é 1"), [(5, 6)]);
    }

    #[test]
    fn multibyte_prefix() {
        assert_eq!(spans("é日+", "e日 é日日 é"), [(5, 13)]);
        let m = Regex::new("日(.)").unwrap().find("本日は").unwrap();
        assert_eq!(m.get(1).unwrap().text(), "は");
    }

    #[test]
    fn find_at_mid_haystack() {
        let re = Regex::new(r"id: (\d)").unwrap();
        let hay = "id: 1, id: 2, id: 3";
        assert_eq!(re.find_at(hay, 1).unwrap().get(1).unwrap().text(), "2");
        assert_eq!(re.find_at(hay, 7).unwrap().get(1).unwrap().text(), "2");
        assert!(re.find_at(hay, 15).is_none());
        // `^` is the start of the haystack, not of the search.
        assert!(Regex::new("^id").unwrap().find_at(hay, 7).is_none());
    }

    #[test]
    fn empty_match_iteration() {
        assert_eq!(spans("a*", "baaa"), [(0, 0), (1, 4), (4, 4)]);
        assert_eq!(spans("a*", "日a"), [(0, 0), (3, 4), (4, 4)]);
        let re = Regex::new("x*").unwrap();
        assert_eq!(re.split("abc").collect::<Vec<_>>(), ["", "a", "b", "c", ""]);
        assert_eq!(re.replace_all("abc", "-"), "-a-b-c-");
    }

    #[test]
    fn scratch_is_reused_across_a_change_of_outcome() {
        // One iterator: a match, a failed candidate, a match again.
        assert_eq!(spans(r"k=(\d+)", "k=1 k=x k=22"), [(0, 3), (8, 12)]);
    }

    #[test]
    fn anchored_end_only() {
        let re = Regex::new(r"\d+$").unwrap();
        assert_eq!(re.find("a1 b22").unwrap().text(), "22");
    }
}
