//! Tests-only reference matcher: the Pike VM as it stood before the
//! prefiltered, allocation-free rewrite of `s2s_textmatch::vm`, kept
//! verbatim (one `Rc<Slots>` per `Save`, a materialized char index, a
//! thread seeded at every position) so the differential test in
//! `proptests.rs` can hold the new matcher to the same leftmost-first,
//! greedy/lazy and capture semantics. Not part of the library.

use std::rc::Rc;

use s2s_textmatch::ast::is_word_char;
use s2s_textmatch::compiler::{Inst, Program};
use s2s_textmatch::ConstraintOp;

/// Searches `haystack` for the leftmost match starting at or after byte
/// offset `start`. Returns the capture slots (pairs of byte offsets) on
/// success: index 0 = whole match, index `i` = group `i`.
pub fn search(
    program: &Program,
    haystack: &str,
    start: usize,
) -> Option<Vec<Option<(usize, usize)>>> {
    let chars: Vec<(usize, char)> =
        haystack[start..].char_indices().map(|(i, c)| (i + start, c)).collect();
    search_chars(program, haystack, &chars)
}

/// Like [`search`], but over a precomputed `(byte offset, char)` slice
/// (absolute offsets into `haystack`). Lets iteration reuse one index
/// vector instead of re-allocating per call.
pub fn search_chars(
    program: &Program,
    haystack: &str,
    chars: &[(usize, char)],
) -> Option<Vec<Option<(usize, usize)>>> {
    let n = program.insts.len();

    let mut clist = ThreadList::new(n);
    let mut nlist = ThreadList::new(n);
    let mut matched: Option<Rc<Slots>> = None;

    // Positions are indices into `chars`, plus one end-of-input position.
    for pos in 0..=chars.len() {
        let at = chars.get(pos).map(|&(b, _)| b).unwrap_or(haystack.len());

        // Only seed new start threads while no match has been found
        // (leftmost semantics); seed at lower priority than existing
        // threads so earlier starts win.
        if matched.is_none() {
            let slots = Rc::new(Slots::new(program.slots));
            add_thread(program, &mut clist, 0, slots, haystack, at);
        }

        if clist.is_empty() && matched.is_some() {
            break;
        }

        let mut i = 0;
        while i < clist.threads.len() {
            let Thread { pc, slots } = clist.threads[i].clone();
            i += 1;
            match &program.insts[pc] {
                Inst::Match => {
                    // Highest-priority match at this position; cut off all
                    // lower-priority threads.
                    matched = Some(slots);
                    clist.threads.truncate(i);
                    break;
                }
                Inst::Char(c) => {
                    if let Some(&(_, hc)) = chars.get(pos) {
                        if hc == *c {
                            let next_at = next_boundary(chars, pos, haystack);
                            add_thread(program, &mut nlist, pc + 1, slots, haystack, next_at);
                        }
                    }
                }
                Inst::Any => {
                    if let Some(&(_, hc)) = chars.get(pos) {
                        if hc != '\n' {
                            let next_at = next_boundary(chars, pos, haystack);
                            add_thread(program, &mut nlist, pc + 1, slots, haystack, next_at);
                        }
                    }
                }
                Inst::Class(set) => {
                    if let Some(&(_, hc)) = chars.get(pos) {
                        if set.contains(hc) {
                            let next_at = next_boundary(chars, pos, haystack);
                            add_thread(program, &mut nlist, pc + 1, slots, haystack, next_at);
                        }
                    }
                }
                // Split/Jmp/Save/Assert are handled in add_thread.
                _ => unreachable!("non-consuming instruction in run list"),
            }
        }

        std::mem::swap(&mut clist, &mut nlist);
        nlist.clear();

        if matched.is_some() && clist.is_empty() {
            break;
        }
    }

    matched.map(|slots| {
        (0..program.slots / 2)
            .map(|g| match (slots.get(2 * g), slots.get(2 * g + 1)) {
                (Some(s), Some(e)) => Some((s, e)),
                _ => None,
            })
            .collect()
    })
}

fn next_boundary(chars: &[(usize, char)], pos: usize, haystack: &str) -> usize {
    chars.get(pos + 1).map(|&(b, _)| b).unwrap_or(haystack.len())
}

/// Persistent capture-slot list: a small immutable linked structure so that
/// threads can share unmodified prefixes cheaply.
#[derive(Debug)]
struct Slots {
    values: Vec<Option<usize>>,
}

impl Slots {
    fn new(n: usize) -> Self {
        Slots { values: vec![None; n] }
    }

    fn set(self: &Rc<Self>, index: usize, value: usize) -> Rc<Self> {
        let mut values = self.values.clone();
        if index < values.len() {
            values[index] = Some(value);
        }
        Rc::new(Slots { values })
    }

    fn get(&self, index: usize) -> Option<usize> {
        *self.values.get(index)?
    }
}

#[derive(Clone)]
struct Thread {
    pc: usize,
    slots: Rc<Slots>,
}

struct ThreadList {
    threads: Vec<Thread>,
    seen: Vec<bool>,
}

impl ThreadList {
    fn new(n: usize) -> Self {
        ThreadList { threads: Vec::new(), seen: vec![false; n] }
    }

    fn is_empty(&self) -> bool {
        self.threads.is_empty()
    }

    fn clear(&mut self) {
        self.threads.clear();
        self.seen.iter_mut().for_each(|s| *s = false);
    }
}

/// Adds a thread, eagerly following non-consuming instructions (epsilon
/// closure) and de-duplicating by program counter.
fn add_thread(
    program: &Program,
    list: &mut ThreadList,
    pc: usize,
    slots: Rc<Slots>,
    haystack: &str,
    at: usize,
) {
    if list.seen[pc] {
        return;
    }
    list.seen[pc] = true;
    match &program.insts[pc] {
        Inst::Jmp(t) => add_thread(program, list, *t, slots, haystack, at),
        Inst::Split(a, b) => {
            add_thread(program, list, *a, slots.clone(), haystack, at);
            add_thread(program, list, *b, slots, haystack, at);
        }
        Inst::Save(n) => {
            let slots = slots.set(*n, at);
            add_thread(program, list, pc + 1, slots, haystack, at);
        }
        Inst::AssertStart => {
            if at == 0 {
                add_thread(program, list, pc + 1, slots, haystack, at);
            }
        }
        Inst::AssertEnd => {
            if at == haystack.len() {
                add_thread(program, list, pc + 1, slots, haystack, at);
            }
        }
        Inst::AssertWordBoundary => {
            if at_word_boundary(haystack, at) {
                add_thread(program, list, pc + 1, slots, haystack, at);
            }
        }
        Inst::AssertNotWordBoundary => {
            if !at_word_boundary(haystack, at) {
                add_thread(program, list, pc + 1, slots, haystack, at);
            }
        }
        _ => list.threads.push(Thread { pc, slots }),
    }
}

fn at_word_boundary(haystack: &str, at: usize) -> bool {
    let before = haystack[..at].chars().next_back().map(is_word_char).unwrap_or(false);
    let after = haystack[at..].chars().next().map(is_word_char).unwrap_or(false);
    before != after
}

/// Every non-overlapping match of `program` in `haystack`, iterated
/// exactly as the old `FindIter` did.
pub fn find_iter(program: &Program, haystack: &str) -> Vec<Vec<Option<(usize, usize)>>> {
    let chars: Vec<(usize, char)> = haystack.char_indices().collect();
    let mut out = Vec::new();
    let mut idx = 0;
    while idx <= chars.len() {
        let Some(groups) = search_chars(program, haystack, &chars[idx..]) else { break };
        let (start, end) = groups[0].expect("group 0 always participates");
        out.push(groups);
        if end == start {
            // Empty match: advance one char to guarantee progress.
            if idx == chars.len() {
                break;
            }
            while idx < chars.len() && chars[idx].0 < end {
                idx += 1;
            }
            idx += 1;
        } else {
            while idx < chars.len() && chars[idx].0 < end {
                idx += 1;
            }
        }
    }
    out
}

/// SQL `LIKE` as `s2s_textmatch::like_match` stood before it became
/// iterative: one recursive backtrack per `%`, exponential on patterns
/// such as `%a%a%a…b`, kept for the differential test on short inputs.
pub fn like_match(value: &str, pattern: &str) -> bool {
    fn rec(v: &[char], p: &[char]) -> bool {
        match p.first() {
            None => v.is_empty(),
            Some('%') => (0..=v.len()).any(|i| rec(&v[i..], &p[1..])),
            Some('_') => !v.is_empty() && rec(&v[1..], &p[1..]),
            Some(c) => v.first() == Some(c) && rec(&v[1..], &p[1..]),
        }
    }
    let v: Vec<char> = value.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&v, &p)
}

/// `ConstraintOp::holds` as it stood before the constant was read once
/// into a `Comparand`: both sides parsed as `f64` for every candidate.
/// Kept verbatim (only `self` spelled as a parameter, and `like_match`
/// the library's) for the differential test in `proptests.rs`.
pub fn holds(op: ConstraintOp, candidate: &str, constant: &str) -> bool {
    if op == ConstraintOp::Like {
        return s2s_textmatch::like_match(candidate, constant);
    }
    let ord = match (candidate.parse::<f64>(), constant.parse::<f64>()) {
        (Ok(a), Ok(b)) => a.partial_cmp(&b),
        _ => Some(candidate.cmp(constant)),
    };
    let Some(ord) = ord else { return false };
    match op {
        ConstraintOp::Eq => ord.is_eq(),
        ConstraintOp::Ne => ord.is_ne(),
        ConstraintOp::Lt => ord.is_lt(),
        ConstraintOp::Le => ord.is_le(),
        ConstraintOp::Gt => ord.is_gt(),
        ConstraintOp::Ge => ord.is_ge(),
        ConstraintOp::Like => unreachable!("handled above"),
    }
}
