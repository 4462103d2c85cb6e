//! Compilation of a pattern [`Ast`] into a linear NFA instruction
//! program executed by the [`vm`](crate::vm).

use crate::ast::{Ast, ClassSet};
use crate::error::RegexError;

/// One NFA instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inst {
    /// Match a specific character and advance.
    Char(char),
    /// Match any character except `\n` and advance.
    Any,
    /// Match a character class and advance.
    Class(ClassSet),
    /// Try `a` first, then `b` (priority encodes greediness).
    Split(usize, usize),
    /// Unconditional jump.
    Jmp(usize),
    /// Record the current haystack offset in capture slot `n`.
    Save(usize),
    /// Assert start of haystack.
    AssertStart,
    /// Assert end of haystack.
    AssertEnd,
    /// Assert a word boundary.
    AssertWordBoundary,
    /// Assert not a word boundary.
    AssertNotWordBoundary,
    /// Successful match.
    Match,
}

/// A compiled program plus metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Instruction sequence; entry point is index 0.
    pub insts: Vec<Inst>,
    /// Number of explicit capture groups (group 0 excluded).
    pub captures: usize,
    /// Total number of save slots = `2 * (captures + 1)`.
    pub slots: usize,
    /// The literal every match begins with: the `Char`s the program
    /// must execute first (group `Save`s between them consume nothing).
    /// Empty when it opens with a class, split or assertion. The
    /// [`vm`](crate::vm) starts threads only where it occurs.
    pub prefix: String,
    /// How many instructions behind `Save(0)` a thread started at an
    /// occurrence of the prefix may skip: the prefix's length in chars
    /// when `insts[1..=skip]` are exactly its `Char`s (no group opens
    /// inside it) and it cannot overlap itself, 0 otherwise. A second
    /// occurrence beginning inside the first would need its own thread
    /// before the first one's reaches the end of the prefix.
    pub skip: usize,
    /// The program's terminal runs, by ascending `pc`.
    pub runs: Vec<TerminalRun>,
}

/// A greedy `+`/`*` loop over one `Char`/`Any`/`Class` instruction whose
/// exit reaches `Match` through `Save`/`Jmp` only, as in `brand: (\w+)`.
/// A thread waiting on its instruction that can consume the current
/// character has a fixed future: it takes the longest run and matches
/// at its end. The [`vm`](crate::vm) finishes such a thread in one step
/// when it outranks every other.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TerminalRun {
    /// The loop's consuming instruction.
    pub pc: usize,
    /// Which ASCII characters the instruction consumes, bit `b` for
    /// byte `b`, so the run's loop tests a bit instead of a class.
    pub ascii: u128,
    /// The capture slots the exit's `Save`s write, in program order.
    pub saves: Vec<usize>,
}

impl TerminalRun {
    /// The run starting at `pc`, if `insts[pc]` begins one.
    fn at(insts: &[Inst], pc: usize) -> Option<TerminalRun> {
        if !insts[pc].consumes_a_char() {
            return None;
        }
        // `e+` is `e; Split(e, exit)`, `e*` is `Split(e, exit); e;
        // Jmp(split)`; a lazy loop's split prefers its exit.
        let exit = match insts.get(pc + 1)? {
            Inst::Split(body, exit) if *body == pc => *exit,
            Inst::Jmp(split) => match insts[*split] {
                Inst::Split(body, exit) if body == pc => exit,
                _ => return None,
            },
            _ => return None,
        };
        let mut saves = Vec::new();
        let mut at = exit;
        // Only a `*` loop jumps backward, and it jumps to its `Split`,
        // which ends the walk.
        loop {
            match insts[at] {
                Inst::Save(slot) => {
                    saves.push(slot);
                    at += 1;
                }
                Inst::Jmp(target) => at = target,
                Inst::Match => break,
                _ => return None,
            }
        }
        let ascii = (0..128u8)
            .filter(|&b| insts[pc].consumes(b as char))
            .fold(0u128, |bits, b| bits | 1 << b);
        Some(TerminalRun { pc, ascii, saves })
    }
}

impl Inst {
    fn consumes_a_char(&self) -> bool {
        matches!(self, Inst::Char(_) | Inst::Any | Inst::Class(_))
    }

    /// Whether this consuming instruction accepts `c`.
    ///
    /// # Panics
    ///
    /// On an instruction that consumes nothing.
    pub(crate) fn consumes(&self, c: char) -> bool {
        match self {
            Inst::Char(x) => c == *x,
            Inst::Any => c != '\n',
            Inst::Class(set) => set.contains(c),
            _ => unreachable!("not a consuming instruction"),
        }
    }
}

/// Upper bound on compiled program size, guarding against pathological
/// counted repetitions like `(a{1000}){1000}`.
const MAX_PROGRAM: usize = 1 << 20;

/// Upper bound on [`Program::thread_table`]. A search keeps two thread
/// lists, so this caps its memory at 2 × 8 B × the bound (32 MiB), and
/// the slots one step can copy. Without it, 8 000 alternated `(a)`
/// groups (31 KB of pattern) asked for 1.96 GB on a 4-byte haystack.
const MAX_THREAD_SLOTS: usize = 1 << 21;

/// Compiles `ast` into a [`Program`].
///
/// # Errors
///
/// Returns [`RegexError`] if expansion of counted repetitions would exceed
/// the program-size limit, or if the program's thread table (capture
/// slots × the instructions a thread can wait on) would exceed 2²¹ slots.
pub fn compile(ast: &Ast) -> Result<Program, RegexError> {
    let mut c = Compiler { insts: Vec::new(), max_group: 0 };
    // Whole-match group 0.
    c.push(Inst::Save(0))?;
    c.emit(ast)?;
    c.push(Inst::Save(1))?;
    c.push(Inst::Match)?;
    let captures = c.max_group as usize;
    let prefix: String = c
        .insts
        .iter()
        .filter(|inst| !matches!(inst, Inst::Save(_)))
        .map_while(|inst| match inst {
            Inst::Char(c) => Some(*c),
            _ => None,
        })
        .collect();
    let chars = prefix.chars().count();
    let bytes = prefix.as_bytes();
    let contiguous = c.insts[1..=chars].iter().all(|inst| matches!(inst, Inst::Char(_)));
    let overlaps = (1..bytes.len()).any(|k| bytes.starts_with(&bytes[k..]));
    let skip = if contiguous && !overlaps { chars } else { 0 };
    let runs = (0..c.insts.len()).filter_map(|pc| TerminalRun::at(&c.insts, pc)).collect();
    let slots = 2 * (captures + 1);
    let program = Program { insts: c.insts, captures, slots, prefix, skip, runs };
    let table = program.thread_table();
    if table > MAX_THREAD_SLOTS {
        return Err(RegexError::new(
            0,
            format!(
                "capture groups × alternatives need a thread table of {table} slots, over the \
                 matcher's {MAX_THREAD_SLOTS}"
            ),
        ));
    }
    Ok(program)
}

impl Program {
    /// The capture slots a thread list of a search can hold: one thread
    /// per instruction a thread can wait on (a consuming one or `Match`),
    /// [`Program::slots`] each.
    pub(crate) fn thread_table(&self) -> usize {
        let waits =
            self.insts.iter().filter(|i| i.consumes_a_char() || matches!(i, Inst::Match)).count();
        waits.saturating_mul(self.slots)
    }
}

struct Compiler {
    insts: Vec<Inst>,
    max_group: u32,
}

impl Compiler {
    fn push(&mut self, inst: Inst) -> Result<usize, RegexError> {
        if self.insts.len() >= MAX_PROGRAM {
            return Err(RegexError::new(0, "compiled pattern too large"));
        }
        self.insts.push(inst);
        Ok(self.insts.len() - 1)
    }

    fn here(&self) -> usize {
        self.insts.len()
    }

    fn emit(&mut self, ast: &Ast) -> Result<(), RegexError> {
        match ast {
            Ast::Empty => Ok(()),
            Ast::Literal(c) => self.push(Inst::Char(*c)).map(drop),
            Ast::AnyChar => self.push(Inst::Any).map(drop),
            Ast::Class(set) => self.push(Inst::Class(set.clone())).map(drop),
            Ast::AnchorStart => self.push(Inst::AssertStart).map(drop),
            Ast::AnchorEnd => self.push(Inst::AssertEnd).map(drop),
            Ast::WordBoundary => self.push(Inst::AssertWordBoundary).map(drop),
            Ast::NotWordBoundary => self.push(Inst::AssertNotWordBoundary).map(drop),
            Ast::Concat(items) => {
                for item in items {
                    self.emit(item)?;
                }
                Ok(())
            }
            Ast::NonCapturing(node) => self.emit(node),
            Ast::Group { index, node } => {
                self.max_group = self.max_group.max(*index);
                self.push(Inst::Save(2 * *index as usize))?;
                self.emit(node)?;
                self.push(Inst::Save(2 * *index as usize + 1))?;
                Ok(())
            }
            Ast::Alternate(branches) => self.emit_alternate(branches),
            Ast::Repeat { node, min, max, lazy } => self.emit_repeat(node, *min, *max, *lazy),
        }
    }

    fn emit_alternate(&mut self, branches: &[Ast]) -> Result<(), RegexError> {
        // Chain of splits; each branch jumps to the common exit.
        let mut jmp_fixups = Vec::new();
        for (i, branch) in branches.iter().enumerate() {
            if i + 1 < branches.len() {
                let split = self.push(Inst::Split(0, 0))?;
                let branch_start = self.here();
                self.emit(branch)?;
                jmp_fixups.push(self.push(Inst::Jmp(0))?);
                let next = self.here();
                self.insts[split] = Inst::Split(branch_start, next);
            } else {
                self.emit(branch)?;
            }
        }
        let end = self.here();
        for fixup in jmp_fixups {
            self.insts[fixup] = Inst::Jmp(end);
        }
        Ok(())
    }

    fn emit_repeat(
        &mut self,
        node: &Ast,
        min: u32,
        max: Option<u32>,
        lazy: bool,
    ) -> Result<(), RegexError> {
        match (min, max) {
            (0, Some(1)) => {
                // e?
                let split = self.push(Inst::Split(0, 0))?;
                let body = self.here();
                self.emit(node)?;
                let end = self.here();
                self.insts[split] =
                    if lazy { Inst::Split(end, body) } else { Inst::Split(body, end) };
                Ok(())
            }
            (0, None) => {
                // e*
                let split = self.push(Inst::Split(0, 0))?;
                let body = self.here();
                self.emit(node)?;
                self.push(Inst::Jmp(split))?;
                let end = self.here();
                self.insts[split] =
                    if lazy { Inst::Split(end, body) } else { Inst::Split(body, end) };
                Ok(())
            }
            (1, None) => {
                // e+
                let body = self.here();
                self.emit(node)?;
                let split = self.push(Inst::Split(0, 0))?;
                let end = self.here();
                self.insts[split] =
                    if lazy { Inst::Split(end, body) } else { Inst::Split(body, end) };
                Ok(())
            }
            (min, None) => {
                // e{min,} = e^(min-1) e+
                for _ in 0..min.saturating_sub(1) {
                    self.emit(node)?;
                }
                self.emit_repeat(node, 1, None, lazy)
            }
            (min, Some(max)) => {
                // e{min,max} = e^min (e?)^(max-min), nested so that each
                // optional tail only applies if the previous matched.
                for _ in 0..min {
                    self.emit(node)?;
                }
                let optional = max - min;
                let mut splits = Vec::with_capacity(optional as usize);
                for _ in 0..optional {
                    let split = self.push(Inst::Split(0, 0))?;
                    let body = self.here();
                    self.emit(node)?;
                    splits.push((split, body));
                }
                let end = self.here();
                for (split, body) in splits {
                    self.insts[split] =
                        if lazy { Inst::Split(end, body) } else { Inst::Split(body, end) };
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast;

    fn prog(p: &str) -> Program {
        compile(&ast::parse(p).unwrap()).unwrap()
    }

    #[test]
    fn literal_program_shape() {
        let p = prog("ab");
        assert_eq!(
            p.insts,
            vec![Inst::Save(0), Inst::Char('a'), Inst::Char('b'), Inst::Save(1), Inst::Match]
        );
    }

    #[test]
    fn star_is_split_loop() {
        let p = prog("a*");
        assert!(matches!(p.insts[1], Inst::Split(2, 4)));
        assert!(matches!(p.insts[3], Inst::Jmp(1)));
    }

    #[test]
    fn lazy_star_flips_priority() {
        let p = prog("a*?");
        assert!(matches!(p.insts[1], Inst::Split(4, 2)));
    }

    #[test]
    fn capture_slots_counted() {
        let p = prog("(a)(b)");
        assert_eq!(p.captures, 2);
        assert_eq!(p.slots, 6);
    }

    #[test]
    fn counted_repetition_expands() {
        let p = prog("a{3}");
        let chars = p.insts.iter().filter(|i| matches!(i, Inst::Char('a'))).count();
        assert_eq!(chars, 3);
    }

    #[test]
    fn required_prefix() {
        assert_eq!(prog(r"brand: ([\w-]+)").prefix, "brand: ");
        assert_eq!(prog("<p><b>[0-9a-zA-Z']+").prefix, "<p><b>");
        assert_eq!(prog("(ab)c+").prefix, "abc");
        assert_eq!(prog("a{2,3}").prefix, "aa");
        assert_eq!(prog("é+x").prefix, "é");
        // Skippable: the chars directly behind `Save(0)`, no self-overlap.
        assert_eq!(prog(r"brand: ([\w-]+)").skip, 7);
        assert_eq!(prog("é+x").skip, 1);
        assert_eq!(prog("(ab)c+").skip, 0);
        assert_eq!(prog("a{2,3}").skip, 0);
        assert_eq!(prog("abcab").skip, 0);
        assert_eq!(prog(r"\w+").skip, 0);
        // A class, split or assertion up front leaves nothing required.
        for p in [r"\w+", "a*b", "a|ab", "(?:ab)?c", "^ab", r"\bab", ""] {
            assert_eq!(prog(p).prefix, "", "{p}");
        }
    }

    #[test]
    fn terminal_runs() {
        let runs = |p: &str| -> Vec<(usize, Vec<usize>)> {
            prog(p).runs.into_iter().map(|r| (r.pc, r.saves)).collect()
        };
        // Save(0), seven chars, Save(2), the class, its split, the exit.
        assert_eq!(runs(r"brand: ([\w-]+)"), [(9, vec![3, 1])]);
        // Save(0), Split, the char, Jmp back to the split, the exit.
        assert_eq!(runs("a*"), [(2, vec![1])]);
        assert_eq!(runs("x|y.+"), [(5, vec![1])]);
        assert_eq!(prog("[a-c]+").runs[0].ascii, 0b111 << b'a');
        assert_eq!(prog("é+").runs[0].ascii, 0);
        // Lazy, an exit through an assertion, a split or a char, a body
        // of more than one instruction, no loop.
        for p in [r"\w+?", r"\w*?", r"\w+\b", r"\w+$", r"\w+b", r"\w+b?", "(?:ab)+", "(?:a|b)+"] {
            assert_eq!(runs(p), [], "{p}");
        }
    }

    #[test]
    fn thread_table_is_bounded() {
        let alternated =
            |groups: usize| compile(&ast::parse(&vec!["(a)"; groups].join("|")).unwrap());
        // 1 001 waits × 2 002 slots fits; 1 101 × 2 202 does not.
        assert!(alternated(1_000).is_ok());
        assert!(alternated(1_100).is_err());
        let err = alternated(8_000).unwrap_err();
        assert!(err.message.contains("thread table of 128032002 slots"), "{err}");
        // Generated rules (benchmark, conform, bootstrap with a long
        // label) need a few hundred slots at most.
        let label = "l".repeat(64);
        for p in [r"brand: ([\w-]+)", "price: ([0-9]+)", &format!("{label}: ([0-9.]+)")] {
            assert!(prog(p).thread_table() <= 300, "{p}: {}", prog(p).thread_table());
        }
    }

    #[test]
    fn huge_repetition_rejected() {
        let tree = ast::parse("(a{10000}){10000}");
        // Parser caps bounds at 10000, compile must hit program cap.
        if let Ok(tree) = tree {
            assert!(compile(&tree).is_err());
        }
    }
}
