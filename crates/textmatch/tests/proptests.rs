//! Property-based tests for the regex engine: matches agree with a naive
//! reference implementation for a restricted pattern family, and invariants
//! hold for arbitrary haystacks.

mod reference;

use std::cmp::Ordering;

use proptest::prelude::*;
use proptest::TestRng;
use s2s_textmatch::{ast, compiler, Comparand, ConstraintOp, Regex, ValueSpace};

/// Escapes a string so it matches literally.
fn escape(s: &str) -> String {
    let mut out = String::new();
    for c in s.chars() {
        if "\\.+*?()|[]{}^$".contains(c) {
            out.push('\\');
        }
        out.push(c);
    }
    out
}

/// Characters patterns and haystacks are drawn from: few enough that
/// literals collide with the text (and literal prefixes with
/// themselves), with word, non-word, newline and multibyte members.
const ALPHABET: [char; 9] = ['a', 'b', 'c', '1', ' ', '-', '\n', 'é', '日'];

fn literal(rng: &mut TestRng) -> String {
    match ALPHABET[rng.below(ALPHABET.len())] {
        '\n' => "\\n".to_string(),
        c => c.to_string(),
    }
}

/// A random pattern from the supported grammar: literals, classes, `.`,
/// greedy and lazy `* + ? {m,n}`, alternation, both group kinds and the
/// four assertions. Always compiles.
fn pattern(rng: &mut TestRng, depth: usize) -> String {
    let branches = if rng.below(4) == 0 { 2 + rng.below(2) } else { 1 };
    let mut out = String::new();
    for b in 0..branches {
        if b > 0 {
            out.push('|');
        }
        for _ in 0..rng.below(4) + usize::from(branches == 1) {
            let atom = match rng.below(if depth == 0 { 9 } else { 11 }) {
                0..=3 => literal(rng),
                4 => ".".to_string(),
                5 => ["[ab]", "[^a]", "[a-c1]", "[^\\w ]", "[é日-]"][rng.below(5)].to_string(),
                6 => ["\\w", "\\d", "\\s", "\\W", "\\S"][rng.below(5)].to_string(),
                7 | 8 => {
                    // Assertions take no quantifier.
                    out.push_str(["^", "$", "\\b", "\\B"][rng.below(4)]);
                    continue;
                }
                9 => format!("({})", pattern(rng, depth - 1)),
                _ => format!("(?:{})", pattern(rng, depth - 1)),
            };
            out.push_str(&atom);
            let (m, n) = (rng.below(3), rng.below(3));
            match rng.below(10) {
                0 => out.push('*'),
                1 => out.push('+'),
                2 => out.push('?'),
                3 => out.push_str(&format!("{{{m},{}}}", m + n)),
                4 => out.push_str(&format!("{{{m},}}")),
                5 => out.push_str(&format!("{{{m}}}")),
                _ => continue,
            }
            if rng.below(3) == 0 {
                out.push('?');
            }
        }
    }
    out
}

/// A greedy loop over one class behind a literal (`brand: ([\w-]+)`'s
/// shape), the thread `vm::search` finishes in one step: bare, in a
/// group, optional, or beside an alternation branch that can match
/// empty, and now and then followed by what makes its exit no longer
/// reach `Match` directly.
fn terminal_run(rng: &mut TestRng) -> String {
    const ATOMS: [&str; 9] =
        [".", "[ab]", "[^a]", "[a-c1]", "[^\\w ]", "[é日-]", "\\w", "\\d", "\\S"];
    let atom = match rng.below(ATOMS.len() + 2) {
        i if i < ATOMS.len() => ATOMS[i].to_string(),
        _ => literal(rng),
    };
    let run = format!("{}{atom}{}", literal(rng), ["+", "*"][rng.below(2)]);
    let empty = ["", "a*", "b?", "\\b", "(?:)"][rng.below(5)];
    let run = match rng.below(6) {
        0 | 1 => run,
        2 => format!("({run})"),
        3 => format!("(?:{run})?"),
        4 => format!("(?:{run}|{empty})"),
        _ => format!("({empty}|{run})"),
    };
    let after = ["", "", "", "$", "\\b", "b"][rng.below(6)];
    format!("{run}{after}")
}

fn haystack(rng: &mut TestRng) -> String {
    (0..rng.below(24)).map(|_| ALPHABET[rng.below(ALPHABET.len())]).collect()
}

fn groups(m: &s2s_textmatch::Match<'_>) -> Vec<Option<(usize, usize)>> {
    (0..m.group_count()).map(|g| m.get(g).map(|c| (c.start(), c.end()))).collect()
}

/// One side of a comparison: spellings `str::parse::<f64>` reads as a
/// number (some of them only it does), near-misses it does not, plain
/// text, and small numbers that collide with each other.
fn operand() -> impl Strategy<Value = String> {
    const SPELLINGS: [&str; 33] = [
        "+5",
        "5.",
        ".5",
        "5",
        "5.0",
        "05",
        "-5",
        "1e3",
        "1000",
        "1E3",
        "inf",
        "-inf",
        "infinity",
        "NaN",
        "nan",
        "-0",
        "0",
        "",
        " 5",
        "5 ",
        "5,0",
        "0x10",
        "1e",
        ".",
        "+",
        "five",
        "Seiko",
        "seiko",
        "s%",
        "_eiko",
        "%",
        "0.30000000000000001",
        "12345678901234567890",
    ];
    prop_oneof![
        (0..SPELLINGS.len()).prop_map(|i| SPELLINGS[i].to_string()),
        (-20i32..20, 0u8..3).prop_map(|(n, scale)| match scale {
            0 => n.to_string(),
            1 => format!("{n}.5"),
            _ => format!("{n}e1"),
        }),
        "[a-cS%_ 0-9.]{0,6}",
    ]
}

/// A spelling in the decimal lexical space.
fn decimal() -> impl Strategy<Value = String> {
    operand().prop_map(|spelling| match model_decimal(&spelling) {
        Some(_) => spelling,
        None => format!("{}.25", spelling.len()),
    })
}

/// Up to three characters `str::trim` removes, ASCII or not.
fn padding() -> impl Strategy<Value = String> {
    const WHITESPACE: [char; 6] = [' ', '\t', '\n', '\r', '\u{a0}', '\u{2003}'];
    proptest::collection::vec(0..WHITESPACE.len(), 0..4)
        .prop_map(|picks| picks.into_iter().map(|i| WHITESPACE[i]).collect())
}

/// An independent model of the decimal lexical space: a form without
/// the whitespace around it, split at its sign and point.
fn model_decimal(form: &str) -> Option<(bool, String, String)> {
    let form = form.trim();
    let (negative, rest) = match form.chars().next()? {
        '-' => (true, &form[1..]),
        '+' => (false, &form[1..]),
        _ => (false, form),
    };
    let (whole, fraction) = rest.split_once('.').unwrap_or((rest, ""));
    let digits = |s: &str| s.chars().all(|c| c.is_ascii_digit());
    let some = !whole.is_empty() || !fraction.is_empty();
    (some && digits(whole) && digits(fraction))
        .then(|| (negative, whole.to_string(), fraction.to_string()))
}

/// What rule text (`Comparand::new`) decides by the model: in the
/// decimal space when the constant is a decimal, both magnitudes padded
/// with zeros to one width so their text orders as their values, and a
/// candidate outside the space satisfying nothing; by bytes otherwise.
fn model_holds(op: ConstraintOp, candidate: &str, constant: &str) -> bool {
    if op == ConstraintOp::Like {
        return reference::like_match(candidate, constant);
    }
    let ord = match model_decimal(constant) {
        None => Some(candidate.cmp(constant)),
        Some((c_neg, c_whole, c_frac)) => {
            model_decimal(candidate).map(|(v_neg, v_whole, v_frac)| {
                let (w, f) = (v_whole.len().max(c_whole.len()), v_frac.len().max(c_frac.len()));
                let magnitude = |whole: &str, frac: &str| format!("{whole:0>w$}{frac:0<f$}");
                let (v, c) = (magnitude(&v_whole, &v_frac), magnitude(&c_whole, &c_frac));
                let zero = "0".repeat(w + f);
                match (v_neg && v != zero, c_neg && c != zero) {
                    (false, false) => v.cmp(&c),
                    (true, true) => c.cmp(&v),
                    (negative, _) => {
                        if negative {
                            Ordering::Less
                        } else {
                            Ordering::Greater
                        }
                    }
                }
            })
        }
    };
    ord.is_some_and(|ord| match op {
        ConstraintOp::Eq => ord.is_eq(),
        ConstraintOp::Ne => ord.is_ne(),
        ConstraintOp::Lt => ord.is_lt(),
        ConstraintOp::Le => ord.is_le(),
        ConstraintOp::Gt => ord.is_gt(),
        ConstraintOp::Ge => ord.is_ge(),
        ConstraintOp::Like => unreachable!("handled above"),
    })
}

/// Whether the old both-sides-`f64` `holds` and rule text must agree:
/// under `LIKE`; when the constant reads as neither a decimal nor an
/// `f64` (both compare bytes); when both sides are unpadded decimals of
/// at most 15 significant digits (both compare values, and `f64` holds
/// such values in order).
fn old_rule_agrees(op: ConstraintOp, candidate: &str, constant: &str) -> bool {
    let short = |form: &str| {
        form == form.trim()
            && model_decimal(form).is_some_and(|(_, whole, fraction)| {
                let digits = format!("{whole}{fraction}");
                digits.trim_start_matches('0').trim_end_matches('0').len() <= 15
            })
    };
    op == ConstraintOp::Like
        || (model_decimal(constant).is_none() && constant.parse::<f64>().is_err())
        || (short(candidate) && short(constant))
}

proptest! {
    /// The matcher agrees with the reference VM (`tests/reference`) on
    /// every capture offset of every match, iterating and from an
    /// arbitrary start — whichever of the prefix jump, the prefix skip,
    /// the terminal run and the unfiltered path the pattern takes.
    #[test]
    fn matcher_agrees_with_reference_vm(seed in any::<u64>()) {
        let mut rng = TestRng::from_seed(seed);
        // Half the patterns open with a literal run, so the prefilter
        // is exercised as often as the unfiltered path; two in three
        // get a terminal run's tail, so a third end in one.
        let lead: String = (0..rng.below(4)).map(|_| literal(&mut rng)).collect();
        let tail = if rng.below(3) > 0 { terminal_run(&mut rng) } else { String::new() };
        let pat = format!("{lead}{}{tail}", pattern(&mut rng, 2));
        let re = Regex::new(&pat).unwrap();
        let program = compiler::compile(&ast::parse(&pat).unwrap()).unwrap();
        for _ in 0..4 {
            // Plant the literal run in some haystacks so candidates occur.
            let hay = match rng.below(3) {
                0 => haystack(&mut rng),
                _ => format!("{}{lead}{}", haystack(&mut rng), haystack(&mut rng)),
            };
            let hay = hay.replace("\\n", "\n");
            let got: Vec<_> = re.find_iter(&hay).map(|m| groups(&m)).collect();
            prop_assert_eq!(&got, &reference::find_iter(&program, &hay), "{:?} on {:?}", pat, hay);
            let start = hay.char_indices().map(|(i, _)| i).nth(rng.below(hay.len() + 1));
            let start = start.unwrap_or(hay.len());
            prop_assert_eq!(
                re.find_at(&hay, start).map(|m| groups(&m)),
                reference::search(&program, &hay, start),
                "{:?} on {:?} from {}", pat, hay, start
            );
        }
    }

    /// The linear `LIKE` matcher agrees with the recursive one it
    /// replaced (`tests/reference`) on short values and patterns.
    #[test]
    fn like_agrees_with_reference(value in "[ab]{0,8}", pattern in "[ab%_]{0,8}") {
        prop_assert_eq!(
            s2s_textmatch::like_match(&value, &pattern),
            reference::like_match(&value, &pattern),
            "{:?} LIKE {:?}", value, pattern
        );
    }

    /// Rule text compares as the model says — in the decimal space when
    /// its constant is a decimal, by bytes otherwise — over spellings
    /// only `f64` accepts, near-misses and plain text, on either side,
    /// under all seven operators; and where the old both-sides-`f64`
    /// `holds` (`tests/reference`) cannot differ from it, as that did. A
    /// comparand borrowing its constant decides what one owning it does,
    /// and one built in the decimal space what rule text does on a
    /// decimal constant.
    #[test]
    fn prebuilt_comparand_agrees_with_reference_holds(
        constant in operand(),
        candidates in proptest::collection::vec(operand().prop_map(|c| c.trim().to_string()), 1..6),
    ) {
        use ConstraintOp::{Eq, Ge, Gt, Le, Like, Lt, Ne};
        for op in [Eq, Ne, Lt, Le, Gt, Ge, Like] {
            let borrowed = Comparand::new(op, constant.as_str());
            let owned = Comparand::new(op, constant.clone());
            let typed = Comparand::in_space(op, constant.as_str(), ValueSpace::Decimal);
            prop_assert!(borrowed == Comparand::new(op, constant.as_str()));
            prop_assert_eq!((owned.op(), owned.constant()), (op, constant.as_str()));
            for candidate in &candidates {
                let expected = model_holds(op, candidate, &constant);
                prop_assert_eq!(borrowed.test(candidate), expected, "{:?} {} {:?}", candidate, op, constant);
                prop_assert_eq!(owned.test(candidate), expected);
                if model_decimal(&constant).is_some() {
                    prop_assert_eq!(typed.test(candidate), expected);
                }
                if old_rule_agrees(op, candidate, &constant) {
                    prop_assert_eq!(reference::holds(op, candidate, &constant), expected);
                }
            }
        }
    }

    /// A padded decimal compares as the decimal: when the constant and
    /// the candidate are both decimals, whitespace around the candidate
    /// changes no answer under any operator but `LIKE`, which never
    /// reads a number. (Text keeps its padding: `" Seiko"` is not
    /// `"Seiko"`.)
    #[test]
    fn padding_a_decimal_candidate_changes_no_answer(
        constant in decimal(),
        candidate in decimal(),
        before in padding(),
        after in padding(),
    ) {
        use ConstraintOp::{Eq, Ge, Gt, Le, Lt, Ne};
        let padded = format!("{before}{candidate}{after}");
        for op in [Eq, Ne, Lt, Le, Gt, Ge] {
            let comparand = Comparand::new(op, constant.as_str());
            let unpadded = model_holds(op, &candidate, &constant);
            prop_assert_eq!(comparand.test(&candidate), unpadded);
            prop_assert_eq!(comparand.test(&padded), unpadded, "{:?} {} {:?}", padded, op, constant);
        }
    }

    /// A literal pattern finds exactly what `str::find` finds.
    #[test]
    fn literal_agrees_with_str_find(needle in "[a-c]{1,4}", hay in "[a-d]{0,30}") {
        let re = Regex::new(&escape(&needle)).unwrap();
        match (re.find(&hay), hay.find(&needle)) {
            (Some(m), Some(i)) => {
                prop_assert_eq!(m.start(), i);
                prop_assert_eq!(m.text(), needle.as_str());
            }
            (None, None) => {}
            (a, b) => prop_assert!(false, "disagreement: regex={a:?} str={b:?}"),
        }
    }

    /// `find` results always lie within the haystack and on char boundaries.
    #[test]
    fn match_spans_are_valid(hay in any::<String>()) {
        let re = Regex::new(r"[a-z]+\d*").unwrap();
        if let Some(m) = re.find(&hay) {
            prop_assert!(m.end() <= hay.len());
            prop_assert!(hay.is_char_boundary(m.start()));
            prop_assert!(hay.is_char_boundary(m.end()));
            prop_assert!(re.is_match(m.text()));
        }
    }

    /// Splitting then re-joining with a fixed separator preserves all
    /// non-separator content in order.
    #[test]
    fn split_preserves_content(fields in proptest::collection::vec("[a-z]{0,5}", 0..8)) {
        let joined = fields.join(",");
        let re = Regex::new(",").unwrap();
        let parts: Vec<&str> = re.split(&joined).collect();
        if fields.is_empty() {
            prop_assert_eq!(parts, vec![""]);
        } else {
            let owned: Vec<&str> = fields.iter().map(|s| s.as_str()).collect();
            prop_assert_eq!(parts, owned);
        }
    }

    /// find_iter yields non-overlapping, strictly ordered matches.
    #[test]
    fn find_iter_is_ordered_and_disjoint(hay in "[ab0-9]{0,40}") {
        let re = Regex::new(r"\d+").unwrap();
        let mut last_end = 0usize;
        for m in re.find_iter(&hay) {
            prop_assert!(m.start() >= last_end);
            prop_assert!(m.end() > m.start());
            last_end = m.end();
        }
    }

    /// replace_all with an empty replacement removes every match.
    #[test]
    fn replace_all_removes_matches(hay in "[a-z0-9]{0,40}") {
        let re = Regex::new(r"\d").unwrap();
        let out = re.replace_all(&hay, "");
        prop_assert!(!re.is_match(&out));
    }

    /// Anchored whole-string match agrees with full-equality for literals.
    #[test]
    fn anchored_literal_is_equality(a in "[a-b]{0,6}", b in "[a-b]{0,6}") {
        let re = Regex::new(&format!("^{}$", escape(&a))).unwrap();
        prop_assert_eq!(re.is_match(&b), a == b);
    }

    /// Alternation of two literals matches iff either matches.
    #[test]
    fn alternation_is_union(a in "[a-c]{1,3}", b in "[a-c]{1,3}", hay in "[a-d]{0,20}") {
        let re = Regex::new(&format!("{}|{}", escape(&a), escape(&b))).unwrap();
        let expect = hay.contains(&a) || hay.contains(&b);
        prop_assert_eq!(re.is_match(&hay), expect);
    }

    /// Bounded repetition a{n} matches n consecutive 'a's exactly.
    #[test]
    fn counted_repetition(n in 1u32..6, extra in 0usize..4) {
        let hay = "a".repeat(n as usize + extra);
        let re = Regex::new(&format!("^a{{{n}}}$")).unwrap();
        prop_assert_eq!(re.is_match(&hay), extra == 0);
    }

    /// Any parse failure is an error, never a panic.
    #[test]
    fn parser_never_panics(pat in any::<String>()) {
        let _ = Regex::new(&pat);
    }

    /// Matching never panics on arbitrary input.
    #[test]
    fn matcher_never_panics(hay in any::<String>()) {
        let re = Regex::new(r"(\w+)\s+(\w+)|x{2,5}[^a-f]?").unwrap();
        let _ = re.find(&hay);
    }
}
