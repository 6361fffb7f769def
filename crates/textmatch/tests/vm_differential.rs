//! Differential tests for the Pike VM: on generated patterns over the
//! supported grammar and haystacks over a small alphabet with a
//! multibyte char, every match of `find_iter` and `find_at` reports the
//! same slots (all groups) as the reference VM in `reference/pike_vm.rs`.

#[path = "reference/pike_vm.rs"]
mod pike_vm;

use proptest::prelude::*;
use s2s_textmatch::compiler::{compile, Program};
use s2s_textmatch::{ast, Regex};

type Slots = Vec<Option<(usize, usize)>>;

/// All non-overlapping matches under the reference VM, stepping over the
/// haystack's `(byte offset, char)` index exactly as the reference
/// iterator did.
fn reference_find_iter(program: &Program, haystack: &str) -> Vec<Slots> {
    let chars: Vec<(usize, char)> = haystack.char_indices().collect();
    let mut idx = 0;
    let mut out = Vec::new();
    while idx <= chars.len() {
        let Some(slots) = pike_vm::search_chars(program, haystack, &chars[idx..]) else {
            break;
        };
        let (start, end) = slots[0].expect("group 0 is always set");
        out.push(slots);
        if end == start {
            if idx < chars.len() && chars[idx].0 <= end {
                while idx < chars.len() && chars[idx].0 < end {
                    idx += 1;
                }
                idx += 1;
            } else {
                break;
            }
        } else {
            while idx < chars.len() && chars[idx].0 < end {
                idx += 1;
            }
        }
    }
    out
}

fn slots_of(m: &s2s_textmatch::Match<'_>) -> Slots {
    (0..m.group_count()).map(|i| m.get(i).map(|c| (c.start(), c.end()))).collect()
}

/// Asserts that `pattern` finds the same slot vectors on `haystack` with
/// both VMs, through `find_iter` and through `find_at` from every char
/// boundary.
fn assert_same_matches(pattern: &str, haystack: &str) -> Result<(), String> {
    let re = Regex::new(pattern).map_err(|e| format!("{pattern:?} does not compile: {e}"))?;
    let program = compile(&ast::parse(pattern).unwrap()).unwrap();
    let got: Vec<Slots> = re.find_iter(haystack).map(|m| slots_of(&m)).collect();
    let want = reference_find_iter(&program, haystack);
    if got != want {
        return Err(format!("find_iter {pattern:?} on {haystack:?}: {got:?} != {want:?}"));
    }
    for start in (0..=haystack.len()).filter(|&i| haystack.is_char_boundary(i)) {
        let got = re.find_at(haystack, start).map(|m| slots_of(&m));
        let want = pike_vm::search(&program, haystack, start);
        if got != want {
            return Err(format!(
                "find_at {pattern:?} on {haystack:?} @{start}: {got:?} != {want:?}"
            ));
        }
    }
    Ok(())
}

const ALPHABET: [char; 6] = ['a', 'b', 'é', '1', ' ', ':'];

fn literal() -> impl Strategy<Value = String> {
    (0..ALPHABET.len()).prop_map(|i| ALPHABET[i].to_string())
}

/// One atom: a literal, a class, `.` or an assertion.
fn atom() -> BoxedStrategy<String> {
    prop_oneof![
        literal(),
        literal(),
        (0..9usize).prop_map(|i| {
            ["[ab]", "[^a]", "[a-c]", "[é1]", "[^é ]", r"\d", r"\w", r"\s", r"\W"][i].to_string()
        }),
        Just(".".to_string()),
        (0..4usize).prop_map(|i| ["^", "$", r"\b", r"\B"][i].to_string()),
    ]
    .boxed()
}

/// A greedy or lazy quantifier.
fn quantifier() -> impl Strategy<Value = String> {
    (0..7usize, 0..3u32, 0..3u32, any::<bool>()).prop_map(|(kind, m, extra, lazy)| {
        let q = match kind {
            0 => "*".to_string(),
            1 => "+".to_string(),
            2 => "?".to_string(),
            3 => format!("{{{m}}}"),
            4 => format!("{{{m},}}"),
            _ => format!("{{{m},{}}}", m + extra),
        };
        if lazy {
            q + "?"
        } else {
            q
        }
    })
}

/// Patterns over the supported grammar: concatenation, alternation,
/// capturing and non-capturing groups, and quantified sub-patterns.
fn pattern() -> BoxedStrategy<String> {
    atom().prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            inner.clone(),
            proptest::collection::vec(inner.clone(), 1..4).prop_map(|items| items.concat()),
            proptest::collection::vec(inner.clone(), 2..4)
                .prop_map(|branches| format!("(?:{})", branches.join("|"))),
            inner.clone().prop_map(|p| format!("({p})")),
            (inner.clone(), quantifier()).prop_map(|(p, q)| format!("(?:{p}){q}")),
            (inner, quantifier()).prop_map(|(p, q)| format!("({p}){q}")),
        ]
    })
}

/// About half the patterns start with a run of literal chars, so both the
/// prescan and the seed-everywhere path are exercised.
fn led_pattern() -> impl Strategy<Value = String> {
    (proptest::collection::vec(literal(), 0..4), any::<bool>(), pattern())
        .prop_map(|(run, led, p)| if led { run.concat() + &p } else { p })
}

fn haystack() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..ALPHABET.len(), 0..24)
        .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
}

proptest! {
    #[test]
    fn vm_agrees_with_reference(pattern in led_pattern(), hay in haystack()) {
        if let Err(e) = assert_same_matches(&pattern, &hay) {
            prop_assert!(false, "{}", e);
        }
    }

    /// Literal-led patterns over haystacks dense in their prefix, where
    /// prefix candidates overlap.
    #[test]
    fn prescan_agrees_with_reference_on_overlapping_prefixes(
        run in proptest::collection::vec(0..2usize, 1..4),
        tail in pattern(),
        hay in proptest::collection::vec(0..3usize, 0..24),
    ) {
        let run: String = run.into_iter().map(|i| ['a', 'é'][i]).collect();
        let hay: String = hay.into_iter().map(|i| ['a', 'é', 'b'][i]).collect();
        if let Err(e) = assert_same_matches(&(run + &tail), &hay) {
            prop_assert!(false, "{}", e);
        }
    }
}

#[test]
fn hand_picked_patterns_agree_with_reference() {
    let cases = [
        ("price: ([0-9.]+)", "brand: x | price: 12.5 | price: 3\nprice: "),
        ("aab", "aaab aab aa"),
        ("é:(b*)", "aé:é:bbé"),
        ("lit$", "lit lit"),
        ("^lit", "lit lit"),
        (r"a\b", "a ab a"),
        ("a(b)?", "aab"),
        (r"(?:(a|b))+", "abab"),
        ("", "aé"),
    ];
    for (pattern, haystack) in cases {
        assert_same_matches(pattern, haystack).unwrap();
    }
}
