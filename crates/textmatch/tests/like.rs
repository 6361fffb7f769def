//! `like_match` against the recursive matcher it replaced, which retries
//! every split point at each `%` (exponential in the number of `%`s, so
//! only usable on short inputs).

use proptest::prelude::*;
use s2s_textmatch::like_match;

fn reference_like(value: &str, pattern: &str) -> bool {
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

const ALPHABET: [char; 5] = ['a', 'b', 'é', '%', '_'];

fn text(max: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(0..ALPHABET.len(), 0..max)
        .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
}

proptest! {
    #[test]
    fn like_agrees_with_recursive_reference(value in text(10), pattern in text(8)) {
        prop_assert_eq!(
            like_match(&value, &pattern),
            reference_like(&value, &pattern),
            "{:?} LIKE {:?}",
            value,
            pattern
        );
    }

    /// Values built to match: a pattern with each char kept, replaced by
    /// `_`, or with `%` inserted around it.
    #[test]
    fn like_accepts_what_it_was_built_from(
        value in text(10),
        edits in proptest::collection::vec(0..4usize, 10..11),
    ) {
        let mut pattern = String::new();
        for (c, edit) in value.chars().zip(edits) {
            match edit {
                0 => pattern.push(c),
                1 => pattern.push('_'),
                2 => {
                    pattern.push('%');
                    pattern.push(c);
                }
                _ => {
                    pattern.push(c);
                    pattern.push('%');
                }
            }
        }
        prop_assert!(like_match(&value, &pattern), "{:?} LIKE {:?}", value, &pattern);
        prop_assert_eq!(like_match(&value, &pattern), reference_like(&value, &pattern));
    }
}

/// Eight `%a` segments over 200 chars: the recursive matcher effectively
/// never returns here.
#[test]
fn many_wildcards_over_a_long_value_finish() {
    let value = "a".repeat(200);
    let pattern = "%a".repeat(8) + "b";
    assert!(!like_match(&value, &pattern));
    assert!(like_match(&value, &"%a".repeat(8)));
    assert!(like_match(&(value.clone() + "b"), &pattern));
}
