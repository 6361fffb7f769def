//! SQL `LIKE` wildcard matching, shared by the text extractors' pushed
//! constraints and the relational engine so a predicate filters the same
//! values wherever it runs.

/// SQL `LIKE` matching: `%` matches any run, `_` any single character;
/// case-sensitive.
///
/// Runs in `O(|value| × |pattern|)`: on a mismatch only the most recent
/// `%` takes one more char and matching resumes just after it. An earlier
/// `%` never needs a retry, since anything it could absorb the later one
/// can absorb too.
pub fn like_match(value: &str, pattern: &str) -> bool {
    let (mut v, mut p) = (0, 0);
    // Where to resume after the most recent `%`: (pattern offset just
    // past it, value offset it has absorbed up to).
    let mut resume: Option<(usize, usize)> = None;
    while let Some(c) = value[v..].chars().next() {
        match pattern[p..].chars().next() {
            Some('%') => {
                p += 1;
                resume = Some((p, v));
            }
            Some(pc) if pc == '_' || pc == c => {
                p += pc.len_utf8();
                v += c.len_utf8();
            }
            _ => {
                let Some((after, absorbed)) = resume else { return false };
                let absorbed =
                    absorbed + value[absorbed..].chars().next().map_or(0, char::len_utf8);
                (p, v) = (after, absorbed);
                resume = Some((after, absorbed));
            }
        }
    }
    pattern[p..].chars().all(|c| c == '%')
}
