//! Pushed match constraints.
//!
//! A [`Constraint`] is one `WHERE` conjunct translated into a form the
//! text-oriented extractors (WebL programs, guarded regex rules) can
//! evaluate at the source. Its semantics mirror the mediator's
//! post-filter comparison exactly — numeric comparison when both sides
//! parse as `f64`, lexicographic otherwise, SQL `LIKE` with `%`/`_` —
//! so pushing a constraint down never changes which values survive.

use std::cmp::Ordering;

use crate::like_match;

/// The comparison operator of a pushed constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstraintOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `LIKE` (`%` matches any run, `_` any single char).
    Like,
}

impl ConstraintOp {
    /// The canonical operator token.
    pub fn token(self) -> &'static str {
        match self {
            ConstraintOp::Eq => "=",
            ConstraintOp::Ne => "!=",
            ConstraintOp::Lt => "<",
            ConstraintOp::Le => "<=",
            ConstraintOp::Gt => ">",
            ConstraintOp::Ge => ">=",
            ConstraintOp::Like => "LIKE",
        }
    }

    /// Parses an operator token (the inverse of [`ConstraintOp::token`]).
    pub fn parse(token: &str) -> Option<ConstraintOp> {
        Some(match token {
            "=" => ConstraintOp::Eq,
            "!=" => ConstraintOp::Ne,
            "<" => ConstraintOp::Lt,
            "<=" => ConstraintOp::Le,
            ">" => ConstraintOp::Gt,
            ">=" => ConstraintOp::Ge,
            "LIKE" => ConstraintOp::Like,
            _ => return None,
        })
    }
}

/// One pushed comparison: `candidate op value`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Constraint {
    /// The operator.
    pub op: ConstraintOp,
    /// The right-hand comparison value (unquoted; a pattern for `LIKE`).
    pub value: String,
}

impl Constraint {
    /// Creates a constraint.
    pub fn new(op: ConstraintOp, value: impl Into<String>) -> Self {
        Constraint { op, value: value.into() }
    }

    /// Whether `candidate` satisfies the constraint, under the
    /// mediator's comparison semantics: numeric when both sides parse
    /// as `f64`, string comparison otherwise.
    pub fn matches(&self, candidate: &str) -> bool {
        if self.op == ConstraintOp::Like {
            return like_match(candidate, &self.value);
        }
        let ord = match (candidate.parse::<f64>(), self.value.parse::<f64>()) {
            (Ok(a), Ok(b)) => match a.partial_cmp(&b) {
                Some(o) => o,
                None => return false,
            },
            _ => candidate.cmp(self.value.as_str()),
        };
        match self.op {
            ConstraintOp::Eq => ord == Ordering::Equal,
            ConstraintOp::Ne => ord != Ordering::Equal,
            ConstraintOp::Lt => ord == Ordering::Less,
            ConstraintOp::Le => ord != Ordering::Greater,
            ConstraintOp::Gt => ord == Ordering::Greater,
            ConstraintOp::Ge => ord != Ordering::Less,
            ConstraintOp::Like => unreachable!("handled above"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_tokens_roundtrip() {
        for op in [
            ConstraintOp::Eq,
            ConstraintOp::Ne,
            ConstraintOp::Lt,
            ConstraintOp::Le,
            ConstraintOp::Gt,
            ConstraintOp::Ge,
            ConstraintOp::Like,
        ] {
            assert_eq!(ConstraintOp::parse(op.token()), Some(op));
        }
        assert_eq!(ConstraintOp::parse("<>"), None);
    }

    #[test]
    fn numeric_when_both_sides_parse() {
        let lt = Constraint::new(ConstraintOp::Lt, "100");
        assert!(lt.matches("99.5"));
        assert!(!lt.matches("100"));
        assert!(!lt.matches("250"));
        // "9" < "100" numerically even though "9" > "100" as strings.
        assert!(lt.matches("9"));
    }

    #[test]
    fn string_when_either_side_is_non_numeric() {
        let eq = Constraint::new(ConstraintOp::Eq, "seiko");
        assert!(eq.matches("seiko"));
        assert!(!eq.matches("casio"));
        let ne = Constraint::new(ConstraintOp::Ne, "seiko");
        assert!(ne.matches("casio"));
        // Numeric candidate vs word value falls back to string compare.
        let gt = Constraint::new(ConstraintOp::Gt, "casio");
        assert!(gt.matches("seiko"));
        assert!(!gt.matches("120"));
    }

    #[test]
    fn like_patterns() {
        let like = Constraint::new(ConstraintOp::Like, "s%");
        assert!(like.matches("seiko"));
        assert!(!like.matches("casio"));
        assert!(like_match("stainless-steel", "%steel"));
        assert!(like_match("Seiko", "S_iko"));
        assert!(!like_match("", "_"));
        assert!(like_match("", "%"));
    }
}
