//! Finds the `#[cfg(test)]`-gated regions of a token stream: test code is
//! exempt from every check, matching the walker's skipping of `tests/`
//! directories.
//!
//! This is a recognizer, not a parser: it only understands attributes and
//! item extents, and degrades safely (an attribute it cannot classify gates
//! nothing, so the hazard scan still sees every live token).

use crate::lexer::{Tok, Token};

/// Per token: whether it sits inside a `#[cfg(test)]`-gated item (the
/// attribute itself included) and is therefore dead to every check.
pub fn dead_tokens(tokens: &[Token]) -> Vec<bool> {
    let mut dead = vec![false; tokens.len()];
    let mut pos = 0usize;
    while pos < tokens.len() {
        if !tokens[pos].is_punct('#') {
            pos += 1;
            continue;
        }
        let (end, is_test) = parse_attribute(tokens, pos);
        if !is_test {
            pos = end;
            continue;
        }
        // Mark the attribute, any further attributes, and the gated item.
        let mut item_start = end;
        while tokens.get(item_start).is_some_and(|t| t.is_punct('#')) {
            item_start = parse_attribute(tokens, item_start).0;
        }
        let item_end = item_end(tokens, item_start);
        dead[pos..item_end].fill(true);
        pos = item_end;
    }
    dead
}

/// Parse `#[...]` / `#![...]` starting at the `#`. Returns (index past the
/// closing `]`, whether the attribute mentions `cfg` with `test` inside).
fn parse_attribute(tokens: &[Token], pos: usize) -> (usize, bool) {
    let mut i = pos + 1;
    if matches!(tokens.get(i).map(|t| &t.tok), Some(Tok::Punct('!'))) {
        i += 1;
    }
    if !matches!(tokens.get(i).map(|t| &t.tok), Some(Tok::Punct('['))) {
        return (i, false);
    }
    let start = i + 1;
    let mut depth = 1usize;
    i += 1;
    while i < tokens.len() && depth > 0 {
        match tokens[i].tok {
            Tok::Punct('[') => depth += 1,
            Tok::Punct(']') => depth -= 1,
            _ => {}
        }
        i += 1;
    }
    let body = &tokens[start..i.saturating_sub(1)];
    let has = |name: &str| body.iter().any(|t| t.ident() == Some(name));
    // `#[cfg(test)]`, and conservatively any `#[cfg(any(test, ...))]`.
    let is_test = has("cfg") && has("test");
    (i, is_test)
}

/// Index one past the end of the item starting at `pos`: either past the
/// `;` that terminates it, or past the matching `}` of its first brace
/// block (tracking `(`/`[` nesting so a `{` inside parameters cannot be
/// missed as the body opener).
fn item_end(tokens: &[Token], pos: usize) -> usize {
    let mut i = pos;
    let mut round = 0i32;
    let mut square = 0i32;
    while i < tokens.len() {
        match tokens[i].tok {
            Tok::Punct('(') => round += 1,
            Tok::Punct(')') => round -= 1,
            Tok::Punct('[') => square += 1,
            Tok::Punct(']') => square -= 1,
            Tok::Punct(';') if round == 0 && square == 0 => return i + 1,
            Tok::Punct('{') if round == 0 && square == 0 => {
                return matching_brace(tokens, i) + 1;
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// Index of the `}` matching the `{` at `open` (or the last token when the
/// stream is truncated).
fn matching_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < tokens.len() {
        match tokens[i].tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    tokens.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn cfg_test_items_are_dead() {
        let src = "
use std::collections::BTreeMap;
#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    struct Hidden { x: u64 }
}
struct Visible { y: u64 }
";
        let tokens = lex(src).tokens;
        let dead = dead_tokens(&tokens);
        let live_idents: Vec<&str> = tokens
            .iter()
            .zip(&dead)
            .filter(|(_, dead)| !**dead)
            .filter_map(|(t, _)| t.ident())
            .collect();
        assert!(!live_idents.contains(&"HashMap"));
        assert!(!live_idents.contains(&"Hidden"));
        assert!(live_idents.contains(&"BTreeMap"));
        assert!(live_idents.contains(&"Visible"));
    }
}
