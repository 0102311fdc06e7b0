//! JSON string escaping: the one copy of the rules that every
//! hand-rolled JSON writer in the workspace uses (the build cannot
//! vendor serde).

use std::fmt::Write as _;

/// Escapes `s` for embedding between the quotes of a JSON string: a
/// quote, a backslash, `\n`, `\r` and `\t` get their short escapes, any
/// other control character below U+0020 a `\u00XX` escape.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::escape;

    #[test]
    fn escapes_quotes_backslashes_and_control_characters() {
        assert_eq!(escape("plain é ∞"), "plain é ∞");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("1\n2\r3\t4"), "1\\n2\\r3\\t4");
        assert_eq!(escape("\u{1}\u{1f}\u{20}"), "\\u0001\\u001f ");
    }
}
