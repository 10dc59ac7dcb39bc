//! A hand-rolled lexical pass that separates Rust source into
//! per-line *code* and *comment* shadows.
//!
//! The scanner's rules are token searches over source text, so the one
//! thing the lexer must get right is **what is code**: string/char
//! literal contents and comments must never produce findings
//! (`"thread_rng"` inside an error message is not an entropy source),
//! while comments must still be readable separately because the lint
//! directives (`lint:allow`, `lint:hot-path`) live in them.
//!
//! The implementation is a small character-level state machine that
//! understands line comments, nested block comments, string literals
//! with escapes, raw strings (`r"…"`, `r#"…"#`, byte variants), and
//! char literals vs. lifetimes. It deliberately does **not** build an
//! AST — no `syn`, no proc-macro machinery — so it compiles with
//! nothing but the standard library.

/// One source line, split into its code and comment parts.
///
/// Both shadows preserve the original column positions: every
/// character that belongs to the other class (or to a string literal's
/// interior) is replaced by a space. Token searches over `code`
/// therefore see only real code, and directive searches over `comment`
/// see only comment text.
#[derive(Debug, Clone, Default)]
pub struct Line {
    /// The line with comments and literal interiors blanked out.
    pub code: String,
    /// The line with everything except comment text blanked out.
    pub comment: String,
}

/// Lexer state carried across characters (and lines: block comments
/// and string literals may span lines).
enum State {
    /// Ordinary code.
    Code,
    /// Inside a `//` comment, until end of line.
    LineComment,
    /// Inside a (possibly nested) `/* … */` comment; the payload is
    /// the nesting depth.
    BlockComment(u32),
    /// Inside a `"…"` string literal.
    Str,
    /// Inside a raw string literal; the payload is the number of `#`
    /// marks required to close it.
    RawStr(u32),
}

/// Splits `source` into per-line code/comment shadows.
///
/// # Examples
///
/// ```
/// let lines = mobic_lint::lexer::split_lines("let x = \"panic!\"; // ok\n");
/// assert!(!lines[0].code.contains("panic!"), "literal interior is blanked");
/// assert!(lines[0].comment.contains("ok"));
/// ```
#[must_use]
pub fn split_lines(source: &str) -> Vec<Line> {
    let chars: Vec<char> = source.chars().collect();
    let mut lines = Vec::new();
    let mut line = Line::default();
    let mut state = State::Code;
    let mut i = 0usize;

    // Pushes `c` into one shadow and a space into the other.
    fn emit(line: &mut Line, c: char, is_code: bool) {
        if c == '\t' {
            // Keep tabs in both shadows so columns stay aligned under
            // any tab rendering.
            line.code.push('\t');
            line.comment.push('\t');
        } else if is_code {
            line.code.push(c);
            line.comment.push(' ');
        } else {
            line.code.push(' ');
            line.comment.push(c);
        }
    }

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            lines.push(std::mem::take(&mut line));
            if matches!(state, State::LineComment) {
                state = State::Code;
            }
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                if c == '/' && chars.get(i + 1) == Some(&'/') {
                    state = State::LineComment;
                    emit(&mut line, ' ', true);
                    emit(&mut line, ' ', true);
                    i += 2;
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::BlockComment(1);
                    emit(&mut line, ' ', true);
                    emit(&mut line, ' ', true);
                    i += 2;
                } else if c == '"' {
                    // Keep the quote itself in the code shadow so the
                    // code still "shapes" like code; blank the interior.
                    emit(&mut line, '"', true);
                    state = State::Str;
                    i += 1;
                } else if is_raw_string_start(&chars, i) {
                    let (hashes, consumed) = raw_string_open(&chars, i);
                    for _ in 0..consumed {
                        emit(&mut line, ' ', true);
                    }
                    state = State::RawStr(hashes);
                    i += consumed;
                } else if c == '\'' && !prev_is_ident(&chars, i) {
                    // Char literal or lifetime?
                    if let Some(consumed) = char_literal_len(&chars, i) {
                        for _ in 0..consumed {
                            emit(&mut line, ' ', true);
                        }
                        i += consumed;
                    } else {
                        emit(&mut line, c, true);
                        i += 1;
                    }
                } else if c == 'b' && chars.get(i + 1) == Some(&'\'') && !prev_is_ident(&chars, i) {
                    // Byte char literal (`b'x'`, `b'\''`): without this
                    // arm the `b` prefix makes `prev_is_ident` true at
                    // the quote, so `b'"'` would open a phantom string
                    // and mis-lex the rest of the file.
                    if let Some(consumed) = char_literal_len(&chars, i + 1) {
                        for _ in 0..=consumed {
                            emit(&mut line, ' ', true);
                        }
                        i += consumed + 1;
                    } else {
                        emit(&mut line, c, true);
                        i += 1;
                    }
                } else {
                    emit(&mut line, c, true);
                    i += 1;
                }
            }
            State::LineComment => {
                emit(&mut line, c, false);
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '*' && chars.get(i + 1) == Some(&'/') {
                    emit(&mut line, ' ', false);
                    emit(&mut line, ' ', false);
                    i += 2;
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    emit(&mut line, ' ', false);
                    emit(&mut line, ' ', false);
                    i += 2;
                    state = State::BlockComment(depth + 1);
                } else {
                    emit(&mut line, c, false);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' && i + 1 < chars.len() {
                    emit(&mut line, ' ', true);
                    if chars[i + 1] != '\n' {
                        emit(&mut line, ' ', true);
                    }
                    i += 2;
                } else if c == '"' {
                    emit(&mut line, '"', true);
                    state = State::Code;
                    i += 1;
                } else {
                    emit(&mut line, ' ', true);
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' && closes_raw_string(&chars, i, hashes) {
                    for _ in 0..=hashes {
                        emit(&mut line, ' ', true);
                    }
                    i += 1 + hashes as usize;
                    state = State::Code;
                } else {
                    emit(&mut line, ' ', true);
                    i += 1;
                }
            }
        }
    }
    if !line.code.is_empty() || !line.comment.is_empty() {
        lines.push(line);
    }
    lines
}

/// `true` if the char before `i` continues an identifier (so a `'` or
/// `r"` at `i` cannot start a literal).
fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_')
}

/// Does a raw (byte) string literal start at `i`? Recognizes `r"`,
/// `r#…#"`, `br"`, `br#…#"`, and the plain byte string `b"`.
fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    if prev_is_ident(chars, i) {
        return false;
    }
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) == Some(&'r') {
        j += 1;
        while chars.get(j) == Some(&'#') {
            j += 1;
        }
    }
    j > i && chars.get(j) == Some(&'"')
}

/// Length of the raw-string opener at `i` and the number of `#` marks
/// it uses. Assumes [`is_raw_string_start`] returned `true`.
fn raw_string_open(chars: &[char], i: usize) -> (u32, usize) {
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    let mut hashes = 0u32;
    if chars.get(j) == Some(&'r') {
        j += 1;
        while chars.get(j) == Some(&'#') {
            hashes += 1;
            j += 1;
        }
    }
    debug_assert_eq!(chars.get(j), Some(&'"'));
    (hashes, j + 1 - i)
}

/// Does the `"` at `i` close a raw string opened with `hashes` marks?
fn closes_raw_string(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

/// If a char literal starts at the `'` at `i`, returns its total
/// length in chars; `None` means it is a lifetime.
fn char_literal_len(chars: &[char], i: usize) -> Option<usize> {
    match chars.get(i + 1) {
        Some('\\') => {
            // Escaped char literal: the escaped character itself may
            // be a quote (`'\''`), so the closing-quote scan starts
            // *after* it — stopping at `i + 2` would close one char
            // early and leave a stray quote in the code shadow.
            let mut j = i + 3;
            while j < chars.len() && chars[j] != '\'' && chars[j] != '\n' {
                j += 1;
            }
            (chars.get(j) == Some(&'\'')).then_some(j + 1 - i)
        }
        Some(_) if chars.get(i + 2) == Some(&'\'') => Some(3),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_comment_splits() {
        let l = split_lines("let a = 1; // trailing\n");
        assert!(l[0].code.contains("let a = 1;"));
        assert!(!l[0].code.contains("trailing"));
        assert!(l[0].comment.contains("trailing"));
    }

    #[test]
    fn string_interiors_are_blanked() {
        let l = split_lines("let s = \"HashMap::new() // not code\";\n");
        assert!(!l[0].code.contains("HashMap"));
        assert!(!l[0].comment.contains("not code"));
    }

    #[test]
    fn escaped_quotes_stay_inside_the_string() {
        let l = split_lines("let s = \"a\\\"b panic! c\"; panic!()\n");
        assert!(!l[0].code.contains("panic! c"));
        assert!(l[0].code.contains("panic!()"));
    }

    #[test]
    fn nested_block_comments() {
        let l = split_lines("a /* x /* y */ z */ b\n");
        assert!(l[0].code.contains('a'));
        assert!(l[0].code.contains('b'));
        assert!(!l[0].code.contains('y'));
        assert!(!l[0].code.contains('z'));
    }

    #[test]
    fn multi_line_block_comment() {
        let l = split_lines("code1 /* c1\nc2 */ code2\n");
        assert!(l[0].code.contains("code1"));
        assert!(l[1].code.contains("code2"));
        assert!(!l[1].code.contains("c2"));
        assert!(l[1].comment.contains("c2"));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let l = split_lines("let s = r#\"vec![1, 2]\"#; vec![3]\n");
        assert!(!l[0].code.contains("vec![1"));
        assert!(l[0].code.contains("vec![3]"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let l = split_lines("fn f<'a>(x: &'a str) -> &'a str { x }\n");
        assert!(l[0].code.contains("'a>"), "{:?}", l[0].code);
        assert!(l[0].code.contains("str"));
    }

    #[test]
    fn char_literals_are_blanked() {
        let l = split_lines("let q = '\"'; let e = '\\n'; let x = \"after\"; panic!()\n");
        // The quote char literal must not open a string.
        assert!(l[0].code.contains("panic!()"));
    }

    #[test]
    fn multi_hash_raw_strings_do_not_close_early() {
        // `"#` inside an `r##"…"##` literal is interior, not a close.
        let l = split_lines("let s = r##\"interior \"# panic!() \"## ; thread_rng()\n");
        assert!(!l[0].code.contains("panic!"), "{:?}", l[0].code);
        assert!(l[0].code.contains("thread_rng()"), "{:?}", l[0].code);

        let over = split_lines("let s = r#\"x\"##; after()\n");
        assert!(over[0].code.contains("after()"), "{:?}", over[0].code);
    }

    #[test]
    fn byte_raw_strings_are_blanked() {
        let l = split_lines("let s = br#\"HashMap panic!\"#; after()\n");
        assert!(!l[0].code.contains("HashMap"), "{:?}", l[0].code);
        assert!(l[0].code.contains("after()"), "{:?}", l[0].code);

        let two = split_lines("let s = br##\"x\"# y\"##; after()\n");
        assert!(two[0].code.contains("after()"), "{:?}", two[0].code);
    }

    #[test]
    fn byte_char_literals_do_not_open_strings() {
        // `b'"'`: the quote inside a byte-char literal must not start
        // a string (which would invert code/literal for the rest of
        // the file).
        let l = split_lines("let c = b'\"'; let x = \"HashMap\"; panic!()\n");
        assert!(!l[0].code.contains("HashMap"), "{:?}", l[0].code);
        assert!(l[0].code.contains("panic!()"), "{:?}", l[0].code);

        let esc = split_lines("let c = b'\\''; panic!()\n");
        assert!(esc[0].code.contains("panic!()"), "{:?}", esc[0].code);
    }

    #[test]
    fn escaped_quote_char_literal_closes_at_the_right_quote() {
        let l = split_lines("let q = '\\''; panic!()\n");
        assert!(l[0].code.contains("panic!()"), "{:?}", l[0].code);
        assert!(!l[0].code.contains('\''), "no stray quote: {:?}", l[0].code);
    }

    #[test]
    fn adjacent_lifetimes_are_not_char_literals() {
        let l = split_lines("fn g<'a, 'b>(x: &'a u8, y: &'b u8) {} ('x', 'y')\n");
        assert!(l[0].code.contains("<'a, 'b>"), "{:?}", l[0].code);
        assert!(!l[0].code.contains("('x', 'y')"), "{:?}", l[0].code);
    }

    #[test]
    fn directives_live_in_comments() {
        let l = split_lines("x(); // lint:allow(hot-path-alloc): reason here\n");
        assert!(l[0]
            .comment
            .contains("lint:allow(hot-path-alloc): reason here"));
        assert!(!l[0].code.contains("lint:allow"));
    }
}
