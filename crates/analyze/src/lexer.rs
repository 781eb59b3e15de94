//! A minimal Rust token scanner: comments-, strings- and raw-strings-aware.
//!
//! The workspace vendors only `rand`, so this analyzer
//! cannot lean on `syn` or `proc-macro2`; instead it lexes source files
//! into a flat token stream that is *just* faithful enough for the rule
//! set in [`crate::rules`]:
//!
//! * identifiers and keywords come out as [`TokKind::Ident`] with text;
//! * every other significant character is a single-character
//!   [`TokKind::Punct`] (so `::` is two `:` tokens and rules match short
//!   token sequences);
//! * string/char/number literals collapse to [`TokKind::Lit`] — their
//!   content can never trigger an identifier rule (rules match idents by
//!   kind), but plain `"…"` strings keep their text in [`Tok::text`] so
//!   literal-argument rules (`obs-naming`) can validate it;
//! * comments are captured out-of-band as [`Comment`]s, because the
//!   suppression grammar (`// coax-analyze: allow(rule, reason)`) and the
//!   `doc-headers` rule both read them.
//!
//! The scanner understands nested block comments, escape sequences,
//! raw/byte strings (`r".."`, `r#".."#`, `b".."`, `br#".."#`) and the
//! lifetime-vs-char-literal ambiguity. It does not attempt full fidelity
//! (float suffix corner cases and the like degrade to `Lit` tokens),
//! which is exactly the failure mode the rules tolerate.

/// What a token is; rules match on this plus the identifier text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword; the text lives in [`Tok::text`].
    Ident,
    /// A single significant character (`.`, `(`, `::` is two of these, …).
    Punct(char),
    /// A string/char/number literal. Plain `"…"` strings retain their
    /// content (escapes kept verbatim) in [`Tok::text`]; raw strings,
    /// chars and numbers leave it empty.
    Lit,
}

/// One lexed token with its 1-based source line.
#[derive(Clone, Debug)]
pub struct Tok {
    /// 1-based line the token starts on.
    pub line: u32,
    /// Token class.
    pub kind: TokKind,
    /// Identifier text (empty for punctuation and literals).
    pub text: String,
}

impl Tok {
    /// `true` if this token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }

    /// `true` if this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// A comment captured out-of-band, with its line span.
#[derive(Clone, Debug)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub first_line: u32,
    /// 1-based line the comment ends on (same as `first_line` for `//`).
    pub last_line: u32,
    /// Full comment text including the `//` / `/*` markers.
    pub text: String,
    /// `true` for doc comments (`///`, `//!`, `/**`, `/*!`).
    pub is_doc: bool,
}

/// Lexes `src` into a token stream plus the comment list.
pub fn lex(src: &str) -> (Vec<Tok>, Vec<Comment>) {
    Lexer { chars: src.chars().collect(), pos: 0, line: 1 }.run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn run(mut self) -> (Vec<Tok>, Vec<Comment>) {
        let mut toks = Vec::new();
        let mut comments = Vec::new();
        while let Some(c) = self.peek(0) {
            if c.is_whitespace() {
                self.bump();
            } else if c == '/' && self.peek(1) == Some('/') {
                comments.push(self.line_comment());
            } else if c == '/' && self.peek(1) == Some('*') {
                comments.push(self.block_comment());
            } else if c == '"' {
                let line = self.line;
                let text = self.string();
                toks.push(Tok { line, kind: TokKind::Lit, text });
            } else if c == 'r' || c == 'b' {
                self.raw_or_ident(&mut toks);
            } else if c == '\'' {
                self.lifetime_or_char(&mut toks);
            } else if c.is_ascii_digit() {
                let line = self.line;
                self.number();
                toks.push(Tok { line, kind: TokKind::Lit, text: String::new() });
            } else if c.is_alphanumeric() || c == '_' {
                toks.push(self.ident());
            } else {
                let line = self.line;
                self.bump();
                toks.push(Tok { line, kind: TokKind::Punct(c), text: String::new() });
            }
        }
        (toks, comments)
    }

    fn line_comment(&mut self) -> Comment {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        let is_doc =
            (text.starts_with("///") && !text.starts_with("////")) || text.starts_with("//!");
        Comment { first_line: line, last_line: line, text, is_doc }
    }

    fn block_comment(&mut self) -> Comment {
        let first_line = self.line;
        let mut text = String::new();
        let mut depth = 0usize;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                text.push('/');
                text.push('*');
                self.bump();
                self.bump();
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                text.push('*');
                text.push('/');
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
            } else {
                text.push(c);
                self.bump();
            }
        }
        let is_doc =
            (text.starts_with("/**") && !text.starts_with("/***")) || text.starts_with("/*!");
        Comment { first_line, last_line: self.line, text, is_doc }
    }

    /// Consumes a `"…"` string with escapes (cursor on the opening
    /// quote), returning the content between the quotes with escape
    /// sequences kept verbatim (`\"` stays two characters — good enough
    /// for name validation, which rejects backslashes anyway).
    fn string(&mut self) -> String {
        let mut text = String::new();
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            if c == '\\' {
                text.push(c);
                if let Some(esc) = self.bump() {
                    text.push(esc);
                }
            } else if c == '"' {
                break;
            } else {
                text.push(c);
            }
        }
        text
    }

    /// Consumes `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `b'…'` or falls back
    /// to a plain identifier starting with `r`/`b`.
    fn raw_or_ident(&mut self, toks: &mut Vec<Tok>) {
        let line = self.line;
        // Count the prefix shape without consuming.
        let mut ahead = 1; // past the r/b
        if self.peek(0) == Some('b') && self.peek(1) == Some('r') {
            ahead = 2;
        }
        let mut hashes = 0;
        while self.peek(ahead + hashes) == Some('#') {
            hashes += 1;
        }
        let after = self.peek(ahead + hashes);
        let raw = ahead + hashes > 1 || hashes > 0; // r#…, br…, b…
        let is_string = after == Some('"') && (raw || ahead == 1 && self.peek(0) != Some('b'));
        let is_byte_string = after == Some('"') && self.peek(0) == Some('b');
        let is_byte_char = self.peek(0) == Some('b') && self.peek(1) == Some('\'');
        if is_byte_char {
            self.bump(); // b
            self.lifetime_or_char(toks);
            return;
        }
        if is_string || is_byte_string {
            for _ in 0..ahead + hashes {
                self.bump();
            }
            if hashes == 0 {
                self.string();
            } else {
                // Raw string: ends at `"` followed by `hashes` hashes.
                self.bump(); // opening quote
                'outer: while let Some(c) = self.bump() {
                    if c == '"' {
                        for h in 0..hashes {
                            if self.peek(h) != Some('#') {
                                continue 'outer;
                            }
                        }
                        for _ in 0..hashes {
                            self.bump();
                        }
                        break;
                    }
                }
            }
            toks.push(Tok { line, kind: TokKind::Lit, text: String::new() });
        } else {
            toks.push(self.ident());
        }
    }

    /// Disambiguates `'a` (lifetime) from `'x'` / `'\n'` (char literal);
    /// cursor sits on the `'`.
    fn lifetime_or_char(&mut self, toks: &mut Vec<Tok>) {
        let line = self.line;
        let next = self.peek(1);
        let after = self.peek(2);
        let lifetime =
            matches!(next, Some(c) if c.is_alphabetic() || c == '_') && after != Some('\'');
        self.bump(); // the quote
        if lifetime {
            while matches!(self.peek(0), Some(c) if c.is_alphanumeric() || c == '_') {
                self.bump();
            }
            toks.push(Tok { line, kind: TokKind::Lit, text: String::new() });
        } else {
            if self.peek(0) == Some('\\') {
                self.bump();
            }
            self.bump(); // the char
            if self.peek(0) == Some('\'') {
                self.bump();
            }
            toks.push(Tok { line, kind: TokKind::Lit, text: String::new() });
        }
    }

    /// Consumes a numeric literal (decimal, hex/oct/bin, float + exponent,
    /// type suffix). Over-eager suffix handling is fine: it still yields
    /// one `Lit` token.
    fn number(&mut self) {
        if self.peek(0) == Some('0')
            && matches!(self.peek(1), Some('x') | Some('o') | Some('b'))
        {
            self.bump();
            self.bump();
            while matches!(self.peek(0), Some(c) if c.is_alphanumeric() || c == '_') {
                self.bump();
            }
            return;
        }
        while matches!(self.peek(0), Some(c) if c.is_ascii_digit() || c == '_') {
            self.bump();
        }
        // Fraction: only if the dot is followed by a digit (so `0..10`
        // leaves the range dots alone).
        if self.peek(0) == Some('.') && matches!(self.peek(1), Some(c) if c.is_ascii_digit()) {
            self.bump();
            while matches!(self.peek(0), Some(c) if c.is_ascii_digit() || c == '_') {
                self.bump();
            }
        }
        // Exponent.
        if matches!(self.peek(0), Some('e') | Some('E')) {
            let sign = matches!(self.peek(1), Some('+') | Some('-'));
            let digit_at = if sign { 2 } else { 1 };
            if matches!(self.peek(digit_at), Some(c) if c.is_ascii_digit()) {
                self.bump();
                if sign {
                    self.bump();
                }
                while matches!(self.peek(0), Some(c) if c.is_ascii_digit() || c == '_') {
                    self.bump();
                }
            }
        }
        // Type suffix (`f64`, `u32`, …).
        while matches!(self.peek(0), Some(c) if c.is_alphanumeric() || c == '_') {
            self.bump();
        }
    }

    fn ident(&mut self) -> Tok {
        let line = self.line;
        let mut text = String::new();
        while matches!(self.peek(0), Some(c) if c.is_alphanumeric() || c == '_') {
            if let Some(c) = self.bump() {
                text.push(c);
            }
        }
        Tok { line, kind: TokKind::Ident, text }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src).0.into_iter().filter(|t| t.kind == TokKind::Ident).map(|t| t.text).collect()
    }

    #[test]
    fn comments_and_strings_hide_tokens() {
        let src = r##"
            // unwrap in a comment
            /* panic! in /* a nested */ block */
            let s = "unwrap() inside a string";
            let r = r#"expect( inside a raw string"#;
            real_ident();
        "##;
        let ids = idents(src);
        assert!(ids.contains(&"real_ident".to_string()));
        assert!(!ids.iter().any(|i| i == "unwrap" || i == "panic" || i == "expect"));
    }

    #[test]
    fn plain_strings_retain_content_for_literal_rules() {
        let toks = lex(r#"reg.counter("coax.query.count"); let e = "a\"b";"#).0;
        let lits: Vec<String> =
            toks.iter().filter(|t| t.kind == TokKind::Lit).map(|t| t.text.clone()).collect();
        assert_eq!(lits, vec!["coax.query.count".to_string(), "a\\\"b".to_string()]);
    }

    #[test]
    fn doc_comments_are_flagged() {
        let (_, comments) = lex("/// docs\n//! inner\n// plain\nfn f() {}\n");
        let docs: Vec<bool> = comments.iter().map(|c| c.is_doc).collect();
        assert_eq!(docs, vec![true, true, false]);
    }

    #[test]
    fn lifetimes_do_not_eat_the_rest_of_the_file() {
        let ids = idents("fn f<'a>(x: &'a str) { x.unwrap() }");
        assert!(ids.contains(&"unwrap".to_string()));
    }

    #[test]
    fn char_literals_and_ranges() {
        let src = "let c = 'x'; let e = '\\n'; for i in 0..10 { touch(i); }";
        let ids = idents(src);
        assert!(ids.contains(&"touch".to_string()));
        // The range dots survive as punctuation.
        let dots = lex(src).0.iter().filter(|t| t.kind == TokKind::Punct('.')).count();
        assert_eq!(dots, 2);
    }

    #[test]
    fn numbers_with_suffixes_and_floats() {
        let src = "let a = 1.5e-3f64; let b = 0xFFu32; let c = 10_000;";
        let lits = lex(src).0.iter().filter(|t| t.kind == TokKind::Lit).count();
        assert_eq!(lits, 3);
    }

    #[test]
    fn lines_are_tracked() {
        let (toks, comments) = lex("a\nb // c\nd\n");
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 3]);
        assert_eq!(comments[0].first_line, 2);
    }
}
