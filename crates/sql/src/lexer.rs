//! Hand-written SQL lexer.

use cbqt_common::{Error, Result, Value};
use std::fmt;

/// Kinds of lexical tokens.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Keyword or identifier; the lexer does not distinguish — the parser
    /// checks against the keyword table. Stored uppercased for keywords
    /// lookups with the original preserved.
    Ident(String),
    /// Quoted identifier (`"Name"`); preserved verbatim.
    QuotedIdent(String),
    Number(String),
    StringLit(String),
    // punctuation / operators
    Comma,
    Dot,
    LParen,
    RParen,
    Plus,
    Minus,
    Star,
    Slash,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Concat,
    Semicolon,
    /// `?` — positional bind-parameter placeholder.
    Question,
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "{s}"),
            TokenKind::QuotedIdent(s) => write!(f, "\"{s}\""),
            TokenKind::Number(s) => write!(f, "{s}"),
            TokenKind::StringLit(s) => write!(f, "'{s}'"),
            TokenKind::Comma => write!(f, ","),
            TokenKind::Dot => write!(f, "."),
            TokenKind::LParen => write!(f, "("),
            TokenKind::RParen => write!(f, ")"),
            TokenKind::Plus => write!(f, "+"),
            TokenKind::Minus => write!(f, "-"),
            TokenKind::Star => write!(f, "*"),
            TokenKind::Slash => write!(f, "/"),
            TokenKind::Eq => write!(f, "="),
            TokenKind::NotEq => write!(f, "<>"),
            TokenKind::Lt => write!(f, "<"),
            TokenKind::LtEq => write!(f, "<="),
            TokenKind::Gt => write!(f, ">"),
            TokenKind::GtEq => write!(f, ">="),
            TokenKind::Concat => write!(f, "||"),
            TokenKind::Semicolon => write!(f, ";"),
            TokenKind::Question => write!(f, "?"),
            TokenKind::Eof => write!(f, "<eof>"),
        }
    }
}

/// A token plus its byte offset (for error messages).
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    pub kind: TokenKind,
    pub offset: usize,
}

/// Streaming lexer over SQL text.
pub struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    pub fn new(src: &'a str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
        }
    }

    /// Lexes the whole input into a token vector (terminated by `Eof`).
    /// The vector is sized once from the source: SQL text runs at three
    /// to five bytes a token, so room for one token per two bytes holds
    /// a typical statement without growing.
    pub fn tokenize(src: &str) -> Result<Vec<Token>> {
        let mut lx = Lexer::new(src);
        let mut out = Vec::with_capacity(src.len() / 2 + 2);
        loop {
            let t = lx.next_token()?;
            let done = t.kind == TokenKind::Eof;
            out.push(t);
            if done {
                return Ok(out);
            }
        }
    }

    /// The byte offset the next scan starts from.
    pub(crate) fn position(&self) -> usize {
        self.pos
    }

    fn peek(&self) -> u8 {
        *self.src.get(self.pos).unwrap_or(&0)
    }

    fn peek2(&self) -> u8 {
        *self.src.get(self.pos + 1).unwrap_or(&0)
    }

    fn bump(&mut self) -> u8 {
        let c = self.peek();
        self.pos += 1;
        c
    }

    fn skip_trivia(&mut self) -> Result<()> {
        loop {
            match self.peek() {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.pos += 1;
                }
                b'-' if self.peek2() == b'-' => {
                    while self.peek() != b'\n' && self.peek() != 0 {
                        self.pos += 1;
                    }
                }
                b'/' if self.peek2() == b'*' => {
                    let start = self.pos;
                    self.pos += 2;
                    loop {
                        if self.pos >= self.src.len() {
                            return Err(Error::parse(format!(
                                "unterminated block comment at offset {start}"
                            )));
                        }
                        if self.peek() == b'*' && self.peek2() == b'/' {
                            self.pos += 2;
                            break;
                        }
                        self.pos += 1;
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    /// Produces the next token.
    pub fn next_token(&mut self) -> Result<Token> {
        let (scanned, offset) = self.scan()?;
        let text = &self.src[offset..self.pos];
        let chars = |b: &[u8]| b.iter().map(|&c| c as char).collect::<String>();
        let kind = match scanned {
            Scanned::Ident => TokenKind::Ident(chars(text)),
            Scanned::QuotedIdent => TokenKind::QuotedIdent(chars(&text[1..text.len() - 1])),
            Scanned::Number => TokenKind::Number(chars(text)),
            Scanned::StringLit => TokenKind::StringLit(unescape_string(text)),
            Scanned::Punct(kind) => kind,
        };
        Ok(Token { kind, offset })
    }

    /// Advances past the next token and says what it was and where it
    /// starts, allocating nothing: the text of an identifier or literal
    /// is `src[start..self.pos]`. [`Lexer::next_token`] and the shape
    /// pass ([`crate::shape`]) are both built on this.
    pub(crate) fn scan(&mut self) -> Result<(Scanned, usize)> {
        self.skip_trivia()?;
        let offset = self.pos;
        let kind = match self.peek() {
            0 => TokenKind::Eof,
            b',' => {
                self.bump();
                TokenKind::Comma
            }
            b'.' if !self.peek2().is_ascii_digit() => {
                self.bump();
                TokenKind::Dot
            }
            b'(' => {
                self.bump();
                TokenKind::LParen
            }
            b')' => {
                self.bump();
                TokenKind::RParen
            }
            b'+' => {
                self.bump();
                TokenKind::Plus
            }
            b'-' => {
                self.bump();
                TokenKind::Minus
            }
            b'*' => {
                self.bump();
                TokenKind::Star
            }
            b'/' => {
                self.bump();
                TokenKind::Slash
            }
            b';' => {
                self.bump();
                TokenKind::Semicolon
            }
            b'?' => {
                self.bump();
                TokenKind::Question
            }
            b'=' => {
                self.bump();
                TokenKind::Eq
            }
            b'!' if self.peek2() == b'=' => {
                self.pos += 2;
                TokenKind::NotEq
            }
            b'<' => {
                self.bump();
                match self.peek() {
                    b'=' => {
                        self.bump();
                        TokenKind::LtEq
                    }
                    b'>' => {
                        self.bump();
                        TokenKind::NotEq
                    }
                    _ => TokenKind::Lt,
                }
            }
            b'>' => {
                self.bump();
                if self.peek() == b'=' {
                    self.bump();
                    TokenKind::GtEq
                } else {
                    TokenKind::Gt
                }
            }
            b'|' if self.peek2() == b'|' => {
                self.pos += 2;
                TokenKind::Concat
            }
            b'\'' => return self.lex_string().map(|()| (Scanned::StringLit, offset)),
            b'"' => {
                return self
                    .lex_quoted_ident()
                    .map(|()| (Scanned::QuotedIdent, offset))
            }
            c if c.is_ascii_digit() || (c == b'.' && self.peek2().is_ascii_digit()) => {
                self.lex_number();
                return Ok((Scanned::Number, offset));
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                self.lex_ident();
                return Ok((Scanned::Ident, offset));
            }
            c => {
                return Err(Error::parse(format!(
                    "unexpected character '{}' at offset {offset}",
                    c as char
                )))
            }
        };
        Ok((Scanned::Punct(kind), offset))
    }

    fn lex_string(&mut self) -> Result<()> {
        let start = self.pos;
        self.bump(); // opening quote
        loop {
            match self.bump() {
                0 => {
                    return Err(Error::parse(format!(
                        "unterminated string at offset {start}"
                    )))
                }
                b'\'' if self.peek() == b'\'' => {
                    self.bump();
                }
                b'\'' => return Ok(()),
                _ => {}
            }
        }
    }

    fn lex_quoted_ident(&mut self) -> Result<()> {
        let start = self.pos;
        self.bump();
        loop {
            match self.bump() {
                0 => {
                    return Err(Error::parse(format!(
                        "unterminated quoted identifier at offset {start}"
                    )))
                }
                b'"' => return Ok(()),
                _ => {}
            }
        }
    }

    fn lex_number(&mut self) {
        while self.peek().is_ascii_digit() {
            self.bump();
        }
        if self.peek() == b'.' && self.peek2().is_ascii_digit() {
            self.bump();
            while self.peek().is_ascii_digit() {
                self.bump();
            }
        }
        if self.peek() == b'e' || self.peek() == b'E' {
            let save = self.pos;
            self.bump();
            if self.peek() == b'+' || self.peek() == b'-' {
                self.bump();
            }
            if self.peek().is_ascii_digit() {
                while self.peek().is_ascii_digit() {
                    self.bump();
                }
            } else {
                self.pos = save; // 'e' begins an identifier, not an exponent
            }
        }
    }

    fn lex_ident(&mut self) {
        while {
            let c = self.peek();
            c.is_ascii_alphanumeric() || c == b'_' || c == b'$' || c == b'#'
        } {
            self.bump();
        }
    }
}

/// What [`Lexer::scan`] found: a token without its text.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Scanned {
    Ident,
    QuotedIdent,
    Number,
    StringLit,
    /// A token with no text (punctuation, `?`, end of input).
    Punct(TokenKind),
}

/// The value of a string literal's source text, quotes included: the
/// quotes dropped and every `''` read as one `'`.
fn unescape_string(quoted: &[u8]) -> String {
    let mut s = String::with_capacity(quoted.len() - 2);
    let mut bytes = quoted[1..quoted.len() - 1].iter();
    while let Some(&c) = bytes.next() {
        if c == b'\'' {
            bytes.next();
        }
        s.push(c as char);
    }
    s
}

/// The value of a literal token's source text: a string literal's
/// (quotes included) is its text with the quotes dropped and every `''`
/// read as one `'`; number text with a `.` or an exponent, or too large
/// for an `i64`, is a `Double`, other number text an `Int`. `None` for
/// number text no float parse accepts. The parser reads its number
/// tokens, and the statement-shape recipes ([`crate::shape`]) every
/// literal, through here, and a string token holds the same unescaped
/// text, so a recipe can never read a literal differently from a parse.
pub(crate) fn literal_value(text: &str) -> Option<Value> {
    if text.starts_with('\'') {
        return Some(Value::str(unescape_string(text.as_bytes())));
    }
    // an `i64` parse refuses a `.` or an exponent
    match text.parse::<i64>() {
        Ok(i) => Some(Value::Int(i)),
        Err(_) => text.parse::<f64>().ok().map(Value::Double),
    }
}

/// The value a folded unary minus makes of `v` (numbers only): the
/// parser's fold and a recipe's negated slot both negate through here.
pub(crate) fn negated(v: &Value) -> Option<Value> {
    match v {
        Value::Int(i) => i.checked_neg().map(Value::Int),
        Value::Double(d) => Some(Value::Double(-d)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        Lexer::tokenize(src)
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn lex_simple_select() {
        let ks = kinds("SELECT a, b FROM t WHERE a >= 1.5;");
        assert_eq!(
            ks,
            vec![
                TokenKind::Ident("SELECT".into()),
                TokenKind::Ident("a".into()),
                TokenKind::Comma,
                TokenKind::Ident("b".into()),
                TokenKind::Ident("FROM".into()),
                TokenKind::Ident("t".into()),
                TokenKind::Ident("WHERE".into()),
                TokenKind::Ident("a".into()),
                TokenKind::GtEq,
                TokenKind::Number("1.5".into()),
                TokenKind::Semicolon,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lex_operators() {
        assert_eq!(
            kinds("<> != <= >= < > = ||"),
            vec![
                TokenKind::NotEq,
                TokenKind::NotEq,
                TokenKind::LtEq,
                TokenKind::GtEq,
                TokenKind::Lt,
                TokenKind::Gt,
                TokenKind::Eq,
                TokenKind::Concat,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn lex_string_with_escape() {
        assert_eq!(
            kinds("'it''s'"),
            vec![TokenKind::StringLit("it's".into()), TokenKind::Eof]
        );
    }

    #[test]
    fn lex_comments() {
        assert_eq!(
            kinds("a -- line comment\n /* block\ncomment */ b"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Ident("b".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn lex_qualified_column() {
        assert_eq!(
            kinds("e1.salary"),
            vec![
                TokenKind::Ident("e1".into()),
                TokenKind::Dot,
                TokenKind::Ident("salary".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn lex_number_forms() {
        assert_eq!(
            kinds("1 2.5 3e2 4.5E-1"),
            vec![
                TokenKind::Number("1".into()),
                TokenKind::Number("2.5".into()),
                TokenKind::Number("3e2".into()),
                TokenKind::Number("4.5E-1".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn lex_number_then_ident() {
        // `1e` should not swallow the identifier-starting 'e' as exponent.
        assert_eq!(
            kinds("1employees"),
            vec![
                TokenKind::Number("1".into()),
                TokenKind::Ident("employees".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn lex_errors() {
        assert!(Lexer::tokenize("'unterminated").is_err());
        assert!(Lexer::tokenize("/* unterminated").is_err());
        assert!(Lexer::tokenize("@").is_err());
    }

    #[test]
    fn lex_bind_placeholder() {
        assert_eq!(
            kinds("a = ? AND b > ?"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Eq,
                TokenKind::Question,
                TokenKind::Ident("AND".into()),
                TokenKind::Ident("b".into()),
                TokenKind::Gt,
                TokenKind::Question,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn lex_quoted_identifier() {
        assert_eq!(
            kinds("\"Mixed Case\""),
            vec![TokenKind::QuotedIdent("Mixed Case".into()), TokenKind::Eof]
        );
    }
}
