//! A lightweight Rust tokenizer: just enough lexical structure for the
//! gaugelint rules — identifiers, punctuation, literals — with comments
//! and string/char literals consumed (so a `HashMap` inside a doc string
//! can never trip a rule) and `// gaugelint: allow(...)` suppression
//! directives extracted on the way through.

/// Token kind. The rules only ever inspect identifiers and punctuation;
/// literal kinds exist so the token stream keeps its shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Single punctuation character.
    Punct,
    /// Numeric literal.
    Num,
    /// String literal (regular, raw, or byte).
    Str,
    /// Character literal.
    CharLit,
    /// Lifetime (`'a`).
    Lifetime,
}

/// One token with its source line (1-based).
#[derive(Debug, Clone)]
pub struct Tok {
    /// Kind of token.
    pub kind: TokKind,
    /// Token text (empty for string and char literals).
    pub text: String,
    /// 1-based source line.
    pub line: u32,
}

/// A `// gaugelint: ...` directive found in a line comment.
#[derive(Debug, Clone)]
pub enum Directive {
    /// `// gaugelint: allow(rule-a, rule-b) — optional reason`.
    Allow {
        /// Line the comment sits on.
        line: u32,
        /// Rule names listed inside `allow(...)`.
        rules: Vec<String>,
    },
    /// `// gaugelint: deterministic-via(clock|seed) — reason`. Declares
    /// that the nondeterminism source reached through this line is
    /// injected deterministically (a `Clock` impl, a configured seed):
    /// the taint pass does not propagate the named categories through
    /// the call edge (or sink) on this line, and the matching lexical
    /// sink rule (`wall-clock` / `seed-from-entropy`) is suppressed too.
    DeterministicVia {
        /// Line the comment sits on.
        line: u32,
        /// Severed taint categories (`clock`, `seed`).
        kinds: Vec<String>,
    },
    /// A comment mentioning gaugelint that could not be parsed — always
    /// reported, so a typo'd suppression cannot silently not work.
    Malformed {
        /// Line the comment sits on.
        line: u32,
    },
}

/// Tokenized source plus extracted suppression directives.
#[derive(Debug, Default)]
pub struct Lexed {
    /// The token stream, comments and whitespace removed.
    pub toks: Vec<Tok>,
    /// Suppression directives in source order.
    pub directives: Vec<Directive>,
}

impl Lexed {
    /// Identifier text at index `i`, if that token is an identifier.
    pub fn ident(&self, i: usize) -> Option<&str> {
        match self.toks.get(i) {
            Some(t) if t.kind == TokKind::Ident => Some(&t.text),
            _ => None,
        }
    }

    /// Punctuation char at index `i`, if that token is punctuation.
    pub fn punct(&self, i: usize) -> Option<char> {
        match self.toks.get(i) {
            Some(t) if t.kind == TokKind::Punct => t.text.chars().next(),
            _ => None,
        }
    }

    /// Does the token sequence starting at `i` match `pat`?
    /// Identifier elements match exactly; `"*"` matches any identifier.
    pub fn matches(&self, i: usize, pat: &[Pat<'_>]) -> bool {
        pat.iter().enumerate().all(|(k, p)| match p {
            Pat::I(name) => self.ident(i + k) == Some(name),
            Pat::P(ch) => self.punct(i + k) == Some(*ch),
        })
    }

    /// Source line of token `i` (0 when out of range).
    pub fn line(&self, i: usize) -> u32 {
        self.toks.get(i).map(|t| t.line).unwrap_or(0)
    }
}

/// Pattern element for [`Lexed::matches`].
#[derive(Debug, Clone, Copy)]
pub enum Pat<'a> {
    /// Exact identifier.
    I(&'a str),
    /// Exact punctuation char.
    P(char),
}

/// Tokenize `src`.
pub fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;
    let n = chars.len();

    let is_ident_start = |c: char| c.is_alphabetic() || c == '_';
    let is_ident_char = |c: char| c.is_alphanumeric() || c == '_';

    while i < n {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment — the only place suppressions are recognised.
        if c == '/' && i + 1 < n && chars[i + 1] == '/' {
            let start = i + 2;
            let mut j = start;
            while j < n && chars[j] != '\n' {
                j += 1;
            }
            let text: String = chars[start..j].iter().collect();
            // Doc comments (`///`, `//!`) describe the directive syntax;
            // only plain `//` comments can carry a live suppression.
            if !text.starts_with('/') && !text.starts_with('!') {
                if let Some(d) = parse_directive(&text, line) {
                    out.directives.push(d);
                }
            }
            i = j;
            continue;
        }
        // Block comment (nested).
        if c == '/' && i + 1 < n && chars[i + 1] == '*' {
            let mut depth = 1;
            let mut j = i + 2;
            while j < n && depth > 0 {
                if chars[j] == '\n' {
                    line += 1;
                    j += 1;
                } else if chars[j] == '/' && j + 1 < n && chars[j + 1] == '*' {
                    depth += 1;
                    j += 2;
                } else if chars[j] == '*' && j + 1 < n && chars[j + 1] == '/' {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            i = j;
            continue;
        }
        // Raw / byte / plain string literals: r"", r#""#, br"", b"", "".
        if let Some((next, crossed)) = try_string(&chars, i) {
            out.toks.push(Tok {
                kind: TokKind::Str,
                text: String::new(),
                line,
            });
            line += crossed;
            i = next;
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            if let Some((next, _)) = try_char_literal(&chars, i) {
                out.toks.push(Tok {
                    kind: TokKind::CharLit,
                    text: String::new(),
                    line,
                });
                i = next;
                continue;
            }
            // Lifetime: consume the quote and the following identifier.
            let mut j = i + 1;
            while j < n && is_ident_char(chars[j]) {
                j += 1;
            }
            out.toks.push(Tok {
                kind: TokKind::Lifetime,
                text: chars[i + 1..j].iter().collect(),
                line,
            });
            i = j;
            continue;
        }
        if is_ident_start(c) {
            let mut j = i + 1;
            while j < n && is_ident_char(chars[j]) {
                j += 1;
            }
            out.toks.push(Tok {
                kind: TokKind::Ident,
                text: chars[i..j].iter().collect(),
                line,
            });
            i = j;
            continue;
        }
        if c.is_ascii_digit() {
            let mut j = i + 1;
            while j < n && (is_ident_char(chars[j])) {
                j += 1;
            }
            // Fractional part — but stop before `..` range syntax.
            if j < n && chars[j] == '.' && j + 1 < n && chars[j + 1].is_ascii_digit() {
                j += 1;
                while j < n && is_ident_char(chars[j]) {
                    j += 1;
                }
            }
            out.toks.push(Tok {
                kind: TokKind::Num,
                text: chars[i..j].iter().collect(),
                line,
            });
            i = j;
            continue;
        }
        out.toks.push(Tok {
            kind: TokKind::Punct,
            text: c.to_string(),
            line,
        });
        i += 1;
    }
    out
}

/// Try to lex a string literal at `i`. Returns `(index after literal,
/// newlines crossed)` on success.
fn try_string(chars: &[char], i: usize) -> Option<(usize, u32)> {
    let n = chars.len();
    let mut j = i;
    // Optional b / r / br prefix.
    if j < n && chars[j] == 'b' {
        j += 1;
    }
    let raw = j < n && chars[j] == 'r';
    if raw {
        j += 1;
        let mut hashes = 0usize;
        while j < n && chars[j] == '#' {
            hashes += 1;
            j += 1;
        }
        if j >= n || chars[j] != '"' {
            return None;
        }
        j += 1;
        let mut crossed = 0u32;
        while j < n {
            if chars[j] == '\n' {
                crossed += 1;
                j += 1;
                continue;
            }
            if chars[j] == '"' {
                let mut k = j + 1;
                let mut seen = 0usize;
                while k < n && seen < hashes && chars[k] == '#' {
                    seen += 1;
                    k += 1;
                }
                if seen == hashes {
                    return Some((k, crossed));
                }
            }
            j += 1;
        }
        return Some((n, crossed));
    }
    if j >= n || chars[j] != '"' {
        return None;
    }
    j += 1;
    let mut crossed = 0u32;
    while j < n {
        match chars[j] {
            '\\' => j += 2,
            '\n' => {
                crossed += 1;
                j += 1;
            }
            '"' => return Some((j + 1, crossed)),
            _ => j += 1,
        }
    }
    Some((n, crossed))
}

/// Try to lex a char literal at `i` (which holds `'`). Returns the index
/// after the literal on success; `None` means "this is a lifetime".
fn try_char_literal(chars: &[char], i: usize) -> Option<(usize, u32)> {
    let n = chars.len();
    if i + 1 >= n {
        return None;
    }
    if chars[i + 1] == '\\' {
        // Escape: scan to the closing quote.
        let mut j = i + 2;
        while j < n && chars[j] != '\'' {
            j += 1;
        }
        return Some((j.min(n - 1) + 1, 0));
    }
    // 'x' — a single char then a closing quote. Anything else ('a as a
    // lifetime, '_, …) is not a char literal.
    if i + 2 < n && chars[i + 2] == '\'' {
        return Some((i + 3, 0));
    }
    None
}

/// Parse a gaugelint directive out of a line comment's text. The grammar
/// is one clause per comment:
///
/// ```text
/// // gaugelint: allow(rule-a, rule-b) — reason
/// // gaugelint: deterministic-via(clock|seed) — reason
/// ```
fn parse_directive(comment: &str, line: u32) -> Option<Directive> {
    let at = comment.find("gaugelint")?;
    let rest = comment[at + "gaugelint".len()..].trim_start();
    let rest = rest.strip_prefix(':').map(str::trim_start).unwrap_or(rest);

    let (verb, items) = match parse_clause(rest) {
        Some(parts) => parts,
        None => return Some(Directive::Malformed { line }),
    };
    match verb {
        "allow" => Some(Directive::Allow { line, rules: items }),
        "deterministic-via" => {
            if items.iter().all(|k| k == "clock" || k == "seed") {
                Some(Directive::DeterministicVia { line, kinds: items })
            } else {
                Some(Directive::Malformed { line })
            }
        }
        _ => Some(Directive::Malformed { line }),
    }
}

/// Split `verb(item, item, …)` off the front of a directive body.
/// Returns the verb and the non-empty item list, or `None` on any
/// malformation (missing parens, empty list, unknown shape).
fn parse_clause(rest: &str) -> Option<(&str, Vec<String>)> {
    let open = rest.find('(')?;
    let verb = rest[..open].trim_end();
    if verb.is_empty() || !verb.chars().all(|c| c.is_ascii_alphanumeric() || c == '-') {
        return None;
    }
    let body = &rest[open + 1..];
    let close = body.find(')')?;
    let items: Vec<String> = body[..close]
        .split([',', '|'])
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if items.is_empty() {
        return None;
    }
    Some((verb, items))
}
