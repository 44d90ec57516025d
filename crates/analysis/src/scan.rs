//! A lightweight Rust token scanner: the shared substrate of every source
//! rule.
//!
//! This is deliberately **not** a parser.  It walks a file once with a small
//! character-level state machine that separates *code* from *comments* and
//! blanks out string/char literal contents, tracks brace depth, and records
//! function spans (name, visibility, accumulated doc comment, body lines)
//! and `#[cfg(test)]` module spans.  Everything a rule needs downstream is a
//! substring question over the classified lines — precise enough for the
//! project's own codebase and fixtures, honest about being an
//! approximation (see ARCHITECTURE.md for the known false-negative shapes).

/// One source line, classified.
#[derive(Debug, Clone)]
pub struct Line {
    /// The line's code with comments removed and string/char literal
    /// *contents* blanked (the delimiting quotes survive).  Substring
    /// checks against this never match text inside literals or comments.
    pub code: String,
    /// The line's comment text (line comments and any block-comment part),
    /// markers included — `"// note"`, `"/// doc"`, `"//! ordering: …"`.
    pub comment: String,
    /// Brace depth at the *start* of the line (code braces only).
    pub depth_start: usize,
    /// Whether the line falls inside a `#[cfg(test)]` module.
    pub in_test: bool,
}

/// One `fn` item: its span and the metadata rules key off.
#[derive(Debug, Clone)]
pub struct Function {
    /// The function's name.
    pub name: String,
    /// Whether the header line carries `pub`.
    pub is_pub: bool,
    /// 0-based line index of the `fn` keyword.
    pub header: usize,
    /// 0-based line index of the first body line (the line the `{` opens
    /// on).
    pub body_start: usize,
    /// 0-based line index of the closing `}` of the body.
    pub body_end: usize,
    /// Brace depth *inside* the body (one more than at the header).
    pub body_depth: usize,
    /// Accumulated `///` doc comment directly above the header.
    pub doc: String,
    /// Whether the function sits inside a `#[cfg(test)]` module.
    pub in_test: bool,
}

/// A scanned source file: classified lines plus the function index.
#[derive(Debug)]
pub struct SourceFile {
    /// Display path used in findings (workspace-relative).
    pub path: String,
    /// The classified lines.
    pub lines: Vec<Line>,
    /// Every `fn` item found, in source order.
    pub functions: Vec<Function>,
}

/// Character-level scan state carried across lines.
enum State {
    Code,
    BlockComment(usize),
    Str,
    RawStr(usize),
}

pub(crate) fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

impl SourceFile {
    /// Scans `text`, classifying each line and indexing functions and
    /// `#[cfg(test)]` modules.  `path` is only used for display.
    pub fn parse(path: &str, text: &str) -> SourceFile {
        let mut lines = Vec::new();
        let mut state = State::Code;
        let mut depth = 0usize;
        for raw in text.lines() {
            let (line, next_state, next_depth) = classify_line(raw, state, depth);
            state = next_state;
            depth = next_depth;
            lines.push(line);
        }
        mark_test_modules(&mut lines);
        let functions = index_functions(&lines);
        SourceFile { path: path.to_string(), lines, functions }
    }

    /// The body span (first line, last line, inner depth) of the first
    /// `impl` block whose header contains `needle` (e.g. `"impl QueryEngine"`),
    /// or `None` when the file has no such block.
    pub fn impl_span(&self, needle: &str) -> Option<(usize, usize, usize)> {
        let header = self.lines.iter().position(|l| l.code.contains(needle))?;
        let open_depth = self.lines[header].depth_start;
        let mut end = header;
        for (idx, line) in self.lines.iter().enumerate().skip(header + 1) {
            end = idx;
            if line.depth_start == open_depth + 1 && line.code.trim_start().starts_with('}') {
                break;
            }
        }
        Some((header, end, open_depth + 1))
    }
}

/// Classifies one raw line given the carried-over state, returning the
/// classified line, the state after the line, and the brace depth after it.
fn classify_line(raw: &str, mut state: State, depth_at_start: usize) -> (Line, State, usize) {
    let mut code = String::with_capacity(raw.len());
    let mut comment = String::new();
    let mut depth = depth_at_start;
    let chars: Vec<char> = raw.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        match state {
            State::BlockComment(nest) => {
                comment.push(c);
                if c == '/' && i + 1 < chars.len() && chars[i + 1] == '*' {
                    comment.push('*');
                    state = State::BlockComment(nest + 1);
                    i += 2;
                    continue;
                }
                if c == '*' && i + 1 < chars.len() && chars[i + 1] == '/' {
                    comment.push('/');
                    state = if nest == 1 { State::Code } else { State::BlockComment(nest - 1) };
                    i += 2;
                    continue;
                }
                i += 1;
            }
            State::Str => {
                if c == '\\' {
                    i += 2; // the escaped char never terminates the literal
                    continue;
                }
                if c == '"' {
                    code.push('"');
                    state = State::Code;
                }
                i += 1;
            }
            State::RawStr(hashes) => {
                if c == '"' {
                    let closing: String = chars[i + 1..].iter().take(hashes).collect();
                    if closing.chars().filter(|&h| h == '#').count() == hashes {
                        code.push('"');
                        for _ in 0..hashes {
                            code.push('#');
                        }
                        state = State::Code;
                        i += 1 + hashes;
                        continue;
                    }
                }
                i += 1;
            }
            State::Code => {
                match c {
                    '/' if i + 1 < chars.len() && chars[i + 1] == '/' => {
                        comment.push_str(&raw[raw.char_indices().nth(i).map(|(b, _)| b).unwrap_or(0)..]);
                        i = chars.len();
                    }
                    '/' if i + 1 < chars.len() && chars[i + 1] == '*' => {
                        comment.push_str("/*");
                        state = State::BlockComment(1);
                        i += 2;
                    }
                    '"' => {
                        // Raw-string openings (`r"…"`, `r#"…"#`, `br#"…"#`)
                        // were consumed by the `r`/`#` lookahead below; a
                        // bare quote starts a plain string.
                        code.push('"');
                        state = State::Str;
                        i += 1;
                    }
                    'r' | 'b'
                        if looks_like_raw_string(&chars, i) =>
                    {
                        // Consume the prefix + hashes + opening quote.
                        let mut j = i;
                        while j < chars.len() && (chars[j] == 'r' || chars[j] == 'b') {
                            code.push(chars[j]);
                            j += 1;
                        }
                        let mut hashes = 0;
                        while j < chars.len() && chars[j] == '#' {
                            code.push('#');
                            hashes += 1;
                            j += 1;
                        }
                        if j < chars.len() && chars[j] == '"' {
                            code.push('"');
                            state = if hashes == 0 { State::Str } else { State::RawStr(hashes) };
                            i = j + 1;
                        } else {
                            // Not actually a raw string (`b` as an ident…).
                            i += 1;
                        }
                    }
                    '\'' => {
                        // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                        let next = chars.get(i + 1).copied();
                        let after = chars.get(i + 2).copied();
                        let is_lifetime = matches!(next, Some(n) if (n.is_alphabetic() || n == '_'))
                            && after != Some('\'');
                        if is_lifetime {
                            code.push('\'');
                            i += 1;
                        } else if next == Some('\\') {
                            // Escaped char literal: skip to the closing quote.
                            code.push_str("'\\'");
                            let mut j = i + 2;
                            while j < chars.len() && chars[j] != '\'' {
                                j += 1;
                            }
                            i = j + 1;
                        } else {
                            code.push_str("''");
                            i += 3; // 'x'
                        }
                    }
                    '{' => {
                        depth += 1;
                        code.push(c);
                        i += 1;
                    }
                    '}' => {
                        depth = depth.saturating_sub(1);
                        code.push(c);
                        i += 1;
                    }
                    _ => {
                        code.push(c);
                        i += 1;
                    }
                }
            }
        }
    }
    let line = Line { code, comment, depth_start: depth_at_start, in_test: false };
    (line, state, depth)
}

/// Whether position `i` (an `r` or `b`) opens a raw/byte string literal.
fn looks_like_raw_string(chars: &[char], i: usize) -> bool {
    // Must not be the tail of an identifier (`for`, `expr`…).
    if i > 0 && is_ident(chars[i - 1]) {
        return false;
    }
    let mut j = i;
    let mut saw_r = false;
    while j < chars.len() && (chars[j] == 'r' || chars[j] == 'b') {
        saw_r |= chars[j] == 'r';
        j += 1;
    }
    let hash_start = j;
    while j < chars.len() && chars[j] == '#' {
        j += 1;
    }
    // Hashes are only legal with an `r` prefix (`r#"`, `br#"`); a plain
    // `b"…"` byte string (no r, no hashes) still needs consuming so the `b`
    // is not mistaken for an identifier char before the quote.
    if j > hash_start && !saw_r {
        return false;
    }
    j < chars.len() && chars[j] == '"'
}

/// Marks every line inside a `#[cfg(test)] mod … { }` span.
fn mark_test_modules(lines: &mut [Line]) {
    let mut i = 0;
    while i < lines.len() {
        if lines[i].code.contains("#[cfg(test)]") {
            // Find the following `mod` item (attributes may intervene).
            let mut j = i + 1;
            while j < lines.len()
                && !lines[j].code.contains("mod ")
                && (lines[j].code.trim().is_empty() || lines[j].code.trim_start().starts_with("#["))
            {
                j += 1;
            }
            if j < lines.len() && lines[j].code.contains("mod ") {
                let open_depth = lines[j].depth_start;
                let mut k = j;
                loop {
                    lines[k].in_test = true;
                    k += 1;
                    if k >= lines.len() {
                        break;
                    }
                    if lines[k].depth_start == open_depth + 1
                        && lines[k].code.trim_start().starts_with('}')
                    {
                        lines[k].in_test = true;
                        break;
                    }
                }
                i = k;
                continue;
            }
        }
        i += 1;
    }
}

/// Finds every `fn` item and its body span.
fn index_functions(lines: &[Line]) -> Vec<Function> {
    let mut functions = Vec::new();
    let mut doc = String::new();
    for (idx, line) in lines.iter().enumerate() {
        let trimmed_comment = line.comment.trim_start();
        if line.code.trim().is_empty() {
            if trimmed_comment.starts_with("///") || trimmed_comment.starts_with("#[") {
                doc.push_str(trimmed_comment);
                doc.push('\n');
                continue;
            }
            if trimmed_comment.is_empty() {
                doc.clear();
            }
            continue;
        }
        // Attribute-only lines keep the doc run alive.
        if line.code.trim_start().starts_with("#[") {
            continue;
        }
        if let Some(name) = fn_name(&line.code) {
            let is_pub = fn_is_pub(&line.code);
            // Find the opening brace (same line or a continuation line);
            // a `;` first means a bodyless trait method — skip it.
            let mut body_start = None;
            'search: for (j, cand) in lines.iter().enumerate().skip(idx).take(16) {
                for c in cand.code.chars() {
                    match c {
                        '{' => {
                            body_start = Some(j);
                            break 'search;
                        }
                        ';' => break 'search,
                        _ => {}
                    }
                }
            }
            if let Some(body_start) = body_start {
                let open_depth = lines[body_start]
                    .depth_start
                    .max(line.depth_start);
                let mut body_end = body_start;
                for (k, cand) in lines.iter().enumerate().skip(body_start + 1) {
                    if cand.depth_start <= open_depth {
                        break;
                    }
                    body_end = k;
                }
                functions.push(Function {
                    name,
                    is_pub,
                    header: idx,
                    body_start,
                    body_end,
                    body_depth: open_depth + 1,
                    doc: std::mem::take(&mut doc),
                    in_test: line.in_test,
                });
            } else {
                doc.clear();
            }
        } else {
            doc.clear();
        }
    }
    functions
}

/// Extracts the function name from a header line, if the line declares one.
fn fn_name(code: &str) -> Option<String> {
    let bytes: Vec<char> = code.chars().collect();
    let mut i = 0;
    while i + 2 < bytes.len() {
        if bytes[i] == 'f'
            && bytes[i + 1] == 'n'
            && bytes.get(i + 2).is_some_and(|c| c.is_whitespace())
            && (i == 0 || !is_ident(bytes[i - 1]))
        {
            let mut j = i + 3;
            while j < bytes.len() && bytes[j].is_whitespace() {
                j += 1;
            }
            let start = j;
            while j < bytes.len() && is_ident(bytes[j]) {
                j += 1;
            }
            if j > start {
                return Some(bytes[start..j].iter().collect());
            }
            return None;
        }
        i += 1;
    }
    None
}

/// Whether a `fn` header line is `pub` (any visibility flavor).
fn fn_is_pub(code: &str) -> bool {
    match code.find("fn ") {
        Some(at) => code[..at].contains("pub"),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_separated() {
        let src = r#"
fn f() {
    let s = "a // not a comment { }";
    // real comment
    let c = 'x';
}
"#;
        let file = SourceFile::parse("t.rs", src);
        assert!(file.lines[2].code.contains("let s ="));
        assert!(!file.lines[2].code.contains("not a comment"));
        assert!(file.lines[3].comment.contains("real comment"));
        assert_eq!(file.functions.len(), 1);
        assert_eq!(file.functions[0].name, "f");
    }

    #[test]
    fn raw_strings_and_lifetimes_do_not_derail_the_scan() {
        let src = "fn g<'a>(x: &'a str) -> bool {\n    let r = r#\"quote \" inside\"#;\n    x.is_empty()\n}\n";
        let file = SourceFile::parse("t.rs", src);
        assert_eq!(file.functions.len(), 1);
        assert!(!file.lines[1].code.contains("inside"));
        assert_eq!(file.functions[0].body_end, 3);
    }

    #[test]
    fn cfg_test_modules_are_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n";
        let file = SourceFile::parse("t.rs", src);
        assert!(!file.lines[0].in_test);
        assert!(file.lines[3].in_test);
        let helper = file.functions.iter().find(|f| f.name == "helper").unwrap();
        assert!(helper.in_test);
        assert!(!file.functions.iter().find(|f| f.name == "live").unwrap().in_test);
    }

    #[test]
    fn docs_accumulate_onto_the_next_function() {
        let src = "/// Panics galore.\n/// # Panics\n/// Always.\npub fn boom() {\n    panic!()\n}\n";
        let file = SourceFile::parse("t.rs", src);
        let f = &file.functions[0];
        assert!(f.is_pub);
        assert!(f.doc.contains("# Panics"));
    }
}
