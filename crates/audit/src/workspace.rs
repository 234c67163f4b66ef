//! Workspace discovery, source enumeration, and the lexical scrubber
//! shared by the text-based passes.
//!
//! The linters here deliberately avoid a full Rust parser: the
//! hazards they look for (hash-container iteration, wall-clock calls,
//! `unsafe` tokens, hard-coded LDM literals) are all recognisable
//! lexically once comments, string literals and char literals are
//! blanked out. [`scrub`] does exactly that — it replaces the
//! *contents* of comments and literals with spaces while preserving
//! every newline, so downstream scans keep accurate line numbers and
//! can never be fooled by a hazard spelled inside a doc comment or a
//! format string.

use std::path::{Path, PathBuf};

/// A loaded workspace source file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Path relative to the workspace root, with `/` separators.
    pub rel: String,
    /// Raw file contents.
    pub raw: String,
    /// Contents with comments / string / char literals blanked
    /// (newlines preserved — line numbers match `raw`).
    pub scrubbed: String,
}

impl SourceFile {
    /// 1-based line number of byte offset `pos` in this file.
    pub fn line_of(&self, pos: usize) -> usize {
        1 + self.raw.as_bytes()[..pos.min(self.raw.len())]
            .iter()
            .filter(|&&b| b == b'\n')
            .count()
    }
}

/// Walks up from `start` looking for a `Cargo.toml` that declares
/// `[workspace]`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

/// Recursively collects `.rs` files under `dir`, skipping `target/`
/// build output. Results are sorted for deterministic reports.
pub fn rust_sources(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    collect(dir, &mut out);
    out.sort();
    out
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Workspace-relative display path with `/` separators.
pub fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Loads every `.rs` file under `root/{subdir}` for each subdir,
/// scrubbed and ready to scan.
pub fn load_sources(root: &Path, subdirs: &[&str]) -> Vec<SourceFile> {
    let mut files = Vec::new();
    for sub in subdirs {
        for path in rust_sources(&root.join(sub)) {
            let Ok(raw) = std::fs::read_to_string(&path) else {
                continue;
            };
            let scrubbed = scrub(&raw);
            files.push(SourceFile {
                rel: rel(root, &path),
                raw,
                scrubbed,
            });
        }
    }
    files
}

/// Blanks comments, string literals and char literals with spaces,
/// preserving newlines (so byte offsets map to the same lines as the
/// original). Handles nested block comments, raw strings
/// (`r"…"`/`r#"…"#`), byte strings, and distinguishes lifetimes
/// (`'a`) from char literals (`'a'`).
pub fn scrub(src: &str) -> String {
    let chars: Vec<char> = src.chars().collect();
    let mut out: Vec<char> = Vec::with_capacity(chars.len());
    let mut i = 0;
    let blank = |c: char| if c == '\n' { '\n' } else { ' ' };
    while i < chars.len() {
        let c = chars[i];
        let prev_ident = i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_');
        // Line comment.
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            while i < chars.len() && chars[i] != '\n' {
                out.push(' ');
                i += 1;
            }
            continue;
        }
        // Block comment (nested).
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            let mut depth = 0usize;
            while i < chars.len() {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    out.push(blank(chars[i]));
                    i += 1;
                }
            }
            continue;
        }
        // Raw (byte) string: r"…", r#"…"#, br"…", br#"…"#.
        if !prev_ident && (c == 'r' || c == 'b') {
            let mut j = i;
            if chars[j] == 'b' && chars.get(j + 1) == Some(&'r') {
                j += 1;
            }
            if chars[j] == 'r' {
                let mut k = j + 1;
                let mut hashes = 0usize;
                while chars.get(k) == Some(&'#') {
                    hashes += 1;
                    k += 1;
                }
                if chars.get(k) == Some(&'"') {
                    // Emit the prefix verbatim, blank the body.
                    for &p in &chars[i..=k] {
                        out.push(p);
                    }
                    i = k + 1;
                    'raw: while i < chars.len() {
                        if chars[i] == '"' {
                            let mut close = 0usize;
                            while close < hashes && chars.get(i + 1 + close) == Some(&'#') {
                                close += 1;
                            }
                            if close == hashes {
                                out.extend(std::iter::repeat_n(' ', hashes + 1));
                                i += 1 + hashes;
                                break 'raw;
                            }
                        }
                        out.push(blank(chars[i]));
                        i += 1;
                    }
                    continue;
                }
            }
        }
        // Plain or byte string literal.
        if c == '"' || (!prev_ident && c == 'b' && chars.get(i + 1) == Some(&'"')) {
            if c == 'b' {
                out.push('b');
                i += 1;
            }
            out.push('"');
            i += 1;
            while i < chars.len() {
                if chars[i] == '\\' && i + 1 < chars.len() {
                    out.push(' ');
                    out.push(blank(chars[i + 1]));
                    i += 2;
                } else if chars[i] == '"' {
                    out.push('"');
                    i += 1;
                    break;
                } else {
                    out.push(blank(chars[i]));
                    i += 1;
                }
            }
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            let next = chars.get(i + 1).copied();
            let is_lifetime = match next {
                Some(n) if n.is_alphabetic() || n == '_' => {
                    // 'a' is a char literal, 'a (no closing quote) a lifetime.
                    chars.get(i + 2) != Some(&'\'')
                }
                _ => false,
            };
            if !is_lifetime {
                out.push('\'');
                i += 1;
                while i < chars.len() {
                    if chars[i] == '\\' && i + 1 < chars.len() {
                        out.push(' ');
                        out.push(blank(chars[i + 1]));
                        i += 2;
                    } else if chars[i] == '\'' {
                        out.push('\'');
                        i += 1;
                        break;
                    } else {
                        out.push(blank(chars[i]));
                        i += 1;
                    }
                }
                continue;
            }
        }
        out.push(c);
        i += 1;
    }
    out.into_iter().collect()
}

/// Line ranges covered by an allowlist `marker` (attribute or comment
/// form): from the marker through the end of the following brace block
/// (or statement). Shared by the linters' opt-out machinery.
pub fn marker_ranges(file: &SourceFile, marker: &str) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let scrubbed = file.scrubbed.as_bytes();
    let mut from = 0;
    while let Some(pos) = file.raw[from..].find(marker) {
        let at = from + pos;
        from = at + marker.len();
        let start_line = file.line_of(at);
        // Walk the *scrubbed* text (no braces hiding in strings) to the
        // end of the next brace block, or the next `;` if none opens.
        let mut i = from.min(scrubbed.len());
        let mut end = i;
        let mut depth = 0usize;
        while i < scrubbed.len() {
            match scrubbed[i] {
                b'{' => depth += 1,
                b'}' => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        end = i;
                        break;
                    }
                }
                b';' if depth == 0 => {
                    end = i;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        ranges.push((start_line, file.line_of(end)));
    }
    ranges
}

/// Blanks every `#[cfg(test)]`-gated item (its attribute through the
/// matching close brace of its body) in already-scrubbed text,
/// preserving newlines. Test modules get to use `HashMap` iteration,
/// `Instant::now` and friends without tripping the linters.
pub fn strip_test_blocks(scrubbed: &str) -> String {
    let mut text: Vec<char> = scrubbed.chars().collect();
    let needle: Vec<char> = "#[cfg(test)]".chars().collect();
    let mut i = 0;
    while i + needle.len() <= text.len() {
        if text[i..i + needle.len()] != needle[..] {
            i += 1;
            continue;
        }
        // Find the opening brace of the gated item, then its match. A
        // gated struct field or last element has neither: the close of
        // its enclosing block ends it, not the next item's body.
        let mut j = i + needle.len();
        while j < text.len() && !matches!(text[j], '{' | ';' | '}') {
            j += 1;
        }
        let end = if j < text.len() && text[j] == '{' {
            let mut depth = 0usize;
            let mut k = j;
            loop {
                if k >= text.len() {
                    break k;
                }
                if text[k] == '{' {
                    depth += 1;
                } else if text[k] == '}' {
                    depth -= 1;
                    if depth == 0 {
                        break k + 1;
                    }
                }
                k += 1;
            }
        } else if j < text.len() && text[j] == ';' {
            j + 1
        } else {
            // The enclosing block's `}` (or the end): it stays.
            j
        };
        for ch in text
            .iter_mut()
            .take(end.min(scrubbed.chars().count()))
            .skip(i)
        {
            if *ch != '\n' {
                *ch = ' ';
            }
        }
        i = end;
    }
    text.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrub_blanks_comments_and_strings() {
        let src = "let x = \"HashMap\"; // for (k, v) in map.iter()\nlet y = 'c';";
        let s = scrub(src);
        assert!(!s.contains("HashMap"));
        assert!(!s.contains("iter"));
        assert!(!s.contains('c') || !s.contains("'c'"));
        assert_eq!(s.matches('\n').count(), src.matches('\n').count());
        assert_eq!(s.chars().count(), src.chars().count());
    }

    #[test]
    fn scrub_preserves_lifetimes_and_handles_raw_strings() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }\nlet r = r#\"unsafe \"quoted\"\"#;";
        let s = scrub(src);
        assert!(s.contains("<'a>"), "lifetime survives: {s}");
        assert!(s.contains("&'a str"));
        assert!(!s.contains("unsafe"), "raw string body blanked: {s}");
        assert!(!s.contains("quoted"));
    }

    #[test]
    fn scrub_handles_nested_block_comments_and_escapes() {
        let src = "/* outer /* unsafe */ still comment */ let s = \"a\\\"unsafe\\\"b\";";
        let s = scrub(src);
        assert!(!s.contains("unsafe"));
        assert!(s.contains("let s"));
    }

    #[test]
    fn test_blocks_are_stripped() {
        let src = "fn live() { map.iter(); }\n#[cfg(test)]\nmod tests {\n    fn t() { other.iter(); }\n}\nfn after() {}\n";
        let stripped = strip_test_blocks(&scrub(src));
        assert!(stripped.contains("map.iter()"), "live code kept");
        assert!(!stripped.contains("other.iter()"), "test code blanked");
        assert!(stripped.contains("fn after"), "code after the block kept");
        assert_eq!(stripped.matches('\n').count(), src.matches('\n').count());
    }

    #[test]
    fn a_gated_field_hides_only_itself() {
        let src = "struct S {\n    a: u8,\n    #[cfg(test)]\n    b: bool,\n}\n\nimpl S {\n    fn live() { map.iter(); }\n}\n";
        let stripped = strip_test_blocks(&scrub(src));
        assert!(!stripped.contains("b: bool"), "the gated field is blanked");
        assert!(stripped.contains("map.iter()"), "the next item is live");
        assert_eq!(stripped.matches('}').count(), src.matches('}').count());
    }

    #[test]
    fn find_root_locates_workspace() {
        let root = crate::built_workspace_root();
        assert_eq!(find_root(&root.join("crates/audit")), Some(root));
    }
}
