//! Public-API snapshot: the exported surface of `vbridge` (the backend
//! trait, capture format and target layering), `core::session` (the
//! builder and v-commands), `core::proto` (the wire protocol and its
//! version constant) and `vserve` (the Io transport seam, the binary
//! framing, the evented pump and the serving surface) is locked against
//! a checked-in golden, so an accidental signature change or a silently
//! dropped export fails here instead of shipping.
//!
//! Regenerating after an *intentional* API change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p visualinux --test api_surface
//! git diff crates/core/tests/goldens/   # review, then commit
//! ```

use std::fs;
use std::path::{Path, PathBuf};

const ITEM_PREFIXES: [&str; 8] = [
    "pub fn ",
    "pub struct ",
    "pub enum ",
    "pub trait ",
    "pub type ",
    "pub const ",
    "pub use ",
    "pub mod ",
];

/// Collect the `pub` item signatures of one source file, in order,
/// stopping at the test module. One line per item: `file: signature`.
/// A signature rustfmt wrapped over several lines is joined back into
/// one, so the snapshot pins the whole signature however it is laid out.
fn harvest(path: &Path, out: &mut String) {
    let src = fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let file = path.file_name().unwrap().to_str().unwrap();
    let mut lines = src.lines();
    while let Some(line) = lines.next() {
        let t = line.trim();
        if t.starts_with("#[cfg(test)]") {
            break;
        }
        if !ITEM_PREFIXES.iter().any(|p| t.starts_with(p)) {
            continue;
        }
        let mut joined = t.to_string();
        while !joined.contains('{') && !joined.ends_with(';') {
            let Some(next) = lines.next().map(str::trim) else {
                break;
            };
            if next.starts_with(')') || next.starts_with('>') {
                // `a: A,` `) -> R` reads `a: A) -> R`.
                if joined.ends_with(',') {
                    joined.pop();
                }
            } else if !joined.ends_with('(') && !joined.ends_with('<') {
                joined.push(' ');
            }
            joined.push_str(next);
        }
        let sig = joined
            .split(" {")
            .next()
            .unwrap()
            .trim_end_matches(';')
            .trim_end();
        out.push_str(&format!("{file}: {sig}\n"));
    }
}

#[test]
fn public_api_matches_golden() {
    let core = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut snap = String::new();

    for dir in ["../vbridge/src", "../vserve/src"] {
        let dir = core.join(dir);
        let mut files: Vec<PathBuf> = fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "rs"))
            .collect();
        files.sort();
        for f in &files {
            harvest(f, &mut snap);
        }
    }
    harvest(&core.join("src/proto.rs"), &mut snap);
    harvest(&core.join("src/session.rs"), &mut snap);

    let golden = core.join("tests/goldens/api_surface.txt");
    if std::env::var("UPDATE_GOLDENS").is_ok() {
        fs::create_dir_all(golden.parent().unwrap()).unwrap();
        fs::write(&golden, &snap).unwrap();
        return;
    }
    let want = fs::read_to_string(&golden).expect(
        "golden missing; generate it with \
         UPDATE_GOLDENS=1 cargo test -p visualinux --test api_surface",
    );
    if want != snap {
        let diff: Vec<String> = {
            let w: Vec<&str> = want.lines().collect();
            let s: Vec<&str> = snap.lines().collect();
            let mut d = Vec::new();
            for i in 0..w.len().max(s.len()) {
                match (w.get(i), s.get(i)) {
                    (Some(a), Some(b)) if a == b => {}
                    (a, b) => d.push(format!(
                        "  line {}: golden `{}` vs current `{}`",
                        i + 1,
                        a.unwrap_or(&"<absent>"),
                        b.unwrap_or(&"<absent>")
                    )),
                }
            }
            d
        };
        panic!(
            "public API surface drifted from the golden ({} lines differ).\n\
             If intentional: UPDATE_GOLDENS=1 cargo test -p visualinux --test api_surface\n\
             First differences:\n{}",
            diff.len(),
            diff.iter().take(20).cloned().collect::<Vec<_>>().join("\n")
        );
    }
}
