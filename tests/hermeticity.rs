//! Hermeticity regression test: the workspace must build from an empty
//! cargo registry. Every dependency of every crate has to be a
//! first-party `veil-*` path dependency — no `rand`, no `proptest`, no
//! `criterion`, nothing fetched from crates.io. The deterministic
//! replacements live in `veil-testkit`.
//!
//! The library crates are hermetic in a second sense too: no library
//! source reads the process environment. Configuration is an explicit
//! builder knob (`CvmBuilder::trace/metrics/batch`); only binary entry
//! points and the two `veil-testkit` harness controls (seed replay and
//! golden regeneration) may consult env vars.
//!
//! And the workspace is safe Rust but for one audited `unsafe` block, the
//! call into the SHA-NI block function in `crates/crypto/src/sha256.rs`.

use std::fs;
use std::path::{Path, PathBuf};

/// Names that used to be external dependencies and must never return.
const BANNED: &[&str] = &["rand", "proptest", "criterion", "quickcheck", "serde"];

/// Dependency-declaring TOML sections (including target-specific forms,
/// which contain one of these as a suffix).
const DEP_SECTIONS: &[&str] = &["dependencies", "dev-dependencies", "build-dependencies"];

fn find_manifests(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable dir") {
        let entry = entry.expect("dir entry");
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name != "target" && name != ".git" {
                find_manifests(&path, out);
            }
        } else if name == "Cargo.toml" {
            out.push(path);
        }
    }
}

/// Extracts `(section, dep_name)` pairs from a manifest without a TOML
/// parser (which would itself be an external dependency).
fn dependencies(manifest: &str) -> Vec<(String, String)> {
    let mut deps = Vec::new();
    let mut section = String::new();
    let mut in_dep_section = false;
    for raw in manifest.lines() {
        let line = raw.trim();
        if line.starts_with('[') && line.ends_with(']') {
            section = line[1..line.len() - 1].to_string();
            // Matches `dependencies`, `dev-dependencies`,
            // `workspace.dependencies`, `target.'cfg(..)'.dependencies`…
            in_dep_section =
                DEP_SECTIONS.iter().any(|s| section == *s || section.ends_with(&format!(".{s}")));
            continue;
        }
        if !in_dep_section || line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(eq) = line.find('=') {
            let key = line[..eq].trim().trim_matches('"');
            // `veil-testkit.workspace = true` declares dep `veil-testkit`.
            let name = key.split('.').next().unwrap_or(key);
            if !name.is_empty() {
                deps.push((section.clone(), name.to_string()));
            }
        }
    }
    deps
}

#[test]
fn all_dependencies_are_first_party() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut manifests = Vec::new();
    find_manifests(root, &mut manifests);
    assert!(
        manifests.len() >= 10,
        "expected the workspace root + member manifests, found {}",
        manifests.len()
    );

    for path in &manifests {
        let text = fs::read_to_string(path).expect("readable manifest");
        for (section, dep) in dependencies(&text) {
            assert!(
                dep.starts_with("veil"),
                "{}: [{}] declares non-first-party dependency `{}` — the \
                 workspace must stay buildable offline with an empty registry \
                 (use veil-testkit instead of external test/bench crates)",
                path.display(),
                section,
                dep
            );
            assert!(
                !BANNED.contains(&dep.as_str()),
                "{}: [{}] reintroduces banned dependency `{}`",
                path.display(),
                section,
                dep
            );
        }
    }
}

#[test]
fn lockfile_contains_only_workspace_crates() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let lock = fs::read_to_string(root.join("Cargo.lock")).expect("Cargo.lock present");
    for line in lock.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("name = ") {
            let name = rest.trim_matches('"');
            assert!(
                name == "veil" || name.starts_with("veil-"),
                "Cargo.lock pins external package `{name}` — offline builds would fail"
            );
        }
        assert!(!line.starts_with("source = "), "Cargo.lock references a registry source: {line}");
    }
}

#[test]
fn no_source_file_references_removed_crates() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir).expect("readable dir") {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if name != "target" && name != ".git" {
                    stack.push(path);
                }
                continue;
            }
            // Skip this file: it names the banned patterns literally.
            if path.extension().and_then(|e| e.to_str()) != Some("rs") || name == "hermeticity.rs" {
                continue;
            }
            let text = fs::read_to_string(&path).expect("readable source");
            for banned in ["use rand", "use proptest", "use criterion", "proptest!"] {
                assert!(
                    !text.contains(banned),
                    "{}: references removed external crate (`{banned}`)",
                    path.display()
                );
            }
        }
    }
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
}

/// The testkit's seed-replay (`VEIL_TEST_SEED`) and golden-regen
/// switches: test-harness controls, not library configuration.
const HARNESS_ENV_READERS: &[&str] =
    &["crates/testkit/src/prop.rs", "crates/testkit/src/golden.rs"];

#[test]
fn library_sources_read_no_environment() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    for entry in fs::read_dir(root.join("crates")).expect("crates/ present") {
        let src = entry.expect("dir entry").path().join("src");
        if src.is_dir() {
            rust_sources(&src, &mut sources);
        }
    }
    assert!(sources.len() >= 50, "expected the library sources, found {}", sources.len());
    for exempt in HARNESS_ENV_READERS {
        assert!(sources.contains(&root.join(exempt)), "exempt file {exempt} is gone");
    }

    for path in &sources {
        // Binary entry points parse their own environment.
        if path.components().any(|c| c.as_os_str() == "bin")
            || HARNESS_ENV_READERS.iter().any(|exempt| path == &root.join(exempt))
        {
            continue;
        }
        let text = fs::read_to_string(path).expect("readable source");
        for (n, line) in text.lines().enumerate() {
            for read in ["env::var", "var_os"] {
                assert!(
                    !line.contains(read),
                    "{}:{}: library code reads the environment (`{read}`); make it a \
                     builder knob and parse env only at a binary entry point",
                    path.display(),
                    n + 1
                );
            }
        }
    }
}

/// The only file allowed an `unsafe` block: the call into the SHA-NI
/// block function, behind a run-time CPU feature check.
const UNSAFE_FILE: &str = "crates/crypto/src/sha256.rs";

/// Counts `unsafe {` blocks and flags `unsafe fn` / `unsafe impl` in one
/// source text. The `unsafe_code` lint attributes do not match.
fn unsafe_uses(text: &str) -> (usize, Vec<&'static str>) {
    let squashed: String = text.split_whitespace().collect::<Vec<_>>().join(" ");
    let blocks = squashed.matches("unsafe {").count() + squashed.matches("unsafe{").count();
    let items =
        ["unsafe fn", "unsafe impl"].into_iter().filter(|item| squashed.contains(item)).collect();
    (blocks, items)
}

#[test]
fn unsafe_code_is_confined_to_one_audited_block() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir).expect("readable dir") {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                // Build output and VCS metadata, not sources.
                if name != "target" && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
                sources.push(path);
            }
        }
    }
    let audited = root.join(UNSAFE_FILE);
    assert!(sources.contains(&audited), "{UNSAFE_FILE} is gone");
    for path in &sources {
        // This file spells the patterns out.
        if path.ends_with("tests/hermeticity.rs") {
            continue;
        }
        let (blocks, items) = unsafe_uses(&fs::read_to_string(path).expect("readable source"));
        assert!(items.is_empty(), "{}: declares {items:?}", path.display());
        if path == &audited {
            assert!(blocks <= 1, "{UNSAFE_FILE}: {blocks} unsafe blocks, at most 1 allowed");
        } else {
            assert_eq!(blocks, 0, "{}: unsafe block outside {UNSAFE_FILE}", path.display());
        }
    }

    let mut roots = vec![root.join("src/lib.rs")];
    for entry in fs::read_dir(root.join("crates")).expect("crates/ present") {
        let lib = entry.expect("dir entry").path().join("src/lib.rs");
        if lib.is_file() {
            roots.push(lib);
        }
    }
    assert!(roots.len() >= 15, "expected every library crate root, found {}", roots.len());
    let crypto_root = root.join("crates/crypto/src/lib.rs");
    assert!(roots.contains(&crypto_root), "veil-crypto root is gone");
    for lib in &roots {
        let text = fs::read_to_string(lib).expect("readable crate root");
        let want =
            if lib == &crypto_root { "#![deny(unsafe_code)]" } else { "#![forbid(unsafe_code)]" };
        assert!(text.lines().any(|l| l.trim() == want), "{}: lost `{want}`", lib.display());
    }
}
