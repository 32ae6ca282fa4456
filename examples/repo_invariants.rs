//! Repo-invariant lint: structural conventions the workspace promises but
//! the compiler cannot check, enforced as a CI gate.
//!
//! Eight invariant families, reported rustc-style and failing the process
//! (for CI) when any finding survives:
//!
//! * `RI001`/`RI002` — every telemetry counter ([`Metric`]) and histogram
//!   ([`Hist`]) is actually incremented / observed by engine code, not
//!   merely declared: a declared-but-dead metric silently reports `0` and
//!   poisons dashboards. (The declaration site,
//!   `crates/telemetry/src/metrics.rs`, and the generic snapshot renderer
//!   are excluded from the search; the span layer counts as wiring.)
//! * `RI003`/`RI004` — every bench target declared in
//!   `crates/bench/Cargo.toml` has a committed gated baseline
//!   (`baselines/BENCH_<name>.json`) and a row in `crates/bench/README.md`:
//!   a target without a baseline is not regression-gated at all.
//! * `RI005` — every governed `*_with_budget` function has an ungoverned
//!   twin of the same name in the same crate (the workspace's API
//!   convention: governance is opt-in, never forced).
//! * `RI006` — every crate root (and the umbrella root) carries
//!   `#![forbid(unsafe_code)]`.
//! * `RI007` — every `pub fn` in `crates/*/src` has a caller: its name
//!   appears as a whole word on a non-comment line of another `.rs` file
//!   under `crates/`, `src/`, `examples/` or `perfbench/src` (read only, the
//!   end-to-end benchmark is a package of its own). A public function named
//!   nowhere else is dead surface, or belongs private to its file.
//! * `RI008` — the tree route has one caller. In the non-test code of
//!   `crates/core/src`, `included_in_duta_with_budget` appears on exactly
//!   one non-comment line, and every call of the function holding it sits
//!   in a `typecheck_with_budget` body (judged by the nearest preceding
//!   `fn` line): every question is decided on the string walk, and the tree
//!   route only renders the counterexample of a violating one.
//! * `RI009` — the tree route determinises only its target. The non-test
//!   body of `uta::included_in_duta_with_budget` (found by brace matching)
//!   names no `determinize` on a non-comment line: inclusion in a dUTA is
//!   one product with the undeterminised left side, not a walk over pairs
//!   of subset states.
//!
//! The scan is purely textual over the workspace sources — `std` only, no
//! parsing — which keeps it fast and dependency-free; the conventions it
//! checks are naming-based by design.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use dxml::telemetry::{Hist, Metric};

/// One violated invariant.
struct Finding {
    code: &'static str,
    location: String,
    message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error[{}]: {}\n  --> {}", self.code, self.message, self.location)
    }
}

/// Collects every `.rs` file under `dir`, recursively.
fn rust_sources(dir: &Path, out: &mut Vec<(PathBuf, String)>) {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            if let Ok(text) = fs::read_to_string(&path) {
                out.push((path, text));
            }
        }
    }
}

/// The bench targets declared in `crates/bench/Cargo.toml`, in file order.
fn bench_targets(manifest: &str) -> Vec<String> {
    let mut targets = Vec::new();
    let mut in_bench = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with("[[") {
            in_bench = line == "[[bench]]";
        } else if in_bench {
            if let Some(name) = line.strip_prefix("name = \"").and_then(|r| r.strip_suffix('"')) {
                targets.push(name.to_string());
            }
        }
    }
    targets
}

/// The crate-level scope a source file belongs to (`crates/<name>` or the
/// umbrella root) — the unit within which a governed function must have
/// its ungoverned twin.
fn crate_scope(rel: &str) -> String {
    let mut parts = rel.split('/');
    if parts.next() == Some("crates") {
        if let Some(name) = parts.next() {
            return format!("crates/{name}");
        }
    }
    "root".to_string()
}

/// Extracts `name` from every `fn name_with_budget` definition in `text`.
fn governed_fns(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (pos, _) in text.match_indices("fn ") {
        // Only definitions: `fn ` at the start of a token, not `(fn ` etc.
        if pos > 0 && !text.as_bytes()[pos - 1].is_ascii_whitespace() {
            continue;
        }
        let rest = &text[pos + 3..];
        let ident: String =
            rest.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect();
        if let Some(base) = ident.strip_suffix("_with_budget") {
            if !base.is_empty() {
                out.push(base.to_string());
            }
        }
    }
    out
}

/// Extracts `name` from every `pub fn name` definition in `text`.
fn pub_fns(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (pos, _) in text.match_indices("pub fn ") {
        if pos > 0 && !text.as_bytes()[pos - 1].is_ascii_whitespace() {
            continue;
        }
        let ident: String = text[pos + 7..]
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if !ident.is_empty() {
            out.push(ident);
        }
    }
    out
}

/// Whether `name` occurs as a whole identifier on a line of `text` that is
/// not a `//` comment.
fn names_outside_comments(text: &str, name: &str) -> bool {
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    text.lines().filter(|line| !line.trim_start().starts_with("//")).any(|line| {
        line.match_indices(name).any(|(pos, _)| {
            let bytes = line.as_bytes();
            let end = pos + name.len();
            (pos == 0 || !is_ident(bytes[pos - 1])) && (end == bytes.len() || !is_ident(bytes[end]))
        })
    })
}

/// The lines of `text` outside `#[cfg(test)]` modules (whose extent is
/// found by brace matching), with their 1-based line numbers.
fn non_test_lines(text: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut lines = text.lines().enumerate().peekable();
    while let Some((i, line)) = lines.next() {
        let test_mod = line.trim() == "#[cfg(test)]"
            && lines.peek().is_some_and(|(_, next)| next.trim_start().starts_with("mod "));
        if !test_mod {
            out.push((i + 1, line));
            continue;
        }
        take_block(lines.by_ref());
    }
    out
}

/// Takes lines from `lines` up to and including the one that closes the
/// first brace-delimited block (found by brace matching), and returns them.
fn take_block<'t>(lines: impl Iterator<Item = (usize, &'t str)>) -> Vec<(usize, &'t str)> {
    let mut block = Vec::new();
    let (mut depth, mut opened) = (0usize, false);
    for (n, line) in lines {
        block.push((n, line));
        depth += line.matches('{').count();
        depth = depth.saturating_sub(line.matches('}').count());
        opened |= line.contains('{');
        if opened && depth == 0 {
            break;
        }
    }
    block
}

/// The name of the function a line defines (`fn name`, `pub fn name` or
/// `pub(crate) fn name`), if any.
fn fn_defined_on(line: &str) -> Option<String> {
    let t = line.trim_start();
    let t = t.strip_prefix("pub(crate) ").or_else(|| t.strip_prefix("pub ")).unwrap_or(t);
    let ident: String = t
        .strip_prefix("fn ")?
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    (!ident.is_empty()).then_some(ident)
}

/// The non-test lines of the body of `fn name` in `text` (definition line
/// included, extent found by brace matching), with their 1-based numbers.
fn fn_body<'t>(text: &'t str, name: &str) -> Vec<(usize, &'t str)> {
    take_block(
        non_test_lines(text)
            .into_iter()
            .skip_while(|(_, line)| fn_defined_on(line).as_deref() != Some(name)),
    )
}

/// Whether `line` calls `name`: the identifier followed by `(`, not part of
/// a longer identifier and not its own definition.
fn calls(line: &str, name: &str) -> bool {
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    fn_defined_on(line).as_deref() != Some(name)
        && line.match_indices(&format!("{name}(")).any(|(pos, _)| {
            pos == 0 || !is_ident(line.as_bytes()[pos - 1])
        })
}

fn main() -> ExitCode {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut findings: Vec<Finding> = Vec::new();

    let mut sources: Vec<(PathBuf, String)> = Vec::new();
    rust_sources(&root.join("crates"), &mut sources);
    rust_sources(&root.join("src"), &mut sources);
    rust_sources(&root.join("examples"), &mut sources);
    let rel = |p: &Path| {
        p.strip_prefix(&root).unwrap_or(p).to_string_lossy().replace('\\', "/")
    };

    // RI001/RI002 — every metric is wired into the engine. The declaring
    // enum and the generic snapshot/report layer don't count as wiring.
    let wiring: Vec<&(PathBuf, String)> = sources
        .iter()
        .filter(|(p, _)| {
            let r = rel(p);
            r != "crates/telemetry/src/metrics.rs" && r != "crates/telemetry/src/snapshot.rs"
        })
        .collect();
    for metric in Metric::ALL {
        let needle = format!("Metric::{metric:?}");
        if !wiring.iter().any(|(_, text)| text.contains(&needle)) {
            findings.push(Finding {
                code: "RI001",
                location: format!("telemetry counter `{}`", metric.name()),
                message: format!(
                    "counter `{}` is declared but never incremented by engine code",
                    metric.name()
                ),
            });
        }
    }
    for hist in Hist::ALL {
        let needle = format!("Hist::{hist:?}");
        if !wiring.iter().any(|(_, text)| text.contains(&needle)) {
            findings.push(Finding {
                code: "RI002",
                location: format!("telemetry histogram `{}`", hist.name()),
                message: format!(
                    "histogram `{}` is declared but never observed by engine code",
                    hist.name()
                ),
            });
        }
    }

    // RI003/RI004 — every bench target is baseline-gated and documented.
    let manifest = fs::read_to_string(root.join("crates/bench/Cargo.toml"))
        .expect("crates/bench/Cargo.toml is readable");
    let readme = fs::read_to_string(root.join("crates/bench/README.md")).unwrap_or_default();
    let targets = bench_targets(&manifest);
    if targets.is_empty() {
        findings.push(Finding {
            code: "RI003",
            location: "crates/bench/Cargo.toml".to_string(),
            message: "no [[bench]] targets found — the target parser is broken".to_string(),
        });
    }
    for target in &targets {
        let baseline = root.join("baselines").join(format!("BENCH_{target}.json"));
        if !baseline.is_file() {
            findings.push(Finding {
                code: "RI003",
                location: format!("bench target `{target}`"),
                message: format!(
                    "bench target `{target}` has no committed baseline \
                     (baselines/BENCH_{target}.json) — it is not regression-gated"
                ),
            });
        }
        if !readme.contains(&format!("`{target}`")) {
            findings.push(Finding {
                code: "RI004",
                location: format!("bench target `{target}`"),
                message: format!(
                    "bench target `{target}` has no row in crates/bench/README.md"
                ),
            });
        }
    }

    // RI005 — every governed function has an ungoverned twin in its crate.
    for (path, text) in &sources {
        let r = rel(path);
        let scope = crate_scope(&r);
        for base in governed_fns(text) {
            let twin_paren = format!("fn {base}(");
            let twin_generic = format!("fn {base}<");
            let has_twin = sources.iter().any(|(p, t)| {
                crate_scope(&rel(p)) == scope
                    && (t.contains(&twin_paren) || t.contains(&twin_generic))
            });
            if !has_twin {
                findings.push(Finding {
                    code: "RI005",
                    location: format!("{r} (fn `{base}_with_budget`)"),
                    message: format!(
                        "governed `{base}_with_budget` has no ungoverned twin `{base}` in {scope}"
                    ),
                });
            }
        }
    }

    // RI006 — unsafe code is forbidden at every crate root.
    let mut roots: Vec<PathBuf> = vec![root.join("src/lib.rs")];
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            let lib = entry.path().join("src/lib.rs");
            if lib.is_file() {
                roots.push(lib);
            }
        }
    }
    for lib in roots {
        let text = fs::read_to_string(&lib).unwrap_or_default();
        if !text.contains("#![forbid(unsafe_code)]") {
            findings.push(Finding {
                code: "RI006",
                location: rel(&lib),
                message: "crate root lacks `#![forbid(unsafe_code)]`".to_string(),
            });
        }
    }

    // RI007 — every public function in a crate's sources is named in some
    // other file: the engine, a test, a bench, an example or perfbench.
    let mut callers: Vec<&(PathBuf, String)> = sources.iter().collect();
    let mut perfbench: Vec<(PathBuf, String)> = Vec::new();
    rust_sources(&root.join("perfbench/src"), &mut perfbench);
    callers.extend(perfbench.iter());
    let mut public_fns = 0;
    for (path, text) in &sources {
        let r = rel(path);
        if !(r.starts_with("crates/") && r.split('/').nth(2) == Some("src")) {
            continue;
        }
        for name in pub_fns(text) {
            public_fns += 1;
            let named_elsewhere =
                callers.iter().any(|(p, t)| p != path && names_outside_comments(t, &name));
            if !named_elsewhere {
                findings.push(Finding {
                    code: "RI007",
                    location: format!("{r} (fn `{name}`)"),
                    message: format!(
                        "`pub fn {name}` is named in no other file: delete it or make it private"
                    ),
                });
            }
        }
    }

    // RI008 — the tree route has one caller: `typecheck`, after a violating
    // string walk. Each core line is paired with the function it sits in.
    let mut core_lines: Vec<(String, usize, &str, Option<String>)> = Vec::new();
    for (path, text) in &sources {
        let r = rel(path);
        if !r.starts_with("crates/core/src/") {
            continue;
        }
        let mut enclosing = None;
        for (n, line) in non_test_lines(text) {
            if let Some(name) = fn_defined_on(line) {
                enclosing = Some(name);
            }
            if !line.trim_start().starts_with("//") {
                core_lines.push((r.clone(), n, line, enclosing.clone()));
            }
        }
    }
    let inclusions: Vec<_> = core_lines
        .iter()
        .filter(|(_, _, line, _)| line.contains("included_in_duta_with_budget"))
        .collect();
    if inclusions.len() != 1 {
        let at: Vec<String> = inclusions.iter().map(|(r, n, _, _)| format!("{r}:{n}")).collect();
        findings.push(Finding {
            code: "RI008",
            location: if at.is_empty() { "crates/core/src".to_string() } else { at.join(", ") },
            message: format!(
                "the tree route's inclusion `included_in_duta_with_budget` must appear on exactly \
                 one line of crates/core/src, found {}",
                inclusions.len()
            ),
        });
    }
    let routes: Vec<&String> = inclusions.iter().filter_map(|(_, _, _, f)| f.as_ref()).collect();
    for (r, n, line, enclosing) in &core_lines {
        for route in &routes {
            if calls(line, route) && enclosing.as_deref() != Some("typecheck_with_budget") {
                findings.push(Finding {
                    code: "RI008",
                    location: format!("{r}:{n}"),
                    message: format!(
                        "the tree route `{route}` is called from `{}`: only `typecheck_with_budget` \
                         may run it, after a violating string walk",
                        enclosing.as_deref().unwrap_or("no function")
                    ),
                });
            }
        }
    }

    // RI009 — the tree route determinises only its target: the inclusion
    // runs one product over the undeterminised left side.
    let uta = sources.iter().find(|(path, _)| rel(path) == "crates/tree/src/uta.rs");
    let body =
        uta.map(|(_, text)| fn_body(text, "included_in_duta_with_budget")).unwrap_or_default();
    if body.is_empty() {
        findings.push(Finding {
            code: "RI009",
            location: "crates/tree/src/uta.rs".to_string(),
            message: "`included_in_duta_with_budget` not found — the body scan is broken"
                .to_string(),
        });
    }
    for (n, line) in body {
        if !line.trim_start().starts_with("//") && line.contains("determinize") {
            findings.push(Finding {
                code: "RI009",
                location: format!("crates/tree/src/uta.rs:{n}"),
                message: "`included_in_duta_with_budget` determinises a side: only the target is \
                          determinised, once, by the caller"
                    .to_string(),
            });
        }
    }

    println!(
        "repo invariants: {} source files, {} counters, {} histograms, {} bench targets, \
         {} public functions checked",
        sources.len(),
        Metric::ALL.len(),
        Hist::ALL.len(),
        targets.len(),
        public_fns
    );
    if findings.is_empty() {
        println!("repo invariants: all invariants hold");
        return ExitCode::SUCCESS;
    }
    for finding in &findings {
        println!("{finding}");
    }
    println!("repo invariants: {} violation(s)", findings.len());
    ExitCode::FAILURE
}
