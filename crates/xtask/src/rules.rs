//! The lint rules.
//!
//! Each rule walks the test-stripped token stream of one file (see
//! [`crate::lexer`]) and emits [`Finding`]s. Scoping is by workspace-relative
//! path prefix: exact-integer rules apply to skyline-core's geometry and
//! diagram layers, panic-hygiene rules to all library crates. The CLI,
//! benches, shims (vendored stand-ins), tests, and examples are exempt.

use crate::lexer::{Tok, TokKind};

/// Paths where coordinates and cell indices live; arithmetic here must be
/// exact and conversions explicit.
const EXACT_SCOPE: &[&str] = &["crates/core/src/geometry", "crates/core/src/diagram"];

/// Library crates where panics are reserved for stated invariants.
const LIB_SCOPE: &[&str] = &[
    "crates/core/src",
    "crates/apps/src",
    "crates/data/src",
    "crates/serve/src",
    "crates/viz/src",
];

/// Files that make up the lock-free snapshot read path. Readers must never
/// block: epoch publication and arena fills use `OnceLock`/atomics only, so
/// any `Mutex`/`RwLock` here breaks the serving layer's progress guarantee.
/// The writer side (`server.rs`) is deliberately out of scope — its single
/// `Mutex` serializes updates, never reads.
const READ_PATH_SCOPE: &[&str] = &[
    "crates/core/src/epoch.rs",
    "crates/serve/src/arena.rs",
    "crates/serve/src/snapshot.rs",
];

/// Arena-backed storage modules: cells, results, and polyominoes live in
/// flat arenas (CSR `cells_flat`/`ends` slices, stride-`words` u64 bitset
/// blocks). A nested `Vec<Vec<…>>` or a `Box`/`Rc` here reintroduces the
/// per-cell heap allocation the arena layout exists to eliminate, and the
/// regression is invisible in review (the code still works — it's just
/// O(cells) allocations slower). Deliberately allowlist-free: the arenas
/// *are* the escape hatch. `diagram/boundary.rs` is out of scope by
/// construction — its loop walks are per-polyomino output geometry with
/// genuinely jagged shape, not cell storage.
const ARENA_SCOPE: &[&str] = &[
    "crates/core/src/container.rs",
    "crates/core/src/result_set.rs",
    "crates/core/src/diagram/cell_diagram.rs",
    "crates/core/src/diagram/diff.rs",
    "crates/core/src/diagram/merge.rs",
    "crates/core/src/diagram/mod.rs",
    "crates/core/src/diagram/polyomino.rs",
];

/// Numeric primitive names, for spotting `as <numeric>` casts.
const NUMERIC_TYPES: &[&str] = &[
    "i8", "i16", "i32", "i64", "i128", "isize", "u8", "u16", "u32", "u64", "u128", "usize", "f32",
    "f64",
];

/// Diagram-like types that must be declared `#[must_use]`: dropping one on
/// the floor is always a bug (the build was the whole point).
const MUST_USE_TYPES: &[&str] = &[
    "CellDiagram",
    "SubcellDiagram",
    "SubcellDiagramD",
    "MergedDiagram",
    "SweptDiagram",
    "HighDDiagram",
];

/// Minimum length for an `.expect()` message to count as stating an
/// invariant rather than restating the call.
const MIN_EXPECT_MESSAGE: usize = 15;

/// The only files allowed to touch `std::thread` directly: the scoped worker
/// pool every parallel engine funnels through, and the deterministic
/// interleaving checker (whose *job* is owning model threads). Everything
/// else must go via `skyline_core::parallel` so the determinism contract
/// (sequential stitch, `SKYLINE_THREADS`, worker cap) cannot be bypassed.
const RAW_SPAWN_EXEMPT: &[&str] = &[
    "crates/core/src/parallel.rs",
    "crates/core/src/sync/sched.rs",
];

/// The synchronization facade: the one directory where raw
/// `std::sync::atomic` / `std::sync::OnceLock` (and the checker's internal
/// `SeqCst` bookkeeping) are legal, because this is where the facade and the
/// model checker are *implemented*. Everything else imports through
/// `crate::sync` / `skyline_core::sync` so `--cfg skyline_sched` can swap
/// the primitives for their model-checked twins.
const SYNC_FACADE: &[&str] = &["crates/core/src/sync"];

/// The counting-allocator module: the one library file allowed to name
/// `std::alloc` and `GlobalAlloc` (it *is* the allocator hook), and —
/// like [`SYNC_FACADE`] — allowed raw `std::sync::atomic`: the facade's
/// `--cfg skyline_sched` twins yield to an interleaving checker that
/// itself allocates, which would recurse into the hook. `atomic-ordering`
/// still applies there (every `Relaxed` carries its justification).
const MEM_ALLOCATOR: &[&str] = &["crates/core/src/telemetry/mem.rs"];

/// Method names whose call inside a `debug_assert!` body mutates the
/// receiver: the assertion (and the side effect) vanish in release builds,
/// so debug and release binaries diverge. `next` is deliberately absent —
/// iterator-driving asserts are caught by the `fetch_*` prefix and the
/// mutation list, not by banning every cursor read.
const MUTATING_METHODS: &[&str] = &[
    "push",
    "pop",
    "insert",
    "remove",
    "clear",
    "take",
    "swap",
    "replace",
    "store",
    "set",
    "compare_exchange",
    "compare_exchange_weak",
    "get_or_init",
    "get_or_insert",
    "drain",
    "truncate",
    "append",
    "extend",
    "retain",
];

/// The only library file allowed to read the monotonic clock directly: the
/// telemetry layer, which owns the process epoch every probe measures
/// against. Ad-hoc `Instant` timing elsewhere in library code bypasses the
/// span/metrics registry — and its feature gate — so the measurement never
/// reaches traces and cannot be compiled out. Benches and binaries are
/// outside [`LIB_SCOPE`] and keep their wall clocks.
const TIMING_EXEMPT: &[&str] = &["crates/core/src/telemetry.rs"];

/// Integration-test suites held to the same clock discipline as library
/// code. The serve differentials measure *scheduling* (open-loop arrival
/// times, stall exposure); an ad-hoc `Instant` there would measure against
/// a different epoch than the driver under test, so even test-only timing
/// must go through `skyline_core::telemetry` (`now_ns`/`ms_since`/
/// `spin_until`). Unlike [`LIB_SCOPE`], these files are linted with their
/// `#[test]` functions *included* — the test bodies are the product here.
const TIMING_TEST_SCOPE: &[&str] = &["crates/serve/tests"];

/// One lint violation.
#[derive(Debug)]
pub struct Finding {
    /// Rule id, e.g. `no-unwrap`.
    pub rule: &'static str,
    /// 1-based source line.
    pub line: u32,
    /// What was found.
    pub message: String,
    /// How to fix it.
    pub hint: &'static str,
}

fn in_scope(path: &str, scope: &[&str]) -> bool {
    scope.iter().any(|prefix| path.starts_with(prefix))
}

/// Runs every rule applicable to `path` over its *raw* token stream.
/// Test modules are stripped here before the library rules run; the
/// timing rule additionally runs over the unstripped stream for
/// [`TIMING_TEST_SCOPE`] files, whose test bodies are in scope. `src` is
/// the file's source text: the `atomic-ordering` rule reads comment lines
/// (which the lexer drops) to find `relaxed-ok:` justifications.
pub fn run_all(path: &str, src: &str, raw: &[Tok]) -> Vec<Finding> {
    let stripped = crate::lexer::strip_test_code(raw);
    let toks = &stripped[..];
    let lines: Vec<&str> = src.lines().collect();
    let mut findings = Vec::new();
    if in_scope(path, EXACT_SCOPE) {
        no_as_cast(toks, &mut findings);
        no_float(toks, &mut findings);
    }
    if in_scope(path, ARENA_SCOPE) {
        no_per_cell_alloc(toks, &mut findings);
    }
    if in_scope(path, LIB_SCOPE) {
        no_unwrap(toks, &mut findings);
        no_panic(toks, &mut findings);
        expect_message(toks, &mut findings);
        must_use(toks, &mut findings);
        no_side_effect_debug_assert(toks, &mut findings);
        if !TIMING_EXEMPT.contains(&path) {
            no_ad_hoc_timing(toks, &mut findings);
        }
        if !in_scope(path, SYNC_FACADE) {
            if !MEM_ALLOCATOR.contains(&path) {
                no_raw_atomic(toks, &mut findings);
            }
            atomic_ordering(toks, &lines, &mut findings);
        }
        if !MEM_ALLOCATOR.contains(&path) {
            no_raw_alloc_count(toks, &mut findings);
        }
    }
    if in_scope(path, TIMING_TEST_SCOPE) {
        no_ad_hoc_timing(raw, &mut findings);
    }
    if !RAW_SPAWN_EXEMPT.contains(&path) {
        no_raw_spawn(toks, &mut findings);
    }
    if in_scope(path, READ_PATH_SCOPE) {
        no_lock_read_path(toks, &mut findings);
    }
    findings
}

/// `no-raw-atomic`: library code must reach atomics and `OnceLock` through
/// the `crate::sync` / `skyline_core::sync` facade, never via raw
/// `std::sync::atomic::*` or `std::sync::OnceLock` paths. The facade is what
/// lets `--cfg skyline_sched` swap every primitive for its model-checked
/// twin; a raw import is invisible to the interleaving checker. There is no
/// allowlist for this rule by design — the only legal home for raw paths is
/// [`SYNC_FACADE`] itself. `Arc`/`Mutex` stay unrestricted here: they carry
/// no ordering semantics the checker misses (the read-path lock ban is
/// `no-lock-read-path`'s job).
fn no_raw_atomic(toks: &[Tok], findings: &mut Vec<Finding>) {
    let mut report = |line: u32, what: &str| {
        findings.push(Finding {
            rule: "no-raw-atomic",
            line,
            message: format!("raw `std::sync::{what}` outside the sync facade"),
            hint: "import through crate::sync / skyline_core::sync so the skyline_sched \
                   model checker can interpose on the primitive",
        });
    };
    for (i, win) in toks.windows(7).enumerate() {
        let [s, a1, a2, y, b1, b2, x] = win else {
            continue;
        };
        if !(s.is_ident("std")
            && a1.is_punct(':')
            && a2.is_punct(':')
            && y.is_ident("sync")
            && b1.is_punct(':')
            && b2.is_punct(':'))
        {
            continue;
        }
        if x.is_ident("atomic") || x.is_ident("OnceLock") {
            report(x.line, &x.text);
        } else if x.is_punct('{') {
            // `use std::sync::{…}` group: flag each banned leaf inside.
            let mut depth = 0i32;
            for t in &toks[i + 6..] {
                if t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if t.is_ident("atomic") || t.is_ident("OnceLock") {
                    report(t.line, &t.text);
                }
            }
        }
    }
}

/// `no-raw-alloc-count`: library code must not reach for `std::alloc` or
/// implement/name `GlobalAlloc` outside [`MEM_ALLOCATOR`]. A second
/// allocator hook would double-count (or silently bypass) the memory
/// observatory's live/peak/phase accounting, and ad-hoc
/// `std::alloc::alloc` calls produce bytes the `heap_bytes()` arithmetic
/// can never see. Deliberately allowlist-free: the counting allocator is
/// the escape hatch.
fn no_raw_alloc_count(toks: &[Tok], findings: &mut Vec<Finding>) {
    for win in toks.windows(4) {
        let [s, c1, c2, a] = win else { continue };
        if s.is_ident("std") && c1.is_punct(':') && c2.is_punct(':') && a.is_ident("alloc") {
            findings.push(Finding {
                rule: "no-raw-alloc-count",
                line: a.line,
                message: "raw `std::alloc` outside the counting allocator".to_owned(),
                hint: "allocation instrumentation lives in crates/core/src/telemetry/mem.rs;                        use containers (or the mem accessors) instead of raw alloc calls",
            });
        }
    }
    for tok in toks {
        if tok.is_ident("GlobalAlloc") {
            findings.push(Finding {
                rule: "no-raw-alloc-count",
                line: tok.line,
                message: "`GlobalAlloc` named outside the counting allocator".to_owned(),
                hint: "the workspace installs exactly one allocator hook                        (crates/core/src/telemetry/mem.rs); a second one would bypass the                        memory observatory's accounting",
            });
        }
    }
}

/// `atomic-ordering`: every `Ordering::Relaxed` in library code must carry a
/// `// relaxed-ok: <why>` justification on the same line or in the comment
/// block directly above it — relaxed atomics are correct only for values
/// that never order other memory (counters, tuning knobs), and the reviewer
/// should not have to reconstruct that argument. `Ordering::SeqCst` is
/// banned outright: it papers over a missing happens-before design instead
/// of stating one (the checker's internal bookkeeping in [`SYNC_FACADE`] is
/// the sole exemption).
fn atomic_ordering(toks: &[Tok], lines: &[&str], findings: &mut Vec<Finding>) {
    for tok in toks {
        if tok.is_ident("SeqCst") {
            findings.push(Finding {
                rule: "atomic-ordering",
                line: tok.line,
                message: "`Ordering::SeqCst` in library code".to_owned(),
                hint: "state the intended happens-before edge with Release/Acquire (or \
                       justify Relaxed); SeqCst hides the design instead of fixing it",
            });
        }
    }
    for win in toks.windows(4) {
        let [a, c1, c2, b] = win else { continue };
        if a.is_ident("Ordering")
            && c1.is_punct(':')
            && c2.is_punct(':')
            && b.is_ident("Relaxed")
            && !relaxed_justified(lines, b.line)
        {
            findings.push(Finding {
                rule: "atomic-ordering",
                line: b.line,
                message: "`Ordering::Relaxed` without a `relaxed-ok:` justification".to_owned(),
                hint: "add `// relaxed-ok: <why no other memory depends on this value>` on \
                       the line or directly above it",
            });
        }
    }
}

/// Is a `Relaxed` at 1-based `line` covered by a `relaxed-ok:` marker — on
/// the same line, or in the contiguous run of `//` comment lines directly
/// above it?
fn relaxed_justified(lines: &[&str], line: u32) -> bool {
    let Some(idx) = usize::try_from(line).ok().and_then(|n| n.checked_sub(1)) else {
        return false;
    };
    if lines.get(idx).is_some_and(|l| l.contains("relaxed-ok:")) {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let trimmed = lines[i].trim_start();
        if !trimmed.starts_with("//") {
            return false;
        }
        if trimmed.contains("relaxed-ok:") {
            return true;
        }
    }
    false
}

/// `no-side-effect-debug-assert`: `debug_assert!` bodies vanish in release
/// builds, so a mutation inside one (an atomic RMW, a `pop`, a `set`) makes
/// debug and release binaries compute different states. Flags any call of a
/// `fetch_*` method or a [`MUTATING_METHODS`] name inside the macro's
/// argument list. Deliberately allowlist-free: there is no legitimate
/// mutation whose disappearance is harmless.
fn no_side_effect_debug_assert(toks: &[Tok], findings: &mut Vec<Finding>) {
    let mut i = 0usize;
    while i < toks.len() {
        let is_da = toks[i].kind == TokKind::Ident && toks[i].text.starts_with("debug_assert");
        if !(is_da
            && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('(')))
        {
            i += 1;
            continue;
        }
        // Walk the macro's parenthesized body.
        let mut depth = 0i32;
        let mut j = i + 2;
        while j < toks.len() {
            let t = &toks[j];
            if t.is_punct('(') {
                depth += 1;
            } else if t.is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.is_punct('.')
                && toks.get(j + 2).is_some_and(|p| p.is_punct('('))
                && toks.get(j + 1).is_some_and(|m| {
                    m.kind == TokKind::Ident
                        && (m.text.starts_with("fetch_")
                            || MUTATING_METHODS.contains(&m.text.as_str()))
                })
            {
                let m = &toks[j + 1];
                findings.push(Finding {
                    rule: "no-side-effect-debug-assert",
                    line: m.line,
                    message: format!("mutating call `.{}(…)` inside a debug_assert body", m.text),
                    hint: "hoist the side effect out of the assertion; debug_assert bodies \
                           are compiled away in release builds",
                });
            }
            j += 1;
        }
        i = j + 1;
    }
}

/// `no-lock-read-path`: blocking synchronization primitives are banned from
/// the snapshot read path ([`READ_PATH_SCOPE`]). A reader that can block on
/// a `Mutex`/`RwLock` loses the wait-free progress guarantee the serving
/// layer advertises; cache fills and epoch hops must go through `OnceLock`
/// and atomics instead. Test modules are stripped before linting, so
/// lock-based *assertions* in unit tests stay legal.
fn no_lock_read_path(toks: &[Tok], findings: &mut Vec<Finding>) {
    for tok in toks {
        if tok.kind == TokKind::Ident && matches!(tok.text.as_str(), "Mutex" | "RwLock") {
            findings.push(Finding {
                rule: "no-lock-read-path",
                line: tok.line,
                message: format!(
                    "blocking primitive `{}` on the snapshot read path",
                    tok.text
                ),
                hint: "the serve read path is lock-free by contract; use OnceLock/atomics \
                       here and keep mutexes on the writer side (server.rs)",
            });
        }
    }
}

/// `no-raw-spawn`: threading outside `skyline_core::parallel` bypasses the
/// scoped pool's determinism contract (`SKYLINE_THREADS`, index-ordered
/// stitch, hardware-width worker cap). Both the fully qualified
/// `std::thread` path and the imported `thread::spawn`/`scope`/`Builder`
/// forms are flagged, everywhere in the workspace except the pool itself.
fn no_raw_spawn(toks: &[Tok], findings: &mut Vec<Finding>) {
    for (i, win) in toks.windows(4).enumerate() {
        let [a, c1, c2, b] = win else { continue };
        if !(c1.is_punct(':') && c2.is_punct(':') && b.kind == TokKind::Ident) {
            continue;
        }
        let hit = if a.is_ident("std") && b.text == "thread" {
            Some("std::thread")
        } else if a.is_ident("thread")
            && matches!(b.text.as_str(), "spawn" | "scope" | "Builder")
            // `std::thread::spawn` already reported via the `std::thread`
            // prefix two tokens earlier; don't double-count it.
            && !(i >= 3
                && toks[i - 1].is_punct(':')
                && toks[i - 2].is_punct(':')
                && toks[i - 3].is_ident("std"))
        {
            Some("thread::")
        } else {
            None
        };
        if let Some(what) = hit {
            findings.push(Finding {
                rule: "no-raw-spawn",
                line: b.line,
                message: format!("direct `{}{}` use outside the parallel layer", what, {
                    if what == "thread::" {
                        b.text.as_str()
                    } else {
                        ""
                    }
                }),
                hint: "route all threading through skyline_core::parallel \
                       (map/map_indexed) so SKYLINE_THREADS and the determinism \
                       contract apply",
            });
        }
    }
}

/// `no-ad-hoc-timing`: raw [`std::time::Instant`] readings in library code
/// ([`LIB_SCOPE`] minus [`TIMING_EXEMPT`]) bypass the telemetry layer: the
/// measurement never shows up in a recorded trace and keeps running when
/// the `telemetry` feature is off. Time through `skyline_core::telemetry`
/// (`span!`, `now_ns`/`ms_since`) instead.
fn no_ad_hoc_timing(toks: &[Tok], findings: &mut Vec<Finding>) {
    for tok in toks {
        if tok.kind == TokKind::Ident && tok.text == "Instant" {
            findings.push(Finding {
                rule: "no-ad-hoc-timing",
                line: tok.line,
                message: "raw `Instant` timing outside the telemetry layer".to_owned(),
                hint: "measure through skyline_core::telemetry (span!, now_ns/ms_since) so \
                       timings land in traces and compile out with the feature",
            });
        }
    }
}

/// `no-per-cell-alloc`: the arena-backed storage modules ([`ARENA_SCOPE`])
/// keep cells, result sets, and polyominoes in flat arenas — CSR slices
/// indexed by prefix-summed `ends`, and fixed-stride u64 bitset blocks. A
/// nested `Vec<Vec<…>>` type means one heap allocation per cell/polyomino
/// again; `Box`/`Rc` mean pointer-chased storage the word-parallel kernels
/// cannot slice. Both are flagged wherever they appear in scope — there is
/// no allowlist, because the arena types themselves are the sanctioned way
/// to express every shape these modules need.
fn no_per_cell_alloc(toks: &[Tok], findings: &mut Vec<Finding>) {
    for (i, tok) in toks.iter().enumerate() {
        if tok.kind != TokKind::Ident {
            continue;
        }
        if tok.text == "Box" || tok.text == "Rc" {
            findings.push(Finding {
                rule: "no-per-cell-alloc",
                line: tok.line,
                message: format!("pointer-indirect `{}` in arena-backed storage", tok.text),
                hint: "store through the flat arenas (CSR cells_flat/ends, bitset blocks); \
                       pointer indirection defeats the contiguous layout",
            });
        }
        if tok.text == "Vec"
            && toks.get(i + 1).is_some_and(|t| t.is_punct('<'))
            && toks.get(i + 2).is_some_and(|t| t.is_ident("Vec"))
        {
            findings.push(Finding {
                rule: "no-per-cell-alloc",
                line: tok.line,
                message: "nested `Vec<Vec<…>>` in arena-backed storage".to_owned(),
                hint: "one allocation per element is the layout this module exists to \
                       avoid; flatten into a CSR arena (data + prefix-summed ends)",
            });
        }
    }
}

/// `no-as-cast`: numeric `as` casts silently truncate and sign-extend; the
/// geometry/diagram layers must use `From`/`TryFrom` conversions instead.
fn no_as_cast(toks: &[Tok], findings: &mut Vec<Finding>) {
    for pair in toks.windows(2) {
        let [a, b] = pair else { continue };
        if a.is_ident("as") && b.kind == TokKind::Ident && NUMERIC_TYPES.contains(&b.text.as_str())
        {
            findings.push(Finding {
                rule: "no-as-cast",
                line: a.line,
                message: format!("numeric cast `as {}`", b.text),
                hint: "use From/TryFrom (see geometry::conv) so truncation is impossible or \
                       fails loudly",
            });
        }
    }
}

/// `no-float`: coordinates and cell indices are exact integers (the paper's
/// grid is integral); floats in geometry/diagram code risk silent rounding.
fn no_float(toks: &[Tok], findings: &mut Vec<Finding>) {
    for pair in toks.windows(2) {
        let [a, b] = pair else { continue };
        // `as f64` is already reported by no-as-cast; skip the double report.
        if a.is_ident("as") {
            continue;
        }
        if b.kind == TokKind::Ident && (b.text == "f32" || b.text == "f64") {
            findings.push(Finding {
                rule: "no-float",
                line: b.line,
                message: format!("floating-point type `{}` in exact-arithmetic code", b.text),
                hint: "keep geometry/diagram code integral; do float summarisation in \
                       skyline_core::analysis",
            });
        }
        // Float literals carry the dot, an exponent, or an `f32`/`f64`
        // suffix inside one numeric token: `0.5`, `1e3`, `2f64`. Integer
        // range bounds (`0..5`) never lex a dot into the number, and nested
        // tuple access (`pair.0.1`) is excluded by the leading-dot guard.
        if b.kind == TokKind::Num && !a.is_punct('.') && is_float_literal(&b.text) {
            findings.push(Finding {
                rule: "no-float",
                line: b.line,
                message: format!(
                    "floating-point literal `{}` in exact-arithmetic code",
                    b.text
                ),
                hint: "keep geometry/diagram code integral; do float summarisation in \
                       skyline_core::analysis",
            });
        }
    }
}

/// Does a single numeric token spell a float? Hex literals are excluded up
/// front (`0x1f32` is an integer); after that a dot, an `f32`/`f64` suffix,
/// or a digit-bearing exponent (`1e3`) marks a float.
fn is_float_literal(text: &str) -> bool {
    if text.starts_with("0x") || text.starts_with("0X") {
        return false;
    }
    if text.contains('.') || text.ends_with("f32") || text.ends_with("f64") {
        return true;
    }
    text.bytes()
        .zip(text.bytes().skip(1))
        .any(|(e, d)| (e == b'e' || e == b'E') && d.is_ascii_digit())
}

/// `no-unwrap`: `.unwrap()` panics without saying why. Library code returns
/// `Result` or uses `.expect()` with a message stating the invariant.
fn no_unwrap(toks: &[Tok], findings: &mut Vec<Finding>) {
    for win in toks.windows(3) {
        let [dot, name, paren] = win else { continue };
        if dot.is_punct('.') && name.is_ident("unwrap") && paren.is_punct('(') {
            findings.push(Finding {
                rule: "no-unwrap",
                line: name.line,
                message: ".unwrap() in library code".to_owned(),
                hint: "return Result, or use .expect(\"<why this cannot fail>\") if it is a \
                       checked invariant",
            });
        }
    }
}

/// `no-panic`: `panic!`/`todo!`/`unimplemented!` in library code; prefer
/// `Error` variants (or `assert!` family for invariants, which this rule
/// deliberately permits).
fn no_panic(toks: &[Tok], findings: &mut Vec<Finding>) {
    for win in toks.windows(2) {
        let [name, bang] = win else { continue };
        if !bang.is_punct('!') {
            continue;
        }
        if name.is_ident("panic") || name.is_ident("todo") || name.is_ident("unimplemented") {
            findings.push(Finding {
                rule: "no-panic",
                line: name.line,
                message: format!("`{}!` in library code", name.text),
                hint: "return an Error variant; if the state is impossible, assert the \
                       invariant instead",
            });
        }
    }
}

/// `expect-message`: `.expect()` must carry a string literal long enough to
/// state the invariant that makes the panic unreachable.
fn expect_message(toks: &[Tok], findings: &mut Vec<Finding>) {
    for (i, win) in toks.windows(3).enumerate() {
        let [dot, name, paren] = win else { continue };
        if !(dot.is_punct('.') && name.is_ident("expect") && paren.is_punct('(')) {
            continue;
        }
        let arg = toks.get(i + 3);
        let literal = arg.filter(|t| t.kind == TokKind::Str);
        match literal {
            Some(lit) if lit.text.len() >= MIN_EXPECT_MESSAGE => {}
            Some(lit) => findings.push(Finding {
                rule: "expect-message",
                line: name.line,
                message: format!(
                    "expect message \"{}\" is too short to state an invariant",
                    lit.text
                ),
                hint: "say why the value must be present, not just that it is expected",
            }),
            None => findings.push(Finding {
                rule: "expect-message",
                line: name.line,
                message: ".expect() without a string-literal message".to_owned(),
                hint: "pass a literal stating the invariant; computed messages hide the \
                       reason from grep",
            }),
        }
    }
}

/// `must-use`: diagram types must be declared `#[must_use]`, and public
/// functions returning skyline result sets (`Vec<PointId>`) must be
/// annotated — discarding either silently drops the computed answer.
fn must_use(toks: &[Tok], findings: &mut Vec<Finding>) {
    // Part 1: type declarations.
    for (i, tok) in toks.iter().enumerate() {
        if !(tok.is_ident("struct") || tok.is_ident("enum")) {
            continue;
        }
        let Some(name) = toks.get(i + 1) else {
            continue;
        };
        if name.kind == TokKind::Ident
            && MUST_USE_TYPES.contains(&name.text.as_str())
            && !has_attr_ident_before(toks, i, "must_use")
        {
            findings.push(Finding {
                rule: "must-use",
                line: name.line,
                message: format!("diagram type `{}` is not #[must_use]", name.text),
                hint: "add #[must_use] to the type so dropped build results are a warning",
            });
        }
    }
    // Part 2: public result-set constructors.
    for (i, tok) in toks.iter().enumerate() {
        if !tok.is_ident("pub") {
            continue;
        }
        // `pub(crate)` etc. is not public API.
        if toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        // Allow `pub const fn` / `pub unsafe fn`.
        let fn_idx =
            (i + 1..=(i + 3).min(toks.len().saturating_sub(1))).find(|&j| toks[j].is_ident("fn"));
        let Some(fn_idx) = fn_idx else { continue };
        let Some(fn_name) = toks.get(fn_idx + 1) else {
            continue;
        };
        let ret = return_type_tokens(toks, fn_idx);
        let returns_result_set =
            ret.iter().any(|t| t.is_ident("Vec")) && ret.iter().any(|t| t.is_ident("PointId"));
        // Functions returning a MUST_USE_TYPES value are covered by the
        // type-level attribute; only bare result sets need the fn attr.
        if returns_result_set && !has_attr_ident_before(toks, i, "must_use") {
            findings.push(Finding {
                rule: "must-use",
                line: fn_name.line,
                message: format!(
                    "public fn `{}` returns a skyline result set without #[must_use]",
                    fn_name.text
                ),
                hint: "annotate the function so an ignored query answer is a warning",
            });
        }
    }
}

/// Tokens of the return type of the `fn` at `fn_idx`: everything between
/// `->` and the body/`where`/`;`, or empty if the fn returns `()`.
fn return_type_tokens(toks: &[Tok], fn_idx: usize) -> &[Tok] {
    // Find the parameter list's closing paren.
    let mut i = fn_idx;
    while i < toks.len() && !toks[i].is_punct('(') {
        // A `{` or `;` before `(` means we ran off the signature.
        if toks[i].is_punct('{') || toks[i].is_punct(';') {
            return &[];
        }
        i += 1;
    }
    let mut depth = 0i32;
    while i < toks.len() {
        if toks[i].is_punct('(') {
            depth += 1;
        } else if toks[i].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        i += 1;
    }
    let Some([a, b]) = toks.get(i + 1..i + 3) else {
        return &[];
    };
    if !(a.is_punct('-') && b.is_punct('>')) {
        return &[];
    }
    let start = i + 3;
    let mut end = start;
    while end < toks.len() {
        let t = &toks[end];
        if t.is_punct('{') || t.is_punct(';') || t.is_ident("where") {
            break;
        }
        end += 1;
    }
    &toks[start..end]
}

/// Does any attribute in the run of `#[…]` attributes directly preceding
/// token `item` contain `ident`? Scans backwards over whole attributes only,
/// so `must_use` inside an unrelated earlier item cannot leak forward.
fn has_attr_ident_before(toks: &[Tok], item: usize, ident: &str) -> bool {
    // Step back over visibility/qualifier keywords to the attribute run.
    let mut end = item;
    while end > 0 && toks[end - 1].kind == TokKind::Ident {
        let t = &toks[end - 1].text;
        if matches!(t.as_str(), "pub" | "const" | "unsafe" | "async" | "extern") {
            end -= 1;
        } else {
            break;
        }
    }
    while end > 0 && toks[end - 1].is_punct(']') {
        // Find the `#[` opening this attribute by bracket matching backwards.
        let mut depth = 0i32;
        let mut j = end - 1;
        loop {
            if toks[j].is_punct(']') {
                depth += 1;
            } else if toks[j].is_punct('[') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if j == 0 {
                return false;
            }
            j -= 1;
        }
        if j == 0 || !toks[j - 1].is_punct('#') {
            return false;
        }
        if toks[j..end].iter().any(|t| t.is_ident(ident)) {
            return true;
        }
        end = j - 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn findings_for(path: &str, src: &str) -> Vec<Finding> {
        run_all(path, src, &lex(src))
    }

    #[test]
    fn as_cast_and_float_only_fire_in_exact_scope() {
        let src = "pub fn f(x: usize) -> i64 { let y: f64 = 0.0; x as i64 }";
        let in_scope = findings_for("crates/core/src/geometry/grid.rs", src);
        assert!(in_scope.iter().any(|f| f.rule == "no-as-cast"));
        assert!(in_scope.iter().any(|f| f.rule == "no-float"));
        let out_of_scope = findings_for("crates/core/src/analysis.rs", src);
        assert!(out_of_scope
            .iter()
            .all(|f| f.rule != "no-as-cast" && f.rule != "no-float"));
    }

    #[test]
    fn float_literals_fire_but_integer_lookalikes_do_not() {
        let floats = "let a = 0.5; let b = 1_f32; let c = 2.0_f64; let d = 1e3;";
        let f = findings_for("crates/core/src/geometry/grid.rs", floats);
        assert_eq!(f.iter().filter(|f| f.rule == "no-float").count(), 4);

        let ints = "let r = 0..5; let h = 0x1f32; let n = 1usize; let t = pair.0;";
        let f = findings_for("crates/core/src/geometry/grid.rs", ints);
        assert!(f.iter().all(|f| f.rule != "no-float"));
    }

    #[test]
    fn as_f64_reports_once_not_twice() {
        let f = findings_for("crates/core/src/diagram/merge.rs", "let x = n as f64;");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-as-cast");
    }

    #[test]
    fn per_cell_alloc_fires_only_in_arena_scope() {
        let nested = "pub struct D { polyominoes: Vec<Vec<CellIndex>> }";
        let f = findings_for("crates/core/src/diagram/polyomino.rs", nested);
        assert_eq!(
            f.iter().filter(|f| f.rule == "no-per-cell-alloc").count(),
            1
        );

        let boxed = "fn f() { let b: Box<[u64]> = block; let r = Rc::new(cells); }";
        let f = findings_for("crates/core/src/result_set.rs", boxed);
        assert_eq!(
            f.iter().filter(|f| f.rule == "no-per-cell-alloc").count(),
            2
        );

        // The flat arena layout itself is the sanctioned shape — single-level
        // vectors of words, cells, and prefix-summed ends never fire.
        let flat = "pub struct A { words: Vec<u64>, cells_flat: Vec<CellIndex>, \
                    ends: Vec<u32>, results: Vec<ResultId> }";
        let f = findings_for("crates/core/src/diagram/merge.rs", flat);
        assert!(f.iter().all(|f| f.rule != "no-per-cell-alloc"));

        // ClipBox is a whole different identifier, not a `Box` hit.
        let decoy = "pub fn clip(b: ClipBox) -> Vec<CellIndex> { vec![] }";
        let f = findings_for("crates/core/src/diagram/cell_diagram.rs", decoy);
        assert!(f.iter().all(|f| f.rule != "no-per-cell-alloc"));

        // boundary.rs returns genuinely jagged outline walks; out of scope.
        let walks = "pub fn boundary_loops() -> Vec<Vec<Point>> { vec![] }";
        let f = findings_for("crates/core/src/diagram/boundary.rs", walks);
        assert!(f.iter().all(|f| f.rule != "no-per-cell-alloc"));

        // Other crates/modules keep their nested vectors (dominance lists,
        // rank buckets); the rule is about the arena modules only.
        let f = findings_for("crates/core/src/skyband.rs", nested);
        assert!(f.iter().all(|f| f.rule != "no-per-cell-alloc"));

        // Test modules are stripped before linting.
        let tests_only =
            "#[cfg(test)]\nmod tests { fn t() { let v: Vec<Vec<u32>> = Vec::new(); } }";
        let f = findings_for("crates/core/src/diagram/merge.rs", tests_only);
        assert!(f.iter().all(|f| f.rule != "no-per-cell-alloc"));
    }

    #[test]
    fn unwrap_panic_and_expect_rules() {
        let src = r#"
pub fn f() {
    a.unwrap();
    b.expect("short");
    c.expect("map key was inserted in the loop above");
    d.expect(&msg);
    panic!("boom");
    assert!(x > 0, "asserts are permitted");
}
"#;
        let f = findings_for("crates/core/src/query.rs", src);
        assert_eq!(f.iter().filter(|f| f.rule == "no-unwrap").count(), 1);
        assert_eq!(f.iter().filter(|f| f.rule == "no-panic").count(), 1);
        assert_eq!(f.iter().filter(|f| f.rule == "expect-message").count(), 2);
    }

    #[test]
    fn unwrap_in_test_module_is_ignored() {
        let src = "#[cfg(test)]\nmod tests { fn t() { a.unwrap(); } }\n";
        assert!(findings_for("crates/core/src/query.rs", src).is_empty());
    }

    #[test]
    fn must_use_type_declaration() {
        let bad = "pub struct CellDiagram { x: u32 }";
        let f = findings_for("crates/core/src/diagram/cell_diagram.rs", bad);
        assert_eq!(f.iter().filter(|f| f.rule == "must-use").count(), 1);

        let good = "#[derive(Clone)]\n#[must_use]\npub struct CellDiagram { x: u32 }";
        let f = findings_for("crates/core/src/diagram/cell_diagram.rs", good);
        assert!(f.iter().all(|f| f.rule != "must-use"));
    }

    #[test]
    fn must_use_attr_on_earlier_item_does_not_leak() {
        let src = "#[must_use]\npub fn other() -> u32 { 0 }\npub struct CellDiagram {}";
        let f = findings_for("crates/core/src/diagram/cell_diagram.rs", src);
        assert_eq!(f.iter().filter(|f| f.rule == "must-use").count(), 1);
    }

    #[test]
    fn must_use_result_set_fns() {
        let bad = "pub fn quadrant_skyline(q: Point) -> Vec<PointId> { vec![] }";
        let f = findings_for("crates/core/src/query.rs", bad);
        assert_eq!(f.iter().filter(|f| f.rule == "must-use").count(), 1);

        let good = "#[must_use]\npub fn quadrant_skyline(q: Point) -> Vec<PointId> { vec![] }";
        assert!(findings_for("crates/core/src/query.rs", good).is_empty());

        // Nested result sets (layers) also count.
        let nested = "pub fn layers(d: &Dataset) -> Vec<Vec<PointId>> { vec![] }";
        let f = findings_for("crates/core/src/skyline/layers.rs", nested);
        assert_eq!(f.iter().filter(|f| f.rule == "must-use").count(), 1);

        // Private and pub(crate) helpers are exempt.
        let private = "fn helper() -> Vec<PointId> { vec![] }\n\
                       pub(crate) fn h2() -> Vec<PointId> { vec![] }";
        assert!(findings_for("crates/core/src/query.rs", private).is_empty());
    }

    #[test]
    fn lock_primitives_fire_only_on_the_read_path() {
        let qualified = "use std::sync::Mutex;\nfn f() { let m = Mutex::new(0); }";
        let f = findings_for("crates/serve/src/arena.rs", qualified);
        // The `use` line and the constructor call each fire.
        assert_eq!(
            f.iter().filter(|f| f.rule == "no-lock-read-path").count(),
            2
        );

        let rwlock = "fn f() { let l: std::sync::RwLock<u32> = RwLock::new(0); }";
        let f = findings_for("crates/core/src/epoch.rs", rwlock);
        assert_eq!(
            f.iter().filter(|f| f.rule == "no-lock-read-path").count(),
            2
        );

        // The writer side keeps its mutex; other files are out of scope.
        let f = findings_for("crates/serve/src/server.rs", qualified);
        assert!(f.iter().all(|f| f.rule != "no-lock-read-path"));

        // OnceLock is the sanctioned primitive and must not be confused
        // with a lock; test modules are stripped before linting.
        let benign = "use std::sync::OnceLock;\nfn f() { let c = OnceLock::new(); }\n\
                      #[cfg(test)]\nmod tests { use std::sync::Mutex; }";
        let f = findings_for("crates/serve/src/snapshot.rs", benign);
        assert!(f.iter().all(|f| f.rule != "no-lock-read-path"));
    }

    #[test]
    fn ad_hoc_timing_fires_in_lib_code_but_not_telemetry_or_benches() {
        let src = "use std::time::Instant;\nfn f() { let t = Instant::now(); }";
        let f = findings_for("crates/serve/src/workload.rs", src);
        // The `use` line and the `Instant::now()` call each fire.
        assert_eq!(f.iter().filter(|f| f.rule == "no-ad-hoc-timing").count(), 2);

        // The telemetry layer owns the clock.
        let exempt = findings_for("crates/core/src/telemetry.rs", src);
        assert!(exempt.iter().all(|f| f.rule != "no-ad-hoc-timing"));

        // Benches and binaries are outside LIB_SCOPE.
        let bench = findings_for("crates/bench/src/lib.rs", src);
        assert!(bench.iter().all(|f| f.rule != "no-ad-hoc-timing"));

        // Test modules are stripped before linting.
        let tests_only = "#[cfg(test)]\nmod tests { use std::time::Instant; }";
        let f = findings_for("crates/core/src/global.rs", tests_only);
        assert!(f.iter().all(|f| f.rule != "no-ad-hoc-timing"));
    }

    #[test]
    fn ad_hoc_timing_fires_inside_serve_test_bodies() {
        // The serve differential suites lint their `#[test]` functions
        // too: an ad-hoc clock there measures against the wrong epoch.
        let src = "#[test]\nfn t() { let t0 = std::time::Instant::now(); }";
        let f = findings_for("crates/serve/tests/coordinated_omission.rs", src);
        assert_eq!(f.iter().filter(|f| f.rule == "no-ad-hoc-timing").count(), 1);

        // Other crates' integration tests keep their freedom.
        let f = findings_for("crates/core/tests/parallel_matrix.rs", src);
        assert!(f.iter().all(|f| f.rule != "no-ad-hoc-timing"));

        // The sanctioned clock helpers do not trip the rule.
        let benign = "#[test]\nfn t() {\n    let t0 = skyline_core::telemetry::now_ns();\n    \
                      skyline_core::telemetry::spin_until(t0 + 5);\n}";
        let f = findings_for("crates/serve/tests/stress_diff.rs", benign);
        assert!(f.iter().all(|f| f.rule != "no-ad-hoc-timing"));
    }

    #[test]
    fn raw_atomic_fires_outside_the_sync_facade() {
        let path_form = "use std::sync::atomic::{AtomicU64, Ordering};";
        let f = findings_for("crates/core/src/epoch.rs", path_form);
        assert_eq!(f.iter().filter(|f| f.rule == "no-raw-atomic").count(), 1);

        let oncelock =
            "fn f() { static C: std::sync::OnceLock<u32> = std::sync::OnceLock::new(); }";
        let f = findings_for("crates/core/src/telemetry.rs", oncelock);
        assert_eq!(f.iter().filter(|f| f.rule == "no-raw-atomic").count(), 2);

        let grouped = "use std::sync::{Arc, OnceLock, atomic};";
        let f = findings_for("crates/serve/src/arena.rs", grouped);
        // OnceLock and atomic each fire; Arc is fine.
        assert_eq!(f.iter().filter(|f| f.rule == "no-raw-atomic").count(), 2);

        // The facade itself is the one legal home for raw paths.
        let exempt = findings_for("crates/core/src/sync/mod.rs", path_form);
        assert!(exempt.iter().all(|f| f.rule != "no-raw-atomic"));
        let sched = findings_for("crates/core/src/sync/sched.rs", path_form);
        assert!(sched.iter().all(|f| f.rule != "no-raw-atomic"));

        // The facade's own names, imported through it, are sanctioned.
        let benign = "use crate::sync::{AtomicU64, OnceLock, Ordering};\n\
                      use skyline_core::sync::Arc;\nuse std::sync::Mutex;";
        let f = findings_for("crates/core/src/parallel.rs", benign);
        assert!(f.iter().all(|f| f.rule != "no-raw-atomic"));

        // Test modules keep their raw atomics (drop probes and the like).
        let tests_only = "#[cfg(test)]\nmod tests { use std::sync::atomic::AtomicUsize; }";
        let f = findings_for("crates/core/src/epoch.rs", tests_only);
        assert!(f.iter().all(|f| f.rule != "no-raw-atomic"));
    }

    #[test]
    fn raw_alloc_count_fires_outside_the_counting_allocator() {
        let use_form = "use std::alloc::{GlobalAlloc, Layout, System};";
        let f = findings_for("crates/core/src/result_set.rs", use_form);
        // `std::alloc` fires once; the `GlobalAlloc` ident fires once more.
        assert_eq!(
            f.iter().filter(|f| f.rule == "no-raw-alloc-count").count(),
            2
        );

        let call_form = "fn f() { let p = unsafe { std::alloc::alloc(layout) }; }";
        let f = findings_for("crates/serve/src/snapshot.rs", call_form);
        assert_eq!(
            f.iter().filter(|f| f.rule == "no-raw-alloc-count").count(),
            1
        );

        let impl_form = "unsafe impl GlobalAlloc for Mine {}";
        let f = findings_for("crates/core/src/epoch.rs", impl_form);
        assert_eq!(
            f.iter().filter(|f| f.rule == "no-raw-alloc-count").count(),
            1
        );

        // The counting allocator itself is the one legal home — for raw
        // alloc paths AND (like the sync facade) for raw atomics.
        let hook = "use std::alloc::{GlobalAlloc, Layout, System};\n\
                    use std::sync::atomic::{AtomicU64, Ordering};";
        let exempt = findings_for("crates/core/src/telemetry/mem.rs", hook);
        assert!(exempt.iter().all(|f| f.rule != "no-raw-alloc-count"));
        assert!(exempt.iter().all(|f| f.rule != "no-raw-atomic"));

        // Decoys: a local module named `alloc`, the word in a string, and
        // vec allocation APIs must not trip the rule.
        let benign = "mod alloc {}\nfn f() { let v: Vec<u8> = Vec::with_capacity(8); \
                      let s = \"std::alloc\"; my::alloc::grab(); }";
        let f = findings_for("crates/core/src/result_set.rs", benign);
        assert!(f.iter().all(|f| f.rule != "no-raw-alloc-count"));

        // Benches, binaries, and test modules are out of scope.
        let bench = findings_for("crates/bench/src/lib.rs", use_form);
        assert!(bench.iter().all(|f| f.rule != "no-raw-alloc-count"));
        let tests_only = "#[cfg(test)]\nmod tests { use std::alloc::System; }";
        let f = findings_for("crates/core/src/global.rs", tests_only);
        assert!(f.iter().all(|f| f.rule != "no-raw-alloc-count"));
    }

    #[test]
    fn relaxed_needs_justification_and_seqcst_is_banned() {
        let bare = "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }";
        let f = findings_for("crates/core/src/telemetry.rs", bare);
        assert_eq!(f.iter().filter(|f| f.rule == "atomic-ordering").count(), 1);

        let same_line = "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); // relaxed-ok: pure counter\n}";
        let f = findings_for("crates/core/src/telemetry.rs", same_line);
        assert!(f.iter().all(|f| f.rule != "atomic-ordering"));

        let above = "fn f(c: &AtomicU64) {\n    // relaxed-ok: statistics only; nothing\n    \
                     // orders against this value\n    c.fetch_add(1, Ordering::Relaxed);\n}";
        let f = findings_for("crates/core/src/telemetry.rs", above);
        assert!(f.iter().all(|f| f.rule != "atomic-ordering"));

        // A justification does not leak past a non-comment line.
        let stale = "fn f(c: &AtomicU64) {\n    // relaxed-ok: the other one\n    \
                     c.store(0, Ordering::Release);\n    c.fetch_add(1, Ordering::Relaxed);\n}";
        let f = findings_for("crates/core/src/telemetry.rs", stale);
        assert_eq!(f.iter().filter(|f| f.rule == "atomic-ordering").count(), 1);

        let seqcst = "fn f(c: &AtomicU64) { c.load(Ordering::SeqCst); }";
        let f = findings_for("crates/core/src/epoch.rs", seqcst);
        assert_eq!(f.iter().filter(|f| f.rule == "atomic-ordering").count(), 1);

        // The checker's internal bookkeeping is exempt, as are tests.
        let f = findings_for("crates/core/src/sync/sched.rs", seqcst);
        assert!(f.iter().all(|f| f.rule != "atomic-ordering"));
        let tests_only =
            "#[cfg(test)]\nmod tests { fn t(c: &AtomicU64) { c.load(Ordering::SeqCst); } }";
        let f = findings_for("crates/core/src/epoch.rs", tests_only);
        assert!(f.iter().all(|f| f.rule != "atomic-ordering"));
    }

    #[test]
    fn debug_assert_bodies_must_be_pure() {
        let rmw = "fn f(c: &AtomicU64) { debug_assert!(c.fetch_add(1, Ordering::Acquire) > 0); }";
        let f = findings_for("crates/core/src/query.rs", rmw);
        assert_eq!(
            f.iter()
                .filter(|f| f.rule == "no-side-effect-debug-assert")
                .count(),
            1
        );

        let eq_form = "fn f(v: &mut Vec<u32>) { debug_assert_eq!(v.pop(), Some(1)); }";
        let f = findings_for("crates/apps/src/reverse.rs", eq_form);
        assert_eq!(
            f.iter()
                .filter(|f| f.rule == "no-side-effect-debug-assert")
                .count(),
            1
        );

        // Pure reads are fine, and mutations *outside* the macro are out of
        // this rule's scope (field access without a call is fine too).
        let benign = "fn f(v: &Vec<u32>, c: &AtomicU64) {\n    v.pop_hint();\n    \
                      debug_assert!(v.len() > 0 && c.load(Ordering::Acquire) > 0);\n    \
                      debug_assert!(self.set_point.is_some());\n}";
        let f = findings_for("crates/core/src/query.rs", benign);
        assert!(f.iter().all(|f| f.rule != "no-side-effect-debug-assert"));
    }

    #[test]
    fn raw_spawn_fires_everywhere_except_the_parallel_layer() {
        let qualified = "fn f() { std::thread::spawn(|| {}); }";
        let f = findings_for("crates/bench/src/bin/experiments.rs", qualified);
        // One finding for the std::thread prefix — not a second for spawn.
        assert_eq!(f.iter().filter(|f| f.rule == "no-raw-spawn").count(), 1);

        let imported = "use std::thread;\nfn f() { thread::scope(|s| {}); }";
        let f = findings_for("crates/apps/src/reverse.rs", imported);
        // The `use std::thread` line and the `thread::scope` call each fire.
        assert_eq!(f.iter().filter(|f| f.rule == "no-raw-spawn").count(), 2);

        let builder = "fn f() { thread::Builder::new(); }";
        let f = findings_for("crates/core/src/global.rs", builder);
        assert_eq!(f.iter().filter(|f| f.rule == "no-raw-spawn").count(), 1);

        let exempt = findings_for("crates/core/src/parallel.rs", qualified);
        assert!(exempt.iter().all(|f| f.rule != "no-raw-spawn"));

        // Unrelated identifiers sharing the name don't fire.
        let benign = "fn f() { pool.scope(|s| {}); my_thread.join(); }";
        let f = findings_for("crates/core/src/global.rs", benign);
        assert!(f.iter().all(|f| f.rule != "no-raw-spawn"));
    }
}
