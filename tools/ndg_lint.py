#!/usr/bin/env python3
"""ndg_lint — policy checker for the NE access-policy layer.

The whole point of src/atomics/ is that EVERY edge-slot access in an
algorithm or engine goes through an AccessPolicy, so the atomicity ablation
(Table III) and the manifest enforcement (docs/ANALYSIS.md) see every access.
A single raw `slots()` poke or `reinterpret_cast` around the policy silently
invalidates both. This linter keeps that contract honest at the source level:

  raw-slots         direct `slots()` access outside src/atomics/ (the one
                    directory allowed to touch raw storage, and so the only
                    one that may know a slot's width).
  raw-cast          `reinterpret_cast` outside src/atomics/, except casts to
                    byte pointers (char*/unsigned char*/std::byte*) used for
                    binary I/O — those do not alias edge slots.
  missing-manifest  a `*Program` vertex-program class without a
                    `static constexpr AccessManifest kManifest` declaration
                    (the static analyzer needs one per program).
  aligned-rmw       `ctx.accumulate(...)`/`ctx.exchange(...)` in a program
                    file whose manifest does not declare `.rmw = true` —
                    an RMW the manifest hides would wrongly pass the
                    AlignedAccess compatibility check (method 2 has atomic
                    loads/stores but NO atomic read-modify-write).
  missing-direction-manifest
                    a program file declaring a push entry point
                    (`void update_push(...)`) without a
                    `static constexpr AccessManifest kPushManifest` —
                    a push body with no push-side manifest is invisible to
                    the per-direction eligibility verdicts, so the
                    direction-optimizing engine would run an unanalyzed
                    direction.

Suppressions: a `// ndg-lint: allow(<rule>)` comment on the offending line or
the line directly above silences that rule for that line. Every allow is
expected to carry a justification in the surrounding comment.

Engines: `--engine=clang` parses the file with libclang (python bindings)
and checks member-call ASTs; when libclang is unavailable the tool FALLS
BACK to the pattern engine with a notice instead of silently passing —
`--engine=pattern` (the default used in CI) needs nothing but python3.

Self test: `--self-test --repo <path>` checks both directions — src/ must
come back clean AND the seeded fixture under tests/lint_fixtures/ must
trip every rule. A linter that cannot flag the fixture fails its own test.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

RULES = (
    "raw-slots",
    "raw-cast",
    "missing-manifest",
    "aligned-rmw",
    "missing-direction-manifest",
)

# Directory (relative to the scan root) that is allowed to touch raw storage.
EXEMPT_DIR_PARTS = ("atomics",)

SOURCE_SUFFIXES = {".hpp", ".cpp", ".h", ".cc"}

ALLOW_RE = re.compile(r"ndg-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")
RAW_SLOTS_RE = re.compile(r"\bslots\s*\(\s*\)")
RAW_CAST_RE = re.compile(r"\breinterpret_cast\s*<\s*([^>]+?)\s*>")
# Byte-pointer targets are binary-I/O plumbing, not slot aliasing.
BYTE_CAST_RE = re.compile(
    r"^(?:const\s+)?(?:(?:unsigned\s+|signed\s+)?char|std::byte|std::uint8_t|uint8_t)"
    r"\s*(?:const\s*)?\*+$"
)
PROGRAM_DECL_RE = re.compile(r"\b(?:class|struct)\s+(\w*Program)\b(?!\s*;)")
MANIFEST_RE = re.compile(r"\bstatic\s+constexpr\s+AccessManifest\s+kManifest\b")
RMW_DECL_RE = re.compile(r"\.rmw\s*=\s*true")
UPDATE_PUSH_RE = re.compile(r"\bvoid\s+update_push\s*\(")
PUSH_MANIFEST_RE = re.compile(
    r"\bstatic\s+constexpr\s+AccessManifest\s+kPushManifest\b"
)
RMW_CALL_RE = re.compile(r"\b(?:ctx|context)\s*\.\s*(accumulate|exchange)\s*\(")


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def to_json(self) -> dict:
        return {
            "file": str(self.path),
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
        }


def allowed_rules(lines: list[str], idx: int) -> set[str]:
    """Rules suppressed for line `idx` (same line or the line above)."""
    rules: set[str] = set()
    for probe in (idx, idx - 1):
        if 0 <= probe < len(lines):
            m = ALLOW_RE.search(lines[probe])
            if m:
                rules.update(r.strip() for r in m.group(1).split(","))
    return rules


def is_exempt(path: Path) -> bool:
    return any(part in EXEMPT_DIR_PARTS for part in path.parts)


def strip_line_comment(line: str) -> str:
    """Drops // comments so commented-out examples don't trip rules.
    (Block comments spanning lines are rare in this codebase; the allow
    annotation mechanism covers any residual false positive.)"""
    pos = line.find("//")
    return line if pos < 0 else line[:pos]


def lint_file_pattern(path: Path) -> list[Finding]:
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as e:
        return [Finding(path, 0, "io", f"unreadable: {e}")]
    lines = text.splitlines()
    findings: list[Finding] = []
    exempt = is_exempt(path)

    program_decls: list[tuple[int, str]] = []
    # File-level facts come from comment-stripped code so a doc comment
    # mentioning `.rmw = true` doesn't satisfy the declaration rule.
    code_text = "\n".join(strip_line_comment(l) for l in lines)
    has_manifest = MANIFEST_RE.search(code_text) is not None
    declares_rmw = RMW_DECL_RE.search(code_text) is not None
    has_push_manifest = PUSH_MANIFEST_RE.search(code_text) is not None
    push_decls: list[int] = []

    for i, raw in enumerate(lines):
        code = strip_line_comment(raw)
        allowed = allowed_rules(lines, i)

        if not exempt and "raw-slots" not in allowed:
            if RAW_SLOTS_RE.search(code):
                findings.append(
                    Finding(
                        path, i + 1, "raw-slots",
                        "direct edge-slot access bypasses the AccessPolicy "
                        "layer (only src/atomics/ may touch raw storage); "
                        "route through the policy or justify with "
                        "`ndg-lint: allow(raw-slots)`",
                    )
                )
        if not exempt and "raw-cast" not in allowed:
            for m in RAW_CAST_RE.finditer(code):
                target = re.sub(r"\s+", " ", m.group(1)).strip()
                if BYTE_CAST_RE.match(target):
                    continue  # binary-I/O byte views are fine
                findings.append(
                    Finding(
                        path, i + 1, "raw-cast",
                        f"reinterpret_cast<{target}> outside src/atomics/ can "
                        "alias edge slots around the policy layer; use the "
                        "policy API or justify with `ndg-lint: allow(raw-cast)`",
                    )
                )
        m = PROGRAM_DECL_RE.search(code)
        if m and "missing-manifest" not in allowed:
            program_decls.append((i + 1, m.group(1)))
        if (
            UPDATE_PUSH_RE.search(code)
            and "missing-direction-manifest" not in allowed
        ):
            push_decls.append(i + 1)
        if (
            program_decls
            and not declares_rmw
            and "aligned-rmw" not in allowed
            and RMW_CALL_RE.search(code)
        ):
            findings.append(
                Finding(
                    path, i + 1, "aligned-rmw",
                    f"ctx.{RMW_CALL_RE.search(code).group(1)}() is a "
                    "read-modify-write but the file's AccessManifest does not "
                    "declare `.rmw = true`; an undeclared RMW defeats the "
                    "AlignedAccess compatibility check (method 2 has no "
                    "atomic RMW)",
                )
            )

    if not exempt and not has_manifest:
        for line_no, name in program_decls:
            findings.append(
                Finding(
                    path, line_no, "missing-manifest",
                    f"vertex program `{name}` declares no "
                    "`static constexpr AccessManifest kManifest`; the static "
                    "eligibility analyzer (docs/ANALYSIS.md) requires one "
                    "per program",
                )
            )
    if not exempt and program_decls and not has_push_manifest:
        for line_no in push_decls:
            findings.append(
                Finding(
                    path, line_no, "missing-direction-manifest",
                    "`update_push` declared but the file has no "
                    "`static constexpr AccessManifest kPushManifest`; a push "
                    "entry point without a push-side manifest gets no "
                    "per-direction verdict, so the direction-optimizing "
                    "engine would run an unanalyzed direction "
                    "(docs/ANALYSIS.md)",
                )
            )
    return findings


# --- clang engine (optional) ------------------------------------------------


def lint_file_clang(path: Path, include_dir: Path) -> list[Finding] | None:
    """AST-based raw-slots/raw-cast check via libclang. Returns None when
    libclang is unavailable so the caller can fall back loudly."""
    try:
        from clang import cindex  # type: ignore
    except ImportError:
        return None
    try:
        index = cindex.Index.create()
    except cindex.LibclangError:
        return None
    tu = index.parse(
        str(path),
        args=["-std=c++20", f"-I{include_dir}", "-x", "c++"],
    )
    lines = path.read_text(encoding="utf-8", errors="replace").splitlines()
    findings: list[Finding] = []
    if is_exempt(path):
        return findings

    def visit(node):
        loc = node.location
        in_this_file = loc.file and Path(loc.file.name) == path
        if in_this_file:
            idx = loc.line - 1
            allowed = allowed_rules(lines, idx)
            if (
                node.kind == cindex.CursorKind.CALL_EXPR
                and node.spelling == "slots"
                and "raw-slots" not in allowed
            ):
                findings.append(
                    Finding(path, loc.line, "raw-slots",
                            "direct edge-slot access bypasses the "
                            "AccessPolicy layer (clang AST)"))
            if (
                node.kind == cindex.CursorKind.CXX_REINTERPRET_CAST_EXPR
                and "raw-cast" not in allowed
            ):
                target = re.sub(r"\s+", " ", node.type.spelling).strip()
                if not BYTE_CAST_RE.match(target):
                    findings.append(
                        Finding(path, loc.line, "raw-cast",
                                f"reinterpret_cast to {target} (clang AST)"))
        for child in node.get_children():
            visit(child)

    visit(tu.cursor)
    # Manifest rules stay pattern-based even under clang (they are
    # declaration-presence checks, not expression checks).
    for f in lint_file_pattern(path):
        if f.rule in (
            "missing-manifest",
            "aligned-rmw",
            "missing-direction-manifest",
        ):
            findings.append(f)
    return findings


# --- driver -----------------------------------------------------------------


def collect_files(paths: list[Path]) -> list[Path]:
    files: list[Path] = []
    for p in paths:
        if p.is_dir():
            files.extend(
                f for f in sorted(p.rglob("*")) if f.suffix in SOURCE_SUFFIXES
            )
        elif p.suffix in SOURCE_SUFFIXES:
            files.append(p)
    return files


def run_lint(paths: list[Path], engine: str, include_dir: Path) -> list[Finding]:
    findings: list[Finding] = []
    clang_ok = engine in ("clang", "auto")
    warned = False
    for f in collect_files(paths):
        result = None
        if clang_ok:
            result = lint_file_clang(f, include_dir)
            if result is None:
                clang_ok = False
                if engine == "clang" and not warned:
                    print(
                        "ndg_lint: libclang unavailable, falling back to the "
                        "pattern engine (NOT silently skipping)",
                        file=sys.stderr,
                    )
                    warned = True
        if result is None:
            result = lint_file_pattern(f)
        findings.extend(result)
    return findings


def self_test(repo: Path, engine: str) -> int:
    src = repo / "src"
    fixture_dir = repo / "tests" / "lint_fixtures"
    include_dir = src
    ok = True

    clean = run_lint([src], engine, include_dir)
    if clean:
        print(f"self-test FAIL: src/ should be clean, found {len(clean)}:")
        for f in clean:
            print(f"  {f}")
        ok = False
    else:
        print(f"self-test: src/ clean ({len(collect_files([src]))} files)")

    flagged = run_lint([fixture_dir], engine, include_dir)
    tripped = {f.rule for f in flagged}
    missing = [r for r in RULES if r not in tripped]
    if missing:
        print(
            "self-test FAIL: fixture under tests/lint_fixtures/ must trip "
            f"every rule; missing {missing} (tripped: {sorted(tripped)})"
        )
        ok = False
    else:
        print(
            f"self-test: fixture tripped all {len(RULES)} rules "
            f"({len(flagged)} findings)"
        )
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", type=Path,
                    help="files or directories to lint (default: <repo>/src)")
    ap.add_argument("--repo", type=Path, default=Path(__file__).resolve().parents[1],
                    help="repository root (for defaults and --self-test)")
    ap.add_argument("--engine", choices=("auto", "pattern", "clang"),
                    default="pattern",
                    help="auto/clang try libclang AST first; pattern (default) "
                         "is pure-regex and dependency-free")
    ap.add_argument("--json", action="store_true",
                    help="emit findings as a JSON array")
    ap.add_argument("--self-test", action="store_true",
                    help="lint <repo>/src (expect clean) and "
                         "<repo>/tests/lint_fixtures (expect every rule)")
    args = ap.parse_args()

    if args.self_test:
        return self_test(args.repo, args.engine)

    paths = args.paths or [args.repo / "src"]
    findings = run_lint(paths, args.engine, args.repo / "src")
    if args.json:
        print(json.dumps([f.to_json() for f in findings], indent=2))
    else:
        for f in findings:
            print(f)
        n_files = len(collect_files(paths))
        print(f"ndg_lint: {len(findings)} finding(s) in {n_files} file(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
