#!/usr/bin/env python3
"""Repo-specific lint rules for the SynTS tree.

Each rule encodes a convention this codebase has been burned by (or would
be):

  raw-mutex       -- std::mutex / std::shared_mutex / std::lock_guard /
                     std::unique_lock / std::scoped_lock anywhere in src/
                     outside util/thread_safety.h. Raw primitives bypass
                     the Clang thread-safety annotations; use
                     util::annotated_mutex and the util::mutex_lock family.
  raw-condvar     -- std::condition_variable (the std::mutex-only flavor) in
                     src/. annotated_mutex is not a std::mutex, so waits
                     must go through std::condition_variable_any +
                     util::cv_mutex_lock.
  counter-diff    -- differencing two reads of a live global counter
                     (the pool's steal_count() - ..., executed_count() -
                     ...) in stat code. Live
                     counters move concurrently between the two reads;
                     snapshot once instead (the PR-6 telemetry registry
                     exists for exactly this).
  system-call     -- system( anywhere. The runner composes shell-visible
                     strings from user-controlled sweep specs; spawning a
                     shell on them is an injection waiting to happen.
  naked-new       -- `new X` outside a smart-pointer/container initializer.
                     Ownership must be visible in the type. The trace
                     recorder's chunk chain is the one audited exception
                     (suppressed inline).

A finding on a line carrying `// synts-lint: allow(<rule>)` is suppressed;
the suppression comment doubles as in-tree documentation of WHY the
exception is sound, so bare suppressions of never-firing rules are
harmless but reviewable.

Usage:
  scripts/lint_synts.py                 # lint the tree (src/ + tests/ + bench/ + tools/)
  scripts/lint_synts.py FILE...         # lint specific files
  scripts/lint_synts.py --self-test     # run the rules against scripts/lint_fixtures/

Exit status: 0 clean, 1 findings (or a fixture mismatch under --self-test).
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

SUPPRESS_RE = re.compile(r"//\s*synts-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

# Each rule: (name, compiled regex, message, path predicate).
# Predicates receive the path RELATIVE to the repo root, posix-style.


def _in_src(path: str) -> bool:
    return path.startswith("src/")


def _in_src_outside_thread_safety(path: str) -> bool:
    return path.startswith("src/") and path != "src/util/thread_safety.h"


def _anywhere(_path: str) -> bool:
    return True


RULES = [
    (
        "raw-mutex",
        re.compile(
            r"\bstd::(mutex|shared_mutex|recursive_mutex|timed_mutex|"
            r"lock_guard|unique_lock|scoped_lock|shared_lock)\b"
        ),
        "raw std:: locking primitive; use util::annotated_mutex + "
        "util::mutex_lock (src/util/thread_safety.h)",
        _in_src_outside_thread_safety,
    ),
    (
        "raw-condvar",
        # \b after "variable" keeps condition_variable_any legal.
        re.compile(r"\bstd::condition_variable\b(?!_any)"),
        "std::condition_variable only waits on std::mutex; use "
        "std::condition_variable_any + util::cv_mutex_lock",
        _in_src,
    ),
    (
        "counter-diff",
        re.compile(
            r"\b(executed_count|steal_count)\(\)\s*-"
        ),
        "differencing live counter reads races concurrent movement; "
        "snapshot once via the obs registry instead",
        _in_src,
    ),
    (
        "system-call",
        re.compile(r"\bsystem\s*\("),
        "shelling out from a tool that handles user-composed spec strings; "
        "spawn directly or restructure",
        _anywhere,
    ),
    (
        "naked-new",
        # `new X` whose result is not immediately owned: skip placement new,
        # unique_ptr/shared_ptr/make_* lines, and `operator new` mentions.
        re.compile(r"(?<![:_\w])new\s+[A-Za-z_][\w:]*\s*[({\[]"),
        "naked new; express ownership in the type (unique_ptr / container) "
        "or document + suppress the audited exception",
        _anywhere,
    ),
]

LINT_EXTENSIONS = {".h", ".hpp", ".cpp", ".cc"}
LINT_DIRS = ("src", "tests", "bench", "tools", "examples")


def default_targets() -> list[Path]:
    files: list[Path] = []
    for top in LINT_DIRS:
        root = REPO_ROOT / top
        if root.is_dir():
            files.extend(
                p for p in sorted(root.rglob("*")) if p.suffix in LINT_EXTENSIONS
            )
    return files


def suppressed_rules(line: str) -> set[str]:
    match = SUPPRESS_RE.search(line)
    if not match:
        return set()
    return {rule.strip() for rule in match.group(1).split(",")}


def owning_context(line: str, start: int) -> bool:
    """True when the `new` at `start` is directly owned by a smart pointer,
    a container emplace, or is placement new -- i.e. not naked."""
    prefix = line[:start]
    owner_re = re.compile(
        r"(unique_ptr|shared_ptr|make_unique|make_shared|reset\s*\(|"
        r"emplace\w*\s*\(|operator\s+new|placement|::new|\"|//)"
    )
    return bool(owner_re.search(prefix))


def lint_file(path: Path, rel: str) -> list[tuple[str, int, str, str]]:
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as err:
        return [("io-error", 0, str(err), rel)]
    findings = []
    in_block_comment = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        # Cheap block-comment tracking: rules document conventions, and the
        # conventions are frequently NAMED in prose comments.
        code = line
        if in_block_comment:
            end = code.find("*/")
            if end < 0:
                continue
            code = code[end + 2 :]
            in_block_comment = False
        start = code.find("/*")
        if start >= 0 and code.find("*/", start) < 0:
            in_block_comment = True
            code = code[:start]
        # Strip line comments for matching, but keep the original line for
        # suppression lookup (the suppression LIVES in the comment).
        allowed = suppressed_rules(line)
        comment = code.find("//")
        if comment >= 0:
            code = code[:comment]
        for name, pattern, message, applies in RULES:
            if not applies(rel):
                continue
            if name in allowed:
                continue
            match = pattern.search(code)
            if not match:
                continue
            if name == "naked-new" and owning_context(code, match.start()):
                continue
            findings.append((name, lineno, message, rel))
    return findings


def run_lint(paths: list[Path]) -> int:
    total = 0
    for path in paths:
        try:
            rel = path.resolve().relative_to(REPO_ROOT).as_posix()
        except ValueError:
            rel = path.as_posix()
        for name, lineno, message, shown in lint_file(path, rel):
            print(f"{shown}:{lineno}: [{name}] {message}")
            total += 1
    if total:
        print(f"lint_synts: {total} finding(s)", file=sys.stderr)
        return 1
    print("lint_synts: clean", file=sys.stderr)
    return 0


def run_self_test() -> int:
    """Each fixture declares its expected findings in `// expect:` headers;
    the clean fixture declares none and must produce none."""
    fixture_dir = REPO_ROOT / "scripts" / "lint_fixtures"
    fixtures = sorted(fixture_dir.glob("*.cpp"))
    if not fixtures:
        print(f"self-test: no fixtures in {fixture_dir}", file=sys.stderr)
        return 1
    failures = 0
    for fixture in fixtures:
        text = fixture.read_text(encoding="utf-8")
        expected = []
        for line in text.splitlines():
            match = re.match(r"//\s*expect:\s*([a-z-]+)\s+x(\d+)", line.strip())
            if match:
                expected.append((match.group(1), int(match.group(2))))
        # Fixtures emulate in-tree paths so the path predicates engage.
        pseudo_match = re.search(r"//\s*pseudo-path:\s*(\S+)", text)
        rel = pseudo_match.group(1) if pseudo_match else f"src/{fixture.name}"
        got = lint_file(fixture, rel)
        counts: dict[str, int] = {}
        for name, _lineno, _message, _rel in got:
            counts[name] = counts.get(name, 0) + 1
        want = {name: n for name, n in expected}
        if counts == want:
            print(f"self-test OK   {fixture.name}: {counts or 'clean'}")
        else:
            print(
                f"self-test FAIL {fixture.name}: expected {want or 'clean'}, "
                f"got {counts or 'clean'}"
            )
            failures += 1
    if failures:
        print(f"self-test: {failures} fixture(s) failed", file=sys.stderr)
        return 1
    print(f"self-test: {len(fixtures)} fixture(s) OK", file=sys.stderr)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="*", help="files to lint (default: the tree)")
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="check the rules against scripts/lint_fixtures/",
    )
    args = parser.parse_args()
    if args.self_test:
        return run_self_test()
    targets = [Path(f) for f in args.files] if args.files else default_targets()
    return run_lint(targets)


if __name__ == "__main__":
    sys.exit(main())
