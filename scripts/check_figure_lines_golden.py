#!/usr/bin/env python3
"""Golden gate on the paper-claims program's printed lines: runs
BUILD_DIR/bench_paper_claims once, in a temporary working directory (the
bench_fig6_11_to_6_16 section writes its CSVs there), splits stdout at the
"section: bench_<name>" marker lines (not hashed), drops every line whose
first word is "runtime:" (wall times, worker count, cache traffic, solver
latency), and compares the SHA-256 of each section's remaining lines with
the entry of the same name in REFERENCE_JSON. A change that moves one
printed figure, table or claim line of any section fails here, and so does
a missing, unrecorded or repeated section, or a non-zero exit (the program
exits 1 when a paper-direction claim fails).

Usage:
  scripts/check_figure_lines_golden.py BUILD_DIR REFERENCE_JSON [--record]
  scripts/check_figure_lines_golden.py --self-test

--record writes REFERENCE_JSON from the current build instead of checking;
record on the parent commit, never on the change under test. --self-test
runs the splitter and the comparison on inline synthetic output.

Exit 0 when every section matches (or after recording, or when the self-test
passes), 1 on any difference or failure (each one listed), 2 on bad usage.
"""

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

BINARY = "bench_paper_claims"
MARKER = "section: "


def split_sections(stdout):
    """({section name: digest entry}, problems) of one run's stdout."""
    sections, problems, current = {}, [], None
    for line in stdout.splitlines():
        if line.startswith(MARKER):
            current = line[len(MARKER):].strip()
            if current in sections:
                problems.append(f"{current}: printed more than once")
            sections[current] = []
        elif line.lstrip().startswith("runtime:"):
            continue
        elif current is None:
            problems.append(f"output before the first section: {line!r}")
        else:
            sections[current].append(line)
    entries = {name: {"sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
                      "lines": len(lines)}
               for name, lines in sections.items()}
    return entries, problems


def check_output(returncode, stdout, reference):
    """Every problem of one run against the reference digests."""
    got, problems = split_sections(stdout)
    if returncode != 0:
        problems.append(f"{BINARY} exited {returncode}")
    for name in sorted(reference.keys() | got.keys()):
        if name not in got:
            problems.append(f"{name}: not printed")
        elif name not in reference:
            problems.append(f"{name}: not in the reference")
        elif got[name] != reference[name]:
            problems.append(f"{name}: printed lines differ "
                            f"({got[name]['lines']} lines now, "
                            f"{reference[name]['lines']} recorded)")
    return problems


def self_test():
    """Each synthetic case must pass or fail as its name says."""
    good = ("section: bench_a\nbanner\n  runtime: 0.10 s\nclaim: yes\n"
            "section: bench_b\n\nvalue 1\nruntime: 16 sections in 0.20 s\n")
    reference, split_problems = split_sections(good)
    assert not split_problems and len(reference) == 2
    cases = [
        ("identical output", 0, good, True),
        ("differing runtime: line", 0, good.replace("0.10 s", "9.99 s"), True),
        ("differing science line", 0, good.replace("value 1", "value 2"), False),
        ("missing section", 0, good.split("section: bench_b")[0], False),
        ("section absent from the reference", 0, good + "section: bench_c\nx\n", False),
        ("repeated section", 0, good + "section: bench_a\nbanner\nclaim: yes\n", False),
        ("output before the first section", 0, "stray\n" + good, False),
        ("non-zero exit", 1, good, False),
    ]
    failures = 0
    for name, returncode, stdout, should_pass in cases:
        problems = check_output(returncode, stdout, reference)
        if (not problems) == should_pass:
            print(f"self-test OK   {name}")
        else:
            print(f"self-test FAIL {name}: expected {'pass' if should_pass else 'fail'}, "
                  f"got {problems or 'pass'}")
            failures += 1
    if failures:
        print(f"self-test: {failures} case(s) failed", file=sys.stderr)
        return 1
    print(f"self-test: {len(cases)} case(s) OK", file=sys.stderr)
    return 0


def main(argv):
    if argv[1:] == ["--self-test"]:
        return self_test()
    args = [a for a in argv[1:] if a != "--record"]
    record = len(args) != len(argv) - 1
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    binary, reference_path = Path(args[0]).resolve() / BINARY, Path(args[1])
    if not binary.is_file():
        print(f"FAIL: {binary} not built", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run([str(binary)], cwd=tmp, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)

    if record:
        got, problems = split_sections(proc.stdout)
        if proc.returncode != 0:
            problems.append(f"{BINARY} exited {proc.returncode}")
        if not problems:
            reference_path.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n")
            print(f"recorded {len(got)} sections into {reference_path}")
            return 0
    else:
        reference = json.loads(reference_path.read_text())
        problems = check_output(proc.returncode, proc.stdout, reference)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"{BINARY} lines match {reference_path.name}: {len(reference)} sections")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
