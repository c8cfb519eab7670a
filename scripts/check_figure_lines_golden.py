#!/usr/bin/env python3
"""Golden gate on the figure benches' printed lines: runs each bench in
BENCHES from BUILD_DIR (each in its own temporary working directory, since
some write CSVs there), drops every line whose first word is "runtime:"
(wall time and worker count), and compares the SHA-256 of the remaining
stdout with the recorded digest. A change that moves one printed figure,
table or claim line of any of these benches fails here.

Usage:
  scripts/check_figure_lines_golden.py BUILD_DIR REFERENCE_JSON [--record]

--record writes REFERENCE_JSON from the current build instead of checking;
record on the parent commit, never on the change under test.

Exit 0 when every bench matches (or after recording), 1 on any difference
or bench failure (each one listed), 2 on bad usage.
"""

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

BENCHES = [
    "bench_fig1_2",
    "bench_fig3_5",
    "bench_fig3_6",
    "bench_fig6_11_to_6_16",
    "bench_fig6_17",
    "bench_fig6_18",
    "bench_table5_1",
    "bench_sec6_3",
    "bench_ablation_nsamp",
]


def science_lines(stdout):
    """The printed lines minus the volatile runtime: lines."""
    return [line for line in stdout.splitlines()
            if not line.lstrip().startswith("runtime:")]


def run_bench(binary):
    """(digest, line count) of one bench's science lines, or an error string."""
    if not binary.is_file():
        return None, "not built"
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run([str(binary)], cwd=tmp, capture_output=True, text=True)
    if proc.returncode != 0:
        return None, f"exited {proc.returncode}"
    lines = science_lines(proc.stdout)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return {"sha256": digest, "lines": len(lines)}, None


def main(argv):
    args = [a for a in argv[1:] if a != "--record"]
    record = len(args) != len(argv) - 1
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    build, reference_path = Path(args[0]).resolve(), Path(args[1])

    got, problems = {}, []
    for bench in BENCHES:
        entry, error = run_bench(build / bench)
        if error:
            problems.append(f"{bench}: {error}")
        else:
            got[bench] = entry

    if record and not problems:
        reference_path.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n")
        print(f"recorded {len(got)} benches into {reference_path}")
        return 0
    if not record:
        reference = json.loads(reference_path.read_text())
        for bench in sorted(reference.keys() | got.keys()):
            if bench not in reference:
                problems.append(f"{bench}: not in the reference")
            elif bench in got and got[bench] != reference[bench]:
                problems.append(f"{bench}: printed lines differ "
                                f"({got[bench]['lines']} lines now, "
                                f"{reference[bench]['lines']} recorded)")
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"figure bench lines match {reference_path.name}: {len(got)} benches")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
