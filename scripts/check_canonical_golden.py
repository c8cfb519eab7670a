#!/usr/bin/env python3
"""Golden gate on the canonical sweep: runs

    synts_runner --benchmarks=reported --ladder=default --seed=42 --json=...

drops the sweep JSON's "meta" line, hashes every cell line (SHA-256) and the
remaining non-cell lines, and compares them with the recorded per-cell
digests (perfbench/reference/canonical_seed42.json, read only). Any kernel,
scheduler or policy change that moves one byte of one cell fails here.

Usage:
  scripts/check_canonical_golden.py RUNNER REFERENCE_JSON [--workers=N]

Exit 0 when every cell matches, 1 on any difference (each one listed).
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

# The digest the reference was recorded with (perfbench/run.py, imported
# read only -- no bytecode is written there), so the gate and the
# benchmark cannot drift apart.
sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from run import digest_doc  # noqa: E402


def main(argv):
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    runner, reference_path = argv[1], Path(argv[2])
    workers = [a for a in argv[3:] if a.startswith("--workers=")]
    reference = json.loads(reference_path.read_text())
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "canonical.json"
        cmd = [runner, "--benchmarks=reported", "--ladder=default",
               f"--seed={reference['seed']}", f"--json={out}", *workers]
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
        if proc.returncode != 0:
            print(f"FAIL: synts_runner exited {proc.returncode}", file=sys.stderr)
            return 1
        got = digest_doc(out.read_text())
    header, cells = got["header"], got["cells"]

    problems = []
    if header != reference["header"]:
        problems.append("non-cell lines (config, spec digest, ladder) differ")
    for key in sorted(reference["cells"].keys() | cells.keys()):
        if key not in cells:
            problems.append(f"{key}: missing")
        elif key not in reference["cells"]:
            problems.append(f"{key}: not in the reference")
        elif cells[key] != reference["cells"][key]:
            problems.append(f"{key}: bytes differ")
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"canonical sweep matches {reference_path.name}: {len(cells)} cells")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
