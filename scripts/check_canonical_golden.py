#!/usr/bin/env python3
"""Golden gate on the canonical sweep: runs

    synts_runner --benchmarks=reported --ladder=LADDER --seed=42 --json=...

drops the sweep JSON's "meta" line, hashes every cell line (SHA-256) and the
remaining non-cell lines, and compares them with the recorded per-cell
digests (read only). Any kernel, scheduler or policy change that moves one
byte of one cell fails here.

Ladders:
  default  the runner's 13-rung ladder; reference
           perfbench/reference/canonical_seed42.json
  dense    2^(e/8) for e = -48..48, 97 rungs, passed as Python repr()
           literals so each multiplier round-trips exactly; reference
           perfbench/reference/warm_eval_seed42.json

Usage:
  scripts/check_canonical_golden.py RUNNER REFERENCE_JSON [--ladder=default|dense]
                                    [--workers=N]

Exit 0 when every cell matches, 1 on any difference (each one listed), 2 on
bad usage.
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


# The ladder the warm_eval reference was recorded with (perfbench's dense
# ladder: the default ladder's 2^-6..2^6 range at an eighth of its step).
LADDERS = {
    "default": "default",
    "dense": ",".join(repr(2.0 ** (e / 8)) for e in range(-48, 49)),
}


def main(argv):
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    runner, reference_path = argv[1], Path(argv[2])
    workers = [a for a in argv[3:] if a.startswith("--workers=")]
    ladders = [a.split("=", 1)[1] for a in argv[3:] if a.startswith("--ladder=")]
    ladder = ladders[-1] if ladders else "default"
    if ladder not in LADDERS:
        print(f"unknown ladder {ladder!r}\n{__doc__}", file=sys.stderr)
        return 2
    reference = json.loads(reference_path.read_text())
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "canonical.json"
        cmd = [runner, "--benchmarks=reported", f"--ladder={LADDERS[ladder]}",
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
    print(f"canonical sweep ({ladder} ladder) matches {reference_path.name}: "
          f"{len(cells)} cells")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
