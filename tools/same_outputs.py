"""Compare the CLI outputs of two checkouts: ``python tools/same_outputs.py
OLD NEW``. Each call below runs as ``python -m combtn.cli ...`` with the
checkout's ``src`` on ``PYTHONPATH``, one call at a time. One line is
printed per call, "same" or "DIFFERS"; the exit status is 1 when any call's
stdout or exit status differs between the two. Standard library only.
"""

import os
import subprocess
import sys
from pathlib import Path

SMALL = "--teeth 5 --tooth-len 3 --dim-raw 6 --dim-comp 3 --bond 4"
REFERENCE = "--teeth 50 --tooth-len 5 --dim-raw 100 --dim-comp 30 --bond"
CALLS = ["verify --grid full --seed 42"] + [
    f"contract --json --kind {kind} {dims}"
    for kind in ("mps", "comb")
    for dims in (SMALL, f"{SMALL} --orthonormal-u", f"{REFERENCE} 10", f"{REFERENCE} 64")]


def run(checkout: Path, call: str) -> tuple[int, bytes]:
    env = {**os.environ, "PYTHONPATH": str(checkout.resolve() / "src")}
    done = subprocess.run([sys.executable, "-m", "combtn.cli", *call.split()],
                          cwd=checkout, env=env, capture_output=True)
    return done.returncode, done.stdout


def main(old: str, new: str) -> int:
    differs = 0
    for call in CALLS:
        same = run(Path(old), call) == run(Path(new), call)
        differs += not same
        print(f"{'same' if same else 'DIFFERS':8s}{call}", flush=True)
    return 1 if differs else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
