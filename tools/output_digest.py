"""Print digests of every output of README's command block and of the scenarios.

Usage, with the checkout under test on ``PYTHONPATH``:

    PYTHONPATH=src python3 tools/output_digest.py > digest.txt

In a fresh temporary directory it runs each ``gwxlab`` line of README.md's
``sh`` blocks in order, then every scenario at ``--trials 3 --seed 5``.
Each command gets one line with its exit code and the sha256 of its
standard output; after the README block and after each scenario come
the sha256 of every file written so far, by path relative to the
temporary directory.  Two checkouts write the same bytes when their
digests ``diff`` clean; run it under ``taskset`` to fix the CPU count.
"""

from __future__ import annotations

import hashlib
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# runs the gwxlab that PYTHONPATH selects, with its entries made absolute
# since the commands run in another directory
GWXLAB = [sys.executable, "-c", "import sys; from gwxlab.cli import main; sys.exit(main())"]
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    os.path.abspath(p) for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p)}


def readme_commands() -> list[list[str]]:
    """Each ``gwxlab`` line of README.md's ``sh`` blocks, continuations joined."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["gwxlab"]:
                commands.append(words[1:])
    return commands


def scenario_names() -> list[str]:
    code = "from gwxlab.scenarios import SCENARIO_NAMES; print(*SCENARIO_NAMES)"
    return subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True,
                          text=True, check=True).stdout.split()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list[str], cwd: str) -> None:
    proc = subprocess.run([*GWXLAB, *argv], cwd=cwd, env=ENV, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL)
    print(f"gwxlab {shlex.join(argv)}: exit {proc.returncode}, stdout {sha256(proc.stdout)}")


def files(cwd: str, seen: set[str]) -> None:
    """Print the digest of each file under ``cwd`` not printed before."""
    for parent, dirs, names in os.walk(cwd):
        dirs.sort()
        for name in sorted(names):
            path = os.path.join(parent, name)
            rel = os.path.relpath(path, cwd)
            if rel not in seen:
                seen.add(rel)
                with open(path, "rb") as fh:
                    print(f"    {rel} {sha256(fh.read())}")


def main() -> int:
    cwd = tempfile.mkdtemp(prefix="gwxlab-digest-")
    seen: set[str] = set()
    try:
        for argv in readme_commands():
            run(argv, cwd)
        files(cwd, seen)
        for name in scenario_names():
            run(["scenario", "run", name, "--trials", "3", "--seed", "5",
                 "--out", "scenarios"], cwd)
            files(cwd, seen)
    finally:
        shutil.rmtree(cwd)
    return 0


if __name__ == "__main__":
    sys.exit(main())
