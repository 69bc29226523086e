"""Print digests of the help texts, of every output of README's command block
and of the scenarios.

Usage, with the checkout under test on ``PYTHONPATH``:

    PYTHONPATH=src python3 tools/output_digest.py > digest.txt

In a fresh temporary directory it runs ``gwxlab --help`` and each
subcommand's ``--help`` at ``COLUMNS=80``, each ``gwxlab`` line of
README.md's ``sh`` blocks in order, then every scenario at ``--trials 3
--seed 5``, then ``EXTRA_SCENARIOS`` and ``EXTRA_COMMANDS``, which reach
paths that no README line or default scenario runs.
Each command gets one line with its exit code and the sha256 of its
standard output; after the README block and after each scenario come
the sha256 of every file written so far, by path relative to the
temporary directory.  Two checkouts write the same bytes when their
digests ``diff`` clean; run it under ``taskset`` to fix the CPU count.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# runs the gwxlab that PYTHONPATH selects, with its entries made absolute
# since the commands run in another directory; argparse wraps help text
# at COLUMNS
GWXLAB = [sys.executable, "-c", "import sys; from gwxlab.cli import main; sys.exit(main())"]
ENV = {**os.environ, "COLUMNS": "80", "PYTHONPATH": os.pathsep.join(
    os.path.abspath(p) for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p)}
# (scenario, options) runs and one README-strain command: the dense scan
# grid (the default hop of 1 s keeps 60 windows), the cyclic-prefix
# filter with 4 chi-squared bands, and the running median over the full
# model grid
EXTRA_SCENARIOS = [
    ("running-baseline", {"hop": 0.01}),
    ("mf-sine-misfire", {"mf_mode": "cyclic_prefix", "chi2_bins": 4}),
]
EXTRA_COMMANDS = [
    ["whiten", "--strain", "run/injected.gwx", "--psd", "model", "--whiten", "localized",
     "--name", "whitened-model.gwx", "--out", "run"],
]


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


def _names(code: str) -> list[str]:
    return subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True,
                          text=True, check=True).stdout.split()


def subcommand_names() -> list[str]:
    return _names("import argparse; from gwxlab.cli import build_parser; "
                  "print(*next(a.choices for a in build_parser()._actions "
                  "if isinstance(a, argparse._SubParsersAction)))")


def scenario_names() -> list[str]:
    return _names("from gwxlab.scenarios import SCENARIO_NAMES; print(*SCENARIO_NAMES)")


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
        for argv in [["--help"], *([name, "--help"] for name in subcommand_names())]:
            run(argv, cwd)
        for argv in readme_commands():
            run(argv, cwd)
        files(cwd, seen)
        for name in scenario_names():
            run(["scenario", "run", name, "--trials", "3", "--seed", "5",
                 "--out", "scenarios"], cwd)
            files(cwd, seen)
        for k, (name, options) in enumerate(EXTRA_SCENARIOS):
            config = f"options-{k}.json"
            with open(os.path.join(cwd, config), "w", encoding="utf-8") as fh:
                json.dump({"options": options}, fh)
            run(["scenario", "run", name, "--trials", "3", "--seed", "5",
                 "--config", config, "--out", f"options-{k}"], cwd)
            files(cwd, seen)
        for argv in EXTRA_COMMANDS:
            run(argv, cwd)
        files(cwd, seen)
    finally:
        shutil.rmtree(cwd)
    return 0


if __name__ == "__main__":
    sys.exit(main())
