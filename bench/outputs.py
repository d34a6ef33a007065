"""Digest the CLI's output over a fixed grid of argv, and compare two trees.

Run from the repository root:

    python3 bench/outputs.py [--base TREE]

For this tree, and first for TREE when given (a git checkout of another
commit), one fresh interpreter imports the package from the tree's ``src/``
and runs every argv of ``grid()`` through ``cli.run`` in process, capturing
stdout and stderr.  The script prints each tree's commit and, per command,
the argv count and one sha256 over the (argv, exit code, stdout, stderr) of
its argv in order.  With ``--base`` it exits 1 when any command's digest
differs, naming the first argv whose output differs, and 2 when TREE has
no ``src/schur_isotropy``.

The grid, each argv with and without ``--json``: ``decide``, ``min-n``,
``dim``, ``check-lemma36`` and ``proof-chain`` on every shape of size <= 6
(the empty one included) and on EXTRA_SHAPES, at 1 <= k <= 7 and
0 <= n <= 12 (usage and domain errors included); ``decide`` and ``min-n``
on LONG_SHAPES, whose dimension is Weyl's product over a long first row,
at 1 <= k <= 3 and, for ``decide``, at the n of LONG_NS, which straddle
their thresholds; ``oracle`` on every shape
of size <= 4 at 1 <= k <= 4, k <= n <= 8; ``self-check``; and two ``sweep``
windows, one with the oracle.  It is a dev script, not a test: pytest
collects only ``tests/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXTRA_SHAPES = tuple((1,) * h for h in range(7, 11)) + (
    (8,), (12,), (40,), (3, 3, 3), (5, 5, 5))
LONG_SHAPES = ((2000, 2), (300, 200, 1))
LONG_NS = (5, 1001, 1002, 1013369, 1013370, 2001001, 2001002)
SWEEPS = (("5", "5", "9", "--with-oracle"), ("6", "6", "12"))


def grid() -> dict[str, list[list[str]]]:
    """{command: its argv in order}, from the package on sys.path."""
    from schur_isotropy.partitions import partitions_up_to

    commands: dict[str, list[list[str]]] = {
        name: [] for name in ("decide", "min-n", "dim", "check-lemma36",
                              "proof-chain", "oracle", "self-check", "sweep")}
    shapes = list(partitions_up_to(6))
    for output in ([], ["--json"]):
        for shape in shapes + list(EXTRA_SHAPES):
            lam = ["--lambda", ",".join(map(str, shape))]
            for n in range(13):
                commands["dim"].append(["dim", *lam, "--n", str(n), *output])
            for k in range(1, 8):
                commands["min-n"].append(["min-n", *lam, "--k", str(k), *output])
                for n in range(13):
                    for name in ("decide", "check-lemma36", "proof-chain"):
                        commands[name].append(
                            [name, *lam, "--k", str(k), "--n", str(n), *output])
        for shape in LONG_SHAPES:
            lam = ["--lambda", ",".join(map(str, shape))]
            for k in range(1, 4):
                commands["min-n"].append(["min-n", *lam, "--k", str(k), *output])
                for n in LONG_NS:
                    commands["decide"].append(
                        ["decide", *lam, "--k", str(k), "--n", str(n), *output])
        for shape in (s for s in shapes if sum(s) <= 4):
            lam = ["--lambda", ",".join(map(str, shape))]
            for k in range(1, 5):
                for n in range(k, 9):
                    commands["oracle"].append(
                        ["oracle", *lam, "--k", str(k), "--n", str(n), *output])
        commands["self-check"].append(["self-check", *output])
        for size, k, n, *flags in SWEEPS:
            commands["sweep"].append(["sweep", "--max-size", size, "--max-k", k,
                                      "--max-n", n, *flags, *output])
    return commands


def digest_here() -> dict:
    """{"commands": {command: [argv count, sha256]}, "argv": [[argv, sha256]]}
    for the package on sys.path."""
    from schur_isotropy.cli import run

    commands, each = {}, []
    for name, argvs in grid().items():
        total = hashlib.sha256()
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
            record = json.dumps([argv, code, out.getvalue(), err.getvalue()])
            record = (record + "\n").encode()
            total.update(record)
            each.append([argv, hashlib.sha256(record).hexdigest()])
        commands[name] = [len(argvs), total.hexdigest()]
    return {"commands": commands, "argv": each}


def digest_tree(tree: Path) -> dict:
    """digest_here run in a fresh interpreter on the tree's ``src/``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    script = str(Path(__file__).resolve())
    done = subprocess.run([sys.executable, script, "--child"], cwd=tree, env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def commit_of(tree: Path) -> str:
    """HEAD of the tree's checkout, marked when tracked files differ from it."""
    head = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"],
                          capture_output=True, text=True).stdout.strip()
    dirty = subprocess.run(["git", "-C", str(tree), "diff", "--quiet", "HEAD"],
                           capture_output=True).returncode
    return (head or "unknown") + (" + uncommitted changes" if dirty else "")


def show(tree: Path, digests: dict) -> None:
    print(f"{tree}: {commit_of(tree)}")
    for name, (count, sha) in digests["commands"].items():
        print(f"  {name:<14} {count:>6} argv  {sha}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", type=Path, help="a checkout to compare against")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(digest_here()))
        return 0
    base = args.base.resolve() if args.base else None
    if base is not None and not (base / "src" / "schur_isotropy").is_dir():
        print(f"--base {base} has no src/schur_isotropy", file=sys.stderr)
        return 2
    theirs = digest_tree(base) if base is not None else None
    ours = digest_tree(ROOT)
    if theirs is not None:
        show(base, theirs)
    show(ROOT, ours)
    if theirs is None:
        return 0
    if theirs["commands"] == ours["commands"]:
        print("identical: every command's digest equals the base's")
        return 0
    for (argv, mine), (_, other) in zip(ours["argv"], theirs["argv"]):
        if mine != other:
            print(f"differs: first at {' '.join(argv)}")
            break
    else:
        print("differs: the grids differ in length")
    return 1


if __name__ == "__main__":
    sys.exit(main())
