"""Check the CLI's table parser against argparse over a fixed corpus of argvs.

``foliage_link.cli`` parses a canonical argv (``SUBCOMMAND (--flag value)*``)
from a table built off its argparse declaration and hands everything else to
``argparse``. argparse's internals differ between Python versions, so run this
under each supported one; it needs only the standard library:

    PYTHONPATH=src python tests/argv_check.py

The corpus is every argv of ``tests/render_digest.py`` (with the ``--format``
and ``--out`` it adds), every ``foliage-link`` command in the README's CLI
section, every argv literal in ``demos/``, and ``MALFORMED``, argvs the table
must hand to argparse. Wherever the table accepts an argv, argparse must
accept it too and give an equal ``Namespace``. It prints the accepted and
declined counts per source and exits 1 on any mismatch.
"""

import ast
import contextlib
import io
import random
import shlex
import sys
from pathlib import Path

from foliage_link import cli

ROOT = Path(__file__).resolve().parents[1]

#: argvs that are not canonical, or that argparse refuses
MALFORMED = [
    ["loss", "--d-km", "2", "--f-mhz"],  # an odd token count
    ["fly", "--d-km", "2"],  # an unknown subcommand
    ["los", "--d-km", "2", "--delta", "0", "--f-mhz", "2400"],  # an abbreviated subcommand
    ["loss", "-h", "x"],
    ["loss", "--help", "x"],
    ["loss", "--d-k", "2", "--delta", "0", "--f-mhz", "2400"],  # an abbreviated flag
    ["loss", "--d-km=2", "--delta=0", "--f-mhz", "2400"],
    ["loss", "--d-km", "2", "--delta", "0", "--f-mhz", "2400", "--", "x"],
    ["loss", "--d-km", "2", "--delta", "0", "--f-mhz", "--", "--out", "x"],
    ["loss", "--d-km", "2", "--delta", "-1e-05", "--f-mhz", "2400"],  # not argparse's negative number
    ["loss", "--d-km", "2", "--delta", "0", "--f-mhz", "2400", "--out", "-o"],
    ["loss", "--d-km", "2", "--delta", "0", "--f-mhz", "2400", "--out", "-"],
    ["loss", "--d-km", "two", "--delta", "0", "--f-mhz", "2400"],  # a type error
    ["loss", "--d-km", "2", "--delta", "0", "--f-mhz", "nan"],
    ["loss", "--d-km", "2", "--delta", "0", "--f-mhz", "inf"],
    ["sweep", "--var", "delta", "--start", "0", "--stop", "1", "--steps", "2.5"],
    ["loss", "--d-km", "2", "--delta", "0", "--f-mhz", "2400", "--format", "xml"],  # a bad choice
    ["budget", "--solve", "time", "--tx-dbm", "14", "--sensitivity-dbm", "-137", "--f-mhz", "868"],
    ["loss", "--d-km", "2", "--delta", "0"],  # a required flag missing
    ["budget", "--solve", "range", "--tx-dbm", "14", "--f-mhz", "868", "--delta", "0.5"],
    ["scenario", "--format", "csv"],
]


def readme_argvs() -> list[list[str]]:
    """Every ``foliage-link`` command in the README's CLI section, without the program name."""
    text = ROOT.joinpath("README.md").read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    commands = section.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in commands if line.startswith("foliage-link ")]


def demo_argvs() -> list[list[str]]:
    """Every list of string literals in ``demos/`` that starts with a subcommand name."""
    commands = set(cli._option_tables())
    found = []
    for path in sorted(ROOT.joinpath("demos").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.List) and node.elts and all(
                    isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts):
                argv = [e.value for e in node.elts]
                if argv[0] in commands:
                    found.append(argv)
    return found


def digest_argvs() -> list[list[str]]:
    """The argvs ``tests/render_digest.py`` runs, each in both formats it runs them in."""
    sys.path.insert(0, str(ROOT / "tests"))
    import render_digest

    found = []
    for _, argv in render_digest._cases(random.Random(20261018), 20_000):
        argv = argv or ["scenario", "--file", "scenario.json"]
        found += [[*argv, "--format", fmt, "--out", "out"] for fmt in ("csv", "json")]
    return found


def argparse_namespace(argv: list[str]):
    """``argparse``'s own parse of ``argv``, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli._parser().parse_args(argv)
        except SystemExit:
            return None


def check(argvs: list[list[str]]) -> tuple[int, int, list[list[str]]]:
    """Accepted count, declined count and the accepted argvs argparse disagrees with."""
    accepted, mismatched = 0, []
    for argv in argvs:
        fast = cli._fast_parse(argv)
        if fast is not None:
            accepted += 1
            reference = argparse_namespace(argv)
            if reference is None or vars(reference) != vars(fast):
                mismatched.append(argv)
    return accepted, len(argvs) - accepted, mismatched


def main() -> int:
    sources = {"render_digest": digest_argvs(), "README": readme_argvs(),
               "demos": demo_argvs(), "malformed": MALFORMED}
    failed = False
    print(f"python {sys.version.split()[0]}")
    for name, argvs in sources.items():
        accepted, declined, mismatched = check(argvs)
        print(f"{name:14} {accepted:3} accepted {declined:3} declined {len(mismatched)} mismatched")
        for argv in mismatched:
            print(f"  mismatch: {argv}")
        failed |= bool(mismatched)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
