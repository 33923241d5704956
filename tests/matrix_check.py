"""Run the standard-library checks under several Pythons and print any output that differs.

    python tests/matrix_check.py [--pytest DIR] PYTHON...

Under each interpreter given, and under the one running this script, it
runs ``tests/render_digest.py 2000``, ``tests/solver_digest.py 2000``,
``tests/argv_check.py`` and every script in ``demos/``, each in a fresh
temporary working directory with ``src`` on ``PYTHONPATH``. Each run's exit
code, stdout and stderr are compared with the running interpreter's, less
the line where ``argv_check.py`` names its Python version. It prints one
line per interpreter and a diff for each run that differs, and exits 1 if
any run differs. It is not a tier-1 test: it needs the other interpreters.

With ``--pytest DIR`` it also runs ``python -m pytest -q tests`` from the
repository root under each interpreter, with ``src`` and ``DIR`` on
``PYTHONPATH``, and prints the passed, failed and error counts. ``DIR``
holds what an interpreter lacks to run the suite, such as pytest and
hypothesis. The counts are reported, not compared: they leave the exit
code as the digest runs set it.
"""

import argparse
import difflib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: (script and its arguments, leading stdout lines that name the interpreter)
RUNS = [
    (["tests/render_digest.py", "2000"], 0),
    (["tests/solver_digest.py", "2000"], 0),
    (["tests/argv_check.py"], 1),
    *(([f"demos/{path.name}"], 0) for path in sorted(ROOT.joinpath("demos").glob("*.py"))),
]


def outputs(python: str) -> dict[str, str]:
    """Each run's exit code, stdout and stderr under ``python``, keyed by its command line."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    found = {}
    for (script, *args), skip in RUNS:
        with tempfile.TemporaryDirectory() as cwd:
            result = subprocess.run([python, str(ROOT / script), *args], cwd=cwd, env=env,
                                    capture_output=True, text=True, timeout=600)
        stdout = "".join(result.stdout.splitlines(keepends=True)[skip:])
        found[" ".join([script, *args])] = (
            f"exit {result.returncode}\n--- stdout\n{stdout}--- stderr\n{result.stderr}"
        )
    return found


def version(python: str) -> str:
    command = [python, "-c", "import platform; print(platform.python_version())"]
    return subprocess.run(command, capture_output=True, text=True, check=True).stdout.strip()


def pytest_counts(python: str, path: str) -> str:
    """The last line of ``python -m pytest -q tests`` with ``path`` on ``PYTHONPATH``, as counts."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), path]))
    command = [python, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests"]
    result = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                            timeout=3600)
    lines = result.stdout.splitlines() or result.stderr.splitlines() or [""]
    counts = dict.fromkeys(("passed", "failed", "error"), 0)
    for number, kind in re.findall(r"(\d+) (passed|failed|error)", lines[-1]):
        counts[kind] = int(number)
    if not any(counts.values()):
        return f"pytest did not run (exit {result.returncode}): {lines[-1]}"
    return f"pytest: {counts['passed']} passed, {counts['failed']} failed, {counts['error']} errors"


def main(pythons: list[str], pytest_path: str | None = None) -> int:
    reference = outputs(sys.executable)
    print(f"python {version(sys.executable)} ({sys.executable}): reference, {len(RUNS)} runs")
    if pytest_path is not None:
        print(f"  {pytest_counts(sys.executable, pytest_path)}")
    differ = 0
    for python in pythons:
        found = outputs(python)
        changed = [run for run in reference if found[run] != reference[run]]
        differ += len(changed)
        print(f"python {version(python)} ({python}): {len(changed)} of {len(RUNS)} runs differ")
        if pytest_path is not None:
            print(f"  {pytest_counts(python, pytest_path)}")
        for run in changed:
            print(f"  {run}:")
            diff = difflib.unified_diff(reference[run].splitlines(), found[run].splitlines(),
                                        sys.executable, python, lineterm="")
            print("\n".join(f"    {line}" for line in diff))
    return int(differ > 0)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Compare the stdlib checks across Pythons.")
    parser.add_argument("--pytest", metavar="DIR",
                        help="also run pytest tests with DIR on PYTHONPATH and print its counts")
    parser.add_argument("pythons", nargs="*", metavar="PYTHON")
    args = parser.parse_args()
    sys.exit(main(args.pythons, args.pytest))
