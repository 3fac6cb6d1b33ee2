"""Helpers of the golden digest tests (``test_golden.py``,
``test_scenario_golden.py``, ``test_demos_golden.py``).

Run one of those files as a script (``python tests/test_golden.py``) to
print its digest tables recomputed, in the layout of the file: pasting them
over the old tables re-records them, and the diff shows which entries
moved.
"""

import contextlib
import hashlib
import io

from qkdsim.cli import main


def cli_digest(argv) -> str:
    """SHA-256 of ``qkdsim`` run in-process on argv: exit code, stdout and
    stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    blob = f"{code}\n{out.getvalue()}\n--stderr--\n{err.getvalue()}"
    return hashlib.sha256(blob.encode()).hexdigest()


def print_table(name: str, digests: dict) -> None:
    """Print ``name = {...}``, an entry on one line when it fits in 79
    columns and over two otherwise."""
    print(f"{name} = {{")
    for key, digest in digests.items():
        line = f'    "{key}": "{digest}",'
        print(line if len(line) <= 79 else f'    "{key}":\n        "{digest}",')
    print("}")
