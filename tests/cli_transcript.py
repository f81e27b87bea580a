"""The CLI transcript, ``cli_transcript.json``, and its one runner.

Each entry pins one command: its ``argv``, its input ``files`` (name ->
text), its ``exit`` code, the sha256 of its ``stdout`` and of every
file it writes (``emitted``, name -> sha256; absent when it writes none),
a ``stderr`` prefix and the number of ``stderr_lines``.  A one-line
prefix ending in a newline, with one line, is the whole stderr.  ``why``
says what the entry stands for; the runner does not read it.  An
argument or a file's text is a string, or a list of ``[text, count]``
pieces for one built from long repeats.

tests/test_cli.py checks every entry in-process through ``cli.run``;
the CI workflow checks them through the installed ``magicstar`` console
script.  Both hand ``check`` an ``invoke(argv, cwd) -> (exit code,
stdout bytes, stderr bytes)``.
"""

import hashlib
import json
import tempfile
from pathlib import Path


def load_entries() -> list:
    return json.loads(Path(__file__).with_name("cli_transcript.json").read_text(encoding="utf-8"))


def _text(value) -> str:
    return value if isinstance(value, str) else "".join(piece * count for piece, count in value)


def entry_id(entry) -> str:
    """The argv joined by spaces, a repeated piece written piece{count}."""
    return " ".join(
        arg if isinstance(arg, str) else "".join(p if k == 1 else "%s{%d}" % (p, k) for p, k in arg)
        for arg in entry["argv"]
    )


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check(entry, invoke) -> None:
    """Run ``entry`` through ``invoke`` with a fresh temporary directory,
    holding only its input files, as cwd.  Raise AssertionError at the
    first difference from the transcript."""
    files = entry.get("files", {})
    with tempfile.TemporaryDirectory() as tmp:
        cwd = Path(tmp)
        for name, text in files.items():
            (cwd / name).write_bytes(_text(text).encode())
        code, out, err = invoke([_text(arg) for arg in entry["argv"]], str(cwd))
        emitted = {
            path.relative_to(cwd).as_posix(): _sha256(path.read_bytes())
            for path in sorted(cwd.rglob("*"))
            if path.is_file() and path.relative_to(cwd).as_posix() not in files
        }
    expected = entry.get("emitted", {})
    prefix = entry["stderr"].encode()
    lines = len(err.splitlines())
    # raised, not asserted, so that the check holds under python -O too
    if code != entry["exit"]:
        raise AssertionError("exit %d, expected %d; stderr %r" % (code, entry["exit"], err[:300]))
    if _sha256(out) != entry["stdout"]:
        raise AssertionError("stdout sha256 %s, expected %s; stdout starts %r" % (
            _sha256(out), entry["stdout"], out[:300]))
    if emitted != expected:
        raise AssertionError("emitted %s, expected %s" % (emitted, expected))
    if not err.startswith(prefix):
        raise AssertionError("stderr %r does not start with %r" % (err[:300], prefix))
    if lines != entry["stderr_lines"]:
        raise AssertionError("stderr has %d lines, expected %d: %r" % (lines, entry["stderr_lines"], err[:300]))
