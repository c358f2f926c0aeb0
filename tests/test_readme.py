"""The examples in README.md, run as written.

Each `$ qweier ...` line of a shell block goes through cli_dispatch from
the repository root, and the lines shown under it must be its output; a
block whose last shown line is `...` shows a prefix of the output.  In
the library example, a comment that holds a Python literal gives the value
of the expression on its line, or, on a line of its own, of the targets
assigned just above it.  Every backticked Python name the prose mentions
must exist.
"""

import ast
import builtins
import importlib
import io
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import qweier
from qweier.cli import cli_dispatch

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _blocks(language):
    return re.findall(r"^```%s\n(.*?)^```" % language, README, re.S | re.M)


def _cli_examples():
    """(argv, shown lines) for every `$ qweier` line of the shell blocks."""
    examples = []
    for block in _blocks("sh"):
        for chunk in re.split(r"^(?=\$ )", block, flags=re.M):
            command, _, shown = chunk.partition("\n")
            if command.startswith("$ qweier "):
                argv = shlex.split(command)[2:]
                examples.append((argv, shown.rstrip("\n").splitlines()))
    return examples


CLI_EXAMPLES = _cli_examples()


def test_readme_shows_every_subcommand():
    assert [argv[0] for argv, _ in CLI_EXAMPLES] == [
        "signature", "dims", "level1", "wronskian", "weierstrass"]


@pytest.mark.parametrize(
    "argv, shown", CLI_EXAMPLES, ids=[" ".join(a) for a, _ in CLI_EXAMPLES])
def test_readme_cli_example(monkeypatch, argv, shown):
    monkeypatch.chdir(ROOT)
    out, err = io.StringIO(), io.StringIO()
    assert cli_dispatch(argv, out=out, err=err) == 0
    assert err.getvalue() == ""
    lines = out.getvalue().splitlines()
    if shown and shown[-1].strip() == "...":
        shown = shown[:-1]
        lines = lines[:len(shown)]
    assert lines == shown


def _documented_values(block):
    """(expression, value) for each comment of the block that is a Python
    literal; text after an em dash is prose."""
    lines = block.splitlines()
    out = []
    for i, line in enumerate(lines):
        code, sep, comment = line.partition("#")
        if not sep:
            continue
        try:
            value = ast.literal_eval(comment.split("—")[0].strip())
        except (ValueError, SyntaxError):
            continue
        expr = code.strip() or lines[i - 1].partition("=")[0].strip()
        out.append((expr, value))
    return out


def test_readme_library_example(monkeypatch):
    (block,) = _blocks("python")
    monkeypatch.chdir(ROOT)
    namespace = {}
    exec(block, namespace)
    checks = _documented_values(block)
    assert [expr for expr, _ in checks] == [
        "report.gap_sequence", "report.is_weierstrass", "order, bound, verdict"]
    for expr, value in checks:
        assert eval(expr, namespace) == value, expr


# A backticked token that is a name, an optional .attr and an optional
# call, whose name has an underscore or is CamelCase (QSeries, not PREC).
_NAME_TOKEN = re.compile(r"`([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?(?:\([^`]*\))?`")
_CAMEL_CASE = re.compile(r"(?=.*[a-z])[A-Z]\w*[A-Z]\w*")


def _readme_names():
    """(token, name, attr or None) for each Python name in backticks."""
    names = set()
    for match in _NAME_TOKEN.finditer(README):
        name, attr = match.groups()
        if "_" in name or _CAMEL_CASE.fullmatch(name):
            names.add((match.group(0), name, attr))
    return sorted(names)


def test_readme_names_resolve():
    names = _readme_names()
    owners = [qweier, builtins] + [
        importlib.import_module("qweier." + info.name)
        for info in pkgutil.iter_modules(qweier.__path__)]
    unresolved = [
        token for token, name, attr in names
        if not any(hasattr(owner, name) and (
            attr is None or hasattr(getattr(owner, name), attr))
            for owner in owners)]
    assert names and unresolved == []
