"""Source rules of the exact engine, checked on the syntax tree of every
module in src/qweier: no assert statement, and every raise either bare or
of a QweierError subclass (every failure is a typed QweierError, also
under python -O), apart from three built-in kinds: a TypeError for a bad
operand, an AttributeError from an immutable __setattr__ and
argparse.ArgumentTypeError for an argument type.  No floating point: no float literal, no use of the name float, and no true
division `/` (write Fraction(a, b) or use // on integers).  No bare
print(...) call: output is written to the stream the caller passes
(cli._print), so stdout stays byte-stable."""

import ast
from pathlib import Path

import pytest

from qweier import errors

SOURCES = sorted(
    (Path(__file__).resolve().parent.parent / "src" / "qweier").glob("*.py"))

RAISABLE = {name for name, value in vars(errors).items()
            if isinstance(value, type)
            and issubclass(value, errors.QweierError)} | {
    "TypeError", "AttributeError", "argparse.ArgumentTypeError"}


def _raised(node):
    """The dotted name a raise statement raises, e.g. 'ParseError'."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return ast.unparse(exc)


def _violations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno, "float literal %r" % node.value
        elif isinstance(node, ast.Name) and node.id == "float":
            yield node.lineno, "the name float"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.Div):
            yield node.lineno, "true division /"
        elif isinstance(node, ast.Raise) and node.exc is not None \
                and _raised(node) not in RAISABLE:
            yield node.lineno, "raise %s" % _raised(node)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "print":
            yield node.lineno, "print call"


def test_sources_are_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_source_follows_the_exact_arithmetic_rules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = ["%s:%d: %s" % (path.name, line, what)
             for line, what in _violations(tree)]
    assert not found, "\n".join(found)


def test_the_rules_catch_each_kind():
    text = ("assert x\ny = 0.5\nz = float(y)\nw = a / b\nw /= 2\n"
            "raise ValueError('x')\nraise exc\nprint(x)\n"
            # Each of these passes.
            "raise\nraise ParseError('x') from None\n"
            "raise argparse.ArgumentTypeError('x')\n_print(out, x)\n")
    assert sorted(_violations(ast.parse(text))) == [
        (1, "assert statement"), (2, "float literal 0.5"),
        (3, "the name float"), (4, "true division /"), (5, "true division /"),
        (6, "raise ValueError"), (7, "raise exc"), (8, "print call")]
