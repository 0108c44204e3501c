"""Every name the documentation cites exists: a private name (an underscore
and at least 3 more characters) or a Class.attr of a riskcontest class,
cited in a docstring or comment under src/ or in README.md, must be defined
in riskcontest. Fewer characters, or an underscore after a bracket, are
taken for a maths subscript, as in x~_j."""

import ast
import re
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "riskcontest").glob("*.py"))
# Not after a closing bracket either, as in ||(coef + delta)_slopes||_1.
PRIVATE = re.compile(r"(?<![\w)\]])_[A-Za-z0-9]\w{2,}")
DOTTED = re.compile(r"\b([A-Z]\w*)\.([A-Za-z_]\w*)")


def _top_level(body):
    """The names a module's or class's body defines: its functions and
    classes, and every name its other statements assign."""
    defs = [node for node in body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    return {node.name for node in defs} | {
        leaf.id for node in body if node not in defs for leaf in ast.walk(node)
        if isinstance(leaf, ast.Name) and isinstance(leaf.ctx, ast.Store)}


def defined():
    """Every name defined at the top level of a riskcontest module or class,
    and each class's own names: those of its body, fields included, and the
    attributes its methods set on self."""
    names, classes = set(), {}
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        names |= _top_level(tree.body)
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            own = _top_level(cls.body) | {
                leaf.attr for leaf in ast.walk(cls)
                if isinstance(leaf, ast.Attribute) and isinstance(leaf.ctx, ast.Store)
                and isinstance(leaf.value, ast.Name) and leaf.value.id == "self"}
            classes[cls.name] = own
            names |= own
    return names, classes


def cited(path):
    """(line, text) of every docstring and comment of a module, or of every
    line of a Markdown file."""
    text = path.read_text()
    if path.suffix == ".md":
        yield from enumerate(text.splitlines(), start=1)
        return
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                and ast.get_docstring(node) is not None):
            yield node.body[0].lineno, node.body[0].value.value
    with path.open() as fh:
        for token in tokenize.generate_tokens(fh.readline):
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.string


NAMES, CLASSES = defined()


@pytest.mark.parametrize("path", [*SOURCES, ROOT / "README.md"], ids=lambda p: p.name)
def test_cited_names_exist(path):
    missing = []
    for line, text in cited(path):
        missing += [(line, name) for name in PRIVATE.findall(text) if name not in NAMES]
        missing += [(line, f"{cls}.{attr}") for cls, attr in DOTTED.findall(text)
                    if cls in CLASSES and attr not in CLASSES[cls]]
    assert not missing, f"{path.name} cites names riskcontest does not define: {missing}"
