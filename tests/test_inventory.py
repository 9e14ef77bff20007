"""Every module-level function of the package has a caller outside the
tests, or is a named oracle: a slow or literal form of a fast path that
the tests check the fast path against.

A function has a caller when its name appears, as a name, an attribute or
a string (the tracer's targets are strings), in the package, `demos/` or
`perfbench/`, outside its own `def`; the re-exports in `__init__.py` do
not count.  README's "Oracles" section names the same list.
"""

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "dyadicbump"
ORACLES = {
    "t_value", "hessian_fd", "node_drop_check", "glav_brute",
    "dyadic_maximal", "stopping_family",
}


def _names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def _references(path):
    """The names one file refers to, each function's own name inside its
    own def left out."""
    refs = set()
    for top in ast.parse(path.read_text()).body:
        own = top.name if isinstance(top, ast.FunctionDef) else None
        refs.update(name for name in _names(top) if name != own)
    return refs


def _functions():
    return {top.name: path.name
            for path in sorted(PACKAGE.glob("*.py"))
            for top in ast.parse(path.read_text()).body
            if isinstance(top, ast.FunctionDef)}


def test_every_function_has_a_caller_or_is_an_oracle():
    callers = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    callers += [*(REPO / "demos").glob("*.py"), *(REPO / "perfbench").glob("*.py")]
    referenced = set().union(*map(_references, callers))
    orphans = {name: module for name, module in _functions().items()
               if name not in referenced and name not in ORACLES}
    assert not orphans, f"functions with no caller and no oracle role: {orphans}"


def test_oracle_list_is_current_and_in_readme():
    assert ORACLES <= set(_functions())
    readme = (REPO / "README.md").read_text()
    section = re.search(r"^## Oracles\n(.*?)(?=^## |\Z)", readme, re.M | re.S)
    assert section, "README has no Oracles section"
    assert {name for name in ORACLES
            if f"`{name}`" not in section.group(1)} == set()
