"""The README against the package: every reference resolves.

README "Conventions" is the one home of each package-wide rule, and a
docstring or comment of the package names the rule it follows as
``README, Conventions: <Bullet>`` on one line.  These tests check that each
such pointer names a bullet that exists, that every package name the
README writes in backticks exists, that every public name is documented,
and that the README's Python example runs.
"""
import importlib
import os
import re
from pathlib import Path

import unitary3

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
PACKAGE = Path(unitary3.__file__).parent
SUBMODULES = sorted(name[:-3] for name in os.listdir(PACKAGE) if name.endswith(".py") and name != "__init__.py")
FENCED = re.compile(r"^```(\w*)\n(.*?)^```$", re.M | re.S)
POINTER = re.compile(r"README, Conventions: ([^.;)\n]+)")
# A dotted name such as unitary3.linalg._new, not part of a longer word or number.
NAME = re.compile(r"(?<![\w.])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
# Names outside the package that the README writes in backticks: the
# interpreter exit the CLI calls, a namedtuple method and numpy's norm.
OUTSIDE = {"os._exit", "rec._replace", "np.linalg.norm"}


def conventions_bullets() -> set:
    """The name of each ``- **<Bullet>.**`` line of README Conventions."""
    section = README.split("\n## Conventions\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^- \*\*(.+?)\.\*\*", section, re.M))


def code_spans() -> list:
    """The README's inline code spans and the bodies of its fenced blocks."""
    prose = FENCED.sub("", README)
    return re.findall(r"`([^`]+)`", prose) + [body for _, body in FENCED.findall(README)]


def resolves(name: str) -> bool:
    """Whether a dotted name that refers to the package exists: from its
    last component that is ``unitary3`` or a submodule, each later one is
    an attribute; a private ``_name`` of another object must be an
    attribute of some submodule.  Other names are not the package's."""
    parts = name.split(".")
    starts = [i for i, part in enumerate(parts) if part == "unitary3" or part in SUBMODULES]
    if starts:
        i = starts[-1]
        obj = importlib.import_module("unitary3" if parts[i] == "unitary3" else f"unitary3.{parts[i]}")
        for attr in parts[i + 1:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    private = [part for part in parts if part.startswith("_") and not part.startswith("__")]
    return all(any(hasattr(importlib.import_module(f"unitary3.{m}"), p) for m in SUBMODULES) for p in private)


def test_conventions_pointers_name_a_bullet():
    bullets = conventions_bullets()
    pointers = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            for bullet in POINTER.findall(line):
                pointers[f"{path.name}:{lineno}"] = bullet.strip()
    assert pointers, "no module names a README convention"
    stale = {where: bullet for where, bullet in pointers.items() if bullet not in bullets}
    assert not stale, (stale, sorted(bullets))


def test_readme_package_names_resolve():
    names = {name for span in code_spans() for name in NAME.findall(span)}
    misses = {name for name in names if not resolves(name)}
    assert misses == OUTSIDE, misses ^ OUTSIDE


def test_every_public_name_in_readme():
    names = {part for span in code_spans() for name in NAME.findall(span) for part in name.split(".")}
    missing = sorted(set(unitary3.__all__) - names)
    assert not missing, missing


def test_readme_python_examples_run():
    blocks = [body for lang, body in FENCED.findall(README) if lang == "python"]
    assert blocks
    for body in blocks:
        exec(compile(body, "README.md", "exec"), {"__name__": "readme_example"})
