"""Every module and every function under ``src/repro/`` has a user.

Modules: the walk starts at the CLI (``repro.__main__``, ``repro.cli``)
and at every script under ``perfbench/``, ``benchmarks/`` and
``examples/``, and follows ``import`` / ``from … import`` statements
(including those inside functions) with :mod:`ast`.  A name imported
from a package resolves to the module its ``__init__`` re-exports it
from, so a package's ``__init__`` does not by itself make all of its
submodules reachable.  A module that only tests import is dead weight:
delete it, or give it a caller.

The seed specs (``tests/decode_spec.py``, ``dense_spec.py``,
``fit_spec.py``) stay under ``tests/``: no file under ``src/`` imports one
or names :data:`OLD_SPEC_MODULE`, the decode spec's old home.

Functions: every function or method defined under ``src/repro/`` (dunders
aside) is named somewhere outside its own body, in ``src/``, ``tests/`` or a
script directory.  Only code counts: a name token, or a string literal that
is exactly the identifier (the CLI dispatches its drivers by string).  A
word in a docstring or a comment is not a use, and a name that appears
nowhere else in code cannot be called.
"""

import ast
import io
import tokenize
from collections import Counter
from pathlib import Path
from typing import Iterator, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ENTRY_MODULES = ("repro.__main__", "repro.cli")
ENTRY_DIRS = ("perfbench", "benchmarks", "examples")
NAME_DIRS = ("src", "tests") + ENTRY_DIRS
#: The executable specs under ``tests/``, which ``src/`` must not import.
SPEC_MODULES = ("decode_spec", "dense_spec", "fit_spec")
#: Where the decode spec lived before it moved to ``tests/`` (joined, so
#: that a search for the dotted name finds only ``src/`` files using it).
OLD_SPEC_MODULE = ".".join(("repro", "core", "reference"))


def _source(module: str) -> Optional[Tuple[Path, bool]]:
    """``(path, is_package)`` of a ``repro`` module, or None if absent."""
    base = SRC.joinpath(*module.split("."))
    if (base / "__init__.py").is_file():
        return base / "__init__.py", True
    if base.with_suffix(".py").is_file():
        return base.with_suffix(".py"), False
    return None


def _imports(path: Path, package: str) -> Iterator[Tuple[str, Optional[str], str]]:
    """``(module, name, bound_as)`` per import; name is None for ``import m``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None, alias.asname or alias.name
        elif isinstance(node, ast.ImportFrom):
            module = node.module
            if node.level:
                parts = package.split(".")
                parts = parts[: len(parts) - node.level + 1]
                module = ".".join(parts + ([node.module] if node.module else []))
            for alias in node.names:
                yield module, alias.name, alias.asname or alias.name


class _Walker:
    def __init__(self) -> None:
        self.reached: Set[str] = set()

    def walk_file(self, path: Path, package: str = "") -> None:
        for module, name, _ in _imports(path, package):
            if name is None:
                self.reach(module)
            else:
                self.reach_name(module, name)

    def reach(self, module: str) -> None:
        """Reach a module; a whole package counts as all its re-exports."""
        found = _source(module) if module.split(".")[0] == "repro" else None
        if found is None or module in self.reached:
            return
        self.reached.add(module)
        path, is_package = found
        self.walk_file(path, module if is_package else module.rpartition(".")[0])

    def reach_name(self, module: str, name: str) -> None:
        """Reach whatever ``from module import name`` binds."""
        found = _source(module) if module.split(".")[0] == "repro" else None
        if found is None:
            return
        path, is_package = found
        if not is_package:
            self.reach(module)
        elif _source(f"{module}.{name}") is not None:
            self.reach(f"{module}.{name}")
        else:
            for src_module, src_name, bound in _imports(path, module):
                if bound == name and src_name is not None:
                    self.reach_name(src_module, src_name)
                    return
            # Defined in the __init__ itself (or a star import): walk it.
            self.reach(module)


def _all_modules() -> Set[str]:
    return {
        ".".join(path.relative_to(SRC).with_suffix("").parts)
        for path in (SRC / "repro").rglob("*.py")
        if path.name != "__init__.py"
    }


def test_every_src_module_is_reachable_from_an_entry_point():
    walker = _Walker()
    for module in ENTRY_MODULES:
        walker.reach(module)
    scripts = [p for d in ENTRY_DIRS for p in sorted((ROOT / d).rglob("*.py"))]
    assert scripts
    for script in scripts:
        walker.walk_file(script)
    unreached = sorted(_all_modules() - walker.reached)
    assert not unreached, f"modules no entry point imports: {unreached}"


def test_src_does_not_reach_the_test_specs():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        imported = {(m or "").split(".")[0] for m, _, _ in _imports(path, "repro")}
        if OLD_SPEC_MODULE in path.read_text() or imported & set(SPEC_MODULES):
            found.append(str(path.relative_to(ROOT)))
    assert not found, f"files under src/ that reach the test specs: {found}"


def test_reexported_names_resolve_to_their_defining_module():
    # ``from repro.models import MacroHmm`` reaches ``repro.models.hmm`` and
    # not the package's other submodules.
    walker = _Walker()
    walker.reach_name("repro.models", "MacroHmm")
    assert "repro.models.hmm" in walker.reached
    assert "repro.models.fcrf" not in walker.reached


def _code_names(text: str) -> Iterator[Tuple[str, int]]:
    """``(identifier, line)`` for every name token of *text*, and for every
    string literal that is exactly an identifier; prose does not count."""
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.NAME:
            yield tok.string, tok.start[0]
        elif tok.type == tokenize.STRING:
            try:
                value = ast.literal_eval(tok.string)
            except ValueError:  # f-strings and other non-literals
                continue
            if isinstance(value, str) and value.isidentifier():
                yield value, tok.start[0]


def test_every_src_function_is_named_outside_its_own_body():
    names = {
        p: list(_code_names(p.read_text()))
        for d in NAME_DIRS
        for p in sorted((ROOT / d).rglob("*.py"))
    }
    total = Counter(name for found in names.values() for name, _ in found)
    unused = []
    for path, found in names.items():
        if not path.is_relative_to(SRC / "repro"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            own = sum(
                1 for word, line in found if word == name and start <= line <= node.end_lineno
            )
            if total[name] == own:
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not unused, f"functions nothing else names: {unused}"
