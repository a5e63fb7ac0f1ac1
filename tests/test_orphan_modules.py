"""No orphan modules: every program module under ``src/repro`` is used.

A module is *used* when a name it defines, or the module itself, is
reachable by imports from the entry points (``repro.api``,
``repro.cli``, ``repro.analysis.__main__``) or from a script in
``examples/``, ``benchmarks/``, ``tools/`` or ``e2e_bench/``.  Imports
made through a package resolve to the module that defines the name, so
a package ``__init__`` that only re-exports a name does not use it, and
tests never do.  An import counts only when the importing module's own
code loads the bound name (an ``__all__`` entry is a re-export, not a
use).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ENTRY_MODULES = ("repro.api", "repro.cli", "repro.analysis.__main__")
SCRIPT_DIRS = ("examples", "benchmarks", "tools", "e2e_bench")


def _index(src: Path) -> dict[str, Path]:
    """Dotted module name -> file, for every module under ``src``."""
    out = {}
    for path in src.rglob("*.py"):
        parts = list(path.relative_to(src).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        out[".".join(parts)] = path
    return out


def _absolute(module: str, is_package: bool, node: ast.ImportFrom) -> str:
    if not node.level:
        return node.module or ""
    parts = module.split(".")
    base = parts if is_package else parts[:-1]
    base = base[: len(base) - (node.level - 1)]
    return ".".join(base + ([node.module] if node.module else []))


class _Module:
    """One parsed file: what it defines, re-exports and loads."""

    def __init__(self, name: str, path: Path, is_package: bool = False):
        tree = ast.parse(path.read_text(), filename=str(path))
        self.defines: set[str] = set()
        self.imports: dict[str, tuple[str, str | None]] = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                self.defines.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                self.defines.update(t.id for t in targets
                                    if isinstance(t, ast.Name))
        self.loads: set[str] = set()
        self.chains: list[list[str]] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    # ``import a.b`` binds ``a``; ``import a.b as c`` binds c
                    bound = a.asname or a.name.split(".")[0]
                    target = a.name if a.asname else bound
                    self.imports.setdefault(bound, (target, None))
            elif isinstance(node, ast.ImportFrom):
                base = _absolute(name, is_package, node)
                for a in node.names:
                    self.imports.setdefault(a.asname or a.name,
                                            (base, a.name))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                self.loads.add(node.id)
            elif isinstance(node, ast.Attribute):
                chain = []
                while isinstance(node, ast.Attribute):
                    chain.append(node.attr)
                    node = node.value
                if isinstance(node, ast.Name):
                    self.chains.append([node.id] + chain[::-1])


class _Program:
    def __init__(self, root: Path):
        self.files = _index(root / "src")
        self.modules = {
            name: _Module(name, path, path.name == "__init__.py")
            for name, path in self.files.items()
        }

    def resolve(self, module: str, name: str | None, seen=()) -> str | None:
        """The module that defines ``module.name`` (``module`` itself
        when ``name`` is None), following re-exports."""
        if name is None:
            return module if module in self.modules else None
        if f"{module}.{name}" in self.modules:
            return f"{module}.{name}"
        mod = self.modules.get(module)
        if mod is None or (module, name) in seen:
            return None
        if name in mod.defines or name not in mod.imports:
            return module
        src_mod, src_name = mod.imports[name]
        return self.resolve(src_mod, src_name, seen + ((module, name),))

    def uses(self, mod: _Module) -> set[str]:
        """Modules whose names ``mod``'s own code loads."""
        out = set()
        for bound, (src_mod, src_name) in mod.imports.items():
            if bound in mod.loads:
                out.add(self.resolve(src_mod, src_name))
        for chain in mod.chains:
            if chain[0] not in mod.imports:
                continue
            target = self.resolve(*mod.imports[chain[0]])
            for attr in chain[1:]:
                if target is None or attr in self.modules[target].defines:
                    break
                target = self.resolve(target, attr)
                out.add(target)
        out.discard(None)
        return out

    def reachable(self, scripts: list[Path]) -> set[str]:
        todo = [_Module("__script__", p) for p in scripts]
        todo += [self.modules[m] for m in ENTRY_MODULES]
        seen = set(ENTRY_MODULES)
        while todo:
            for used in self.uses(todo.pop()) - seen:
                seen.add(used)
                todo.append(self.modules[used])
        return seen


def orphan_modules(root: Path) -> list[str]:
    """Program modules that no entry point or script reaches."""
    program = _Program(root)
    scripts = [p for d in SCRIPT_DIRS for p in sorted((root / d).rglob("*.py"))]
    reached = program.reachable(scripts)
    return sorted(
        name for name, path in program.files.items()
        if path.name not in ("__init__.py", "__main__.py")
        and name not in reached
    )


def test_every_program_module_is_used():
    assert orphan_modules(ROOT) == []


def _write(root: Path, files: dict[str, str]) -> None:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


@pytest.fixture
def tiny_repo(tmp_path):
    """A program whose ``pkg.spare`` is re-exported and tested only."""
    _write(tmp_path, {
        "src/repro/__init__.py": "from .pkg import run\n",
        "src/repro/api.py": "from . import pkg\n\npkg.run()\n",
        "src/repro/cli.py": "from .api import pkg\n",
        "src/repro/analysis/__init__.py": "",
        "src/repro/analysis/__main__.py": "",
        "src/repro/pkg/__init__.py": (
            "from .core import run\nfrom .spare import spare\n"
            "__all__ = ['run', 'spare']\n"),
        "src/repro/pkg/core.py": "from .helper import helper\n\n"
                                 "def run():\n    return helper()\n",
        "src/repro/pkg/helper.py": "def helper():\n    return 1\n",
        "src/repro/pkg/spare.py": "from .lonely import twice\n\n"
                                  "def spare():\n    return twice(2)\n",
        "src/repro/pkg/lonely.py": "def twice(x):\n    return 2 * x\n",
        "tests/test_spare.py": "from repro.pkg import spare\n\n"
                               "def test_spare():\n    assert spare() == 4\n",
    })
    return tmp_path


def test_guard_flags_modules_only_tests_and_reexports_use(tiny_repo):
    # lonely.py is imported by spare.py, but spare.py itself is orphaned
    assert orphan_modules(tiny_repo) == ["repro.pkg.lonely", "repro.pkg.spare"]


def test_guard_counts_scripts_as_users(tiny_repo):
    _write(tiny_repo, {
        "examples/demo.py": "import repro.pkg\n\nprint(repro.pkg.spare())\n",
    })
    assert orphan_modules(tiny_repo) == []
