"""``src/bandkh`` holds command and API code only.

Every function, class and method defined at module or class level in the
package, and every name assigned at module level, must be read by the
package itself, exported by ``bandkh``, or named in a code span or code
block of the README.  A helper or constant that only the tests read
belongs in ``tests/helpers.py`` or, as an oracle, in
``tests/dense_oracle.py``.  The row tables of a complex are read inside
``state_complex`` only.
"""

import ast
import pathlib
import re

import bandkh

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bandkh"


def _definitions(tree: ast.Module) -> list[str]:
    """Names of the functions, classes and methods at module or class level,
    and of the names assigned at module level, dunders left out."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [name.id for target in targets for name in ast.walk(target)
                    if isinstance(name, ast.Name)]
    scopes = [tree.body]
    while scopes:
        for node in scopes.pop():
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.append(node.name)
                if isinstance(node, ast.ClassDef):
                    scopes.append(node.body)
    return [name for name in out if not (name.startswith("__") and name.endswith("__"))]


def _references(tree: ast.Module) -> set[str]:
    """Names read through a ``Name`` or ``Attribute`` node, a ``Name`` only
    where it is loaded, not assigned; imports and docstrings hold neither."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
    return refs


def _readme_code_words() -> set[str]:
    """The words inside the README's fenced code blocks and code spans."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```.*?```", text, flags=re.S)
    spans = re.findall(r"`[^`]+`", re.sub(r"```.*?```", "", text, flags=re.S))
    return set(re.findall(r"\w+", " ".join(blocks + spans)))


def test_src_defines_only_command_and_api_code():
    defined, referenced = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        defined += [(path.stem, name) for name in _definitions(tree)]
        referenced |= _references(tree)
    readme = _readme_code_words()
    unused = [f"{module}.{name}" for module, name in defined
              if name not in referenced and name not in bandkh.__all__
              and name not in readme]
    assert not unused, f"defined in src/bandkh but read only outside it: {unused}"


def test_only_state_complex_reads_the_row_tables():
    """The row-table and block-id format (``_rows``, ``_keys``) stays behind
    ``state_complex``: its one walk fills d, d+ and every chain map."""
    readers = [f"{path.stem}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
               if path.stem != "state_complex"
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Attribute) and node.attr in ("_rows", "_keys")]
    assert not readers, f"row tables read outside state_complex: {readers}"


#: Bindings imported by a module that reads them nowhere itself, each kept
#: for a reader outside the package: ``bench/spans.py`` wraps every binding
#: of a span target, so the cli.parse span wraps ``cli.parse_diagram`` and
#: the homology.snf span ``homology.smith_normal_form``, and callers reach
#: both through those modules.
KEPT_IMPORTS = {("cli", "parse_diagram"): "cli.parse span of bench/spans.py",
                ("homology", "smith_normal_form"): "homology.snf span of bench/spans.py"}


def test_src_reads_every_name_it_imports():
    """Every ``from .x import name`` in ``src/bandkh`` binds a name that the
    importing module reads, but for the package's re-exports in
    ``__init__`` and the bindings of ``KEPT_IMPORTS``."""
    unread, kept = [], set()
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    name = alias.asname or alias.name
                    if (path.stem, name) in KEPT_IMPORTS:
                        kept.add((path.stem, name))
                    elif name not in loaded:
                        unread.append(f"{path.stem}: from .{node.module} import {name}")
    assert not unread, f"imported in src/bandkh but never read: {unread}"
    assert kept == set(KEPT_IMPORTS), "a kept binding is no longer imported"
