"""Checks on the package source and the README's library example."""

import ast
import os
import subprocess
import sys
from pathlib import Path

from idealis import _kernel as K

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "idealis"


def test_no_assert_statements():
    # python -O strips assert statements; invariant checks must raise
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found, found


def test_no_environment_settings():
    # every setting is an argument or a command-line option; nothing is
    # read from the environment
    names = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in names \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "os":
                hit = f"os.{node.attr}"
            elif isinstance(node, ast.ImportFrom) and node.module == "os" \
                    and names & {a.name for a in node.names}:
                hit = "from os import"
            else:
                continue
            found.append(f"{path.relative_to(SRC)}:{node.lineno} {hit}")
    assert not found, found


def test_one_serializer():
    # fragments and the whole-document oracle share report.py's canonical
    # settings, so no other module serializes
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = {node.module.split(".")[0]}
            else:
                continue
            if names & {"json", "csv"} and path.name != "report.py":
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not found, found


def test_cli_imports_no_process_pool():
    # the CLI forks its workers itself; multiprocessing and
    # concurrent.futures would add their import time to every start
    code = ("import sys, idealis.cli; print(sorted({m.split('.')[0] for m in "
            "sys.modules} & {'multiprocessing', 'concurrent'}))")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC.parent) + os.pathsep + env.get("PYTHONPATH", "")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=env, check=True)
    assert r.stdout == "[]\n"


def _uses_random(node) -> bool:
    if isinstance(node, ast.Import):
        return "random" in {a.name for a in node.names}
    if isinstance(node, ast.ImportFrom):
        return node.module == "random"
    return getattr(node, "id", None) == "random"


def test_sampling_stays_in_the_axiom_check():
    # the axiom check's draw tape is the package's one random draw: every
    # other decision, p <= r for mod(p, r) included, is exact.  Only
    # systems.py imports random, and only its _draw_stream reads it.
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        if path.name == "systems.py":
            for node in tree.body:
                if isinstance(node, ast.Import) \
                        or getattr(node, "name", None) == "_draw_stream":
                    allowed |= {id(n) for n in ast.walk(node)}
        found += [f"{path.relative_to(SRC)}:{node.lineno}"
                  for node in ast.walk(tree)
                  if _uses_random(node) and id(node) not in allowed]
    assert not found, found


def test_readme_library_example():
    # every "expr  # value" line of the python block evaluates to its value
    text = (ROOT / "README.md").read_text()
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    env: dict = {}
    checked = 0
    for line in block.splitlines():
        code, _, want = line.partition("#")
        if not want:
            exec(line, env)
            continue
        assert eval(code, env) == ast.literal_eval(want.strip()), line
        checked += 1
    assert checked


def test_kernel_is_one_pure_module():
    # perfbench reads IMPL into its facts line and files the profile of
    # every function under src/idealis/_kernel/ as its "kernel" layer
    assert K.IMPL == "slow"
    path = Path(K.__file__).resolve()
    assert (path.parent.name, path.name) == ("_kernel", "__init__.py")
    assert [p.name for p in path.parent.iterdir()
            if p.name != "__pycache__"] == ["__init__.py"]


def _exported(tree) -> set:
    return {elt.value for node in tree.body if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            for elt in node.value.elts}


def test_no_unused_imports():
    # every name an import binds is read in its module; exempt are the
    # package's re-exports (relative imports in __init__.py), names listed
    # in __all__ and __future__ features
    files = sorted(SRC.rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    found = []
    for path in files:
        tree = ast.parse(path.read_text())
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        read |= _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) \
                    and node.module != "__future__" \
                    and not (path.name == "__init__.py" and node.level):
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            found += [f"{path.relative_to(ROOT)}:{node.lineno} {name}"
                      for name in names if name not in read]
    assert not found, found


def test_public_names_are_the_package_imports():
    # __all__ is exactly what __init__.py imports, plus __version__, and
    # every name in it resolves: a deleted export cannot leave
    # `from idealis import *` broken
    import idealis
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = {a.asname or a.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for a in node.names}
    assert sorted(idealis.__all__) == sorted(imported | {"__version__"})
    assert all(hasattr(idealis, name) for name in idealis.__all__)
    exec("from idealis import *", {})


def test_pack_layout_stays_in_the_kernel():
    # only _kernel/ reads the pack's fields; other modules hand it over whole
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.parent.name == "_kernel":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Subscript) and (
                    getattr(node.value, "id", None) == "pack"
                    or getattr(node.value, "attr", None) == "pack"):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not found, found


def test_kernel_functions_have_package_callers():
    # a kernel routine only the tests call is a second implementation to
    # keep in step: every function _kernel defines is read elsewhere in the
    # package, as K.<name> in a module or by name in another kernel function
    kernel_path = Path(K.__file__).resolve()
    kernel = ast.parse(kernel_path.read_text())
    defined = {node.name for node in kernel.body
               if isinstance(node, ast.FunctionDef)}
    used = set()
    for node in kernel.body:
        names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        if isinstance(node, ast.FunctionDef):
            names.discard(node.name)
        used |= names
    for path in sorted(SRC.rglob("*.py")):
        if path.resolve() == kernel_path:
            continue
        used |= {n.attr for n in ast.walk(ast.parse(path.read_text()))
                 if isinstance(n, ast.Attribute)
                 and getattr(n.value, "id", None) == "K"}
    assert defined and sorted(defined - used) == []


# Functions that reach a memo inline, by module: memoised itself and
# systems.close, the one door to a System's closure cache, on the hot path.
_INLINE_MEMO = {("monoid.py", "memoised"), ("systems.py", "close")}


def _hand_rolled_memos(node, module):
    if isinstance(node, ast.FunctionDef) \
            and (module, node.name) in _INLINE_MEMO:
        return
    if getattr(node, "attr", None) in ("_cache", "cache") \
            or getattr(node, "id", None) == "_cache":
        yield node
    elif isinstance(node, (ast.Subscript, ast.Attribute)) \
            and getattr(node.value, "attr", None) == "memo" \
            and (isinstance(node, ast.Subscript)
                 or node.attr in ("get", "setdefault")):
        yield node
    for child in ast.iter_child_nodes(node):
        yield from _hand_rolled_memos(child, module)


def test_memos_go_through_memoised():
    # every other view enters a memo through monoid.memoised, the one place
    # that computes it once and keeps a tripped budget, and a System's
    # closure cache is read and written by systems.close alone
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in sorted(SRC.rglob("*.py"))
             for node in _hand_rolled_memos(ast.parse(path.read_text()),
                                            path.name)]
    assert not found, found


def test_bench_kernel_runs(capsys):
    # benchmarks/bench_kernel.py is run by hand only: one call per
    # workload keeps its call forms in step with the kernel.
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "bench_kernel", ROOT / "benchmarks" / "bench_kernel.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert bench.main(["--number", "1", "--repeat", "1"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [row.rsplit(None, 1)[0].strip() for row in rows] == \
        [label for label, *_ in bench.workloads()]
