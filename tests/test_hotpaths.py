"""Hot-path lint: no hash-based dedupe in the library's hot packages.

NumPy 2.x runs a plain ``np.unique(x)`` — and ``np.union1d`` /
``np.intersect1d``, which call it — through a hash table that is
9–75× slower than sorting on the integer id and edge-key arrays these
packages dedupe every iteration.  Calls passing a ``return_*`` keyword
take NumPy's sort path and are allowed; everything else must use
:func:`repro.utils.arrays.sorted_unique`.  Nothing is allowlisted.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
HOT_PACKAGES = ("kernels", "graph", "engine", "core", "serve")
HASHED = {"unique", "union1d", "intersect1d"}


def _hashed_calls(path: pathlib.Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        func = node.func
        if not (
            func.attr in HASHED
            and isinstance(func.value, ast.Name)
            and func.value.id in ("np", "numpy")
        ):
            continue
        if any((kw.arg or "").startswith("return_") for kw in node.keywords):
            continue
        yield node.lineno, f"np.{func.attr}"


def test_hot_packages_exist():
    for package in HOT_PACKAGES:
        assert any((SRC / package).glob("*.py")), package


def test_no_hash_based_dedupe_on_hot_paths():
    problems = [
        f"{path.relative_to(SRC.parents[1])}:{lineno}: {call}(...) hashes; "
        "use repro.utils.arrays.sorted_unique"
        for package in HOT_PACKAGES
        for path in sorted((SRC / package).rglob("*.py"))
        for lineno, call in _hashed_calls(path)
    ]
    assert not problems, "\n".join(problems)


def test_lint_catches_a_hashed_call(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import numpy as np\n"
        "a = np.unique(x)\n"
        "b, c = np.unique(x, return_counts=True)\n"
        "d = np.union1d(x, y)\n"
        "e = np.intersect1d(x, y, assume_unique=True)\n"
    )
    assert list(_hashed_calls(bad)) == [
        (2, "np.unique"),
        (4, "np.union1d"),
        (5, "np.intersect1d"),
    ]
