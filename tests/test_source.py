"""Source-level rules that no behavioural test can see."""

import ast
import sys
from pathlib import Path

import pytest

import latticeopt
from latticeopt.lattice import CostOrder, IntMatrix
from support import boxed_fibers, check_augmentation_exact, check_test_set

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "latticeopt"


def test_no_assert_statements_in_the_package():
    # `python -O` strips assert statements, so an invariant that guards
    # exactness must raise explicitly to hold under -O; the test helpers'
    # certificates are not rewritten by pytest and must raise as well.
    paths = sorted(SRC.glob("*.py")) + [ROOT / "tests" / "support.py"]
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)]
    assert found == []


def test_support_checks_raise_under_optimize_flag():
    with pytest.raises(AssertionError, match="non-negative"):
        boxed_fibers(IntMatrix([[1, -1]]), 2)
    # with no moves, (0, 1) in the fiber of b = 1 cannot reach (1, 0)
    A = IntMatrix([[1, 1]])
    with pytest.raises(AssertionError, match="no improving move"):
        check_test_set(A, CostOrder((1, 2)), [], box=2)
    with pytest.raises(AssertionError):
        check_augmentation_exact(A, (1, 2), [], box=2)


def test_package_imports_only_the_standard_library():
    # `dependencies = []` in pyproject.toml does not stop a third-party
    # import; every import in the package must be relative or stdlib.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += ["%s:%d %s" % (path.name, node.lineno, name)
                      for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names]
    assert found == []


def test_no_module_reads_the_environment():
    # Each limit is a module constant read where it is checked
    # (groebner.ELEMENT_CAP, oracle.NODE_CAP); an environment read would be
    # a setting that no caller passes and no signature shows.
    reads = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            found += ["%s:%d %s" % (path.name, node.lineno, name)
                      for name in names if name in reads]
    assert found == []


def test_no_imports_inside_function_bodies():
    # An import at call time hides a dependency from the module header and
    # usually stands for an import cycle; every import is a module import.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += ["%s:%d" % (path.name, node.lineno)
                          for node in ast.walk(func)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


def test_export_list_names_exactly_what_the_package_imports():
    # every name __init__ imports is exported, and only those, so a name
    # that leaves the package leaves the list with it
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert len(latticeopt.__all__) == len(set(latticeopt.__all__))
    assert set(latticeopt.__all__) == imported
