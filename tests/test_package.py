import ast
from pathlib import Path

import bilarx


def test_public_names_match_all():
    # Every listed name resolves, none is listed twice, and every public
    # name the package imports into its namespace is listed.
    assert all(hasattr(bilarx, name) for name in bilarx.__all__)
    assert len(set(bilarx.__all__)) == len(bilarx.__all__)
    tree = ast.parse(Path(bilarx.__file__).read_text())
    imported = {alias.asname or alias.name
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert {name for name in imported if not name.startswith("_")} <= set(bilarx.__all__)


def test_integer_rule_lives_in_problem_only():
    # every count, index and seed goes through problem._check_integer; a
    # module with its own integer test would let the rules drift apart
    package = Path(bilarx.__file__).parent
    stray = [path.name for path in sorted(package.glob("*.py"))
             if path.name != "problem.py" and "numbers.Integral" in path.read_text()]
    assert stray == []
