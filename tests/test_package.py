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
