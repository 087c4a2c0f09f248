"""The oracles in tests/helpers.py stay independent of the package: they may
take from biforms only the types that carry data across the boundary."""

import ast
from pathlib import Path

HELPERS = Path(__file__).resolve().parent / "helpers.py"

BOUNDARY_TYPES = {
    "BiForm", "BinaryForm", "TernaryForm", "QMat", "Subspace",
    "GroupPair", "LiePair", "SL2_E", "SL2_F", "SL2_H",
}


def _is_biforms(module):
    return module == "biforms" or module.startswith("biforms.")


def test_helpers_import_only_boundary_types_from_biforms():
    tree = ast.parse(HELPERS.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import biforms...` would reach every computing function
            assert not any(_is_biforms(alias.name) for alias in node.names), \
                f"helpers.py line {node.lineno} imports a biforms module"
        elif isinstance(node, ast.ImportFrom) and node.module and _is_biforms(node.module):
            imported |= {alias.name for alias in node.names}
    assert imported, "helpers.py no longer imports its boundary types"
    assert imported <= BOUNDARY_TYPES, \
        f"helpers.py imports {sorted(imported - BOUNDARY_TYPES)} from biforms"
