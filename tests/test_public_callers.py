"""Every public function, class and method in src/hydrochain has a caller in
the package itself or in the benchmark: code that only the tests call is a
second path, and code nothing calls is dead. The scan is by name, so a name
counts as called wherever it is read, imported or accessed as an attribute.

The few names a planned piece of work will call are allowed, each with the
ROADMAP item that will call it. The allowlist must stay exact: once such a
name gets a caller, it leaves the list."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hydrochain"
CALLERS = (PACKAGE, ROOT / "perfbench")

ALLOWED = {
    "clausius_gap": "Direction 3: Clausius on the chain against the PDE",
    "entropy_pair_residual": "Direction 3: entropy production of chain and PDE",
    "StepSchedule": "Direction 3: the shock-regime scenario",
    "to_dict": "Direction 4: the manifest's config record",
    "internal_energy": "Direction 4: the manifest's first-law monitor",
    "tau_prime_of_rho": "aim 2: the one computation of tau'",
}


def _trees(directory):
    for path in sorted(directory.glob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def public_definitions():
    """(qualified name, name) of each public top-level function and class of
    the package, and of each public method of its top-level classes."""
    for path, tree in _trees(PACKAGE):
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name


def referenced_names():
    """Every name read, imported or accessed as an attribute in src/ and
    perfbench/."""
    names = set()
    for directory in CALLERS:
        for _, tree in _trees(directory):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_has_a_caller():
    definitions = list(public_definitions())
    assert len(definitions) >= 50
    called = referenced_names()
    uncalled = sorted(qualified for qualified, name in definitions if name not in called)
    assert [q for q in uncalled if q.rsplit(".", 1)[1] not in ALLOWED] == []
    # the allowlist is exact: a name that got a caller leaves it
    assert {q.rsplit(".", 1)[1] for q in uncalled} == set(ALLOWED)
