"""Every public function, class and method in src/hydrochain has a caller in
the package itself or in the benchmark: code that only the tests call is a
second path, and code nothing calls is dead. The scan is by name, so a name
counts as called wherever it is read, imported or accessed as an attribute,
except in the package's __init__.py: a re-export there is not a call.

The few names a planned piece of work will call are allowed, each with the
ROADMAP item that will call it. The allowlist must stay exact: once such a
name gets a caller, it leaves the list.

Every private top-level function and class needs a caller in src/ or
perfbench/ too, with no allowlist: a helper a refactor leaves behind is dead.
So does a parameter: every parameter of every function in the package is
read in that function's body."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hydrochain"
CALLERS = (PACKAGE, ROOT / "perfbench")

ALLOWED = {
    "clausius_gap": "Direction 3: Clausius on the chain against the PDE",
    "entropy_pair_residual": "Direction 3: entropy production of chain and PDE",
    "StepSchedule": "Direction 3: the shock-regime scenario",
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


def private_definitions():
    """(qualified name, name) of each private top-level function and class of
    the package: a leading underscore, but not a dunder."""
    for path, tree in _trees(PACKAGE):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                if not node.name.startswith("__"):
                    yield f"{path.stem}.{node.name}", node.name


def referenced_names():
    """Every name read, imported or accessed as an attribute in src/ and
    perfbench/, outside the package's re-exports."""
    names = set()
    for directory in CALLERS:
        for path, tree in _trees(directory):
            if path == PACKAGE / "__init__.py":
                continue
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


def test_every_private_helper_has_a_caller():
    definitions = list(private_definitions())
    assert len(definitions) >= 30
    called = referenced_names()
    assert sorted(qualified for qualified, name in definitions if name not in called) == []


def unread_parameters():
    """(qualified name, parameter) of each parameter of a function or lambda
    in the package that its body, nested functions included, never reads;
    self is exempt, since a method takes it whether it reads it or not."""
    for path, tree in _trees(PACKAGE):
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            body = [node.body] if isinstance(node, ast.Lambda) else node.body
            read = {
                sub.id
                for stmt in body
                for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
            }
            name = getattr(node, "name", f"<lambda>:{node.lineno}")
            for param in params:
                if param.arg not in read and param.arg != "self":
                    yield f"{path.stem}.{name}", param.arg


def test_every_parameter_is_read():
    # a parameter that a refactor leaves unread is dead: every caller still
    # computes and passes it
    assert sorted(unread_parameters()) == []
