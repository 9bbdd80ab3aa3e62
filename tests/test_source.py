import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "kraitchik"


def test_no_assert_statements_in_src():
    # contract checks must survive ``python -O``, which strips assert statements
    paths = sorted(SRC.glob("*.py"))
    assert paths, SRC
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def imported_names(path: Path) -> set[str]:
    """The dotted names a module imports, relative imports under ``kraitchik``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ("kraitchik" if node.level else "", node.module)))
            names |= {base} | {f"{base}.{alias.name}" for alias in node.names}  # from . import poly
        elif isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
    return names


def imports(path: Path, module: str) -> bool:
    return any(n == module or n.startswith(module + ".") for n in imported_names(path))


def test_layering_of_poly_and_mpmath_imports():
    # integer tuples and lists carry the pair, Phi_d and the symfunc collapse: no src/ module
    # uses DensePoly, and the interval kernel encloses the power-sum oracle's root: no src/
    # module imports mpmath
    importers = {
        name: {path.stem for path in sorted(SRC.glob("*.py")) if imports(path, name)}
        for name in ("kraitchik.poly", "mpmath")
    }
    assert importers == {"kraitchik.poly": set(), "mpmath": set()}
    # the symfunc suite compares integer counts: the CLI does no Fraction arithmetic
    assert imported_names(SRC / "cli.py") and not imports(SRC / "cli.py", "fractions")


def test_construction_is_integer_only():
    # the README's claim: psi_xi, cyclotomic and the identity gate run on integers,
    # with no Fraction and no QuadElem anywhere in the construction
    path = SRC / "construct.py"
    assert imported_names(path)
    assert not imports(path, "fractions") and not imports(path, "kraitchik.qfield")


def test_interval_kernels_use_no_floating_point():
    # the README's claim for interval.py: its ln, pi, cos/sin and surd kernels run on
    # integers alone, so no float literal, no float() and no math.log, math.exp, math.sqrt,
    # math.cos, math.sin or math.pi
    path = SRC / "interval.py"
    banned = {"float", "log", "exp", "sqrt", "cos", "sin", "pi"}
    found = [
        f"{node.lineno}:{ast.unparse(node)}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
        # float(...) or log(...) by name, math.log(...) as an attribute, from math import log
        or isinstance(node, ast.Name) and node.id in banned
        or isinstance(node, ast.Attribute) and node.attr in banned
        or isinstance(node, ast.alias) and node.name in banned
    ]
    assert found == []


def test_src_reads_no_environment():
    # settings come in through flags and arguments only, never from the process environment
    readers = {"environ", "environb", "getenv", "getenvb"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        # os.environ / os.getenv (Attribute), a bare environ (Name), from os import environ (alias)
        if getattr(node, "attr", None) in readers or getattr(node, "id", None) in readers
        or isinstance(node, ast.alias) and node.name in readers
    ]
    assert found == []


def attribute_reads(node: ast.AST, member: str | None = None) -> set:
    """The attribute names under ``node``, except those inside a function that name the function itself."""
    if isinstance(node, ast.FunctionDef):
        member = node.name
    found = {node.attr} if isinstance(node, ast.Attribute) and node.attr != member else set()
    for child in ast.iter_child_nodes(node):
        found |= attribute_reads(child, member)
    return found


def test_every_public_src_name_has_a_non_test_user():
    # code that only tests call belongs in tests/: a public function or class of src/ is read
    # outside its definition by src/, scripts/ or perfbench/, a public method or property as
    # an attribute outside its own body by src/ or scripts/; perfbench/'s strings (its tracer
    # names code) count for both, imports and __all__ not.  Dunders are checked by hand
    names, members = set(), set()
    for sub in ("src", "scripts", "perfbench"):
        for path in sorted((SRC.parent.parent / sub).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for stmt in tree.body:
                found = {getattr(node, "id", None) or getattr(node, "attr", None) for node in ast.walk(stmt)}
                names |= found - {getattr(stmt, "name", None)}
            if sub == "perfbench":
                strings = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
                names, members = names | strings, members | strings
            else:
                members |= attribute_reads(tree)
    unused = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_") and node.name not in names:
                unused.append(f"{path.name}:{node.name}")
            if isinstance(node, ast.ClassDef):
                unused += [
                    f"{path.name}:{node.name}.{m.name}"
                    for m in node.body
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_") and m.name not in members
                ]
    assert unused == []


def ladder_leaks(tree: ast.AST) -> list[int]:
    """Lines where a ``precision_ladder(...)`` result reaches anything but ``decide``'s rungs:
    the call must be that argument itself, or be bound to a name read once in its
    function, as that argument."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}

    def is_decide(node: ast.AST) -> bool:
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "decide"

    def is_rungs(node: ast.AST) -> bool:
        up = parents.get(node)
        if isinstance(up, ast.keyword):
            return up.arg == "rungs" and is_decide(parents[up])
        return is_decide(up) and up.args[1:2] == [node]

    def scope(node: ast.AST) -> ast.AST:
        while node in parents and not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            node = parents[node]
        return node

    leaks = []
    for node in ast.walk(tree):
        func = getattr(node, "func", None)
        if not (isinstance(node, ast.Call) and "precision_ladder" in (getattr(func, "id", None), getattr(func, "attr", None))):
            continue
        bound = parents.get(node)
        if isinstance(bound, ast.Assign) and len(bound.targets) == 1 and isinstance(bound.targets[0], ast.Name):
            name = bound.targets[0].id
            reads = [n for n in ast.walk(scope(bound)) if isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load)]
            if len(reads) == 1 and is_rungs(reads[0]):
                continue
        elif is_rungs(node):
            continue
        leaks.append(node.lineno)
    return leaks


def decide_calls(tree: ast.AST) -> list[int]:
    """Lines of the ``decide(...)`` calls in ``tree``, by name or as an attribute."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and "decide" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def test_every_precision_ladder_goes_to_decide():
    # decide is the one precision-ladder driver: outside interval.py no code steps a ladder
    # itself, keeps it in a tuple or shares it between calls, and each module decides
    # along one path, so it makes at most one decide call
    trees = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "interval.py"
    }
    found = {name: ladder_leaks(tree) for name, tree in trees.items()}
    assert {name: lines for name, lines in found.items() if lines} == {}
    calls = {name: decide_calls(tree) for name, tree in trees.items()}
    assert {name: lines for name, lines in calls.items() if len(lines) > 1} == {}
    assert len(calls["bounds.py"]) == len(calls["ratio.py"]) == 1
    assert "precision_ladder" in (SRC / "bounds.py").read_text() and "precision_ladder" in (SRC / "ratio.py").read_text()
    # the shapes the rule refuses: a hand-run ladder, a tuple of one, a ladder shared by two
    # calls or sliced, a ladder in the cases' place
    refused = (
        "def f(m):\n    ladder = iter(precision_ladder(m))\n    first = next(ladder, None)\n",
        "def f(m):\n    rest = cache(lambda: tuple(precision_ladder(m)))\n",
        "def f(m):\n    rungs = precision_ladder(m)\n    decide(a, rungs)\n    decide(b, rungs)\n",
        "def f(m):\n    rungs = precision_ladder(m)\n    decide(a, rungs[1:])\n",
        "def f(m):\n    decide(precision_ladder(m), rungs)\n",
    )
    assert [ladder_leaks(ast.parse(src)) != [] for src in refused] == [True] * len(refused)
    allowed = "def f(m):\n    rungs = precision_ladder(m)\n    decide(a, rungs)\n    return decide([c], rungs=precision_ladder(m))\n"
    assert ladder_leaks(ast.parse(allowed)) == []
