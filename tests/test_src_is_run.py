"""Every function, class and method in ``src/ecnn`` is referenced by other
code in ``src/ecnn``: a form that only the tests call belongs in
``tests/reference.py``, where the tests can still compare against it."""

import ast
from pathlib import Path

from test_tracer_names import _load_tracer

SRC = Path(__file__).resolve().parents[1] / "src" / "ecnn"

# Public entry points that nothing inside the package calls.
ALLOWED = {
    "model.Model.load": "the documented ``Class.load(path)`` API of every model family",
}


def _traced() -> set[str]:
    """Qualified names perfbench's tracer wraps, which its traced runs need."""
    tracer = _load_tracer()
    names = {f"{mod}.{attr}" for mod, attr in [*tracer.SPANS, *tracer.LEAVES]}
    return names | {f"{mod}.{cls}.{attr}" for mod, cls, attr in tracer.METHOD_SPANS}


def _is_click_command(node: ast.AST) -> bool:
    for dec in getattr(node, "decorator_list", []):
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute) and target.attr in ("command", "group"):
            return True
    return False


def _used_names(node: ast.AST) -> set[str]:
    """Every name that ``node`` reads, as a variable or as an attribute."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    return used


def _scan() -> tuple[dict[str, ast.AST], list[tuple[str, set[str]]]]:
    """The definitions of the package, by qualified name, and the names
    each top-level statement or method of the package reads, with the
    qualified name of the definition it belongs to."""
    defs: dict[str, ast.AST] = {}
    uses: list[tuple[str, set[str]]] = []
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                uses.append(("", _used_names(stmt)))
                continue
            qual = f"{module}.{stmt.name}"
            defs[qual] = stmt
            if not isinstance(stmt, ast.ClassDef):
                uses.append((qual, _used_names(stmt)))
                continue
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defs[f"{qual}.{item.name}"] = item
                    uses.append((f"{qual}.{item.name}", _used_names(item)))
                else:
                    uses.append((qual, _used_names(item)))
            uses.append((qual, set().union(*(_used_names(d) for d in stmt.decorator_list + stmt.bases))))
    return defs, uses


def _unreferenced() -> list[str]:
    defs, uses = _scan()
    exempt = _traced() | set(ALLOWED)
    missing = []
    for qual, node in defs.items():
        name = qual.rsplit(".", 1)[1]
        if name.startswith("__") and name.endswith("__"):
            continue
        if qual in exempt or _is_click_command(node):
            continue
        # a reference from inside the definition itself (recursion) does not count
        if not any(name in names for owner, names in uses if owner != qual and not owner.startswith(qual + ".")):
            missing.append(qual)
    return missing


def test_every_definition_in_src_is_referenced():
    missing = _unreferenced()
    assert not missing, f"defined in src/ecnn but referenced by nothing there: {missing}"


def test_allowlist_names_real_definitions():
    defs, _ = _scan()
    assert set(ALLOWED) <= set(defs)
