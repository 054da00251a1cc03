"""The package's import structure, read from its sources with ``ast``."""

import ast
from pathlib import Path

import mubkit

SOURCES = sorted(Path(mubkit.__file__).parent.glob("*.py"))


def parsed():
    return {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}


def intra_package(node):
    """The mubkit module a ``from`` import names, or None for any other import."""
    if not isinstance(node, ast.ImportFrom):
        return None
    if node.level:
        return node.module or ""
    if node.module and node.module.split(".")[0] == "mubkit":
        return node.module.partition(".")[2]
    return None


def function_level_imports(tree):
    """(qualified function name, imported module, names) of imports inside functions."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child])
                continue
            module = intra_package(child)
            if module is not None and any(isinstance(s, ast.FunctionDef) for s in scope):
                names = tuple(alias.name for alias in child.names)
                found.append((".".join(s.name for s in scope), module, names))
            visit(child, scope)

    visit(tree, [])
    return found


def test_no_module_imports_inside_a_function():
    # Every module binds what it uses at import; a tracer or test that
    # patches a function patches it in each module that binds it.
    found = [
        (stem, *entry) for stem, tree in parsed().items() for entry in function_level_imports(tree)
    ]
    assert found == []


def test_search_does_not_import_construct():
    imported = {
        intra_package(node) for node in ast.walk(parsed()["search"]) if intra_package(node)
    }
    assert imported == {"algebra", "reconstruct"}


def test_construct_imports_only_algebra():
    # build_family builds; the caller certifies with verify_family.
    imported = {
        intra_package(node) for node in ast.walk(parsed()["construct"]) if intra_package(node)
    }
    assert imported == {"algebra"}


def test_io_does_not_import_verify():
    # The CLI lays out the certificate; io writes what it is given.
    imported = {intra_package(node) for node in ast.walk(parsed()["io"]) if intra_package(node)}
    assert imported == {"algebra", "reconstruct"}


def test_family_checks_are_defined_once_in_algebra():
    names = {"_rank_one_certificate", "_check_family_size", "MAX_FAMILY_BYTES", "LOAD_TOLERANCE"}
    homes = {name: [] for name in names}
    for stem, tree in parsed().items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name in names:
                homes[node.name].append(stem)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id in names:
                        homes[target.id].append(stem)
    assert homes == {name: ["algebra"] for name in names}


def test_only_algebra_names_the_entry_bound():
    # One home for "every part finite and at most 1e150": the other modules
    # check it through algebra._bounded and algebra._check_parts.
    namers = {
        stem
        for stem, tree in parsed().items()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "_MAX_ENTRY")
        or (isinstance(node, ast.alias) and node.name == "_MAX_ENTRY")
    }
    assert namers == {"algebra"}


def test_no_module_imports_gc():
    # A load changes no process-wide state: the loader does not switch
    # the cyclic collector, and nothing else in the package touches it.
    importers = {
        stem
        for stem, tree in parsed().items()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Import) and any(alias.name == "gc" for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "gc")
    }
    assert importers == set()


def calls():
    """(module, qualified function name, call node) of every call in the package."""
    found = []

    def visit(node, stem, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope + [child.name] if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else scope
            if isinstance(child, ast.Call):
                found.append((stem, ".".join(scope), child))
            visit(child, stem, inner)

    for stem, tree in parsed().items():
        visit(tree, stem, [])
    return found


def test_no_module_switches_the_collector():
    found = [
        (stem, scope, call.func.attr)
        for stem, scope, call in calls()
        if isinstance(call.func, ast.Attribute)
        and isinstance(call.func.value, ast.Name)
        and call.func.value.id == "gc"
        and call.func.attr in ("disable", "enable")
    ]
    assert found == []


def test_documents_are_read_only_in_read_document():
    # One reader, so a certificate's digest is of the bytes that were
    # verified; the writer is the only other open.
    found = [
        (stem, scope)
        for stem, scope, call in calls()
        if getattr(call.func, "id", None) == "open" or getattr(call.func, "attr", None) == "open"
    ]
    assert sorted(found) == [("io", "_read_document"), ("io", "write_json")]
