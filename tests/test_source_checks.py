"""Checks of the source that no installed linter makes: every module-level
import of ``src/bioforge`` is used and none is of ``dataclasses``, no
module defines an exception class, so every pipeline error is a
``ValueError`` (the type the CLI maps to exit code 2) raised with its
message, each message is made at one site, only ``schema`` reads a file
by ``os.pread``, no module calls ``typing.get_type_hints``, and every
parameter is read."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "bioforge"


def module_level_imports(tree: ast.Module):
    """Each import statement at module level, including one under a
    top-level ``if`` or ``try``."""
    nodes = list(tree.body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.If, ast.Try)):
            nodes.extend(ast.iter_child_nodes(node))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node


def module_imports(tree: ast.Module):
    """``(name, line)`` for each name bound by an import at module level."""
    for node in module_level_imports(tree):
        if getattr(node, "module", None) != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_module_level_import_is_used_or_marked(path):
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{path.name}:{line}: {name}" for name, line in module_imports(tree)
              if name not in used and "# noqa: F401" not in lines[line - 1]]
    assert unused == []


def test_no_module_imports_dataclasses_at_module_level():
    """Importing ``dataclasses`` loads ``inspect`` and ``ast`` too, which
    would add milliseconds to every command's start; records are made by
    ``records.record``."""
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in module_level_imports(ast.parse(path.read_text(encoding="utf-8")))
             if "dataclasses" in ([alias.name.split(".")[0] for alias in node.names]
                                  if isinstance(node, ast.Import) else [(node.module or "").split(".")[0]])]
    assert found == []


def base_name(node: ast.expr) -> str:
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def test_no_module_defines_an_exception_class():
    defined = [f"{path.name}:{node.lineno}: {node.name}" for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ClassDef)
               and any(base_name(base).endswith(("Error", "Exception")) for base in node.bases)]
    assert defined == []


def test_each_value_error_message_is_made_at_one_site():
    """Compared by the source text of the first argument of each
    ``ValueError(...)`` call, so a message with the same text at two sites
    is a copy that one of them should get from the other."""
    sites: dict[str, list[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call) and base_name(node.func) == "ValueError" and node.args:
                sites.setdefault(ast.get_source_segment(source, node.args[0]), []).append(
                    f"{path.name}:{node.lineno}")
    assert {message: where for message, where in sites.items() if len(where) > 1} == {}


def test_only_schema_calls_os_pread():
    """Rows are read again by their byte spans only in ``schema`` (the span
    columns, ``copy_lines`` and the block reader of ``last_rows``)."""
    calls = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, (ast.Attribute, ast.Name, ast.alias))
             and "pread" in (getattr(node, "attr", None), getattr(node, "id", None), getattr(node, "name", None))]
    assert calls and all(call.startswith("schema.py:") for call in calls), calls


def test_no_module_calls_get_type_hints():
    """A record's annotations are evaluated in its module's namespace, once
    each (``schema._annotation``): ``typing.get_type_hints`` walks every
    base class and evaluates every annotation again on each call."""
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if "get_type_hints" in (getattr(node, "attr", None), getattr(node, "id", None),
                                     getattr(node, "name", None))]
    assert found == []


# Parameters that are not read, but kept: the public parsers' ``language``,
# which the benchmark's tracer passes positionally (``parse_ner_output(raw,
# language, vocab)``), so dropping it would change their signatures under it.
UNREAD_KEPT = {"parse_ner_output(language)", "parse_re_output(language)", "parse_tc_output(language)"}


def test_every_parameter_is_read():
    """Each parameter of every function and lambda is read in its body, or
    named with a leading ``_``: an argument that a dispatch table's
    signature forces on its function (the ingest ``_FORMATS`` parsers, the
    ``GRAMMARS`` renderers and prompts).  A dataset fact that a function
    does not read is not passed to it.  Dunder methods are skipped."""
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            name = getattr(node, "name", "<lambda>")
            if name.startswith("__") and name.endswith("__"):
                continue
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, *filter(None, (args.vararg, args.kwarg))]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)
                    and isinstance(n.ctx, ast.Load)}
            unread += [(f"{name}({p.arg})", f"{path.name}:{node.lineno}") for p in params
                       if p.arg not in read and not p.arg.startswith("_")]
    assert [f"{where}: {what}" for what, where in unread if what not in UNREAD_KEPT] == []
    assert {what for what, _ in unread} == UNREAD_KEPT  # an entry that is read again leaves the list
