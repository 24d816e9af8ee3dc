"""Record classes without ``dataclasses``, and the code made for each.

Every record class is declared under :func:`record`, which reads its
annotated fields and defaults once into one field list and builds its
methods and its JSON codec from it, without ``dataclasses``, whose import
and decorations cost each command about 20 ms of its start.  The generated
code (``__init__``, decoder, writer) is compiled on first use, so a command
compiles only that of the records it makes, reads or writes.  Annotations
are evaluated once each, in their module's namespace.

One codec, :func:`to_dict` / :func:`from_dict`, maps every record to JSON
and back: keys are the field names, in sorted order (a dict field's keys
too), tuples become lists, enums become their values, nested records become
objects, and a key absent on input takes the field's default.  It is the one
type check of JSON input: a field takes only a value of its exact type
(``true`` is no int), ``null`` only if ``Optional``, and each tuple item and
dict value is checked; a missing required key or a mistyped value raises
``ValueError`` naming the class and field, which ``schema.read_jsonl``
prefixes with ``<path>:<line>:``.  Each class's codec is one straight-line
function each way: decoding has one type dispatch, :func:`_decode_expr`, and
encoding one, :func:`_write_expr`.  A record is written straight to its JSON
line by its class's :func:`_writer`, the bytes ``json`` writes for its dict;
:func:`to_dict` parses that line.

It is a module apart from ``schema`` so that neither is large to compile:
a command run without byte code compiles each module from source, and holds
one module's whole parse tree at a time.
"""

from __future__ import annotations

import functools
import json
import sys
from enum import Enum
from operator import attrgetter
from typing import Callable, Union, get_args, get_origin


class Factory:
    """A record field's default that ``make()`` makes afresh for each
    record, as ``dataclasses.field(default_factory=make)`` does."""

    __slots__ = ("make",)

    def __init__(self, make: Callable):
        self.make = make


_REQUIRED = object()  # the default of a field that has none


def _compile(qualname: str, lines: list[str], ns: dict) -> Callable:
    """The one function that ``lines`` define, compiled in ``ns`` under the
    file name ``<record <qualname>>`` and named ``qualname``: its record
    class's ``__init__``, ``write`` or ``decode`` (a projection's names its
    fields, as in ``decode[text, dataset_id]``)."""
    name = lines[0][len("def "):lines[0].index("(")]
    exec(compile("\n".join(lines), f"<record {qualname}>", "exec"), ns)  # noqa: S102 (made from field lists)
    ns[name].__qualname__ = qualname
    return ns[name]


class _DataclassFields:
    """A record class's ``__dataclass_fields__``, so that
    ``dataclasses.fields``, ``replace``, ``asdict`` and ``is_dataclass``
    take records.  On first access, ``dataclasses`` makes it from a shadow
    class of the same fields and defaults, and it replaces this descriptor
    on the record class.  Only callers of ``dataclasses`` reach it."""

    def __get__(self, obj, cls):
        import dataclasses
        body = {"__module__": cls.__module__, "__qualname__": cls.__qualname__,
                "__annotations__": {name: cls.__annotations__[name] for name, _ in cls.__record_fields__}}
        for name, default in cls.__record_fields__:
            if isinstance(default, Factory):
                body[name] = dataclasses.field(default_factory=default.make)
            elif default is not _REQUIRED:
                body[name] = default
        shadow = dataclasses.dataclass(init=False, repr=False, eq=False)(type(cls.__name__, (), body))
        cls.__dataclass_fields__ = shadow.__dataclass_fields__
        return cls.__dataclass_fields__


_DATACLASS_FIELDS = _DataclassFields()


class _Init:
    """A record class's ``__init__`` until it is first looked up (by a call
    of the class, or by ``inspect.signature``): then it is compiled from the
    field list and replaces this descriptor on the class."""

    __slots__ = ("cls", "frozen")

    def __init__(self, cls, frozen: bool):
        self.cls, self.frozen = cls, frozen

    def __get__(self, obj, owner):
        cls = self.cls
        ns: dict = {"_setattr": object.__setattr__}
        params, lines = [], []
        for i, (name, default) in enumerate(cls.__record_fields__):
            value = name
            if default is _REQUIRED:
                params.append(name)
            else:
                ns[f"_default{i}"] = default
                params.append(f"{name}=_default{i}")
            if isinstance(default, Factory):  # the marker itself stands for an argument not given
                value = f"_default{i}.make() if {name} is _default{i} else {name}"
            lines.append(f"    _setattr(self, {name!r}, {value})" if self.frozen else f"    self.{name} = {value}")
        if hasattr(cls, "__post_init__"):
            lines.append("    self.__post_init__()")
        init = _compile(f"{cls.__qualname__}.__init__", [f"def __init__(self, {', '.join(params)}):", *lines], ns)
        cls.__init__ = init
        return init if obj is None else init.__get__(obj, owner)


def record(cls=None, *, frozen: bool = False, slots: bool = False):
    """Make ``cls`` a record class, as ``dataclasses.dataclass`` with the
    same arguments does, without importing ``dataclasses``.

    The class's annotated names, in order, with their class-level defaults
    (a :class:`Factory` is made afresh per record), are read once into its
    field list, ``__record_fields__``, from which the codecs, :func:`replace`,
    :func:`asdict` and its methods are built: an ``__init__``, compiled when
    it is first looked up, that calls ``__post_init__`` if the class has one,
    ``__repr__`` and ``__eq__`` over the tuple of fields (a record of the same
    class only) and, if ``frozen``, that tuple's ``__hash__`` and an
    ``AttributeError`` on assignment.  ``slots`` remakes the class with a
    slot per field."""
    if cls is None:
        return functools.partial(record, frozen=frozen, slots=slots)
    fields = tuple((name, cls.__dict__.get(name, _REQUIRED)) for name in cls.__dict__.get("__annotations__", {}))
    names = tuple(name for name, _ in fields)
    if slots:
        body = {k: v for k, v in cls.__dict__.items() if k not in names and k not in ("__dict__", "__weakref__")}
        cls = type(cls)(cls.__name__, cls.__bases__, {**body, "__slots__": names, "__qualname__": cls.__qualname__})
    else:  # a Factory stands for an argument not given, never for a value
        for name, default in fields:
            if isinstance(default, Factory):
                delattr(cls, name)
    init = _Init(cls, frozen)
    key = attrgetter(*names) if len(names) > 1 else lambda o, name=names[0]: (getattr(o, name),)

    def __eq__(self, other):
        return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        return f"{self.__class__.__qualname__}({', '.join(f'{n}={v!r}' for n, v in zip(names, key(self)))})"

    def __hash__(self):
        return hash(key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    cls.__init__, cls.__eq__, cls.__repr__ = init, __eq__, __repr__
    if frozen:
        cls.__hash__, cls.__setattr__, cls.__delattr__ = __hash__, __setattr__, __delattr__
    else:
        cls.__hash__ = None
    cls.__record_fields__, cls.__dataclass_fields__ = fields, _DATACLASS_FIELDS
    return cls


def replace(obj, **changes):
    """A new record of ``obj``'s class with ``obj``'s fields but those
    named in ``changes``, as ``dataclasses.replace`` gives it."""
    values = {name: getattr(obj, name) for name, _ in obj.__record_fields__}
    values.update(changes)
    return obj.__class__(**values)


def asdict(obj) -> dict:
    """The fields of the record ``obj`` as a dict in field order, each
    nested record, list, tuple and dict copied likewise, as
    ``dataclasses.asdict`` gives them."""
    return {name: _copied(getattr(obj, name)) for name, _ in obj.__record_fields__}


def _copied(value):
    if hasattr(value.__class__, "__record_fields__"):
        return asdict(value)
    if value.__class__ in (list, tuple):
        return value.__class__(map(_copied, value))
    if value.__class__ is dict:
        return {_copied(k): _copied(v) for k, v in value.items()}
    return value


def _mistyped(expected: str, value):
    """Raise the error of a ``value`` that is not a JSON value of ``expected``."""
    raise ValueError(f"expected {expected}, got {value!r:.40}")


# The one JSONL encoder, made once: it keeps a dict's key order.  A record's
# line is the same text, made by its class's :func:`_writer`; ``_str_text``
# is the C encoder of one str that ``_dump_record`` calls.
_dump_record = json.JSONEncoder(ensure_ascii=False, check_circular=False).encode
_str_text = json.encoder.encode_basestring


def _on_first_call(ns: dict, name: str, make: Callable) -> None:
    """Bind ``name`` in the namespace ``ns`` of generated code to a stand-in
    that, on its first call, puts ``make()`` in its place and calls that: a
    nested record's decoder or writer is compiled only once a value needs it."""
    def first(*args):
        ns[name] = made = make()
        return made(*args)
    ns[name] = first


@functools.cache
def _annotation(module: str, text) -> object:
    """The type an annotation names: its text (every module here defers its
    annotations) evaluated once in the namespace of the module ``module``."""
    return eval(text, vars(sys.modules[module])) if isinstance(text, str) else text  # noqa: S307


_ABSENT = object()  # what ``dict.get`` gives for a key the JSON object lacks


@functools.cache
def _plan(cls) -> list[tuple]:
    """Per field of ``cls``, in order: name, type (``X`` of ``Optional[X]``),
    whether it may be None, and a callable that gives an absent key's value
    afresh for each record (``_REQUIRED`` if the key is required), from
    its field list (see :func:`record`) and its annotations."""
    plan = []
    for name, default in cls.__record_fields__:
        hint = _annotation(cls.__module__, cls.__annotations__[name])
        nullable = get_origin(hint) is Union  # Optional[X]
        if nullable:
            hint = get_args(hint)[0]
        if isinstance(default, Factory):
            default = default.make
        elif default is not _REQUIRED:
            default = lambda v=default: v
        plan.append((name, hint, nullable, default))
    return plan


# What a field's value of exactly each of these classes is written as (its
# JSON text, as ``_dump_record`` writes it); a value of another class is
# written by ``_dump_record`` (``int.__repr__(True)`` is ``'1'``, not ``true``).
_TEXT_OF = {str: "_str_text({})", int: "_int_text({})", bool: "('true' if {} else 'false')"}


def _write_expr(tp, var: str, ns: dict) -> str:
    """Source of an expression that gives the JSON text of the non-None
    value ``var`` of type ``tp``, as ``_dump_record`` writes the value the
    record's dict held: a str, int or bool by its :data:`_TEXT_OF` text, an
    enum member by its value's, each item of a tuple likewise and a nested
    record by its own :func:`_writer`; a value of another class, a fixed-size
    tuple, a dict and a float by ``_dump_record``.  The helpers it calls are
    added to ``ns``."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is tuple and args[-1] is Ellipsis:
        item = _write_expr(args[0], "i", ns)
        joined = f"'[%s]' % ', '.join([{item} for i in {var}])"
        return f"{joined} if {var} else '[]' if {var} == () else _dump(list({var}))"
    if origin is tuple:  # fixed-size tuple of plain values, e.g. a (key, text) pair
        return f"_dump(list({var}))"
    if origin is dict:  # sorted, as the keys of a record are
        return f"_dump(dict(sorted({var}.items())))"
    if isinstance(tp, type) and issubclass(tp, Enum):
        ns[f"_{tp.__name__}"], ns[f"_{tp.__name__}_text"] = tp, {m: _str_text(m.value) for m in tp}
        return f"_{tp.__name__}_text[{var}] if type({var}) is _{tp.__name__} else _dump({var}.value)"
    if hasattr(tp, "__record_fields__"):
        _on_first_call(ns, f"_write_{tp.__name__}", functools.partial(_writer, tp))
        return f"_write_{tp.__name__}({var})"
    if tp in _TEXT_OF:
        return f"{_TEXT_OF[tp].format(var)} if type({var}) is {tp.__name__} else _dump({var})"
    return f"_dump({var})"


@functools.cache
def _writer(cls) -> Callable:
    """One generated function per record class: the record's JSON text, as
    ``_dump_record`` writes its dict of fields in sorted key order (see
    :func:`to_dict`), each field's text made by :func:`_write_expr` and the
    keys' text written in."""
    ns: dict = {"_dump": _dump_record, "_str_text": _str_text, "_int_text": int.__repr__}
    lines, items = ["def write(o):"], []
    for i, (name, hint, nullable, _) in enumerate(sorted(_plan(cls))):
        null = "'null' if x is None else " if nullable else ""
        lines += [f"    x = o.{name}", f"    v{i} = {null}{_write_expr(hint, 'x', ns)}"]
        items.append(f"{_str_text(name)}: {{v{i}}}")
    lines.append("    return f'{{" + ", ".join(items) + "}}'")
    return _compile(f"{cls.__qualname__}.write", lines, ns)


def _decode_expr(tp, var: str, ns: dict, otherwise: str) -> str:
    """Source of an expression that decodes the JSON value ``var`` of type
    ``tp``: one inline test that ``var`` has the type's common form, then
    its decoded value, or else ``otherwise(expected, var)``, the named
    fallback; the helpers it calls are added to ``ns``.  Container items are
    decoded inline, each with ``_mistyped`` as its fallback, and a nested
    record by its own :func:`_decoder`."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is tuple and args[-1] is Ellipsis:
        item = _decode_expr(args[0], "i", ns, "_mistyped")
        expected, test = "list", f"type({var}) is list"
        value = f"tuple([{item} for i in {var}]) if {var} else ()"
    elif origin is tuple:  # fixed-size tuple of plain values, e.g. a (key, text) pair
        expected, test = f"list of {len(args)}", f"type({var}) is list and len({var}) == {len(args)}"
        value = "".join(f"{_decode_expr(a, f'{var}[{k}]', ns, '_mistyped')}, " for k, a in enumerate(args))
    elif origin is dict:  # JSON object keys are strings; each value is checked
        expected, test = "dict", f"type({var}) is dict"
        value = f"{{k: {_decode_expr(args[1], 'v', ns, '_mistyped')} for k, v in {var}.items()}}"
    elif isinstance(tp, type) and issubclass(tp, Enum):
        expected = tp.__name__
        ns[f"_{expected}"] = {m.value: m for m in tp}
        test, value = f"type({var}) is str and {var} in _{expected}", f"_{expected}[{var}]"
    elif hasattr(tp, "__record_fields__"):
        expected = tp.__name__
        _on_first_call(ns, f"_dec_{expected}", functools.partial(_decoder, tp))
        test, value = f"type({var}) is dict", f"_dec_{expected}({var})"
    else:
        expected = tp.__name__
        ns[f"_{expected}"] = tp
        test, value = f"type({var}) is _{expected}", var
    return f"({value}) if {test} else {otherwise}({expected!r}, {var})"


def _absent_or_mistyped(default) -> Callable:
    """A record field's fallback: an absent key's default, made afresh, or
    ``required key missing``; any other value is mistyped."""
    def otherwise(expected: str, value):
        if value is not _ABSENT:
            _mistyped(expected, value)
        if default is _REQUIRED:
            raise ValueError("required key missing")
        return default()
    return otherwise


@functools.cache
def _decoder(cls, project: tuple[str, ...] = ()) -> Callable:
    """One generated function per record class: per field, one ``dict.get``
    and the :func:`_decode_expr` of its type, whose fallback gives an absent
    key's default (a nullable field's ``null`` is None, tested first); a
    ``ValueError`` is prefixed ``<Class>.<field>: ``.

    With ``project``, a tuple of field names, it is a projection: every
    field is decoded and checked the same way, but it returns the named
    fields' values, in that order, and builds no record.  A class with rule
    checks (``__post_init__``) has no projection, which would skip them."""
    names = [name for name, *_ in _plan(cls)]
    if project and hasattr(cls, "__post_init__"):
        raise TypeError(f"{cls.__name__} checks rules in __post_init__: it has no projection")
    for name in project:
        if name not in names:
            raise TypeError(f"{cls.__name__} has no field {name!r}")
    ns: dict = {"_A": _ABSENT, "_cls": cls, "_mistyped": _mistyped,
                "_new": object.__new__, "_setattr": object.__setattr__}
    lines = ["def decode(d):",
             "    if type(d) is not dict:",
             f"        _mistyped({cls.__name__!r}, d)",
             "    get = d.get"]
    for i, (name, hint, nullable, default) in enumerate(_plan(cls)):
        ns[f"_or{i}"] = _absent_or_mistyped(default)
        value = _decode_expr(hint, "x", ns, f"_or{i}")
        lines += ["    try:",
                  f"        x = get({name!r}, _A)",
                  f"        v{i} = {'None if x is None else ' if nullable else ''}{value}",
                  "    except ValueError as exc:",
                  f"        raise ValueError(f'{cls.__name__}.{name}: {{exc}}') from None"]
    if project:
        lines.append(f"    return ({''.join(f'v{names.index(name)}, ' for name in project)})")
        return _compile(f"{cls.__qualname__}.decode[{', '.join(project)}]", lines, ns)
    # what the frozen __init__ does, without its call: each field set in
    # order (so instances keep sharing one key table), then its rule check
    lines.append("    o = _new(_cls)")
    lines += [f"    _setattr(o, {name!r}, v{i})" for i, name in enumerate(names)]
    if hasattr(cls, "__post_init__"):
        lines.append("    o.__post_init__()")
    lines.append("    return o")
    return _compile(f"{cls.__qualname__}.decode", lines, ns)


def to_dict(obj) -> dict:
    """Encode a record as a JSON-ready dict, keys sorted: the JSON value of
    the line its class's writer makes (see the module docstring)."""
    return json.loads(_writer(type(obj))(obj))


def from_dict(cls, d):
    """Decode a JSON value into a ``cls`` record (see the module docstring)."""
    return _decoder(cls)(d)
