"""Immutable labels as tagged tuples.

Every label of the package (simple, projective, barred, gl(2) and atypical
labels), and every record of the label layer (gl(2) blocks, Loewy graphs,
bimodule vertices and graphs), is a `TaggedTuple`: a `tuple` subclass
holding ``(tag, *fields)``, where the tag is an integer unique to the class.
Hashing, equality and ordering are the tuple's own and run in C, and the tag
keeps labels of different classes apart: ``Z[1,1;2,0]`` and ``R[1,1;2,0]``
have equal fields, yet they are unequal and stay two keys of one dict.
Within a class, labels order by their field tuples.  (A plain tuple that
spells out the tag and the fields would compare equal to its label; the
package never builds one.)

A subclass names its fields in the class statement and declares empty slots,
so its instances have no ``__dict__`` and refuse attribute assignment::

    class ZLabel(TaggedTuple, fields="alpha beta s r"):
        __slots__ = ()

Each field becomes a read-only property, and the constructor takes the
fields positionally or by name.  A factory that has validated its input may
skip the constructor's frame with ``tuple.__new__(cls, (cls._tag, *fields))``.
Tags are integers handed out in class-definition order, so a label whose
fields are integers hashes the same in every interpreter.
"""

from __future__ import annotations

import itertools
from operator import itemgetter

_tags = itertools.count()


class TaggedTuple(tuple):
    """Base of the immutable label classes; see the module docstring."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _tag: int

    def __init_subclass__(cls, fields: str, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__dict__.get("__slots__") != ():
            raise TypeError(f"{cls.__name__} must declare __slots__ = ()")
        names = tuple(fields.split())
        if not all(name.isidentifier() and not hasattr(tuple, name) for name in names):
            raise TypeError(f"bad field names {fields!r} for {cls.__name__}")
        cls._fields = names
        cls._tag = tag = next(_tags)
        args = ", ".join(names)
        # a generated constructor keeps the field names as its signature
        new = eval(f"lambda cls, {args}: new(cls, (tag, {args}))",
                   {"new": tuple.__new__, "tag": tag})
        new.__name__ = "__new__"
        new.__qualname__ = f"{cls.__qualname__}.__new__"
        cls.__new__ = staticmethod(new)
        for i, name in enumerate(names, 1):
            setattr(cls, name, property(itemgetter(i), doc=f"The {name!r} field."))

    def __getnewargs__(self):
        return self[1:]
