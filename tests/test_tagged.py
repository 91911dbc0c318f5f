import inspect

import pytest

from mixedchain.partitions import AtypicalLabel
from mixedchain.tagged import TaggedTuple
from mixedchain.uqmod import BarLabel, GL2Label, RLabel, ZLabel


def test_package_labels_carry_distinct_tags():
    classes = (ZLabel, RLabel, BarLabel, GL2Label, AtypicalLabel)
    assert len({cls._tag for cls in classes}) == len(classes)
    for cls in classes:
        x = cls(*range(len(cls._fields)))
        assert isinstance(x, TaggedTuple) and x[0] == cls._tag
        assert x[1:] == tuple(range(len(cls._fields)))


def test_constructor_keeps_the_field_signature():
    assert list(inspect.signature(ZLabel).parameters) == ["alpha", "beta", "s", "r"]
    assert ZLabel(alpha=1, beta=-1, s=3, r=2) == ZLabel(1, -1, 3, 2)
    with pytest.raises(TypeError):
        ZLabel(1, -1, 3)
    with pytest.raises(TypeError):
        ZLabel(1, -1, 3, 2, 0)


def test_subclass_needs_empty_slots_and_plain_field_names():
    with pytest.raises(TypeError):
        class NoSlots(TaggedTuple, fields="x y"):
            pass

    with pytest.raises(TypeError):
        class Clash(TaggedTuple, fields="x count"):
            __slots__ = ()

    class Pair(TaggedTuple, fields="x y"):
        __slots__ = ()

    p = Pair(1, 2)
    assert (p.x, p.y) == (1, 2)
    assert p != (1, 2)
