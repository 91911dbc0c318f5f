import copy
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mixedchain.partitions as pa
from mixedchain.labelctx import context
from mixedchain.partitions import (
    NotInLambda,
    add_boxes,
    atypical_set,
    bip_str,
    cross_labels,
    gswap,
    is_cross21,
    part_str,
    rem_boxes,
)
from oracles import (
    AtypicalLabel,
    InvalidF,
    _columns,
    atyp,
    atypical_bipartition,
    classify_atypical,
    count_partitions,
    cross_set,
    gswap_label,
    lambda_all,
    lambda_set,
    partitions_of,
)


def test_lambda_set_examples():
    assert lambda_set(1, 1, 1) == [((), ())]
    assert lambda_set(2, 1, 1) == [((1,), ())]
    assert len(lambda_set(3, 2, 0)) == 6
    with pytest.raises(InvalidF):
        lambda_set(2, 1, 2)


def test_lambda_count():
    for m in range(0, 9):
        for n in range(0, 9):
            total = sum(count_partitions(m - f) * count_partitions(n - f)
                        for f in range(min(m, n) + 1))
            assert len(lambda_all(m, n)) == total


def test_boxes_examples():
    assert set(add_boxes((2, 1))) == {(3, 1), (2, 2), (2, 1, 1)}
    assert set(rem_boxes((2, 1))) == {(1, 1), (2,)}
    assert rem_boxes(()) == []


partition_strategy = st.integers(min_value=0, max_value=12).map(
    lambda k: partitions_of(k))


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=12), st.data())
def test_add_rem_duality(k, data):
    mu = data.draw(st.sampled_from(partitions_of(k)))
    for nu in add_boxes(mu):
        assert mu in rem_boxes(nu)
    for nu in rem_boxes(mu):
        assert mu in add_boxes(nu)


def is_hook(mu, p, q):
    """True iff mu has no box at position (p+1, q+1), i.e. mu_{p+1} < q+1."""
    row = mu[p] if p < len(mu) else 0
    return row < q + 1


def is_cross(lam, p, q):
    """(p,q)-cross test by brute force: the two halves are (p_i,q_i)-hooks
    with p1+p2 <= p, q1+q2 <= q.  The oracle for the closed form."""
    left, right = lam
    for p1 in range(p + 1):
        for q1 in range(q + 1):
            if not is_hook(left, p1, q1):
                continue
            for p2 in range(p + 1 - p1):
                for q2 in range(q + 1 - q1):
                    if is_hook(right, p2, q2):
                        return True
    return False


def test_cross_closed_form_matches_brute_force():
    halves = [mu for k in range(15) for mu in partitions_of(k)]
    assert len(halves) ** 2 == 258064
    for left in halves:
        for right in halves:
            lam = (left, right)
            assert is_cross21(lam) == is_cross(lam, 2, 1), lam


def test_hooks():
    assert is_hook((3, 1, 1), 1, 1)
    assert not is_hook((2, 2), 1, 1)
    assert is_hook((), 0, 0)


def test_cross_examples():
    assert is_cross21(((5,), (3,)))
    assert not is_cross21(((2, 2), (2, 2)))
    assert is_cross21(((), ()))


def test_classify_examples():
    # ((2),(1)) realizes no atypical label wherever it lives
    assert classify_atypical(((2,), (1,)), 3, 2) is None
    assert classify_atypical(((), ()), 2, 2) == atyp("delta", False, 0, 0)
    assert classify_atypical(((1, 1, 1), (1,)), 4, 2) is None
    assert classify_atypical(((2, 1, 1), (2,)), 4, 2) == atyp("delta", False, 2, 2)
    with pytest.raises(NotInLambda):
        classify_atypical(((2,), (1,)), 3, 1)
    with pytest.raises(NotInLambda):
        classify_atypical(((5,), ()), 2, 1)


def test_canonical_identifications():
    assert atyp("delta1", False, 3, 1) == atyp("delta", False, 3, 1)
    assert atyp("delta2", True, 0, 0) == atyp("delta2", False, 0, 0)
    assert atypical_bipartition(atyp("delta", False, 2, 1)) == ((2, 1), (1,))
    assert atypical_bipartition(atyp("delta2", False, 0, 0)) == ((1, 1), (1, 1))


def test_gswap():
    lam = ((2, 1), (3,))
    assert gswap(lam) == ((3,), (2, 1))
    assert gswap(gswap(lam)) == lam
    lab = atyp("delta", False, 2, 1)
    assert gswap_label(lab) == atyp("delta", True, 2, 1)
    assert atypical_bipartition(gswap_label(lab)) == gswap(atypical_bipartition(lab))


def test_atypical_subset_of_cross():
    for m in range(0, 9):
        for n in range(0, 9 - m):
            for lam in atypical_set(m, n):
                assert is_cross21(lam), (m, n, lam)
                assert atypical_bipartition(classify_atypical(lam, m, n)) == lam


def _atypical_set_by_family(m, n):
    """The atypical set enumerated family by family in each regime: the
    oracle for the derivation from the column layout."""
    labels = []
    if m > n:
        a = m - n
        labels += [atyp("delta", False, a, s) for s in range(0, n + 1)]
        labels += [atyp("delta1", False, a, s) for s in range(2, min(a, n) + 1)]
        labels += [atyp("delta2", False, a, s) for s in range(a, n - 1)]
    elif m == n:
        labels += [atyp("delta", False, 0, 0)]
        labels += [atyp("delta2", False, 0, s) for s in range(0, n - 1)]
        labels += [atyp("delta2", True, 0, s) for s in range(1, n - 1)]
    else:
        a = n - m
        labels += [atyp("delta", True, a, s) for s in range(0, m + 1)]
        labels += [atyp("delta1", True, a, s) for s in range(2, min(a, m) + 1)]
        labels += [atyp("delta2", True, a, s) for s in range(a, m - 1)]
    out = {}
    for lab in labels:
        bp = atypical_bipartition(lab)
        assert out.setdefault(bp, lab) == lab, (m, n, lab)
    return out


def test_atypical_set_matches_family_enumeration():
    for total in range(1, 41):
        for m in range(total + 1):
            n = total - m
            assert atypical_set(m, n) == set(_atypical_set_by_family(m, n)), (m, n)


def test_classify_respects_gswap():
    for m in range(0, 9):
        for n in range(0, 9 - m):
            for lam in atypical_set(m, n):
                lab = classify_atypical(lam, m, n)
                assert classify_atypical(gswap(lam), n, m) == gswap_label(lab)


def test_label_classes_match_the_family_layout():
    # the layout read off the barred (t, r) of each cross label: the atypical
    # set, the extra vertex, the host and the column order equal the paper's
    # family layout at every context with m+n <= 40, on both mirror sides,
    # and at the far contexts of the identities
    near = [(m, total - m) for total in range(41) for m in range(total + 1)]
    for m, n in near + [(75, 75), (100, 50), (50, 100), (1, 149), (149, 0)]:
        classes = pa.label_classes(m, n)
        cols, extra, host = _columns(m, n)
        columns = tuple(atypical_bipartition(lab) for lab in cols)
        assert classes.columns == columns, (m, n)
        assert classes.extra == atypical_bipartition(extra), (m, n)
        assert classes.host == host, (m, n)
        assert classes.atypical == {*columns, classes.extra}, (m, n)
        assert len(classes.cells) + len(classes.atypical) == len(cross_labels(m, n)), (m, n)


def _plant_two_extras(barred, lam, a):
    # every label with R empty is atypical
    t, r = barred(lam, a)
    return (0, r) if not lam[1] else (t, r)


def _plant_shared_keys(barred, lam, a):
    # every column takes one (t, r)
    t, r = barred(lam, a)
    return (0, 1) if t * r == 0 and lam[1] else (t, r)


def _plant_rival_host(barred, lam, a):
    # the typical ((a+1), (1)) joins the columns, with the host's defect
    return (0, -1) if lam == ((a + 1,), (1,)) else barred(lam, a)


@pytest.mark.parametrize("plant, message", [
    (_plant_two_extras, "have R empty, not one"),
    (_plant_shared_keys, "share their barred"),
    (_plant_rival_host, "largest defect of a column"),
], ids=["two-extras", "shared-keys", "rival-host"])
def test_label_classes_guard_a_planted_barred_fault(monkeypatch, plant, message):
    # the classification itself raises, with no oracle to compare against:
    # in some context, and not in every one
    barred = pa._barred
    monkeypatch.setattr(pa, "_barred", lambda lam, a: plant(barred, lam, a))
    context.cache_clear()
    raised, contexts = [], [(m, total - m) for total in range(1, 9) for m in range(total + 1)]
    try:
        for m, n in contexts:
            try:
                pa.label_classes(m, n)
            except AssertionError as exc:
                assert message in str(exc), (m, n, exc)
                raised.append((m, n))
    finally:
        context.cache_clear()
    assert 0 < len(raised) < len(contexts), raised


def test_cross_set_closed_under_swap():
    for m in range(0, 7):
        for n in range(0, 7 - m):
            assert sorted(gswap(x) for x in cross_set(m, n)) == cross_set(n, m)


def test_cross_labels_are_cross_set():
    # the direct enumeration lists each label of the filtered one once
    for total in range(26):
        for m in range(total + 1):
            labels = cross_labels(total - m, m)
            assert len(labels) == len(set(labels)), (total - m, m)
            assert sorted(labels) == cross_set(total - m, m), (total - m, m)


def test_cross_labels_closed_under_swap():
    for total in range(41):
        for m in range(total + 1):
            n = total - m
            assert {gswap(x) for x in cross_labels(m, n)} == set(cross_labels(n, m)), (m, n)


def test_rendering():
    assert part_str((3, 1, 1, 1)) == "3,1^3"
    assert part_str(()) == "-"
    assert part_str((2, 2)) == "2^2"
    assert bip_str(((2, 1), ())) == "[2,1 | -]"


def _atypical_labels():
    return [atyp(family, barred, a, s) for family in ("delta2", "delta", "delta1")
            for barred in (True, False) for a in range(3, -1, -1) for s in range(3, -1, -1)]


def test_atypical_labels_are_tagged_tuples():
    lab = atyp("delta", True, 2, 1)
    assert repr(lab) == "~d[2,1]"
    assert repr(atyp("delta1", False, 3, 2)) == "d'[3,2]"
    assert repr(atyp("delta2", True, 1, 4)) == "~d''[1,4]"
    assert (lab.family, lab.bar, lab.a, lab.s) == ("delta", True, 2, 1)
    assert AtypicalLabel("delta", True, 2, 1) == lab
    assert AtypicalLabel(family="delta", bar=True, a=2, s=1) == lab
    # order within the class is the old field-tuple order
    labels = _atypical_labels()
    fields = [(x.family, x.bar, x.a, x.s) for x in labels]
    assert [(x.family, x.bar, x.a, x.s) for x in sorted(labels)] == sorted(fields)
    for x, y in itertools.product(labels[::5], repeat=2):
        assert (x < y) == ((x.family, x.bar, x.a, x.s) < (y.family, y.bar, y.a, y.s))
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(lab, protocol=proto))
        assert type(back) is AtypicalLabel and back == lab
    assert type(copy.deepcopy(lab)) is AtypicalLabel and copy.deepcopy(lab) == lab
    with pytest.raises(AttributeError):
        lab.a = 5
    with pytest.raises(AttributeError):
        lab.note = "x"


def test_atypical_labels_never_equal_other_labels():
    from mixedchain.labels import ZLabel

    lab = AtypicalLabel(1, 1, 2, 0)  # the fields of a plain label
    plain = ZLabel(1, 1, 2, 0)
    assert lab != plain and len({lab: 1, plain: 2}) == 2
