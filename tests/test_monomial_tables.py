"""The per-monomial tables: bounded, and never part of an answer.

``boundary``, ``wedge``, ``inversion_chain`` and the reduction entry
points (``reduce``, ``class_order``, ``is_boundary``) read each
monomial's faces, record (slot masks and j's sign) and (block key,
raised-slot subset) from a table per (group, degree).  Each table is a
``chains._MonomialTable``: a miss validates the monomial, computes its
entry, and stores it only for a monomial of plain ints.  The faces and
records tables are kept by ``chains._faces_table`` and
``pontryagin._record_table``, each an ``lru_cache`` of 32 pairs, and the
positions by the cached presentation, as its ``_positions``.  These
tests check that the three stores are that one class, that a cold, a
warm and a constantly evicted store give the same answers, that each
store keeps its bound, that stored faces and records equal a per-slot
reference and stored positions have the properties that pin them,
that stored valid monomials never let an invalid one through, and that
a monomial with entries of another type leaves no entry behind.
"""

import importlib
import random
from functools import lru_cache

import pytest

from support import (
    PROPERTY_GROUPS,
    G,
    clear_stores,
    mixed_slot_family,
    random_chain,
    random_cycle,
    reference_faces,
    reference_record,
    twisted_cells,
)
from twisthom import (
    Chain,
    DegreeMismatchError,
    InvalidMonomialError,
    basis,
    boundary,
    format_chain,
    is_cycle,
    monomial_chain,
    parse_chain,
    wedge,
)
from twisthom import chains, pontryagin
from twisthom.chains import _atomic_boundary, _faces_table, _MonomialTable
from twisthom.homology import class_order, homology, is_boundary, reduce_cycle
from twisthom.pontryagin import _record_table, inversion_chain

# The module: the package attribute ``twisthom.homology`` is the function.
H = importlib.import_module("twisthom.homology")
# Each per-monomial store, as (owning module, name): the faces, the
# records, and the presentations that hold the positions.
STORES = ((chains, "_faces_table"), (pontryagin, "_record_table"), (H, "homology"))


def _resize(monkeypatch, maxsize):
    """Put an empty store of ``maxsize`` entries (None: unbounded) in the
    place of each of ``STORES``."""
    for owner, name in STORES:
        fresh = lru_cache(maxsize=maxsize)(getattr(owner, name).__wrapped__)
        monkeypatch.setattr(owner, name, fresh)


def _infos():
    """The ``cache_info()`` of each of ``STORES``."""
    return [getattr(owner, name).cache_info() for owner, name in STORES]


def _groups():
    """PROPERTY_GROUPS, then every tenth group of the twisted and the
    mixed-slot families."""
    out = dict.fromkeys(G(text) for text in PROPERTY_GROUPS)
    for family in (twisted_cells(), mixed_slot_family()):
        out.update(dict.fromkeys(list(dict.fromkeys(g for g, _ in family))[::10]))
    return list(out)


def _cases(seed: int = 19):
    """(random chain, random cycle) pairs in degrees 0..4 over ``_groups``."""
    rng = random.Random(seed)
    return [(random_chain(rng, g, n), random_cycle(rng, g, n))
            for g in _groups() for n in range(5) for _ in range(2)]


def _answers(cases, before=lambda: None):
    """Every entry point that reads the tables, on every case; ``before``
    runs ahead of each call."""
    out = []
    for chain, cycle in cases:
        for call, *args in ((boundary, chain), (inversion_chain, chain), (is_boundary, chain),
                            (wedge, chain, cycle), (boundary, cycle), (inversion_chain, cycle),
                            (reduce_cycle, cycle), (class_order, cycle), (is_boundary, cycle)):
            before()
            out.append(call(*args))
    return out


def test_cold_warm_and_evicted_tables_agree(monkeypatch):
    cases = _cases()
    assert len(cases) > 400
    cold = _answers(cases, before=clear_stores)
    _resize(monkeypatch, None)
    _answers(cases)
    filled = _infos()
    warm = _answers(cases)
    # The second pass met no new table.
    assert [info.misses for info in _infos()] == [info.misses for info in filled]
    # One entry per store, and before each call a pair no case uses
    # (degree 99) takes its place, so every call meets a dropped table.
    _resize(monkeypatch, 1)
    evicted = _answers(cases, before=lambda: [getattr(owner, name)(G("Z_2"), 99)
                                              for owner, name in STORES])
    for info in _infos():
        assert info.currsize == 1
        assert info.misses > 2 * len(cases)  # at least two calls per case read each store
    assert cold == warm == evicted
    assert any(a is False for a in cold) and any(a is True for a in cold)
    # Printing too: faces are built from the stored monomial.
    assert list(map(str, cold)) == list(map(str, warm)) == list(map(str, evicted))


def test_table_store_is_bounded():
    # One table per (group, degree); the bound counts tables.
    clear_stores()
    tables = (_faces_table, _record_table)
    cells = [(G(f"Z_{q}"), n) for q in range(2, 12) for n in range(5)]
    assert all(t.cache_info().maxsize == 32 for t in tables)
    assert len(set(cells)) > 32
    first = [(boundary(c), inversion_chain(c), is_boundary(c))
             for c in (monomial_chain(g, (n,)) for g, n in cells[:4])]
    for g, n in cells:
        c = monomial_chain(g, (n,))
        boundary(c), inversion_chain(c), is_boundary(c)
        assert all(t.cache_info().currsize <= 32 for t in tables)
        # The positions of a presentation are entries of its own basis.
        assert set(homology(g, n)._positions) <= set(basis(g, n))
    info = homology.cache_info()
    assert info.currsize <= info.maxsize
    misses = [t.cache_info().misses for t in tables]
    assert [(boundary(c), inversion_chain(c), is_boundary(c))
            for c in (monomial_chain(g, (n,)) for g, n in cells[:4])] == first
    # The first four tables had been dropped, so each was made again.
    assert [t.cache_info().misses for t in tables] == [m + 4 for m in misses]


def test_invalid_monomials_are_refused_after_valid_ones_are_stored():
    g = G("Z x Z_3")
    clear_stores()
    for n in (2, 3):  # stores every monomial of degrees 2 and 3
        assert not is_boundary(Chain(g, n, dict.fromkeys(basis(g, n), 1)))
    positions = homology(g, 2)._positions
    assert set(positions) == set(basis(g, 2))
    assert (1, 2) in homology(g, 3)._positions
    invalid = (({(0, 0, 2): 1}, InvalidMonomialError),  # wrong slot count
               ({(0, 2): 1, (-1, 3): 1}, InvalidMonomialError),  # negative entry
               ({(1, 1): 1, (2, 0): 1}, InvalidMonomialError),  # Z slot above 1
               ({(0, 2): 1, (1, 2): 1}, DegreeMismatchError))  # total degree 3
    for terms, error in invalid:
        for check in (class_order, is_boundary, reduce_cycle):
            with pytest.raises(error):
                check(Chain(g, 2, terms))
    assert set(positions) == set(basis(g, 2))
    # Validation reads values only, so a tuple equal to a stored monomial
    # gets the answer validation gives it.
    assert class_order(Chain(g, 2, {(True, 1): 3})) == class_order(parse_chain(g, "3*[1 1]"))


def test_faces_and_multipliers_refuse_invalid_monomials():
    # Every table validates a monomial on a miss before it computes and
    # stores the entry.  inversion_chain used to give the float 0.5 for
    # [-3] over Z_3, boundary of the chain over Z x Z_3 in degree 7 was 0,
    # and its wedge square was {(5, 1): 4, (0, 0, 0): 4}.
    g = G("Z x Z_3")
    invalid = ((Chain(G("Z_3"), -3, {(-3,): 1}), InvalidMonomialError),
               (Chain(G("Z_7 x Z_3"), 0, {(-3, 3): 3}), InvalidMonomialError),
               (Chain(g, 7, {(5, 1): 1, (0, 0, 0): 2}), InvalidMonomialError),
               (Chain(g, 2, {(0, 2): 1, (0, 3): 1}), DegreeMismatchError))
    # Every (group, degree) this test touches; fewer than the bound, so
    # no table is dropped before it is read below.
    touched = {(c.group, c.degree) for c, _ in invalid}
    for warm in (False, True):
        clear_stores()
        if warm:  # every valid monomial of Z x Z_3 in degrees 2 and 7 stored
            for n in (2, 7):
                z = Chain(g, n, dict.fromkeys(basis(g, n), 1))
                boundary(z), inversion_chain(z), is_boundary(z)
            assert (len(_faces_table(g, 7)) == len(_record_table(g, 7))
                    == len(homology(g, 7)._positions) == len(basis(g, 7)))
        for chain, error in invalid:
            calls = [boundary, is_cycle, inversion_chain, lambda c: wedge(c, c)]
            if chain.degree >= 0:  # a presentation, and so its positions, exist
                calls.append(class_order)
            for call in calls:
                with pytest.raises(error):
                    call(chain)
        assert _faces_table.cache_info().currsize == len(touched) < 32
        for group, n in touched:
            assert set(_faces_table(group, n)) <= set(basis(group, n))
            assert set(_record_table(group, n)) <= set(basis(group, n))
            if n >= 0:
                assert set(homology(group, n)._positions) <= set(basis(group, n))


def test_every_store_is_one_validated_table_class():
    # Faces, records and positions are one class, whose miss validates a
    # monomial against the table's group and degree before computing its
    # entry, and stores nothing for a monomial it refuses.
    g = G("Z x Z_3")
    invalid = (((0, 0, 2), InvalidMonomialError),  # wrong slot count
               ((-1, 3), InvalidMonomialError),  # negative entry
               ((2, 0), InvalidMonomialError),  # Z slot above 1
               ((0.5, 1.5), InvalidMonomialError),  # not ints
               ((0, 3), DegreeMismatchError))  # total degree 3
    clear_stores()
    for table in (_faces_table(g, 2), _record_table(g, 2), homology(g, 2)._positions):
        assert type(table) is _MonomialTable
        assert (table.group, table.degree) == (g, 2)
        for mon, error in invalid:
            with pytest.raises(error):
                table[mon]
        assert not table
        assert table[(1, 1)] == table.compute(g, (1, 1))
        assert list(table) == [(1, 1)]


def test_monomials_with_entries_that_are_not_ints_are_refused():
    # A float entry passed every check of _validate_monomial: [0.5 0.5] over
    # Z_2 x Z_3 was a chain of degree 1.0, and the table entry points
    # failed with a bare TypeError from the parity test.  A bool is an int.
    g = G("Z_2 x Z_3")
    clear_stores()
    for mon in ((0.5, 0.5), (1.0, 0), (0, "1")):
        with pytest.raises(InvalidMonomialError, match="not an integer"):
            monomial_chain(g, mon)
        chain = Chain(g, 1, {mon: 1})
        for call in (boundary, inversion_chain, lambda c: wedge(c, c), reduce_cycle, class_order):
            with pytest.raises(InvalidMonomialError, match="not an integer"):
                call(chain)
    assert monomial_chain(g, (True, 0)).degree == 1


def test_boundary_of_an_equal_monomial_of_other_types_leaves_no_trace():
    # Every table stores an entry only for a monomial of plain ints, so a
    # bool monomial met first gets its int twin's answer and leaves no
    # entry: True never gets into the faces of [1 2].
    g = G("Z x Z_3")
    y = monomial_chain(g, (0, 2))
    reads = ((boundary, (True, 2), lambda: _faces_table(g, 3)),
             (lambda c: wedge(c, y), (True, 2), lambda: _record_table(g, 3)),
             (inversion_chain, (True, 2), lambda: _record_table(g, 3)),
             (reduce_cycle, (True, 1), lambda: homology(g, 2)._positions))
    for read, mon, table in reads:
        clear_stores()
        first = read(monomial_chain(g, mon, 2))
        assert not table()
        twin = tuple(map(int, mon))
        assert read(monomial_chain(g, twin, 2)) == first
        assert [type(i) for m in table() for i in m] == [int, int]
    clear_stores()
    assert format_chain(boundary(monomial_chain(g, (True, 2)))) == "-3*[True 1]"
    assert format_chain(boundary(parse_chain(g, "[1 2]"))) == "-3*[1 1]"


def test_wedge_after_an_equal_monomial_of_other_types_gives_int_monomials():
    # The record of (True, 2), met first, is not stored, and a product's
    # monomial is the sum of its factors'.
    g = G("Z x Z_3")
    clear_stores()
    y = monomial_chain(g, (0, 2))
    first = wedge(monomial_chain(g, (True, 2)), y)
    assert not _record_table(g, 3)
    second = wedge(parse_chain(g, "[1 2]"), y)
    assert first == second == parse_chain(g, "2*[1 4]")
    assert all(type(i) is int for c in (first, second) for mon in c.terms for i in mon)


def test_stored_entries_match_the_per_slot_reference():
    clear_stores()
    groups = [G(text) for text in ("Z x Z~ x Z_3", "Z_2~ x Z_4 x Z_3", "Z_4~ x Z^2")]
    for g in groups:
        for n in range(6):
            z = Chain(g, n, dict.fromkeys(basis(g, n), 1))
            boundary(z), inversion_chain(z), is_boundary(z)
    # One table of each kind per pair, none of them dropped.
    assert [info.currsize for info in _infos()] == [len(groups) * 6] * 3
    seen = 0
    for g in groups:
        for n in range(6):
            faces, records = _faces_table(g, n), _record_table(g, n)
            h = homology(g, n)
            assert set(faces) == set(records) == set(h._positions) == set(basis(g, n))
            for mon in basis(g, n):
                assert faces[mon] == reference_faces(g, mon)
                assert records[mon] == reference_record(g, mon)
                key, subset = h._positions[mon]
                # Each key entry is the lower end of its slot's pair or
                # stands alone, and each raised slot is paired.
                assert not any(map(_atomic_boundary, g.orders, g.signs, key))
                slots, kos = h._block(key)
                assert subset in kos.columns
                assert all(_atomic_boundary(g.orders[k], g.signs[k], key[k] + 1)
                           for k in (slots[s] for s in subset))
                raised = list(key)
                for s in subset:
                    raised[slots[s]] += 1
                assert tuple(raised) == mon
                seen += 1
    assert seen == sum(len(basis(g, n)) for g in groups for n in range(6)) > 80
