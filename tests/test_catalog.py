import itertools
import math

import pytest

from nwfs.catalog import (
    UnknownCatalogKey,
    get,
    get_category,
    get_gens,
    horn_inclusion,
    keys,
    representable,
    simplex_truncation,
    terminal_category,
    terminal_presheaf,
)
from nwfs.core import IncompatibleInput, is_injective, validate


def monotone_tuples(m: int, n: int):
    """All order-preserving maps [m] -> [n], as value tuples."""
    return list(itertools.combinations_with_replacement(range(n + 1), m + 1))


def test_monotone_counts_match_the_closed_form():
    for m in range(4):
        for n in range(4):
            assert len(monotone_tuples(m, n)) == math.comb(n + m + 1, m + 1)


def test_truncation_morphism_counts():
    # recount every hom-set independently and compare against the category
    for trunc, expected in ((1, 7), (2, 31)):
        cat = simplex_truncation(trunc)
        recount = sum(
            len(monotone_tuples(m, n))
            for m in range(trunc + 1)
            for n in range(trunc + 1)
        )
        assert expected == recount
        assert len(cat.morphisms) == expected
        assert validate(cat) == []


def test_composition_table_is_total_and_closed():
    cat = simplex_truncation(2)
    names = {m.name for m in cat.morphisms}
    by_name = {m.name: m for m in cat.morphisms}
    for g in cat.morphisms:
        for f in cat.morphisms:
            if f.cod != g.dom:
                assert (g.name, f.name) not in cat.table
                continue
            got = cat.table[(g.name, f.name)]
            assert got in names
            assert by_name[got].dom == f.dom and by_name[got].cod == g.cod


def test_representable_carriers_count_monotone_maps():
    cat = simplex_truncation(2)
    for n in range(3):
        X = representable(cat, str(n))
        assert validate(X) == []
        for m in range(3):
            assert len(X.carrier[str(m)]) == len(monotone_tuples(m, n))


def test_terminal_presheaf_is_all_singletons():
    for cat in (terminal_category(), simplex_truncation(1), simplex_truncation(2)):
        T = terminal_presheaf(cat)
        assert validate(T) == []
        assert all(len(T.carrier[a]) == 1 for a in cat.objects)


def horn_oracle(n: int, k: int, truncation: int) -> list[int]:
    """Carrier sizes of the k-th horn of the n-simplex, counted directly.

    A simplex belongs to the horn exactly when its vertices avoid some
    coordinate other than k.
    """
    out = []
    for m in range(truncation + 1):
        hits = [
            t
            for t in monotone_tuples(m, n)
            if any(i not in t for i in range(n + 1) if i != k)
        ]
        out.append(len(hits))
    return out


def test_horn_carriers_match_the_avoidance_count():
    for k in (0, 1):
        arrow = horn_inclusion(1, k, truncation=1)
        sizes = [len(arrow.dom.carrier[a]) for a in ("0", "1")]
        assert sizes == horn_oracle(1, k, 1) == [1, 1]
    for k in (0, 1, 2):
        arrow = horn_inclusion(2, k, truncation=2)
        sizes = [len(arrow.dom.carrier[a]) for a in ("0", "1", "2")]
        assert sizes == horn_oracle(2, k, 2) == [3, 5, 7]


def test_horn_inclusions_are_split_monos_into_representables():
    for n, k, trunc in ((1, 0, 1), (1, 1, 1), (2, 0, 2), (2, 2, 2)):
        arrow = horn_inclusion(n, k, trunc)
        assert validate(arrow.dom) == []
        assert validate(arrow.f) == []
        assert is_injective(arrow.f)
        target = representable(simplex_truncation(trunc), str(n))
        assert arrow.cod.carrier == target.carrier


def test_horn_rejects_bad_parameters():
    with pytest.raises(IncompatibleInput):
        horn_inclusion(0, 0, truncation=1)
    with pytest.raises(IncompatibleInput):
        horn_inclusion(2, 3, truncation=2)
    with pytest.raises(IncompatibleInput):
        horn_inclusion(2, 0, truncation=0)
    with pytest.raises(IncompatibleInput):
        horn_inclusion(1, 5, 1)


def test_generating_sets_validate():
    for key in ("point", "codiagonal", "horns<=1", "horns<=2"):
        gens = get_gens(key)
        assert gens.members
        for member in gens.members:
            assert validate(member.f) == []
            assert validate(member.dom) == []
            assert validate(member.cod) == []


def test_keys_and_aliases():
    listed = keys()
    assert "point" in listed and "delta<=1" in listed
    # the unicode spelling resolves to the same entry
    assert get("delta≤1").category is get("delta<=1").category or (
        get("delta≤1").category.morphisms == get("delta<=1").category.morphisms
    )
    assert get_category("delta<=2").objects == ("0", "1", "2")
    with pytest.raises(UnknownCatalogKey):
        get("no-such-thing")
    with pytest.raises(UnknownCatalogKey):
        get_gens("delta<=1")


def test_gens_base_categories_are_consistent():
    horns = get_gens("horns<=2")
    bases = {member.f.source.base.name for member in horns.members}
    assert len(bases) == 1
