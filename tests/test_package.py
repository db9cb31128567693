import schreierlab


def test_all_is_sorted_unique_and_star_importable():
    names = schreierlab.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    namespace = {}
    exec("from schreierlab import *", namespace)
    assert [n for n in names if n not in namespace] == []
