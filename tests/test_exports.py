"""The package's export list."""

import gaugenorm


def test_every_exported_name_exists():
    missing = [name for name in gaugenorm.__all__ if not hasattr(gaugenorm, name)]
    assert missing == []


def test_exports_are_sorted_without_duplicates():
    assert gaugenorm.__all__ == sorted(set(gaugenorm.__all__))
