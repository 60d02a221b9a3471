"""Tests for the near-even partitioning behind the sharded fleet runner."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.parallel import chunk_evenly, partition_paths


class TestChunkEvenly:
    def test_even_split(self):
        assert chunk_evenly([1, 2, 3, 4], 2) == [[1, 2], [3, 4]]

    def test_uneven_split(self):
        assert chunk_evenly([1, 2, 3, 4, 5], 2) == [[1, 2, 3], [4, 5]]
        assert chunk_evenly([1, 2, 3, 4, 5], 3) == [[1, 2], [3, 4], [5]]

    def test_more_parts_than_items(self):
        assert chunk_evenly([1, 2], 5) == [[1], [2]]

    def test_empty_and_invalid(self):
        assert chunk_evenly([], 3) == []
        with pytest.raises(ValueError):
            chunk_evenly([1], 0)

    def test_preserves_order_and_content(self, rng):
        items = [rng.random() for _ in range(37)]
        chunks = chunk_evenly(items, 5)
        assert [x for chunk in chunks for x in chunk] == items
        sizes = [len(c) for c in chunks]
        assert max(sizes) - min(sizes) <= 1

    @given(
        n_items=st.integers(min_value=0, max_value=400),
        parts=st.integers(min_value=1, max_value=64),
    )
    def test_property_permutation_free_cover(self, n_items, parts):
        """Every partition covers the input exactly once, near-evenly.

        The property the sharded fleet runner stakes correctness on: no
        path lost, no path duplicated, order preserved, and chunk sizes
        within one of each other.
        """
        items = list(range(n_items))
        chunks = chunk_evenly(items, parts)
        flattened = [x for chunk in chunks for x in chunk]
        assert flattened == items  # cover, order-preserving, duplicate-free
        assert all(chunk for chunk in chunks)
        if chunks:
            sizes = [len(chunk) for chunk in chunks]
            assert max(sizes) - min(sizes) <= 1
        assert len(chunks) <= parts

    @given(
        n_paths=st.integers(min_value=0, max_value=300),
        workers=st.integers(min_value=1, max_value=16),
        cap=st.one_of(st.none(), st.integers(min_value=1, max_value=50)),
    )
    def test_property_shard_partition_cover(self, n_paths, workers, cap):
        """Shard plans inherit the permutation-free-cover property."""
        plans = partition_paths(n_paths, workers, max_shard_size=cap)
        flattened = [i for plan in plans for i in plan.indices]
        assert flattened == list(range(n_paths))
        assert [plan.shard for plan in plans] == list(range(len(plans)))
        if plans:
            sizes = [plan.n_paths for plan in plans]
            assert max(sizes) - min(sizes) <= 1
            assert all(size >= 1 for size in sizes)
            if cap is not None:
                assert max(sizes) <= cap
        if cap is None:
            assert len(plans) <= workers
