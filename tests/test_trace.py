"""Unit and property tests for the Trace / ModelTrace containers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.trace import ModelTrace, Trace


def make_trace():
    return Trace([[1, 2, 3], [2, 4], [5]], num_vectors=10)


class TestTraceBasics:
    def test_len_and_lookups(self):
        trace = make_trace()
        assert len(trace) == 3
        assert trace.num_lookups == 6
        assert trace.avg_lookups_per_query == pytest.approx(2.0)

    def test_empty_queries_dropped(self):
        trace = Trace([[1, 2], [], [3]], num_vectors=5)
        assert len(trace) == 2

    def test_num_vectors_inferred(self):
        trace = Trace([[7, 3]])
        assert trace.num_vectors == 8

    def test_num_vectors_too_small_rejected(self):
        with pytest.raises(ValueError):
            Trace([[5]], num_vectors=3)

    def test_negative_ids_rejected(self):
        with pytest.raises(ValueError):
            Trace([[-1, 2]])

    def test_unique_vectors_sorted(self):
        trace = make_trace()
        np.testing.assert_array_equal(trace.unique_vectors(), [1, 2, 3, 4, 5])

    def test_flatten_preserves_order(self):
        trace = make_trace()
        np.testing.assert_array_equal(trace.flatten(), [1, 2, 3, 2, 4, 5])

    def test_getitem_slice_returns_trace(self):
        trace = make_trace()
        head = trace[:2]
        assert isinstance(head, Trace)
        assert len(head) == 2
        assert head.num_vectors == trace.num_vectors

    def test_equality(self):
        assert make_trace() == make_trace()
        assert make_trace() != Trace([[1]], num_vectors=10)

    def test_empty_trace(self):
        trace = Trace([], num_vectors=4)
        assert trace.num_lookups == 0
        assert trace.avg_lookups_per_query == pytest.approx(0.0)
        assert trace.flatten().size == 0
        assert trace.unique_vectors().size == 0


class TestTraceSplitting:
    def test_split_fraction(self):
        trace = make_trace()
        head, tail = trace.split(2 / 3)
        assert len(head) == 2 and len(tail) == 1
        assert head.num_vectors == tail.num_vectors == trace.num_vectors

    def test_split_bounds(self):
        trace = make_trace()
        head, tail = trace.split(0.0)
        assert len(head) == 0 and len(tail) == 3
        head, tail = trace.split(1.0)
        assert len(head) == 3 and len(tail) == 0

    def test_head(self):
        assert len(make_trace().head(1)) == 1

    def test_concat(self):
        joined = make_trace().concat(make_trace())
        assert len(joined) == 6
        assert joined.num_lookups == 12


class TestTraceSerialization:
    def test_save_load_roundtrip(self, tmp_path):
        trace = make_trace()
        path = str(tmp_path / "trace.npz")
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded == trace

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            Trace.load(str(tmp_path / "nope.npz"))

    @given(
        queries=st.lists(
            st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=8),
            min_size=0,
            max_size=12,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, queries, tmp_path_factory):
        trace = Trace(queries, num_vectors=51)
        path = str(tmp_path_factory.mktemp("traces") / "t.npz")
        trace.save(path)
        assert Trace.load(path) == trace


class TestModelTrace:
    def make(self):
        return ModelTrace(
            {
                "a": Trace([[1, 2], [3]], num_vectors=10),
                "b": Trace([[0], [1], [2]], num_vectors=5),
            }
        )

    def test_total_lookups_and_shares(self):
        model = self.make()
        assert model.total_lookups == 6
        shares = model.lookup_shares()
        assert shares["a"] == pytest.approx(0.5)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_contains_and_getitem(self):
        model = self.make()
        assert "a" in model and "c" not in model
        assert model["b"].num_lookups == 3

    def test_split(self):
        heads, tails = self.make().split(0.5)
        assert len(heads["a"]) == 1 and len(tails["a"]) == 1

    def test_save_load_roundtrip(self, tmp_path):
        model = self.make()
        model.save(str(tmp_path))
        loaded = ModelTrace.load(str(tmp_path))
        assert set(loaded.tables) == {"a", "b"}
        assert loaded["a"] == model["a"]


class TestRequestStream:
    def test_zips_ragged_tables(self):
        trace = ModelTrace(
            {
                "a": Trace([[0], [1], [2]], num_vectors=4),
                "b": Trace([[3, 2]], num_vectors=4),
            }
        )
        requests = list(trace.iter_requests())
        assert len(requests) == 3
        assert set(requests[0]) == {"a", "b"}
        np.testing.assert_array_equal(requests[0]["b"], [3, 2])
        assert set(requests[1]) == {"a"}  # table b has run out of queries
        np.testing.assert_array_equal(requests[2]["a"], [2])

    def test_empty_trace(self):
        assert list(ModelTrace({}).iter_requests()) == []

    def test_single_table_stream_is_its_queries(self):
        table = Trace([[0, 1], [2], [3, 3]], num_vectors=4)
        requests = list(ModelTrace({"a": table}).iter_requests())
        assert [set(r) for r in requests] == [{"a"}] * 3
        for request, query in zip(requests, table.queries):
            np.testing.assert_array_equal(request["a"], query)

    def test_every_query_served_once_in_order(self):
        trace = ModelTrace(
            {
                "a": Trace([[0], [1], [2], [3]], num_vectors=4),
                "b": Trace([[1, 1], [0]], num_vectors=4),
                "c": Trace([[2, 3], [3], [0]], num_vectors=4),
            }
        )
        requests = list(trace.iter_requests())
        assert len(requests) == max(len(t) for _, t in trace.items())
        for name, table in trace.items():
            served = [request[name] for request in requests if name in request]
            assert len(served) == len(table)
            for got, query in zip(served, table.queries):
                np.testing.assert_array_equal(got, query)

    def test_stream_is_restartable(self):
        trace = ModelTrace({"a": make_trace(), "b": Trace([[4]], num_vectors=10)})
        first = [sorted(r) for r in trace.iter_requests()]
        assert [sorted(r) for r in trace.iter_requests()] == first
