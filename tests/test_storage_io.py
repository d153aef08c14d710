"""Tests for heap files, external sort, CSV I/O, and shipped store segments."""

import os
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageCorruptionError, StorageError
from repro.prob.dtree import canonical_clauses
from repro.prob.formulas import DNF
from repro.prob.sharedag import SharedLineageStore
from repro.storage.csv_io import read_csv, write_csv
from repro.storage.external_sort import SortStats, external_sort, sort_key_for
from repro.storage.heapfile import HeapFile
from repro.storage.relation import Relation
from repro.storage.schema import Schema


class TestHeapFile:
    def test_roundtrip(self, tmp_path):
        schema = Schema.of("a:int", "b:str")
        rows = [(i, f"row{i}") for i in range(100)]
        heap = HeapFile(schema, path=str(tmp_path / "heap.jsonl"), page_size=256)
        written = heap.write_rows(rows)
        assert written == 100
        assert heap.page_count > 1
        assert list(heap.scan()) == rows
        assert heap.stats.pages_read == heap.page_count
        assert heap.stats.tuples_read == 100

    def test_append_across_calls(self, tmp_path):
        heap = HeapFile(Schema.of("a:int"), path=str(tmp_path / "h.jsonl"), page_size=64)
        heap.write_rows([(1,), (2,)])
        heap.write_rows([(3,)])
        assert [row[0] for row in heap.scan()] == [1, 2, 3]
        assert len(heap) == 3

    def test_temporary_file_cleanup(self):
        heap = HeapFile(Schema.of("a:int"))
        path = heap.path
        heap.write_rows([(1,)])
        heap.close()
        assert not os.path.exists(path)
        with pytest.raises(StorageError):
            heap.write_rows([(2,)])

    def test_context_manager(self):
        with HeapFile(Schema.of("a:int")) as heap:
            heap.write_rows([(1,)])
            path = heap.path
        assert not os.path.exists(path)


class TestHeapFileCorruption:
    """Damaged pages must fail loudly, not scan short or leak decode errors.

    PR 10's framing gives every page a ``#P <count> <bytes> <crc32>`` header;
    these tests damage the file at *every* byte position — truncation at
    every boundary, a bit flip at every offset — and demand a structured
    :class:`StorageCorruptionError` each time.  The worst pre-PR behaviours
    were a silent short scan (truncated tail) and a bare
    ``json.JSONDecodeError`` (mid-line damage).
    """

    def _heap(self, tmp_path):
        heap = HeapFile(
            Schema.of("a:int", "b:str"),
            path=str(tmp_path / "heap.jsonl"),
            page_size=128,
        )
        heap.write_rows([(i, f"row{i}") for i in range(40)])
        assert heap.page_count > 1
        return heap

    def test_intact_file_still_round_trips(self, tmp_path):
        heap = self._heap(tmp_path)
        assert list(heap.scan()) == [(i, f"row{i}") for i in range(40)]

    def test_truncation_at_every_byte_boundary(self, tmp_path):
        heap = self._heap(tmp_path)
        blob = open(heap.path, "rb").read()
        for cut in range(len(blob)):
            with open(heap.path, "wb") as handle:
                handle.write(blob[:cut])
            with pytest.raises(StorageCorruptionError):
                list(heap.scan())
        with open(heap.path, "wb") as handle:
            handle.write(blob)
        assert len(list(heap.scan())) == 40

    def test_bit_flip_at_every_offset(self, tmp_path):
        heap = self._heap(tmp_path)
        blob = open(heap.path, "rb").read()
        for position in range(len(blob)):
            flipped = bytes([blob[position] ^ 0xFF])
            with open(heap.path, "wb") as handle:
                handle.write(blob[:position] + flipped + blob[position + 1 :])
            with pytest.raises(StorageCorruptionError):
                list(heap.scan())

    def test_corruption_is_a_storage_error(self, tmp_path):
        # Callers catching the existing StorageError keep working.
        assert issubclass(StorageCorruptionError, StorageError)
        heap = self._heap(tmp_path)
        blob = open(heap.path, "rb").read()
        with open(heap.path, "wb") as handle:
            handle.write(blob[: len(blob) // 2])
        with pytest.raises(StorageError):
            list(heap.scan())


class TestExternalSort:
    def test_in_memory_path(self):
        rows = [(3, "c"), (1, "a"), (2, "b")]
        assert list(external_sort(rows, [0])) == sorted(rows)

    def test_spilling_path(self):
        rows = [(i % 17, i) for i in range(500)]
        stats = SortStats()
        result = list(external_sort(rows, [0, 1], max_rows_in_memory=50, stats=stats))
        assert result == sorted(rows)
        assert stats.runs_spilled >= 2
        assert stats.rows_spilled == 500
        # run files are removed once the iterator is exhausted
        assert all(not os.path.exists(path) for path in stats.run_files)

    def test_none_sorts_first(self):
        rows = [(2,), (None,), (1,)]
        assert list(external_sort(rows, [0])) == [(None,), (1,), (2,)]

    def test_mixed_types_do_not_crash(self):
        rows = [("b",), (1,), ("a",), (2,)]
        result = list(external_sort(rows, [0]))
        assert result[0] == (1,) and result[-1] == ("b",)

    @given(st.lists(st.tuples(st.integers(-20, 20), st.integers(-20, 20)), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_matches_builtin_sort(self, rows):
        expected = sorted(rows, key=lambda r: (sort_key_for(r[0]), sort_key_for(r[1])))
        assert list(external_sort(rows, [0, 1], max_rows_in_memory=16)) == expected


class TestSortRunCorruption:
    """Spilled sort runs carry the same loud-failure guarantee as heap pages.

    A run file is ``#R <rows>`` then one ``<crc32hex> <json>`` line per row;
    replaying a damaged or truncated run raises
    :class:`StorageCorruptionError` — a k-way merge that silently merged a
    short run would produce a *wrong sorted result with no error*.
    """

    def _spilled_run(self, tmp_path):
        rows = [(i % 7, i) for i in range(60)]
        stats = SortStats()
        ordered = external_sort(rows, [0, 1], max_rows_in_memory=20, stats=stats)
        first = next(ordered)  # forces the spill + the start of the merge
        assert first == min(rows, key=lambda r: (sort_key_for(r[0]), sort_key_for(r[1])))
        blob = open(stats.run_files[0], "rb").read()
        assert list(ordered)  # exhaust: the iterator removes its run files
        path = tmp_path / "run.jsonl"
        path.write_bytes(blob)
        return str(path), blob

    def test_intact_run_replays(self, tmp_path):
        from repro.storage.external_sort import _read_run

        path, _blob = self._spilled_run(tmp_path)
        assert len(list(_read_run(path))) == 20

    def test_truncation_at_every_byte_boundary(self, tmp_path):
        from repro.storage.external_sort import _read_run

        path, blob = self._spilled_run(tmp_path)
        for cut in range(len(blob)):
            with open(path, "wb") as handle:
                handle.write(blob[:cut])
            with pytest.raises(StorageCorruptionError):
                list(_read_run(path))

    def test_bit_flip_at_every_offset(self, tmp_path):
        from repro.storage.external_sort import _read_run

        path, blob = self._spilled_run(tmp_path)
        for position in range(len(blob)):
            flipped = bytes([blob[position] ^ 0xFF])
            with open(path, "wb") as handle:
                handle.write(blob[:position] + flipped + blob[position + 1 :])
            with pytest.raises(StorageCorruptionError):
                list(_read_run(path))


class TestSegmentRoundTrip:
    """`export_segment`/`from_segment` must preserve the delta registries.

    Snapshotted segments carry the whole store across a process boundary;
    the restored store's delta behaviour is the exporter's only if the PR 7
    registries — `_const_vars`, `_leaf_dnf`, `_branch_var` — survive
    byte-for-byte, not just up to semantic equivalence.  The variable→rows
    index is not among them: every store replays it from those three at its
    first delta, so a segment does not carry one and a rebuilt store has none
    until it is asked.
    """

    def _warm_store(self):
        store = SharedLineageStore()
        probabilities = {v: 0.05 * (v + 3) for v in range(9)}
        # Hierarchical-free chains compile to open leaves (no closed-form
        # decomposition), which is what keeps refinement — and with it the
        # branch/stale-entry registry churn this test pins — alive.
        dnfs = [
            DNF([[0, 1], [1, 2], [2, 3]]),
            DNF([[2, 3], [3, 4], [4, 5]]),
            DNF([[0, 5], [5, 6], [6, 7]]),
            DNF([[6], [7, 8]]),
        ]
        views = []
        for dnf in dnfs:
            store.add_probabilities(dnf, probabilities)
            from repro.prob.sharedag import SharedDTree

            views.append(SharedDTree(store, dnf))
        # Warm the registries past their construction state: expansions pop
        # open leaves, add ⊙ branch entries, and leave stale leaf-era index
        # entries behind — exactly the state a shipped mid-run segment has.
        for _ in range(6):
            if store.refine_most_valuable(views) == 0:
                break
        assert store.steps > 0 and store._branch_var
        return store

    def _rehydrated(self, store):
        # The real shipped path pickles the segment (process boundary);
        # round-tripping through bytes also proves nothing in the segment
        # aliases unpicklable or salted state.
        return SharedLineageStore.from_segment(
            pickle.loads(pickle.dumps(store.export_segment()))
        )

    def test_registries_survive_byte_for_byte(self):
        store = self._warm_store()
        assert "var_index" not in store.export_segment()
        rebuilt = self._rehydrated(store)
        assert rebuilt._var_index is None and store._var_index is None
        assert rebuilt._const_vars == store._const_vars
        assert list(rebuilt._const_vars) == list(store._const_vars)
        assert rebuilt._branch_var == store._branch_var
        assert list(rebuilt._branch_var) == list(store._branch_var)
        assert list(rebuilt._leaf_dnf) == list(store._leaf_dnf)
        for nid, dnf in store._leaf_dnf.items():
            assert canonical_clauses(rebuilt._leaf_dnf[nid]) == canonical_clauses(dnf)
        assert rebuilt.probabilities == store.probabilities
        assert rebuilt.steps == store.steps
        assert rebuilt.node_count == store.node_count
        assert rebuilt.retired_nodes == store.retired_nodes
        assert rebuilt.table.bounds_fingerprint() == store.table.bounds_fingerprint()

    def test_delta_updates_match_after_round_trip(self):
        store = self._warm_store()
        rebuilt = self._rehydrated(store)
        for variable, probability in ((1, 0.9), (4, 0.01), (8, 0.42)):
            original = store.update_probability(variable, probability)
            shipped = rebuilt.update_probability(variable, probability)
            assert shipped.reseeded == original.reseeded
            assert shipped.touched == original.touched
        assert rebuilt.table.bounds_fingerprint() == store.table.bounds_fingerprint()


class TestSortKey:
    def test_total_order_over_mixed_values(self):
        values = [None, True, 0, 2.5, "abc", "ab"]
        ordered = sorted(values, key=sort_key_for)
        assert ordered[0] is None
        assert ordered[-1] == "abc"


class TestCsvIO:
    def test_roundtrip(self, tmp_path):
        schema = Schema.of("a:int", "b:str", "c:float", "flag:bool")
        relation = Relation(
            "t", schema, [(1, "x", 1.5, True), (2, "y", -3.0, False), (3, None, None, None)]
        )
        path = str(tmp_path / "t.csv")
        write_csv(relation, path)
        loaded = read_csv(path, schema, name="t")
        assert loaded == relation

    def test_header_mismatch(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_csv(Relation("t", Schema.of("a:int"), [(1,)]), path)
        with pytest.raises(StorageError):
            read_csv(path, Schema.of("b:int"))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(StorageError):
            read_csv(str(path), Schema.of("a:int"))

    def test_bad_arity(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1\n")
        with pytest.raises(StorageError):
            read_csv(str(path), Schema.of("a:int", "b:int"))
