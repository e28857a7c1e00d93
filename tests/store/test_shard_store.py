"""Sharded snapshot store: roundtrips, budget/eviction, malformed dirs."""

import json

import numpy as np
import pytest

from repro.errors import GraphError, GraphFormatError
from repro.graph.generators import chung_lu_directed, chung_lu_undirected
from repro.store.shard import (
    MANIFEST_NAME,
    GraphShard,
    ShardedGraph,
    load_sharded,
    save_sharded,
    shard_bounds,
)


@pytest.fixture
def undirected():
    return chung_lu_undirected(300, 1_200, seed=21)


@pytest.fixture
def directed():
    return chung_lu_directed(300, 1_200, seed=22)


def _rewrite_shard(path, mutate):
    """Round-trip one shard .npz through ``mutate(arrays_dict)``."""
    with np.load(path) as data:  # repro-lint: disable=R014 (tamper harness)
        arrays = {name: data[name].copy() for name in data.files}
    mutate(arrays)
    np.savez(path, **arrays)  # repro-lint: disable=R014 (tamper harness)


class TestShardBounds:
    def test_covers_range_and_balances_mass(self, undirected):
        bounds = shard_bounds(undirected.indptr, 4)
        assert bounds.dtype == np.int64
        assert bounds[0] == 0 and bounds[-1] == undirected.num_vertices
        assert np.all(np.diff(bounds) >= 0)
        masses = np.diff(undirected.indptr.astype(np.int64)[bounds])
        # Balanced by adjacency slots: no shard is wildly off the mean.
        assert masses.max() <= 2 * (2 * undirected.num_edges) / 4 + masses.min()

    def test_rejects_bad_part_counts(self, undirected):
        with pytest.raises(GraphError):
            shard_bounds(undirected.indptr, 0)
        with pytest.raises(GraphError):
            shard_bounds(undirected.indptr, undirected.num_vertices + 1)


class TestRoundtrip:
    @pytest.mark.parametrize("shards", [1, 3, 8])
    def test_undirected_to_graph_bit_identical(self, undirected, tmp_path, shards):
        chain = save_sharded(undirected, tmp_path, shards=shards)
        sharded = load_sharded(tmp_path)
        assert sharded.chain_fingerprint == chain
        rebuilt = sharded.to_graph()
        assert rebuilt.indptr.dtype == undirected.indptr.dtype
        assert np.array_equal(rebuilt.indptr, undirected.indptr)
        assert np.array_equal(rebuilt.indices, undirected.indices)
        assert rebuilt.fingerprint() == undirected.fingerprint()

    @pytest.mark.parametrize("shards", [1, 3, 8])
    def test_directed_to_graph_bit_identical(self, directed, tmp_path, shards):
        save_sharded(directed, tmp_path, shards=shards)
        rebuilt = load_sharded(tmp_path).to_graph()
        for name in ("edge_src", "edge_dst", "out_indptr", "out_indices",
                     "out_edge_ids", "in_indptr", "in_indices", "in_edge_ids"):
            ours = getattr(rebuilt, name if name.startswith(("out_", "in_"))
                           else f"_{name}")
            theirs = getattr(directed, name if name.startswith(("out_", "in_"))
                             else f"_{name}")
            assert ours.dtype == theirs.dtype, name
            assert np.array_equal(ours, theirs), name
        assert rebuilt.fingerprint() == directed.fingerprint()

    def test_monolithic_fingerprint_shared(self, undirected, tmp_path):
        save_sharded(undirected, tmp_path, shards=4)
        sharded = load_sharded(tmp_path)
        assert sharded.fingerprint() == undirected.fingerprint()

    def test_resharding_removes_stale_files(self, undirected, tmp_path):
        save_sharded(undirected, tmp_path, shards=8)
        save_sharded(undirected, tmp_path, shards=2)
        sharded = load_sharded(tmp_path)  # stale shard_00002+ would fail
        assert sharded.num_shards == 2
        assert sharded.verify() == sharded.chain_fingerprint

    def test_manifest_contents(self, undirected, tmp_path):
        save_sharded(undirected, tmp_path, shards=4)
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert manifest["kind"] == "undirected"
        assert manifest["num_vertices"] == undirected.num_vertices
        assert manifest["num_edges"] == undirected.num_edges
        assert manifest["index_dtype"] == undirected.indptr.dtype.str
        assert len(manifest["shards"]) == 4
        # Per-shard entries sum to the full adjacency (2m slots).
        assert sum(r["entries"] for r in manifest["shards"]) == \
            2 * undirected.num_edges


class TestShardAccess:
    def test_shard_is_rebased_and_attribute_backed(self, undirected, tmp_path):
        save_sharded(undirected, tmp_path, shards=3)
        sharded = load_sharded(tmp_path)
        shard = sharded.shard(1)
        assert isinstance(shard, GraphShard)
        lo, hi = shard.lo, shard.hi
        assert shard.num_vertices == hi - lo
        assert shard.indptr[0] == 0
        expected = undirected.indptr[lo:hi + 1] - undirected.indptr[lo]
        assert np.array_equal(shard.indptr, expected)
        with pytest.raises(AttributeError):
            shard.not_a_member

    def test_shard_of_and_owners(self, undirected, tmp_path):
        save_sharded(undirected, tmp_path, shards=3)
        sharded = load_sharded(tmp_path)
        owners = sharded.owners(np.arange(undirected.num_vertices))
        for index in range(3):
            lo, hi = sharded.bounds[index], sharded.bounds[index + 1]
            assert np.all(owners[lo:hi] == index)
        with pytest.raises(GraphError):
            sharded.shard(3)

    def test_degrees_match_monolithic(self, undirected, directed, tmp_path):
        u_dir, d_dir = tmp_path / "u", tmp_path / "d"
        save_sharded(undirected, u_dir, shards=3)
        save_sharded(directed, d_dir, shards=3)
        sharded_u = load_sharded(u_dir)
        sharded_d = load_sharded(d_dir)
        assert np.array_equal(sharded_u.degrees(), undirected.degrees())
        assert sharded_u.degrees().dtype == undirected.degrees().dtype
        assert np.array_equal(sharded_d.out_degrees(), directed.out_degrees())
        assert np.array_equal(sharded_d.in_degrees(), directed.in_degrees())
        assert sharded_d.in_degrees().dtype == directed.in_degrees().dtype
        with pytest.raises(GraphError):
            sharded_u.out_degrees()
        with pytest.raises(GraphError):
            sharded_d.degrees()


class TestBudgetAndEviction:
    def _sizes(self, directory):
        manifest = json.loads((directory / MANIFEST_NAME).read_text())
        return [r["nbytes"] for r in manifest["shards"]]

    def test_unbudgeted_keeps_everything(self, undirected, tmp_path):
        save_sharded(undirected, tmp_path, shards=4)
        sharded = load_sharded(tmp_path)
        for index in range(4):
            sharded.shard(index)
        stats = sharded.stats()
        assert stats["shard_loads"] == 4 and stats["evictions"] == 0
        assert stats["resident_bytes"] == sum(self._sizes(tmp_path))
        assert stats["peak_resident_bytes"] == stats["resident_bytes"]

    def test_budget_is_a_hard_ceiling(self, undirected, tmp_path):
        save_sharded(undirected, tmp_path, shards=4)
        sizes = self._sizes(tmp_path)
        budget = max(sizes) + min(sizes) // 2  # ~1 shard fits at a time
        sharded = load_sharded(tmp_path, memory_budget_bytes=budget)
        for index in range(4):
            sharded.shard(index)
            assert sharded.memory_bytes() <= budget
        stats = sharded.stats()
        assert stats["evictions"] >= 3
        assert stats["peak_resident_bytes"] <= budget

    def test_lru_prefers_recently_used(self, undirected, tmp_path):
        save_sharded(undirected, tmp_path, shards=4)
        budget = sum(sorted(self._sizes(tmp_path))[-2:]) + 8  # two fit
        sharded = load_sharded(tmp_path, memory_budget_bytes=budget)
        sharded.shard(0)
        sharded.shard(1)
        sharded.shard(0)  # refresh 0 -> 1 is now the LRU victim
        sharded.shard(2)
        assert set(sharded.resident_shards()) == {0, 2}

    def test_single_oversized_shard_raises(self, undirected, tmp_path):
        save_sharded(undirected, tmp_path, shards=2)
        budget = min(self._sizes(tmp_path)) - 1
        sharded = load_sharded(tmp_path, memory_budget_bytes=budget)
        with pytest.raises(GraphError, match="memory_budget_bytes"):
            sharded.shard(int(np.argmax(self._sizes(tmp_path))))

    def test_bad_budget_rejected(self, undirected, tmp_path):
        save_sharded(undirected, tmp_path, shards=2)
        with pytest.raises(GraphError):
            load_sharded(tmp_path, memory_budget_bytes=0)

    def test_reset_stats(self, undirected, tmp_path):
        save_sharded(undirected, tmp_path, shards=2)
        sharded = load_sharded(tmp_path)
        sharded.shard(0)
        sharded.reset_stats()
        stats = sharded.stats()
        assert stats["shard_loads"] == 0 and stats["evictions"] == 0
        assert stats["peak_resident_bytes"] == stats["resident_bytes"]


class TestIntegrity:
    def test_verify_roundtrip(self, directed, tmp_path):
        chain = save_sharded(directed, tmp_path, shards=3)
        assert load_sharded(tmp_path).verify() == chain

    def test_verify_detects_tampered_payload(self, undirected, tmp_path):
        save_sharded(undirected, tmp_path, shards=3)
        target = tmp_path / "shard_00001.npz"

        def corrupt(arrays):
            arrays["indices"] = arrays["indices"][::-1].copy()

        _rewrite_shard(target, corrupt)
        with pytest.raises(GraphFormatError, match="fingerprint"):
            load_sharded(tmp_path).verify()

    def test_verify_detects_tampered_chain(self, undirected, tmp_path):
        save_sharded(undirected, tmp_path, shards=2)
        manifest_path = tmp_path / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["chain_fingerprint"] = "0" * 32
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(GraphFormatError, match="chain"):
            load_sharded(tmp_path).verify()


class TestMalformedDirectories:
    """Satellite: manifest-vs-directory mismatches fail loudly at load."""

    def _manifest(self, directory):
        return json.loads((directory / MANIFEST_NAME).read_text())

    def _write(self, directory, manifest):
        (directory / MANIFEST_NAME).write_text(json.dumps(manifest))

    def test_not_a_directory(self, tmp_path):
        with pytest.raises(GraphFormatError, match="not a sharded snapshot"):
            load_sharded(tmp_path / "nope")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(GraphFormatError, match=MANIFEST_NAME):
            load_sharded(tmp_path)

    def test_unparseable_manifest(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(GraphFormatError, match="unreadable"):
            load_sharded(tmp_path)

    def test_manifest_not_an_object(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("[1, 2, 3]")
        with pytest.raises(GraphFormatError, match="not an object"):
            load_sharded(tmp_path)

    def test_missing_manifest_key(self, undirected, tmp_path):
        save_sharded(undirected, tmp_path, shards=2)
        manifest = self._manifest(tmp_path)
        del manifest["bounds"]
        self._write(tmp_path, manifest)
        with pytest.raises(GraphFormatError, match="bounds"):
            load_sharded(tmp_path)

    def test_unsupported_format_version(self, undirected, tmp_path):
        save_sharded(undirected, tmp_path, shards=2)
        manifest = self._manifest(tmp_path)
        manifest["format_version"] = 99
        self._write(tmp_path, manifest)
        with pytest.raises(GraphFormatError, match="format version"):
            load_sharded(tmp_path)

    def test_bad_index_dtype(self, undirected, tmp_path):
        save_sharded(undirected, tmp_path, shards=2)
        manifest = self._manifest(tmp_path)
        manifest["index_dtype"] = "<not-a-dtype>"
        self._write(tmp_path, manifest)
        with pytest.raises(GraphFormatError, match="index_dtype"):
            load_sharded(tmp_path)

    def test_bounds_not_covering(self, undirected, tmp_path):
        save_sharded(undirected, tmp_path, shards=2)
        manifest = self._manifest(tmp_path)
        manifest["bounds"][-1] -= 1
        self._write(tmp_path, manifest)
        with pytest.raises(GraphFormatError, match="cover the vertex range"):
            load_sharded(tmp_path)

    def test_missing_shard_file(self, undirected, tmp_path):
        save_sharded(undirected, tmp_path, shards=3)
        (tmp_path / "shard_00001.npz").unlink()
        with pytest.raises(GraphFormatError, match="missing"):
            load_sharded(tmp_path)

    def test_extra_shard_file(self, undirected, tmp_path):
        save_sharded(undirected, tmp_path, shards=2)
        extra = tmp_path / "shard_00007.npz"
        extra.write_bytes((tmp_path / "shard_00000.npz").read_bytes())
        with pytest.raises(GraphFormatError, match="not listed"):
            load_sharded(tmp_path)

    def test_reordered_shard_records(self, undirected, tmp_path):
        save_sharded(undirected, tmp_path, shards=3)
        manifest = self._manifest(tmp_path)
        records = manifest["shards"]
        records[0], records[1] = records[1], records[0]
        self._write(tmp_path, manifest)
        with pytest.raises(GraphFormatError, match="renamed, reordered"):
            load_sharded(tmp_path)

    def test_renamed_shard_file(self, undirected, tmp_path):
        save_sharded(undirected, tmp_path, shards=2)
        manifest = self._manifest(tmp_path)
        manifest["shards"][1]["file"] = "shard_custom.npz"
        self._write(tmp_path, manifest)
        with pytest.raises(GraphFormatError, match="renamed, reordered"):
            load_sharded(tmp_path)

    def test_corrupt_shard_payload_fails_on_access(self, undirected, tmp_path):
        save_sharded(undirected, tmp_path, shards=2)
        (tmp_path / "shard_00001.npz").write_bytes(b"garbage")
        sharded = load_sharded(tmp_path)  # manifest-level checks pass
        with pytest.raises(GraphFormatError, match="shard file"):
            sharded.shard(1)
