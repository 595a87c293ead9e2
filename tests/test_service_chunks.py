"""Tests for chunking and content manifests."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.r4_open_loop import correlated_config
from repro.logs import CHUNK_SIZE
from repro.service import (
    FileManifest,
    ServiceCluster,
    build_manifest,
    chunk_sizes,
    content_md5,
)
from repro.service import chunks as chunks_mod
from repro.service.replay import replay_trace, synthetic_replay_trace


class TestChunkSizes:
    def test_exact_multiple(self):
        assert chunk_sizes(2 * CHUNK_SIZE) == [CHUNK_SIZE, CHUNK_SIZE]

    def test_remainder_tail(self):
        sizes = chunk_sizes(CHUNK_SIZE + 100)
        assert sizes == [CHUNK_SIZE, 100]

    def test_small_file_single_chunk(self):
        assert chunk_sizes(5000) == [5000]

    def test_zero_byte_file_has_no_chunks(self):
        """Empty files are metadata-only: they split into zero chunks."""
        assert chunk_sizes(0) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            chunk_sizes(-1)
        with pytest.raises(ValueError):
            chunk_sizes(100, chunk_size=0)

    @given(size=st.integers(1, 50 * CHUNK_SIZE))
    @settings(max_examples=200)
    def test_sizes_sum_and_bounds(self, size):
        sizes = chunk_sizes(size)
        assert sum(sizes) == size
        assert all(0 < s <= CHUNK_SIZE for s in sizes)
        # Only the final chunk may be short.
        assert all(s == CHUNK_SIZE for s in sizes[:-1])


class TestContentMd5:
    def test_deterministic(self):
        assert content_md5(b"x") == content_md5(b"x")

    def test_distinct_for_distinct_content(self):
        assert content_md5(b"x") != content_md5(b"y")

    def test_hex_shape(self):
        digest = content_md5(b"content")
        assert len(digest) == 32
        int(digest, 16)


class TestManifest:
    def test_build_manifest_consistency(self):
        manifest = build_manifest("a.jpg", b"seed", 3 * CHUNK_SIZE + 10)
        assert manifest.n_chunks == 4
        assert sum(manifest.chunk_sizes) == manifest.size
        assert len(set(manifest.chunk_md5s)) == 4

    def test_same_content_same_hashes(self):
        a = build_manifest("a.jpg", b"seed", CHUNK_SIZE * 2)
        b = build_manifest("b.jpg", b"seed", CHUNK_SIZE * 2)
        assert a.file_md5 == b.file_md5
        assert a.chunk_md5s == b.chunk_md5s

    def test_different_content_different_hashes(self):
        a = build_manifest("a.jpg", b"seed-1", CHUNK_SIZE)
        b = build_manifest("a.jpg", b"seed-2", CHUNK_SIZE)
        assert a.file_md5 != b.file_md5

    def test_manifest_validation(self):
        with pytest.raises(ValueError):
            FileManifest(
                name="x", size=10, file_md5="a",
                chunk_md5s=("h1", "h2"), chunk_sizes=(10,),
            )
        with pytest.raises(ValueError):
            FileManifest(
                name="x", size=10, file_md5="a",
                chunk_md5s=("h1",), chunk_sizes=(5,),
            )


def eager_manifest(name: str, seed: bytes, size: int) -> FileManifest:
    """The manifest as ``build_manifest`` built it before chunk hashes were lazy."""
    sizes = chunk_sizes(size)
    return FileManifest(
        name=name,
        size=size,
        file_md5=content_md5(seed + f"/len/{size}".encode()),
        chunk_md5s=tuple(
            content_md5(seed + f"/chunk/{i}/{s}".encode())
            for i, s in enumerate(sizes)
        ),
        chunk_sizes=tuple(sizes),
    )


@pytest.fixture
def chunk_hash_calls(monkeypatch):
    """Count the calls that hash a manifest's chunks."""
    calls = []
    original = chunks_mod._chunk_md5s

    def counting(content_seed, sizes):
        calls.append(content_seed)
        return original(content_seed, sizes)

    monkeypatch.setattr(chunks_mod, "_chunk_md5s", counting)
    return calls


manifest_args = st.tuples(
    st.text(max_size=12),
    st.binary(max_size=16),
    st.integers(0, 9 * CHUNK_SIZE),
)


class TestLazyManifest:
    @given(args=manifest_args)
    @settings(max_examples=100)
    def test_lazy_equals_eager(self, args):
        eager = eager_manifest(*args)
        assert build_manifest(*args) == eager
        assert eager == build_manifest(*args)
        # Equal and hashing alike: the two collapse to one set element.
        assert len({build_manifest(*args), eager}) == 1
        assert repr(build_manifest(*args)) == repr(eager)
        assert build_manifest(*args).chunk_md5s == eager.chunk_md5s
        assert build_manifest(*args).n_chunks == eager.n_chunks

    @given(args=manifest_args)
    @settings(max_examples=50)
    def test_pickle_round_trip_and_bytes(self, args):
        eager = eager_manifest(*args)
        lazy = build_manifest(*args)
        assert pickle.dumps(lazy) == pickle.dumps(eager)
        assert pickle.loads(pickle.dumps(build_manifest(*args))) == eager

    def test_chunk_hashes_computed_once_on_first_read(self, chunk_hash_calls):
        manifest = build_manifest("a.jpg", b"seed", 3 * CHUNK_SIZE + 10)
        assert manifest.n_chunks == 4
        assert manifest.file_md5 and manifest.name == "a.jpg"
        assert chunk_hash_calls == []
        first = manifest.chunk_md5s
        assert manifest.chunk_md5s is first
        eager = eager_manifest("a.jpg", b"seed", 3 * CHUNK_SIZE + 10)
        assert manifest == eager and len({manifest, eager}) == 1
        assert chunk_hash_calls == [b"seed"]

    def test_frozen_and_unknown_attributes(self):
        manifest = build_manifest("a.jpg", b"seed", 10)
        with pytest.raises(AttributeError):
            manifest.chunk_md5s = ()
        with pytest.raises(AttributeError, match="no attribute 'missing'"):
            manifest.missing

    def test_replay_computes_no_chunk_hash(self, chunk_hash_calls):
        trace = synthetic_replay_trace(12, seed=5)
        clean = replay_trace(trace, ServiceCluster(n_frontends=2), seed=3)
        chaos = replay_trace(
            trace,
            ServiceCluster(
                n_frontends=2,
                faults=correlated_config(),
                fault_seed=4,
                metadata_shards=4,
                metadata_replicas=2,
                read_policy="quorum",
            ),
            seed=3,
            speedup=4.0,
        )
        assert clean.ops_completed > 0 and chaos.ops_total > 0
        assert chunk_hash_calls == []
