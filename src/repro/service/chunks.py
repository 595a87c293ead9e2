"""File chunking and content identification.

The examined service splits every file into fixed 512 KB chunks (only the
last chunk may be smaller) and identifies both files and chunks by the MD5
hash of their content.  Files are immutable: any edit changes the MD5 and
therefore uploads as a brand-new file (the service supports no delta
updates).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields

from ..logs.schema import CHUNK_SIZE


def chunk_sizes(file_size: int, chunk_size: int = CHUNK_SIZE) -> list[int]:
    """Sizes of the chunks a file of ``file_size`` bytes splits into.

    A zero-byte file is a defined case: it splits into no chunks at all,
    so storing it is a metadata-only operation (one file-op request, no
    chunk requests).
    """
    if file_size < 0:
        raise ValueError("file_size must be >= 0")
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    if file_size == 0:
        return []
    full, tail = divmod(file_size, chunk_size)
    sizes = [chunk_size] * full
    if tail:
        sizes.append(tail)
    return sizes


def content_md5(seed: bytes) -> str:
    """MD5 hex digest standing in for real content hashes.

    The simulator never materializes chunk payloads; a file's content is
    represented by a seed (e.g. ``b"user42/photo-0013"``) and the "content"
    hashes are derived from it, preserving the only property the service
    relies on: identical content yields identical hashes.
    """
    return hashlib.md5(seed).hexdigest()


def _chunk_md5s(content_seed: bytes, sizes) -> tuple[str, ...]:
    """The chunk hashes of a synthetic file (see :func:`build_manifest`)."""
    return tuple(
        content_md5(content_seed + f"/chunk/{i}/{size}".encode())
        for i, size in enumerate(sizes)
    )


@dataclass(frozen=True)
class FileManifest:
    """Metadata the client sends in a file storage operation request.

    Mirrors Section 2.1: the file name, size and MD5, plus the number of
    chunks and each chunk's MD5.

    A manifest from :func:`build_manifest` hashes its chunks only when
    ``chunk_md5s`` is first read, at most once: the metadata server keys
    dedup on ``file_md5`` alone, and only chunk-level dedup reads the
    chunk hashes.  Equality, hashing, ``repr`` and pickling read the
    field, so a lazy manifest is indistinguishable from an eager one.
    """

    name: str
    size: int
    file_md5: str
    chunk_md5s: tuple[str, ...]
    chunk_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.chunk_md5s) != len(self.chunk_sizes):
            raise ValueError("chunk hash/size lists must align")
        if sum(self.chunk_sizes) != self.size:
            raise ValueError("chunk sizes must sum to the file size")

    def __getattr__(self, name: str):
        # Reached only for attributes the instance does not hold: a lazy
        # manifest's ``chunk_md5s`` before its first read.
        state = self.__dict__
        if name != "chunk_md5s" or "_content_seed" not in state:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        hashes = _chunk_md5s(state["_content_seed"], state["chunk_sizes"])
        state["chunk_md5s"] = hashes
        del state["_content_seed"]
        return hashes

    def __getstate__(self) -> dict:
        # Field order, chunk hashes included: the pickle of a lazy
        # manifest is byte-identical to that of an eager one.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def n_chunks(self) -> int:
        return len(self.chunk_sizes)


def build_manifest(
    name: str, content_seed: bytes, file_size: int, chunk_size: int = CHUNK_SIZE
) -> FileManifest:
    """Construct the manifest for a (synthetic) file.

    A synthetic file's content is the pair (seed, size): the file hash
    covers both, so same-seed files of different lengths are different
    content (truncating a file changes its MD5).  Chunk hashes cover the
    seed, the chunk index and the chunk's length, so two files sharing a
    seed and size share every chunk hash (full-content duplicates) while
    distinct seeds collide on nothing.

    The file hash is computed here; the chunk hashes on the first read of
    ``chunk_md5s``.  The hash list aligns with ``chunk_sizes`` and the
    sizes sum to ``file_size`` by construction, so the manifest skips the
    checks an explicitly built one runs.
    """
    manifest = object.__new__(FileManifest)
    manifest.__dict__.update(
        name=name,
        size=file_size,
        file_md5=content_md5(content_seed + f"/len/{file_size}".encode()),
        chunk_sizes=tuple(chunk_sizes(file_size, chunk_size)),
        _content_seed=content_seed,
    )
    return manifest
