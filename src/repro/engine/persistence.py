"""Index persistence: write a fitted engine to disk and restore it.

A saved index is a directory with two files:

* ``meta.json`` — format version, library version, the retriever spec string
  and its constructor arguments, basic shape information, and (for
  retrievers with a :class:`~repro.core.tuning_cache.TuningCache`) the
  cached tuning entries keyed by content fingerprints;
* ``index.npz`` — the normalised probe matrix plus, when the retriever
  implements :meth:`~repro.core.api.Retriever.index_state`, the fitted index
  arrays (stored under a ``state.`` key prefix).

Loading constructs the retriever from the recorded spec, then either restores
the index arrays directly (skipping preprocessing — the point of persisting)
or falls back to a fresh ``fit`` on the stored probes for retrievers without
exportable state.  Either way the loaded engine answers ``row_top_k`` /
``above_theta`` identically to the saved one.

Since format 3 the index arrays can also be **memory-mapped** instead of
copied into RAM: ``load_engine(path, mmap_mode="r")`` maps every array of
``index.npz`` as a read-only :class:`numpy.memmap` view straight into the
operating system's page cache.  N processes loading the same index this way
share one physical copy of the arrays — the foundation of the
:class:`~repro.serve.WorkerPool` process backend (see :mod:`repro.serve`).
"""

from __future__ import annotations

import json
import struct
import warnings
import zipfile
from pathlib import Path

import numpy as np

from repro.exceptions import NotPreparedError, PersistenceError

#: On-disk format version; bump on incompatible layout or semantics changes.
#: Version history:
#:
#: 1. initial layout (ratchet-era LEMP-BLSH: the minimum-match base baked the
#:    smallest local threshold seen into the bucket, in processing order);
#: 2. same layout, order-independent BLSH base semantics — the base is a pure
#:    per-(query, bucket) function of the local threshold, recorded in
#:    ``meta["blsh_base"]``.  Version-1 indexes still load (the filter was
#:    never serialised), but a version-1 LEMP-BLSH index answers queries with
#:    the new order-free base, so a ``FutureWarning`` is emitted (shown by
#:    default, unlike ``DeprecationWarning`` — the note targets end users).
#:    Versions 2.x also wrote optional planner settings into ``meta.json``;
#:    the planner no longer has settings, and readers ignore those keys.
#: 3. same layout, with the guarantee that every ``index.npz`` member is
#:    written *uncompressed* (``ZIP_STORED``) so the arrays can be
#:    memory-mapped in place (``meta["mmap_layout"]`` records it).  Purely
#:    additive: format-2 readers load format-3 files unchanged (``np.savez``
#:    has always produced stored members, format 3 merely promises it), and
#:    format-1/2 indexes keep loading — eagerly, or mapped too when their
#:    members turn out to be stored.
#: 4. additive quantized-screening members: an engine saved with an active
#:    ``screen_dtype`` writes its compressed screening tier as
#:    ``state.screen_data`` (plus ``state.screen_scale`` /
#:    ``state.screen_offset`` for int8) so a reload — eager or mapped — never
#:    re-quantizes.  The tier dtype itself travels in ``meta["kwargs"]``
#:    (``screen_dtype``), as every constructor argument does.  Format-3
#:    readers would choke only on the unknown ``state.`` members, hence the
#:    bump; format-1/2/3 indexes keep loading here — without tier arrays the
#:    tier is rebuilt lazily on the first screened query.
#: 5. additive compressed-generation members: an engine saved with an active
#:    ``gen_dtype`` *distinct from* ``screen_dtype`` writes that tier as
#:    ``state.gen_data`` (plus ``state.gen_scale`` / ``state.gen_offset``
#:    for int8); when the two dtypes match, the one shared tier travels once
#:    under the format-4 ``state.screen_*`` members.  The knob itself rides
#:    in ``meta["kwargs"]`` (``gen_dtype``) like every constructor argument.
#:    Same bump rationale as format 4: older readers would choke only on the
#:    unknown ``state.`` members; format-1..4 indexes keep loading here —
#:    without tier arrays the generation tier is rebuilt lazily on first use.
#:
#: Library 5.0 removed both compressed tiers and still writes format 5: it
#: only stops writing the optional tier members and keywords, so every
#: format-5 reader loads its files.  Loading a format-4/5 index saved with
#: a tier drops the tier members, keywords and spec suffix and warns once
#: (see :func:`load_engine`); the tier never changed an answer.
FORMAT_VERSION = 5

#: Format versions :func:`load_engine` accepts.
SUPPORTED_FORMATS = (1, 2, 3, 4, 5)

#: ``meta["blsh_base"]`` marker for the order-independent base semantics.
BLSH_BASE_SEMANTICS = "per-query-theta-b"

_META_FILE = "meta.json"
_INDEX_FILE = "index.npz"
_STATE_PREFIX = "state."

#: Constructor keywords and ``state.`` member prefixes of the compressed
#: tiers that formats 4 and 5 could carry; the loader drops them.
_TIER_KWARGS = ("screen_dtype", "gen_dtype")
_TIER_MEMBERS = (_STATE_PREFIX + "screen_", _STATE_PREFIX + "gen_")


def save_engine(engine, path) -> None:
    """Write ``engine``'s fitted index under the directory ``path``.

    Retrievers with an exportable :meth:`~repro.core.api.Retriever.index_state`
    (LEMP) persist only their state arrays — the probe matrix is fully encoded
    in them, so it is not written twice.  Retrievers without exportable state
    persist the normalised probe matrix and are refit on load.
    """
    if engine.spec is None:
        raise PersistenceError(
            f"cannot save a {type(engine.retriever).__name__} that is not in the "
            "retriever registry; construct the engine from a spec string instead"
        )
    state = None
    if (
        getattr(engine.retriever, "_fitted", False)
        and hasattr(engine.retriever, "index_state")
        and _overrides_restore(engine.retriever)
    ):
        state = engine.retriever.index_state()
    if state is None and engine._probes is None:
        raise NotPreparedError(
            "nothing to save: call engine.fit(probes) first (a retriever fitted "
            "outside the engine can only be saved if it exports index state)"
        )
    from repro import __version__

    directory = Path(path)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as error:
        raise PersistenceError(
            f"cannot write index to {directory}: path exists and is not a directory"
        ) from error

    arrays: dict[str, np.ndarray] = {}
    if state is not None:
        for key, value in state.items():
            arrays[_STATE_PREFIX + key] = np.asarray(value)
    else:
        arrays["probes"] = engine._probes

    meta = {
        "format": FORMAT_VERSION,
        "library_version": __version__,
        "spec": engine.spec,
        "kwargs": _jsonable(engine._construct_kwargs),
        "num_probes": int(engine.num_probes),
        "has_state": state is not None,
        "workers": int(engine.workers),
        # Format-3 promise: every index.npz member is ZIP_STORED, so the
        # arrays can be memory-mapped in place (load_engine(mmap_mode="r")).
        "mmap_layout": True,
    }
    if _is_blsh_retriever(engine.retriever):
        meta["blsh_base"] = BLSH_BASE_SEMANTICS
    cache = getattr(engine.retriever, "tuning_cache", None)
    if cache is not None and state is not None:
        # Tuning entries are keyed by content fingerprints whose per-bucket
        # epochs are part of the state arrays, so they stay valid (and warm)
        # across the save/load round trip.  Without exportable state the
        # loaded engine refits, which clears the cache — nothing to persist.
        exported = cache.export_state()
        if exported:
            meta["tuning_cache"] = exported
    (directory / _META_FILE).write_text(json.dumps(meta, indent=2, sort_keys=True))
    with open(directory / _INDEX_FILE, "wb") as handle:
        np.savez(handle, **arrays)


def load_engine(path, mmap_mode: str | None = None):
    """Restore a :class:`~repro.engine.facade.RetrievalEngine` from ``path``.

    ``mmap_mode="r"`` memory-maps the index arrays instead of copying them
    into RAM: every array of ``index.npz`` becomes a read-only
    :class:`numpy.memmap` view backed by the OS page cache, so concurrent
    processes loading the same index share one physical copy.  Mapped
    engines answer queries bit-identically to eagerly loaded ones; the only
    operations that materialise copies are incremental updates
    (``partial_fit`` / ``remove`` rebuild the touched arrays in RAM, as they
    do for eager loads).  Requires the index members to be stored
    uncompressed — guaranteed from format 3 on, and true in practice for
    every ``np.savez``-written format-1/2 index as well.

    An index saved by a library before 5.0 with a compressed screening or
    generation tier loads as the exact index: the tier's members, keywords
    and spec suffix are dropped and one ``FutureWarning`` says so.  The tier
    only ever pre-filtered candidates that exact verification re-scored, so
    the answers are the ones the saving library returned.
    """
    from repro.engine.facade import RetrievalEngine

    if mmap_mode not in (None, "r"):
        raise PersistenceError(
            f"mmap_mode must be None (eager load) or 'r' (read-only map), got {mmap_mode!r}"
        )
    directory = Path(path)
    meta_path = directory / _META_FILE
    index_path = directory / _INDEX_FILE
    if not meta_path.is_file() or not index_path.is_file():
        raise PersistenceError(f"{directory} is not a saved index (missing meta/index files)")
    try:
        meta = json.loads(meta_path.read_text())
    except json.JSONDecodeError as error:
        raise PersistenceError(f"corrupt index metadata in {meta_path}: {error}") from error
    if meta.get("format") not in SUPPORTED_FORMATS:
        raise PersistenceError(
            f"saved index has format {meta.get('format')!r}, "
            f"this library reads formats {SUPPORTED_FORMATS}"
        )

    kwargs = dict(meta.get("kwargs", {}))
    tier_dtypes = [kwargs.pop(name, None) for name in _TIER_KWARGS]
    spec, slash, _ = str(meta["spec"]).partition("/")
    tiered = bool(slash) or any(dtype is not None for dtype in tier_dtypes)
    if mmap_mode == "r":
        arrays = mmap_npz_arrays(index_path)
        tiered |= any(key.startswith(_TIER_MEMBERS) for key in arrays)
        probes = arrays.get("probes")
        state = {
            key[len(_STATE_PREFIX):]: value
            for key, value in arrays.items()
            if key.startswith(_STATE_PREFIX) and not key.startswith(_TIER_MEMBERS)
        }
    else:
        with np.load(index_path) as data:
            tiered |= any(key.startswith(_TIER_MEMBERS) for key in data.files)
            probes = data["probes"] if "probes" in data.files else None
            state = {
                key[len(_STATE_PREFIX):]: data[key]
                for key in data.files
                if key.startswith(_STATE_PREFIX) and not key.startswith(_TIER_MEMBERS)
            }
    if tiered:
        warnings.warn(
            "loading an index saved with a compressed screening or generation "
            "tier (screen_dtype / gen_dtype), which this library no longer has: "
            "the tier is dropped and the exact index answers, with the same "
            "results. Re-save to silence this.",
            FutureWarning,
            stacklevel=2,
        )

    engine = RetrievalEngine(spec, workers=int(meta.get("workers", 1)), **kwargs)
    if _is_blsh_retriever(engine.retriever) and meta.get("blsh_base") != BLSH_BASE_SEMANTICS:
        # A ratchet-era LEMP-BLSH index: the saved index itself is fine (the
        # signature filter was never serialised), but queries now run with
        # the order-independent per-(query, bucket) base, so approximate
        # results may differ from what the saving library returned — within
        # the documented false-negative budget either way.  FutureWarning is
        # shown by default, unlike DeprecationWarning, and this note targets
        # end users loading old indexes.
        warnings.warn(
            "loading a LEMP-BLSH index saved before the order-independent "
            "minimum-match base (format 1): the old processing-order ratchet "
            "state is ignored and queries use the per-(query, bucket) base; "
            "approximate results may differ from the saving library's within "
            "the documented false-negative rate. Re-save to silence this.",
            FutureWarning,
            stacklevel=2,
        )
    if state and meta.get("has_state", False):
        engine.retriever.restore_index(probes, state)
        cache = getattr(engine.retriever, "tuning_cache", None)
        if cache is not None and meta.get("tuning_cache"):
            cache.restore_state(meta["tuning_cache"])
    elif probes is not None:
        engine._probes = np.ascontiguousarray(probes)
        engine.retriever.fit(engine._probes)
    else:
        raise PersistenceError(f"corrupt index in {index_path}: neither state nor probes stored")
    return engine


#: Size of a ZIP local-file-header's fixed part (PK\x03\x04 ... extra length).
_ZIP_LOCAL_HEADER_SIZE = 30


def mmap_npz_arrays(path) -> dict[str, np.ndarray]:
    """Memory-map every array of an uncompressed ``.npz`` file, zero-copy.

    ``np.load`` ignores ``mmap_mode`` for ``.npz`` archives (it always reads
    members into RAM), but ``np.savez`` stores members uncompressed
    (``ZIP_STORED``), so each embedded ``.npy`` file occupies a contiguous
    byte range of the archive.  This helper locates each member's array data
    by parsing the ZIP local file headers and the ``.npy`` headers, then
    returns read-only :class:`numpy.memmap` views keyed by member name
    (without the ``.npy`` suffix).  Zero-size arrays are returned as ordinary
    (empty) arrays — there is nothing to map.

    Raises :class:`~repro.exceptions.PersistenceError` for archives with
    compressed or object-dtype members (neither can be mapped in place).
    """
    path = Path(path)
    try:
        with zipfile.ZipFile(path) as archive:
            members = archive.infolist()
    except (zipfile.BadZipFile, OSError) as error:
        raise PersistenceError(f"cannot map {path}: not a readable npz archive") from error

    arrays: dict[str, np.ndarray] = {}
    with open(path, "rb") as handle:
        for member in members:
            name = member.filename
            if not name.endswith(".npy"):
                continue
            if member.compress_type != zipfile.ZIP_STORED:
                raise PersistenceError(
                    f"cannot map {path}: member {name!r} is compressed; "
                    "re-save the index (format 3 stores members uncompressed)"
                )
            # The central directory's extra-field length can differ from the
            # local header's, so the data offset must be read from the local
            # header itself (header_offset + fixed part + name + extra).
            handle.seek(member.header_offset)
            header = handle.read(_ZIP_LOCAL_HEADER_SIZE)
            if len(header) != _ZIP_LOCAL_HEADER_SIZE or header[:4] != b"PK\x03\x04":
                raise PersistenceError(
                    f"cannot map {path}: corrupt local header for member {name!r}"
                )
            name_length, extra_length = struct.unpack("<HH", header[26:30])
            handle.seek(member.header_offset + _ZIP_LOCAL_HEADER_SIZE
                        + name_length + extra_length)
            try:
                version = np.lib.format.read_magic(handle)
                if version == (1, 0):
                    shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
                elif version == (2, 0):
                    shape, fortran, dtype = np.lib.format.read_array_header_2_0(handle)
                else:
                    raise PersistenceError(
                        f"cannot map {path}: member {name!r} uses npy format "
                        f"{version}, expected 1.0 or 2.0"
                    )
            except ValueError as error:
                raise PersistenceError(
                    f"cannot map {path}: member {name!r} has a corrupt npy header"
                ) from error
            if dtype.hasobject:
                raise PersistenceError(
                    f"cannot map {path}: member {name!r} holds Python objects"
                )
            key = name[: -len(".npy")]
            if int(np.prod(shape)) == 0:
                arrays[key] = np.zeros(shape, dtype=dtype)
                continue
            arrays[key] = np.memmap(
                path, dtype=dtype, mode="r", offset=handle.tell(),
                shape=tuple(shape), order="F" if fortran else "C",
            )
    return arrays


def _is_blsh_retriever(retriever) -> bool:
    """Whether a retriever is the approximate LEMP-BLSH variant.

    Checked on the constructed retriever, not the spec string, so every
    accepted spelling (``"lemp:BLSH"``, the legacy ``"LEMP-BLSH"`` alias,
    ``algorithm="BLSH"`` kwargs) is recognised.
    """
    return getattr(retriever, "algorithm", None) == "BLSH"


def _overrides_restore(retriever) -> bool:
    """Whether the retriever implements its own ``restore_index``.

    The state-only save path (no probes array on disk) is only safe when the
    retriever can rebuild itself from state alone; a class that exports
    ``index_state`` but inherits the default refit-from-probes
    ``restore_index`` must be persisted via the probe matrix instead.
    """
    from repro.core.api import Retriever

    return (
        isinstance(retriever, Retriever)
        and type(retriever).restore_index is not Retriever.restore_index
    )


def _jsonable(value):
    """Recursively convert numpy scalars and tuples for JSON metadata."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, np.generic):
        return value.item()
    return value
