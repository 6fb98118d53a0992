"""Pluggable results stores: where experiment records live on disk.

The engine runs experiments; a :class:`ResultsStore` persists them.  The
interface (``repro.store.base``) owns the full lifecycle -- per-point
open/append/commit, manifest and progress-snapshot persistence, canonical
finalization, resume enumeration, and the read side that ``repro
report|pareto|query`` consume.  Two backends ship:

* ``"jsonl"`` (default) -- the historical checkpoint layout, byte-for-byte:
  per-point JSONL files, ``experiment.json`` manifest, progress sidecar;
* ``"sqlite"`` -- one stdlib-:mod:`sqlite3` WAL database per experiment
  with the same commit semantics and an indexed record count, for runs that
  scale to millions of trial records.

Select with ``repro run --store sqlite`` (or a ``"store"`` spec field);
:func:`open_store` sniffs an existing results path so readers need not know
which backend wrote it; ``repro store convert`` migrates between them.
Third-party backends register with :func:`register_store`.
"""

from repro.exec.checkpoint import canonical_record_bytes
from repro.store.base import (
    DEFAULT_STORE,
    MANIFEST_NAME,
    NullStore,
    PointStore,
    PointView,
    ResultsStore,
    StoreView,
    available_stores,
    build_store,
    experiment_resume_key,
    get_store,
    open_store,
    progress_sidecar_path,
    read_manifest,
    register_store,
    sniff_store,
)
from repro.store.convert import convert_store, default_convert_path
from repro.store.jsonl import JsonlStore
from repro.store.query import QueryFilter, count_query, query_records
from repro.store.sqlite import SqlitePointStore, SqliteStore

__all__ = [
    "DEFAULT_STORE",
    "MANIFEST_NAME",
    "JsonlStore",
    "NullStore",
    "PointStore",
    "PointView",
    "QueryFilter",
    "ResultsStore",
    "SqlitePointStore",
    "SqliteStore",
    "StoreView",
    "available_stores",
    "build_store",
    "canonical_record_bytes",
    "convert_store",
    "count_query",
    "default_convert_path",
    "experiment_resume_key",
    "get_store",
    "open_store",
    "progress_sidecar_path",
    "query_records",
    "read_manifest",
    "register_store",
    "sniff_store",
]
