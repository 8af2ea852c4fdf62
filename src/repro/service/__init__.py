"""Kremlin-as-a-service: profile store, asyncio server, client, harness.

The pieces (see ``docs/SERVICE.md``):

* :mod:`repro.service.store` — sharded on-disk profile store: per-program
  append logs, canonical-order merge, snapshot compaction;
* :mod:`repro.service.protocol` — versioned NDJSON request/response
  envelopes and their structured error codes;
* :mod:`repro.service.server` — the asyncio front end (``kremlin serve``);
* :mod:`repro.service.client` — the blocking typed client
  (``kremlin submit``);
* :mod:`repro.service.loadgen` — the many-client load harness.

Exports resolve lazily so that importing this package does not drag
asyncio/socket machinery into every ``import repro``. ``LRUCache`` (the
server's shared result cache) lives in :mod:`repro.lru` and is
re-exported here.
"""

from __future__ import annotations

_EXPORTS = {
    "LRUCache": ("repro.lru", "LRUCache"),
    "ProfileStore": ("repro.service.store", "ProfileStore"),
    "ProfileStoreError": ("repro.service.store", "ProfileStoreError"),
    "SubmitReceipt": ("repro.service.store", "SubmitReceipt"),
    "canonical_merge": ("repro.service.store", "canonical_merge"),
    "canonical_merge_text": ("repro.service.store", "canonical_merge_text"),
    "profile_key": ("repro.service.store", "profile_key"),
    "serialize_doc": ("repro.service.store", "serialize_doc"),
    "PROTOCOL_VERSION": ("repro.service.protocol", "PROTOCOL_VERSION"),
    "MAX_REQUEST_BYTES": ("repro.service.protocol", "MAX_REQUEST_BYTES"),
    "ProtocolError": ("repro.service.protocol", "ProtocolError"),
    "KremlinServer": ("repro.service.server", "KremlinServer"),
    "ServerThread": ("repro.service.server", "ServerThread"),
    "KremlinClient": ("repro.service.client", "KremlinClient"),
    "ServiceError": ("repro.service.client", "ServiceError"),
    "LoadReport": ("repro.service.loadgen", "LoadReport"),
    "run_load": ("repro.service.loadgen", "run_load"),
    "demo_workload": ("repro.service.loadgen", "demo_workload"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    import importlib

    return getattr(importlib.import_module(module_name), attr)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
