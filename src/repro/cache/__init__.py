"""Content-addressed compilation cache with per-stage memoization.

The ccache / ThinLTO-incremental-cache / clangd-preamble analogue for
the reproduction's pipeline: compile products are addressed by a
SHA-256 of canonicalized source + flags + stage + format version, kept
in an in-memory LRU tier over an optional shared on-disk store, and
memoized at every pipeline stage boundary so a changed input only
re-runs the stages downstream of the first divergence.

Public surface::

    from repro.cache import CompilationCache
    from repro.pipeline import compile_source

    cache = CompilationCache(".miniclang-cache")
    cc = compile_source(source, cache=cache, optimize=True)
    cc.ir_text           # byte-identical to a cold compile
    cc.hit               # True on the warm path

The service layer adds single-flight request dedup on top
(:mod:`repro.cache.singleflight`) and memoizes terminal responses per
request fingerprint; see :mod:`repro.service.service`.
"""

from repro.cache.cache import (
    DEGRADED_KEY_SUFFIX,
    CachedCompile,
    CompilationCache,
    degraded_key,
)
from repro.cache.disk import DiskTier
from repro.cache.integrity import (
    IntegrityError,
    payload_digest,
    seal,
    unseal,
)
from repro.cache.key import (
    CACHE_FORMAT_VERSION,
    canonicalize_source,
    source_id,
    stage_key,
    token_stream_text,
)
from repro.cache.lru import LRUTier
from repro.cache.singleflight import InflightTable

__all__ = [
    "CACHE_FORMAT_VERSION",
    "CachedCompile",
    "CompilationCache",
    "DEGRADED_KEY_SUFFIX",
    "DiskTier",
    "InflightTable",
    "IntegrityError",
    "LRUTier",
    "canonicalize_source",
    "degraded_key",
    "payload_digest",
    "seal",
    "source_id",
    "stage_key",
    "token_stream_text",
    "unseal",
]
