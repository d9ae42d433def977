"""Content-addressed cache keys.

Every cache entry is addressed by a SHA-256 over *canonicalized* input:
the source text (line endings normalized), the options of a
:class:`~repro.invocation.CompilerInvocation` (``-D`` defines
order-insensitive, ``-I`` search paths order-*sensitive* — include
order is semantics), the pipeline stage, and
:data:`CACHE_FORMAT_VERSION`.  Bumping the version orphans every
existing entry instead of misinterpreting it, the same trick ccache's
``cache_version`` plays.

Keys chain along the pipeline, one per stage boundary, each hashing
the invocation options tagged with that stage
(:meth:`~repro.invocation.CompilerInvocation.key_material`)::

    k_pp  = H(version, "preprocess", token stream, preprocess options)
    k_fe  = H("frontend", k_pp, frontend options)
    k_cg  = H("codegen",  k_fe, codegen options)
    k_opt = H("opt",      k_cg, pass pipeline names)

so a flag that only affects a late stage (``-O``) leaves every upstream
key unchanged and the cached upstream artifacts stay addressable —
the first *divergent* input decides where recompilation must resume.
The exact-repeat key is
:meth:`~repro.invocation.CompilerInvocation.fingerprint`.

The preprocess key hashes the post-preprocess **token stream**, not the
raw bytes: comment and whitespace edits produce the identical stream,
so everything downstream of the preprocessor hits (ccache's "direct
mode" keyed the way clangd keys preamble reuse).  Hashing is plain
``hashlib.sha256`` over sorted-key JSON — deterministic across
processes and interpreter restarts (``PYTHONHASHSEED`` never enters).
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional, Sequence

from repro.lex.tokens import Token

#: bump whenever artifact layout or any key ingredient changes meaning
#: (2: on-disk entries gained self-verifying SHA-256 envelopes;
#: 3: request and stage keys hash CompilerInvocation option groups)
CACHE_FORMAT_VERSION = 3


def _digest(payload: object) -> str:
    text = json.dumps(
        payload,
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=False,
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonicalize_source(source: str) -> str:
    """Line-ending normalization: CRLF / lone CR become LF."""
    return source.replace("\r\n", "\n").replace("\r", "\n")


def token_stream_text(tokens: Sequence[Token]) -> str:
    """Deterministic serialization of a post-preprocess token stream.

    Annotation tokens (``annot_pragma_openmp`` …) carry their payload
    token list in ``annotation_value``; it is serialized recursively so
    two streams compare equal iff the parser would see the same input.
    Locations are deliberately excluded — that is what makes comment
    and whitespace edits hit downstream stages.
    """
    parts: list[str] = []
    for token in tokens:
        if isinstance(token.annotation_value, (list, tuple)) and all(
            isinstance(t, Token) for t in token.annotation_value
        ):
            inner = token_stream_text(list(token.annotation_value))
            parts.append(f"{token.kind.value}[{inner}]")
        else:
            parts.append(f"{token.kind.value}\x1f{token.spelling}")
    return "\x1e".join(parts)


def stage_key(
    stage: str,
    parent: Optional[str],
    material: object = None,
) -> str:
    """Key for one pipeline stage, chained onto its upstream *parent*."""
    return _digest(
        {
            "version": CACHE_FORMAT_VERSION,
            "stage": stage,
            "parent": parent,
            "material": material,
        }
    )


def source_id(source: str) -> str:
    """Identity of the raw (canonicalized) source text alone — the
    validity condition for replaying cached *diagnostics*, whose
    rendered carets embed line/column numbers."""
    return _digest(canonicalize_source(source))
