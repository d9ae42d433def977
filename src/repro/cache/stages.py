"""The compile cache's hooks at the pipeline's stage boundaries.

:func:`repro.pipeline.compile_source` given a ``cache`` drives one
:class:`StageMemo` through its stage sequence, so recompilation
resumes downstream of the first divergent input:

1. **exact** — the invocation fingerprint (source + every key-relevant
   option) matches an alias: replay the final artifact, run nothing;
2. **tokens** — after preprocessing, the token stream matches: replay
   the final artifact and skip parse/Sema/CodeGen/mid-end (comment and
   whitespace edits land here);
3. **module** — only ``optimize`` diverged: the memoized unoptimized
   module (deep-copied) feeds the mid-end directly;
4. **cold** — the full pipeline; every stage artifact is recorded on
   the way out, including per-function codegen hashes.

Only successful compiles are cached.  Cached diagnostics (warnings)
embed source locations, so they are only replayed against the
byte-identical source; a token-level hit on a comment-shifted file
compiles cold rather than replaying stale line numbers.
"""

from __future__ import annotations

import copy
from typing import Optional

from repro.astlib.dump import dump_ast
from repro.cache.cache import (
    FUNCTION_HITS,
    STAGE_RESUMES,
    CachedCompile,
    CompilationCache,
)
from repro.cache.key import source_id, stage_key, token_stream_text
from repro.invocation import CompilerInvocation
from repro.ir.printer import print_function, print_module

#: the stages keyed before codegen output exists, in chain order
_CHAINED_STAGES = ("preprocess", "frontend", "codegen")


class StageMemo:
    """One compilation's view of a :class:`CompilationCache`."""

    def __init__(
        self, cache: CompilationCache, ci: CompilerInvocation, source: str
    ) -> None:
        self.cache = cache
        self.ci = ci
        self.src_id = source_id(source)
        self.raw_key = ci.fingerprint(source)
        # The raw key hashes the main file's bytes but not the bytes
        # of #included headers on disk; only the token-stream key sees
        # those.  With include paths in play the exact-alias fast path
        # could replay a stale artifact after a header edit, so skip it.
        self.allow_alias = not ci.include_paths
        self.keys: dict[str, str] = {}
        self.final_key: Optional[str] = None
        self._codegen: Optional[dict] = None

    def _replay(
        self, key: str, resumed_from: str, stage_keys: dict
    ) -> Optional[CachedCompile]:
        # The tier must be sampled before the lookup: a disk hit is
        # promoted into the memory tier on the way out.
        tier = "memory" if f"artifact:{key}" in self.cache.memory else "disk"
        artifact = self.cache.get_artifact(key)
        if artifact is None or not self._replayable(artifact):
            return None
        return CachedCompile(
            ir_text=artifact["ir"],
            diagnostics_text=artifact.get("diagnostics", ""),
            key=key,
            hit=True,
            resumed_from=resumed_from,
            origin=tier,
            stage_keys=stage_keys,
        )

    def _replayable(self, artifact: dict) -> bool:
        # Rendered diagnostics embed line/column numbers: only valid
        # verbatim against the source that produced them.
        return (
            artifact.get("diagnostics", "") == ""
            or artifact.get("source_id") == self.src_id
        )

    def _store(self, stage: str, ir: str) -> str:
        """Record *stage*'s IR with the codegen-stage diagnostics."""
        key = self.keys[stage]
        self.cache.put_artifact(
            key,
            {
                "stage": stage,
                "ir": ir,
                "diagnostics": self._codegen["diagnostics"],
                "source_id": self._codegen.get("source_id", self.src_id),
            },
        )
        if key == self.final_key and self.allow_alias:
            self.cache.put_alias(self.raw_key, key)
        return ir

    # -- stage boundaries, in pipeline order ---------------------------
    def replay_exact(self) -> Optional[CachedCompile]:
        """Before preprocessing: the exact-repeat fast path."""
        if not self.allow_alias:
            return None
        target = self.cache.get_alias(self.raw_key)
        if target is None:
            return None
        return self._replay(target, "exact", {"final": target})

    def replay_tokens(self, tokens) -> Optional[CachedCompile]:
        """After preprocessing: derive the chained stage keys from the
        token stream and replay the final artifact if it is cached."""
        parent = None
        for stage in _CHAINED_STAGES:
            material: object = self.ci.key_material(stage)
            if stage == "preprocess":
                material = [token_stream_text(tokens), material]
            parent = self.keys[stage] = stage_key(stage, parent, material)
        if self.ci.optimize:
            from repro.midend import default_pass_pipeline

            self.keys["opt"] = stage_key(
                "opt", parent, default_pass_pipeline().pass_names()
            )
        self.final_key = self.keys["opt" if self.ci.optimize else "codegen"]
        hit = self._replay(self.final_key, "tokens", self.keys)
        if hit is not None:
            STAGE_RESUMES.inc()
            if self.allow_alias:
                self.cache.put_alias(self.raw_key, self.final_key)
        return hit

    def resumable_module(self):
        """With ``optimize``: a private copy of the memoized unoptimized
        module for this token stream, for the mid-end to resume from."""
        if not self.ci.optimize:
            return None
        artifact = self.cache.get_artifact(self.keys["codegen"])
        if artifact is None or not self._replayable(artifact):
            return None
        module = self.cache.get_module(self.keys["codegen"])
        if module is not None:
            STAGE_RESUMES.inc()
            self._codegen = artifact
        return module

    def record_resumed(self, module) -> CachedCompile:
        """After the mid-end ran on a :meth:`resumable_module`."""
        ir = self._store("opt", print_module(module))
        return self._compiled(ir, "module")

    def record_codegen(self, result) -> None:
        """After CodeGen and verification of a cold compile."""
        self._codegen = {"diagnostics": result.diagnostics_text()}
        self._codegen["ir"] = self._store("codegen", result.ir_text())
        # Per-function codegen memo: keyed by the function body's AST
        # dump, so an edit to one function registers every *other*
        # function as a codegen-level hit.  (Splicing cached function
        # text into a fresh module is unsound — module-level metadata
        # numbering is global — so this memo only feeds accounting and
        # the stored per-function IR snapshots.)
        for fn in result.translation_unit.functions():
            if fn.body is None:
                continue
            fn_key = stage_key(
                "fn-codegen",
                None,
                [self.ci.mode, fn.name, dump_ast(fn.body, dump_shadow=True)],
            )
            if self.cache.has_function(fn_key):
                FUNCTION_HITS.inc()
            else:
                ir_fn = result.module.functions.get(fn.name)
                self.cache.put_function(
                    fn_key,
                    print_function(ir_fn) if ir_fn is not None else "",
                )
        # Memoize the unoptimized module for O0 -> O1 resume.  When the
        # mid-end is about to mutate it, memoize a private copy.
        self.cache.put_module(
            self.keys["codegen"],
            copy.deepcopy(result.module)
            if self.ci.optimize
            else result.module,
        )

    def record_final(self, result) -> CachedCompile:
        """At the end of a cold compile."""
        if self.ci.optimize:
            return self._compiled(self._store("opt", result.ir_text()), None)
        return self._compiled(self._codegen["ir"], None)

    def _compiled(self, ir: str, resumed_from: Optional[str]) -> CachedCompile:
        return CachedCompile(
            ir_text=ir,
            diagnostics_text=self._codegen["diagnostics"],
            key=self.final_key,
            hit=False,
            resumed_from=resumed_from,
            origin="compiled",
            stage_keys=self.keys,
        )
