"""The options of one compilation: clang's ``CompilerInvocation``.

Every entry point builds exactly one :class:`CompilerInvocation` — the
``miniclang`` command line (:meth:`CompilerInvocation.from_args`), a
service request (:meth:`repro.service.CompileRequest.invocation`), an
oracle configuration (:meth:`repro.testing.oracle.Config.invocation`)
— and hands it to the pipeline driver (:func:`repro.pipeline.
compile_source` / :func:`repro.pipeline.run_source`).
The paper's choice of representation is one field of it, as in clang:
``enable_irbuilder`` is ``-fopenmp-enable-irbuilder``.

Each field is tagged with the pipeline stage whose output it can
change (``preprocess``, ``frontend``, ``codegen``, ``opt``, ``exec``)
or with ``None`` when it changes no output at all.  The compilation
cache chains its per-stage keys from those groups, and
:meth:`~CompilerInvocation.fingerprint` hashes every tagged field, so
a new option lands in the right keys by declaring its stage.

This module stays import-light: the plain ``miniclang`` compile path
imports it, so nothing from the cache, service, mid-end or execution
packages is imported at module level.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from typing import Optional


def _option(default, stage: Optional[str]):
    """A field of *stage*; mutable defaults become factories."""
    if isinstance(default, dict):
        return field(default_factory=dict, metadata={"stage": stage})
    return field(default=default, metadata={"stage": stage})


@dataclass(frozen=True)
class CompilerInvocation:
    """Front-end, codegen and execution options of one compilation."""

    # Front end (preprocessor: the token stream depends on these).
    filename: str = _option("<input>", "preprocess")
    openmp: bool = _option(True, "preprocess")
    defines: dict[str, str] = _option({}, "preprocess")
    include_paths: tuple[str, ...] = _option((), "preprocess")
    virtual_files: dict[str, str] = _option({}, "preprocess")
    #: drop the loop-transformation directives (the differential
    #: testing reference configuration)
    strip_omp_transforms: bool = _option(False, "preprocess")
    # Front end (parse/Sema).
    enable_irbuilder: bool = _option(False, "frontend")
    error_limit: int = _option(0, "frontend")
    syntax_only: bool = _option(False, "frontend")
    # Codegen and the mid-end.
    verify: bool = _option(True, "codegen")
    optimize: bool = _option(False, "opt")
    # Execution.
    exec_engine: str = _option("interp", "exec")
    entry: str = _option("main", "exec")
    num_threads: int = _option(4, "exec")
    fuel: Optional[int] = _option(None, "exec")
    timeout_s: Optional[float] = _option(None, "exec")
    memory_limit: Optional[int] = _option(None, "exec")
    max_call_depth: int = _option(256, "exec")
    profile_detail: bool = _option(False, "exec")
    # Crash reporting only: never part of a key.
    crash_reproducer_dir: Optional[str] = _option(None, None)
    #: the command line quoted in crash reproducers
    invocation: Optional[str] = _option(None, None)

    def __post_init__(self) -> None:
        # Callers pass None or lists for the collections; normalize so
        # equal option sets compare (and fingerprint) equal.
        object.__setattr__(self, "defines", dict(self.defines or {}))
        object.__setattr__(
            self, "include_paths", tuple(self.include_paths or ())
        )
        object.__setattr__(
            self, "virtual_files", dict(self.virtual_files or {})
        )

    @property
    def mode(self) -> str:
        """The representation: ``"irbuilder"`` (paper §3) or
        ``"shadow"`` (paper §2)."""
        return "irbuilder" if self.enable_irbuilder else "shadow"

    def preprocessor_options(self):
        """The :class:`~repro.preprocessor.PreprocessorOptions` slice."""
        from repro.preprocessor import PreprocessorOptions

        return PreprocessorOptions(
            defines=dict(self.defines),
            openmp=self.openmp,
            strip_omp_transforms=self.strip_omp_transforms,
        )

    def key_material(self, stage: str) -> dict:
        """The options whose stage tag is *stage*, by name."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.metadata["stage"] == stage
        }

    def fingerprint(self, source: str) -> str:
        """Exact identity of compiling *source* under these options:
        the raw (line-ending normalized) source plus every field not
        in :data:`KEY_IRRELEVANT`.  The compile cache's exact-repeat
        key and the base of the service's request fingerprint."""
        from repro.cache.key import canonicalize_source, stage_key

        options = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in KEY_IRRELEVANT
        }
        return stage_key(
            "request",
            None,
            {"source": canonicalize_source(source), "options": options},
        )

    def to_argv(self) -> list[str]:
        """The ``miniclang`` command line for these options, input file
        last.  ``verify`` and ``virtual_files`` have no command-line
        spelling; every other field round-trips through
        :meth:`from_args`."""
        argv: list[str] = []
        for name, flag in _FLAGS:
            value = getattr(self, name)
            if value == _DEFAULTS[name]:
                continue
            if isinstance(value, bool):
                argv.append(flag)
            else:
                argv += [flag, str(value)]
        argv += [f"-D{key}={value}" for key, value in self.defines.items()]
        argv += [f"-I{path}" for path in self.include_paths]
        argv.append(self.filename)
        return argv

    @classmethod
    def from_args(cls, args, **overrides) -> "CompilerInvocation":
        """Build from a parsed ``miniclang`` namespace
        (:func:`repro.driver.cli.build_arg_parser`).  Argument names
        match field names; ``-D`` items become the define table."""
        values = {
            f.name: getattr(args, f.name)
            for f in fields(cls)
            if hasattr(args, f.name)
        }
        values["defines"] = dict(
            item.split("=", 1) if "=" in item else (item, "1")
            for item in args.defines
        )
        values.update(overrides)
        return cls(**values)


#: fields that change no compile or run output; the fingerprint
#: ignores them
KEY_IRRELEVANT = frozenset(
    f.name
    for f in fields(CompilerInvocation)
    if f.metadata["stage"] is None
)

_DEFAULTS = {
    f.name: f.default if f.default is not MISSING else f.default_factory()
    for f in fields(CompilerInvocation)
}

#: command-line spelling of the scalar options: booleans render as the
#: bare flag when they differ from the default, values as ``flag value``
_FLAGS = (
    ("openmp", "-fno-openmp"),
    ("enable_irbuilder", "-fopenmp-enable-irbuilder"),
    ("syntax_only", "-fsyntax-only"),
    ("optimize", "-O"),
    ("strip_omp_transforms", "--strip-omp-transforms"),
    ("error_limit", "-ferror-limit"),
    ("exec_engine", "-fexec"),
    ("entry", "--entry"),
    ("num_threads", "--num-threads"),
    ("fuel", "--fuel"),
    ("timeout_s", "--timeout"),
    ("memory_limit", "--max-memory"),
    ("max_call_depth", "--max-recursion"),
    ("profile_detail", "-fprofile-report"),
    ("crash_reproducer_dir", "-crash-reproducer-dir"),
)
