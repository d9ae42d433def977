"""High-level compilation pipeline (the public library API).

One driver runs the layers of paper Fig. 1 — FileManager,
SourceManager, Lexer, Preprocessor, Parser, Sema, CodeGen, and with
``-O`` the mid-end pass pipeline — under the options of one
:class:`~repro.invocation.CompilerInvocation`.  This is what the
examples, tests, benchmarks, the compile service and the CLI driver
(:mod:`repro.driver.cli`, a thin argument-parsing wrapper) use.

Typical use::

    from repro.pipeline import compile_source, run_source

    result = compile_source(C_CODE, openmp=True)
    print(result.ast_dump())          # clang-style -ast-dump
    print(result.ir_text())           # .ll-style IR

    outcome = run_source(C_CODE, num_threads=4, optimize=True)
    print(outcome.stdout)
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Optional

from repro.astlib.context import ASTContext
from repro.astlib.decls import FunctionDecl, TranslationUnitDecl
from repro.astlib.dump import dump_ast
from repro.codegen import CodeGenModule, CodeGenOptions
from repro.core.crash_recovery import (
    crash_context,
    pretty_stack_entry,
    recovery_scope,
)
from repro.diagnostics import (
    Diagnostic,
    DiagnosticsEngine,
    FatalErrorOccurred,
    Severity,
    TooManyErrors,
)
from repro.instrument import (
    STATS,
    ExecutionProfile,
    PassExecution,
    PassInstrumentation,
    RemarkEmitter,
    stat_values,
    time_trace_scope,
)
from repro.interp import Interpreter, MemoryError_
from repro.invocation import CompilerInvocation
from repro.ir.module import Module
from repro.ir.printer import print_module
from repro.ir.verifier import verify_module
from repro.parse import Parser
from repro.preprocessor import Preprocessor
from repro.sema import Sema
from repro.sourcemgr import FileManager, SourceManager


class CompilationError(Exception):
    """Raised when compilation produced errors; carries the rendered
    diagnostics.  ``ice=True`` marks that at least one of the errors is
    a *recovered* internal compiler error (category ``"ice"``), which
    the driver maps to the dedicated ICE exit code."""

    def __init__(self, diagnostics_text: str, ice: bool = False):
        super().__init__(diagnostics_text)
        self.diagnostics_text = diagnostics_text
        self.ice = ice


@dataclass
class CompileResult:
    """Everything produced by one compilation."""

    source_manager: SourceManager
    diagnostics: DiagnosticsEngine
    ast_context: ASTContext
    translation_unit: TranslationUnitDecl
    sema: Sema
    module: Optional[Module] = None
    #: statistics attributable to this compilation (stat name ->
    #: increment), read from the STATS registry delta
    stats: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.diagnostics.has_errors()

    @property
    def remarks(self) -> RemarkEmitter:
        """Optimization remarks collected during this compilation."""
        return self.diagnostics.remarks

    def function(self, name: str) -> FunctionDecl:
        for fn in self.translation_unit.functions():
            if fn.name == name:
                return fn
        raise KeyError(f"no function '{name}'")

    def ast_dump(
        self,
        function: str | None = None,
        dump_shadow: bool = False,
    ) -> str:
        """clang-style ``-ast-dump`` of one function body or the TU."""
        if function is not None:
            fn = self.function(function)
            target = fn.body if fn.body is not None else fn
            return dump_ast(target, dump_shadow=dump_shadow)
        parts = []
        for fn in self.translation_unit.functions():
            if fn.body is not None:
                parts.append(dump_ast(fn.body, dump_shadow=dump_shadow))
        return "\n".join(parts)

    def ir_text(self) -> str:
        assert self.module is not None, "compiled with -syntax-only?"
        return print_module(self.module)

    def diagnostics_text(self) -> str:
        return self.diagnostics.render_all()


@dataclass
class RunResult:
    """Result of executing a compiled program."""

    exit_code: Any
    stdout: str
    instruction_count: int
    interpreter: Interpreter
    compile_result: CompileResult

    @property
    def profile(self) -> ExecutionProfile:
        """Dynamic execution profile (per-thread instruction counts,
        barrier waits, optional per-block attribution)."""
        return self.interpreter.profile


def _invocation(
    ci: CompilerInvocation | None, fields: dict
) -> CompilerInvocation:
    """*ci* with keyword overrides, or an invocation built from them."""
    if ci is None:
        return CompilerInvocation(**fields)
    return replace(ci, **fields) if fields else ci


def _preprocess(
    source: str, ci: CompilerInvocation
) -> tuple[CompileResult, Optional[list]]:
    """Set up the front end and lex *source*; the token list is None
    when preprocessing stopped on a fatal error."""
    sm = SourceManager()
    fm = FileManager(list(ci.include_paths))
    for name, text in ci.virtual_files.items():
        fm.register_virtual_file(name, text)
    diags = DiagnosticsEngine(sm, error_limit=ci.error_limit)
    ctx = ASTContext()
    sema = Sema(ctx, diags)
    sema.openmp.use_irbuilder = ci.enable_irbuilder
    result = CompileResult(
        source_manager=sm,
        diagnostics=diags,
        ast_context=ctx,
        translation_unit=ctx.translation_unit,
        sema=sema,
    )
    with _stop_on_fatal(result, ci):
        # Constructing the preprocessor already lexes (builtin macros,
        # -D values), so it sits inside the recovery scope too.
        with recovery_scope("preprocess", diags), pretty_stack_entry(
            f"preprocessing '{ci.filename}'"
        ):
            pp = Preprocessor(sm, fm, diags, ci.preprocessor_options())
            pp.enter_source(source, ci.filename)
            return result, pp.lex_all()
    return result, None


def _parse(result: CompileResult, tokens: list, ci: CompilerInvocation):
    with _stop_on_fatal(result, ci), recovery_scope(
        "parse", result.diagnostics
    ), pretty_stack_entry(f"parsing '{ci.filename}'"):
        parser = Parser(tokens, result.sema, result.diagnostics)
        parser.parse_translation_unit()


@contextmanager
def _stop_on_fatal(result: CompileResult, ci: CompilerInvocation):
    """Absorb the front end's stop signals into the diagnostics."""
    try:
        yield
    except FatalErrorOccurred:
        pass
    except TooManyErrors:
        # Clang: "fatal error: too many errors emitted, stopping now".
        # Appended directly — report() would re-raise on FATAL.
        result.diagnostics.diagnostics.append(
            Diagnostic(
                Severity.FATAL,
                "too many errors emitted, stopping now "
                f"[-ferror-limit={ci.error_limit}]",
            )
        )


def _verify(module: Module, ci: CompilerInvocation) -> None:
    if ci.verify:
        with time_trace_scope("Verify", ci.filename):
            verify_module(module)


def _optimize(
    module: Module,
    ci: CompilerInvocation,
    remarks: RemarkEmitter | None = None,
    instrument: PassInstrumentation | None = None,
) -> None:
    """The mid-end stage: the ``-O`` pass pipeline, then verification."""
    from repro.midend import default_pass_pipeline

    default_pass_pipeline(remarks=remarks, instrument=instrument).run(
        module
    )
    _verify(module, ci)


def compile_source(
    source: str,
    ci: CompilerInvocation | None = None,
    *,
    cache=None,
    strict: bool = True,
    instrument: PassInstrumentation | None = None,
    **fields,
):
    """Compile C source to IR: preprocess → parse/Sema → CodeGen →
    verify → (with ``optimize``) the mid-end pass pipeline → verify.

    Options come from *ci* (a :class:`~repro.invocation.
    CompilerInvocation`) with keyword *fields* overriding it, or from
    the keywords alone — ``compile_source(src, enable_irbuilder=True)``
    — named after the clang flags the paper's workflow uses (see
    :meth:`~repro.invocation.CompilerInvocation.to_argv`).
    ``instrument`` threads a :class:`~repro.instrument.
    PassInstrumentation` through the mid-end.

    With ``strict=True`` a :class:`CompilationError` is raised when any
    error diagnostic was produced.  Every phase runs under a crash
    recovery scope: an unexpected exception either becomes an error
    diagnostic of category ``"ice"`` (per-directive Sema, per-function
    CodeGen) or an :class:`~repro.core.crash_recovery.
    InternalCompilerError` — never a raw Python traceback.

    *cache* (a :class:`repro.cache.CompilationCache`) memoizes every
    stage boundary (:mod:`repro.cache.stages`) and makes the call
    return a :class:`repro.cache.CachedCompile`, byte-identical in
    ``ir_text``/``diagnostics_text`` to the uncached compile; errors
    always raise and are never cached.  Without a cache nothing is
    hashed.
    """
    ci = _invocation(ci, fields)
    memo = None
    if cache is not None and not ci.syntax_only:
        from repro.cache.stages import StageMemo

        memo = StageMemo(cache, ci, source)
        strict = True
        replay = memo.replay_exact()
        if replay is not None:
            return replay
    before = STATS.snapshot()
    with crash_context(
        source, ci.filename, ci.invocation, ci.crash_reproducer_dir
    ):
        result, tokens = _preprocess(source, ci)
        if (
            memo is not None
            and tokens is not None
            and not result.diagnostics.has_errors()
        ):
            replay = memo.replay_tokens(tokens)
            if replay is not None:
                return replay
            module = memo.resumable_module()
            if module is not None:
                _optimize(module, ci)
                return memo.record_resumed(module)
        if tokens is not None:
            _parse(result, tokens, ci)
        if not result.diagnostics.has_errors() and not ci.syntax_only:
            result.module = CodeGenModule(
                result.ast_context,
                result.diagnostics,
                CodeGenOptions(
                    enable_irbuilder=ci.enable_irbuilder,
                    module_name=ci.filename,
                ),
            ).emit_translation_unit(result.translation_unit)
        if result.diagnostics.has_errors():
            result.stats = stat_values(STATS.delta_since(before))
            if strict:
                raise CompilationError(
                    result.diagnostics_text(),
                    ice=result.diagnostics.has_internal_errors(),
                )
            return result
        if result.module is not None:
            _verify(result.module, ci)
            if memo is not None:
                memo.record_codegen(result)
            if ci.optimize:
                _optimize(
                    result.module,
                    ci,
                    result.diagnostics.remarks,
                    instrument,
                )
        result.stats = stat_values(STATS.delta_since(before))
    return result if memo is None else memo.record_final(result)


def run_source(
    source: str,
    ci: CompilerInvocation | None = None,
    *,
    args: list | None = None,
    instrument: PassInstrumentation | None = None,
    **fields,
) -> RunResult:
    """Compile (see :func:`compile_source`) and execute *source*;
    returns exit code and captured stdout.  ``optimize=True`` runs the
    mid-end pass pipeline (incl. the LoopUnroll pass that consumes the
    ``llvm.loop.unroll.*`` metadata emitted for the paper's unroll
    directive).

    Interpreter guardrails: ``fuel`` bounds retired instructions,
    ``timeout_s`` is a wall-clock deadline (both raise
    :class:`~repro.interp.ExecutionTimeout` carrying a scheduler
    snapshot), ``memory_limit`` caps guest memory and
    ``max_call_depth`` caps guest recursion.

    ``exec_engine`` selects the execution engine (``-fexec=``):
    ``"interp"`` is the reference tree-walking interpreter,
    ``"closures"`` the closure-compiled engine with identical observable
    semantics (see :mod:`repro.exec`)."""
    from repro.exec import create_interpreter
    from repro.interp.interpreter import InterpreterError, Trap
    from repro.runtime.team import TeamError

    ci = _invocation(ci, fields)
    result = compile_source(source, ci, instrument=instrument)
    assert result.module is not None
    with crash_context(
        source, ci.filename, ci.invocation, ci.crash_reproducer_dir
    ):
        interp = create_interpreter(
            result.module,
            engine=ci.exec_engine,
            profile_detail=ci.profile_detail,
            memory_limit=ci.memory_limit,
            max_call_depth=ci.max_call_depth,
        )
        interp.omp.num_threads = ci.num_threads
        # Guest-visible failures (traps, guardrails, runtime errors)
        # pass through as themselves; anything else is an ICE.
        with recovery_scope(
            "interpret",
            passthrough=(InterpreterError, Trap, MemoryError_, TeamError),
        ), pretty_stack_entry(f"interpreting '{ci.filename}'"):
            exit_code = interp.run(
                ci.entry, args or [], fuel=ci.fuel, timeout_s=ci.timeout_s
            )
    return RunResult(
        exit_code=exit_code,
        stdout=interp.output(),
        instruction_count=interp.instruction_count,
        interpreter=interp,
        compile_result=result,
    )


@dataclass
class RequestOutcome:
    """Plain-data result of one service-scoped compile/run request.

    Unlike :class:`CompileResult`/:class:`RunResult` this carries no live
    objects (modules, interpreters, source managers), so it can cross a
    process boundary: the compile service executes requests in worker
    processes and ships the outcome back over a pipe.

    ``kind`` classifies the outcome for the service's failure policy:

    ==================  ================================================
    ``ok``              compiled (and ran); ``output`` is the IR text or
                        the guest stdout, ``exit_code`` the guest exit
    ``compile-error``   user diagnostics — deterministic, never retried
    ``guest-error``     guest trap / runtime failure — not retried
    ``ice``             internal compiler error — retry/degrade material
    ``timeout``         guest fuel/wall guardrail fired
    ==================  ================================================
    """

    kind: str
    output: str = ""
    exit_code: Optional[int] = None
    diagnostics: str = ""
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.kind == "ok"


def execute_request(
    source: str,
    ci: CompilerInvocation,
    *,
    action: str = "compile",
    cache=None,
) -> RequestOutcome:
    """Request-scoped pipeline entry point for the compile service.

    Executes one ``compile`` or ``run`` *action* under *ci* (whose
    ``enable_irbuilder`` picks one of the paper's two coexisting
    representations) and maps every exception class the pipeline can
    produce onto a :class:`RequestOutcome` kind — the caller gets a
    terminal classification, never an exception.

    *cache* (a :class:`repro.cache.CompilationCache`) memoizes
    ``compile`` actions; output stays byte-identical to the uncached
    path.
    """
    from repro.core.crash_recovery import InternalCompilerError
    from repro.instrument.faultinject import InjectedFault
    from repro.interp.interpreter import InterpreterError, Trap
    from repro.runtime.team import TeamError

    try:
        if action == "run":
            rr = run_source(source, ci)
            code = rr.exit_code if isinstance(rr.exit_code, int) else 0
            return RequestOutcome("ok", output=rr.stdout, exit_code=code)
        result = compile_source(source, ci, cache=cache)
        ir = result.ir_text if cache is not None else result.ir_text()
        return RequestOutcome("ok", output=ir, exit_code=0)
    except CompilationError as exc:
        kind = "ice" if exc.ice else "compile-error"
        return RequestOutcome(kind, diagnostics=exc.diagnostics_text)
    except InternalCompilerError as exc:
        return RequestOutcome("ice", detail=exc.render())
    except InjectedFault as exc:
        # A service-level fault site fired outside any recovery scope.
        return RequestOutcome("ice", detail=str(exc))
    except Exception as exc:
        from repro.interp import ExecutionTimeout

        if isinstance(exc, ExecutionTimeout):
            return RequestOutcome("timeout", detail=str(exc))
        if isinstance(
            exc, (Trap, InterpreterError, MemoryError_, TeamError)
        ):
            return RequestOutcome("guest-error", detail=str(exc))
        return RequestOutcome(
            "ice", detail=f"{type(exc).__name__}: {exc}"
        )


@dataclass
class BisectResult:
    """Outcome of :func:`bisect_pipeline`.

    ``culprit_index`` is the 1-based pass-execution index (LLVM OptBisect
    numbering) of the first execution that makes the predicate fail;
    ``0`` means the predicate fails before any pass runs, ``None`` means
    it never fails.  ``culprit`` names the pass and function of that
    execution.
    """

    total_executions: int
    culprit_index: Optional[int]
    culprit: Optional[PassExecution]
    probes: int

    @property
    def found(self) -> bool:
        return self.culprit is not None

    def describe(self) -> str:
        if self.culprit is not None:
            return (
                f"first failing pass execution: {self.culprit.describe()} "
                f"[{self.probes} probes over "
                f"{self.total_executions} executions]"
            )
        if self.culprit_index == 0:
            return "predicate fails before any pass runs"
        return "predicate never fails; the pipeline is not the culprit"


def bisect_pipeline(
    source: str,
    predicate,
    ci: CompilerInvocation | None = None,
    *,
    pipeline_factory=None,
    log=None,
    **fields,
) -> BisectResult:
    """Binary-search ``-opt-bisect-limit`` for the first pass execution
    that breaks *predicate*.

    Recompiles *source* under *ci*/*fields* (see :func:`compile_source`;
    ``optimize`` is ignored) from scratch per probe (pass pipelines
    mutate the module in place), runs the pipeline with an increasing
    bisect limit and evaluates ``predicate(compile_result) -> bool``
    (True = good).  ``pipeline_factory(remarks, instrument) ->
    PassManager`` overrides the pipeline under test (defaults to
    :func:`repro.midend.default_pass_pipeline`); ``log`` is an optional
    stream receiving each probe's ``BISECT:`` lines.
    """
    import io

    from repro.midend import default_pass_pipeline

    if pipeline_factory is None:
        pipeline_factory = default_pass_pipeline
    if ci is None:
        ci = CompilerInvocation(filename="<bisect>")
    ci = replace(_invocation(ci, fields), optimize=False)

    probes = 0

    def probe(limit: int) -> tuple[bool, PassInstrumentation]:
        nonlocal probes
        probes += 1
        if log is not None:
            print(f"BISECT PROBE: -opt-bisect-limit={limit}", file=log)
        instrument = PassInstrumentation(
            opt_bisect_limit=limit,
            stream=log if log is not None else io.StringIO(),
        )
        result = compile_source(source, ci)
        assert result.module is not None
        pipeline_factory(
            remarks=result.diagnostics.remarks, instrument=instrument
        ).run(result.module, instrument)
        return bool(predicate(result)), instrument

    good_all, full_run = probe(-1)
    total = len(full_run.executions)
    if good_all:
        return BisectResult(total, None, None, probes)
    good_none, _ = probe(0)
    if not good_none:
        return BisectResult(total, 0, None, probes)
    lo, hi = 0, total  # invariant: limit=lo good, limit=hi bad
    while hi - lo > 1:
        mid = (lo + hi) // 2
        good, _ = probe(mid)
        if good:
            lo = mid
        else:
            hi = mid
    culprit = full_run.executions[hi - 1]
    return BisectResult(total, hi, culprit, probes)
