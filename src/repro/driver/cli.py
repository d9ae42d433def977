"""``miniclang`` — clang-flavoured CLI for the reproduction.

Supported flags (mirroring the clang workflow the paper's listings use)::

    miniclang source.c                 # compile, print IR
    miniclang -ast-dump source.c       # clang -Xclang -ast-dump
    miniclang -ast-dump-shadow ...     # dump including shadow AST
    miniclang -fsyntax-only source.c
    miniclang -fopenmp ...             # (default on)
    miniclang -fno-openmp ...
    miniclang -fopenmp-enable-irbuilder ...   # paper's §3 path
    miniclang -O ...                   # run the mid-end pipeline
    miniclang --run [--entry main] ... # compile and execute
    miniclang -DNAME[=V] -Ipath ...
    miniclang --num-threads N --run ...

Observability flags (paper-adjacent tooling; see README "Observability")::

    miniclang -ftime-trace[=FILE] ...  # Chrome trace of compile+run
    miniclang -print-stats ...         # LLVM -stats style counter dump
    miniclang -fcache[=DIR] ...        # content-addressed compile cache
    miniclang -fno-cache ...           # (default)
    miniclang -fcache-max-entries=N -fcache-max-bytes=N ...
    miniclang -print-cache-stats ...   # cache.* counters + tier summary
    miniclang -Rpass=REGEX ...         # optimization remarks (passed)
    miniclang -Rpass-missed=REGEX ...
    miniclang -Rpass-analysis=REGEX ...
    miniclang -fprofile-report --run . # per-thread/per-loop exec profile

Pass-pipeline introspection (README "Debugging the pass pipeline")::

    miniclang -print-pipeline-passes   # configured pass order, one/line
    miniclang -print-before=PASS ...   # IR dump before PASS executions
    miniclang -print-after=PASS ...
    miniclang -print-before-all ...
    miniclang -print-after-all ...
    miniclang -print-changed ...       # unified diff per changing pass
    miniclang -verify-each ...         # verify IR after every pass
    miniclang -opt-bisect-limit=N ...  # run only executions 1..N
    miniclang -debug-counter=NAME=SKIP[,COUNT] ...  # gate sites
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import Iterator

from repro.core.crash_recovery import (
    InternalCompilerError,
    crash_recovery_enabled,
    set_crash_recovery_enabled,
)
from repro.driver.exitcodes import (
    EXIT_ICE,
    EXIT_OK,
    EXIT_TIMEOUT,
    EXIT_USER_ERROR,
    worst_exit_code,
)
from repro.instrument import (
    DEBUG_COUNTERS,
    FAULTS,
    STATS,
    PassInstrumentation,
    PassVerificationError,
    disable_time_trace,
    enable_time_trace,
    render_stats_text,
    stat_rows,
)
from repro.interp import (
    DeadlockError,
    ExecutionTimeout,
    InterpreterError,
    MemoryError_,
    Trap,
)
from repro.invocation import CompilerInvocation
from repro.pipeline import CompilationError, compile_source, run_source


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="miniclang",
        description=(
            "MiniC compiler reproducing Clang's OpenMP 5.1 loop "
            "transformation implementation (tile/unroll via shadow AST "
            "or OMPCanonicalLoop + OpenMPIRBuilder)"
        ),
    )
    parser.add_argument(
        "inputs",
        nargs="*",
        default=[],
        metavar="input",
        help="C source file(s) ('-' for stdin); with several inputs the "
        "driver compiles each in turn and keeps going past failures "
        "(exit code is the worst outcome); optional with "
        "-print-pipeline-passes/-print-fault-sites",
    )
    parser.add_argument(
        "-ast-dump",
        action="store_true",
        dest="ast_dump",
        help="print the AST (clang -Xclang -ast-dump style)",
    )
    parser.add_argument(
        "-ast-dump-shadow",
        action="store_true",
        dest="ast_dump_shadow",
        help="print the AST including shadow (transformed) subtrees",
    )
    parser.add_argument(
        "-fsyntax-only",
        action="store_true",
        dest="syntax_only",
        help="stop after semantic analysis",
    )
    parser.add_argument(
        "-fopenmp",
        action="store_true",
        default=True,
        dest="openmp",
        help="enable OpenMP (default)",
    )
    parser.add_argument(
        "-fno-openmp",
        action="store_false",
        dest="openmp",
        help="disable OpenMP pragma handling",
    )
    parser.add_argument(
        "-fopenmp-enable-irbuilder",
        action="store_true",
        dest="enable_irbuilder",
        help="use the OMPCanonicalLoop/OpenMPIRBuilder representation "
        "(paper section 3)",
    )
    parser.add_argument(
        "-O",
        "-O1",
        "-O2",
        action="store_true",
        dest="optimize",
        help="run the mid-end pass pipeline (incl. LoopUnroll); "
        "-O1/-O2 are accepted aliases",
    )
    parser.add_argument(
        "-O0",
        action="store_false",
        dest="optimize",
        help="disable the mid-end pass pipeline (default)",
    )
    parser.add_argument(
        "-emit-llvm",
        action="store_true",
        default=True,
        dest="emit_llvm",
        help="print textual IR (default action)",
    )
    parser.add_argument(
        "--run",
        action="store_true",
        help="interpret the compiled module",
    )
    parser.add_argument("--entry", default="main")
    parser.add_argument(
        "-fexec",
        choices=("interp", "closures"),
        default="interp",
        dest="exec_engine",
        metavar="ENGINE",
        help="with --run: execution engine — 'interp' (reference "
        "tree-walking interpreter, default) or 'closures' "
        "(closure-compiled engine, identical observable semantics)",
    )
    parser.add_argument(
        "--num-threads",
        type=int,
        default=4,
        help="simulated OpenMP team size for --run",
    )
    parser.add_argument(
        "-D",
        action="append",
        default=[],
        dest="defines",
        metavar="NAME[=VALUE]",
    )
    parser.add_argument(
        "-I",
        action="append",
        default=[],
        dest="include_paths",
        metavar="DIR",
    )
    parser.add_argument(
        "--function",
        default=None,
        help="restrict -ast-dump to one function",
    )
    parser.add_argument("-o", dest="output", default=None)
    parser.add_argument(
        "-print-stats",
        action="store_true",
        dest="print_stats",
        help="dump internal statistics counters (LLVM -stats style)",
    )
    add_cache_and_stats_arguments(parser)
    parser.add_argument(
        "-Rpass",
        dest="rpass",
        default=None,
        metavar="REGEX",
        help="report transformations applied by passes matching REGEX",
    )
    parser.add_argument(
        "-Rpass-missed",
        dest="rpass_missed",
        default=None,
        metavar="REGEX",
        help="report transformations rejected by passes matching REGEX",
    )
    parser.add_argument(
        "-Rpass-analysis",
        dest="rpass_analysis",
        default=None,
        metavar="REGEX",
        help="report pass analysis remarks matching REGEX",
    )
    parser.add_argument(
        "-fprofile-report",
        action="store_true",
        dest="profile_detail",
        help="with --run: print the dynamic execution profile",
    )
    parser.add_argument(
        "-print-pipeline-passes",
        action="store_true",
        dest="print_pipeline_passes",
        help="print the configured pass order, one per line, and exit",
    )
    parser.add_argument(
        "-print-before",
        action="append",
        default=[],
        dest="print_before",
        metavar="PASS",
        help="dump IR to stderr before executions of PASS",
    )
    parser.add_argument(
        "-print-after",
        action="append",
        default=[],
        dest="print_after",
        metavar="PASS",
        help="dump IR to stderr after executions of PASS",
    )
    parser.add_argument(
        "-print-before-all",
        action="store_true",
        dest="print_before_all",
        help="dump IR before every pass execution",
    )
    parser.add_argument(
        "-print-after-all",
        action="store_true",
        dest="print_after_all",
        help="dump IR after every pass execution",
    )
    parser.add_argument(
        "-print-changed",
        action="store_true",
        dest="print_changed",
        help="print a unified IR diff after each pass execution that "
        "changed the function (quiet for no-change passes)",
    )
    parser.add_argument(
        "-verify-each",
        action="store_true",
        dest="verify_each",
        help="verify the module after every pass execution; on failure "
        "report the offending pass and write before/after IR to the "
        "crash-reproducer directory",
    )
    parser.add_argument(
        "-opt-bisect-limit",
        type=int,
        default=None,
        dest="opt_bisect_limit",
        metavar="N",
        help="run only the first N pass executions (-1: run all, but "
        "log 'BISECT:' lines for every execution)",
    )
    parser.add_argument(
        "-debug-counter",
        action="append",
        default=[],
        dest="debug_counters",
        metavar="NAME=SKIP[,COUNT]",
        help="suppress the first SKIP occurrences of a counted "
        "transformation site, execute the next COUNT (default: all), "
        "then suppress the rest (e.g. unroll-transform, "
        "mem2reg-promote, simplifycfg-transform)",
    )
    parser.add_argument(
        "-crash-reproducer-dir",
        default=os.environ.get(
            "MINICLANG_CRASH_DIR", "miniclang-crashes"
        ),
        dest="crash_reproducer_dir",
        metavar="DIR",
        help="where internal-compiler-error reproducers (source + "
        "invocation + traceback) and -verify-each before/after IR are "
        "written (default: $MINICLANG_CRASH_DIR or miniclang-crashes)",
    )
    parser.add_argument(
        "-ferror-limit",
        type=int,
        default=0,
        dest="error_limit",
        metavar="N",
        help="stop compilation after N error diagnostics "
        "(0 = unlimited, the default)",
    )
    parser.add_argument(
        "-finject-fault",
        action="append",
        default=[],
        dest="inject_faults",
        metavar="SITE[:N]",
        help="deterministically raise an internal fault at the N-th "
        "(default first) hit of the named pipeline site; see "
        "-print-fault-sites for the site list",
    )
    parser.add_argument(
        "-print-fault-sites",
        action="store_true",
        dest="print_fault_sites",
        help="list the registered -finject-fault sites and exit",
    )
    parser.add_argument(
        "-fno-crash-recovery",
        action="store_false",
        dest="crash_recovery",
        default=True,
        help="disable crash recovery scopes: internal faults escape as "
        "raw Python tracebacks (compiler-developer mode)",
    )
    parser.add_argument(
        "--strip-omp-transforms",
        action="store_true",
        help="discard '#pragma omp unroll/tile/reverse/interchange/"
        "fuse' directives before parsing (worksharing directives are "
        "kept) — the differential-testing reference configuration: by "
        "the paper's semantics-preservation claim the stripped program "
        "must behave identically",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        dest="timeout_s",
        metavar="SECONDS",
        help="with --run: wall-clock limit for guest execution "
        f"(exit code {EXIT_TIMEOUT} with a scheduler snapshot)",
    )
    parser.add_argument(
        "--fuel",
        type=int,
        default=None,
        dest="fuel",
        metavar="N",
        help="with --run: maximum retired guest instructions "
        f"(exit code {EXIT_TIMEOUT} with a scheduler snapshot)",
    )
    parser.add_argument(
        "--max-memory",
        type=int,
        default=None,
        dest="memory_limit",
        metavar="BYTES",
        help="with --run: guest memory ceiling",
    )
    parser.add_argument(
        "--max-recursion",
        type=int,
        default=256,
        dest="max_call_depth",
        metavar="FRAMES",
        help="with --run: guest call-depth limit (default 256)",
    )
    return parser


def add_cache_and_stats_arguments(parser: argparse.ArgumentParser) -> None:
    """The cache-size and statistics-report flags ``miniclang`` and
    ``miniclang-serve`` share (``-fcache[=DIR]`` itself is pulled out
    of argv by :func:`parse_args`)."""
    parser.add_argument(
        "--stats-json",
        default=None,
        dest="stats_json",
        metavar="FILE",
        help="write this run's statistics deltas as sorted JSON "
        "('-' for stdout)",
    )
    parser.add_argument(
        "-print-cache-stats",
        action="store_true",
        dest="print_cache_stats",
        help="dump the cache.* counters and cache tier summary "
        "(use with -fcache)",
    )
    parser.add_argument(
        "-fcache-max-entries",
        type=int,
        default=1024,
        dest="cache_max_entries",
        metavar="N",
        help="in-memory cache tier capacity in entries (default 1024)",
    )
    parser.add_argument(
        "-fcache-max-bytes",
        type=int,
        default=256 * 1024 * 1024,
        dest="cache_max_bytes",
        metavar="N",
        help="on-disk cache tier budget in bytes (default 256 MiB); "
        "oldest entries are evicted past it",
    )


def _build_instrumentation(args) -> PassInstrumentation | None:
    """A PassInstrumentation when any introspection flag is active."""
    instrument = PassInstrumentation(
        print_before=args.print_before,
        print_after=args.print_after,
        print_before_all=args.print_before_all,
        print_after_all=args.print_after_all,
        print_changed=args.print_changed,
        verify_each=args.verify_each,
        opt_bisect_limit=args.opt_bisect_limit,
        reproducer_dir=args.crash_reproducer_dir,
    )
    return instrument if instrument.enabled else None


def _extract_time_trace(
    argv: list[str],
) -> tuple[list[str], str | None]:
    """Pull ``-ftime-trace[=FILE]`` out of *argv*.

    Handled outside argparse: with ``nargs="?"`` the bare flag would
    swallow the following positional (the input file).  Returns the
    remaining argv and the requested trace path ("" = derive from the
    input name).
    """
    remaining: list[str] = []
    trace: str | None = None
    for arg in argv:
        if arg == "-ftime-trace":
            trace = ""
        elif arg.startswith("-ftime-trace="):
            trace = arg.split("=", 1)[1]
        else:
            remaining.append(arg)
    return remaining, trace


#: where ``-fcache`` without an explicit directory keeps its entries
DEFAULT_CACHE_DIR = ".miniclang-cache"


def _extract_cache_flags(
    argv: list[str],
) -> tuple[list[str], str | None, bool]:
    """Pull ``-fcache[=DIR]`` / ``-fno-cache`` / ``-fcache-durable``
    out of *argv* (manual for the same ``nargs="?"`` reason as
    ``-ftime-trace``; last flag wins, clang-style).  Returns the
    remaining argv, the cache directory (None = caching disabled), and
    whether durable (fsync-before-rename) writes were requested."""
    remaining: list[str] = []
    cache_dir: str | None = None
    durable = False
    for arg in argv:
        if arg == "-fcache":
            cache_dir = DEFAULT_CACHE_DIR
        elif arg.startswith("-fcache="):
            cache_dir = arg.split("=", 1)[1] or DEFAULT_CACHE_DIR
        elif arg == "-fno-cache":
            cache_dir = None
        elif arg == "-fcache-durable":
            durable = True
        else:
            remaining.append(arg)
    return remaining, cache_dir, durable


def parse_args(
    parser: argparse.ArgumentParser, argv: list[str]
) -> argparse.Namespace:
    """Parse *argv* after pulling the ``-fcache`` flags out of it; they
    land on ``args.cache_dir`` and ``args.cache_durable``."""
    argv, cache_dir, durable = _extract_cache_flags(argv)
    args = parser.parse_args(argv)
    args.cache_dir, args.cache_durable = cache_dir, durable
    return args


def build_cache(args):
    """The ``-fcache`` compilation cache of *args* (:func:`parse_args`),
    or None without ``-fcache``."""
    if args.cache_dir is None:
        return None
    from repro.cache import CompilationCache

    return CompilationCache(
        args.cache_dir,
        max_entries=args.cache_max_entries,
        max_disk_bytes=args.cache_max_bytes,
        durable=args.cache_durable,
    )


def read_inputs(
    prog: str, paths: list[str]
) -> Iterator[tuple[str, str | None]]:
    """Yield ``(filename, source)`` for each input path in turn (``-``
    reads stdin as ``<stdin>``).  An unreadable input prints
    ``PROG: error: ...`` naming it and yields ``None`` as its source."""
    for path in paths:
        if path == "-":
            yield "<stdin>", sys.stdin.read()
            continue
        try:
            with open(path, "r", encoding="utf-8") as fh:
                source = fh.read()
        except UnicodeDecodeError as err:
            print(
                f"{prog}: error: {path}: invalid UTF-8 in source file: "
                f"{err}",
                file=sys.stderr,
            )
            source = None
        except OSError as err:
            print(f"{prog}: error: {err}", file=sys.stderr)
            source = None
        yield path, source


def _default_trace_path(input_name: str) -> str:
    if input_name == "-":
        return "stdin.time-trace.json"
    base, _ = os.path.splitext(os.path.basename(input_name))
    return f"{base}.time-trace.json"


def _emit_remarks(args, compile_result) -> None:
    """Print ``-Rpass*``-selected optimization remarks to stderr."""
    if not (args.rpass or args.rpass_missed or args.rpass_analysis):
        return
    selected = compile_result.remarks.filtered(
        passed=args.rpass,
        missed=args.rpass_missed,
        analysis=args.rpass_analysis,
    )
    for remark in selected:
        print(
            remark.render(compile_result.source_manager),
            file=sys.stderr,
        )


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    invocation = "miniclang " + " ".join(argv)
    argv, time_trace = _extract_time_trace(argv)
    parser = build_arg_parser()
    args = parse_args(parser, argv)
    if args.print_pipeline_passes:
        from repro.midend import default_pass_pipeline

        for name in default_pass_pipeline().pass_names():
            print(name)
        return EXIT_OK
    if args.print_fault_sites:
        for name in FAULTS.site_names():
            print(f"{name}\t{FAULTS.scope_of(name)}\t{FAULTS.describe(name)}")
        return EXIT_OK
    if not args.inputs:
        parser.error("an input file is required")
    armed_counters = []
    for spec in args.debug_counters:
        try:
            armed_counters.append(DEBUG_COUNTERS.apply_spec(spec))
        except ValueError as err:
            print(f"miniclang: error: {err}", file=sys.stderr)
            return EXIT_USER_ERROR
    try:
        for spec in args.inject_faults:
            FAULTS.arm_spec(spec)
    except ValueError as err:
        print(f"miniclang: error: {err}", file=sys.stderr)
        return EXIT_USER_ERROR
    set_crash_recovery_enabled(args.crash_recovery)
    # --run wins over the AST-only actions: it needs the module.
    ci = CompilerInvocation.from_args(
        args,
        invocation=invocation,
        syntax_only=not args.run
        and (args.syntax_only or args.ast_dump or args.ast_dump_shadow),
    )

    cache = build_cache(args)
    stats_before = STATS.snapshot()
    if time_trace is not None:
        enable_time_trace()
    code = EXIT_OK
    try:
        for filename, source in read_inputs("miniclang", args.inputs):
            if source is None:
                code = worst_exit_code(code, EXIT_USER_ERROR)
                continue
            # A crashing input must not stop the batch: every outcome
            # is contained to its input, the worst exit code wins
            # (severity policy shared with miniclang-serve, see
            # repro.driver.exitcodes).
            code = worst_exit_code(
                code,
                _drive(args, source, replace(ci, filename=filename), cache),
            )
    finally:
        FAULTS.disarm_all()
        set_crash_recovery_enabled(True)
        for counter in armed_counters:
            counter.unset()
        profiler = disable_time_trace()
        if time_trace is not None and profiler is not None:
            trace_path = time_trace or _default_trace_path(
                args.inputs[0]
            )
            with open(trace_path, "w", encoding="utf-8") as fh:
                fh.write(profiler.to_chrome_json())
        _print_stats(
            args, stat_rows(STATS.delta_since(stats_before)), cache
        )
    return code


def _print_stats(args, rows: dict, cache=None) -> None:
    """The ``-print-stats`` / ``--stats-json`` / ``-print-cache-stats``
    reports of *rows* (:func:`~repro.instrument.stats.stat_rows`);
    the JSON keys are sorted and ``--stats-json=-`` means stdout.
    Shared with ``miniclang-serve``."""
    if args.print_stats:
        print(render_stats_text(rows), file=sys.stderr)
    if args.stats_json:
        import json

        payload = json.dumps(
            {name: value for name, (value, _) in rows.items()},
            indent=1,
            sort_keys=True,
        )
        if args.stats_json == "-":
            print(payload)
        else:
            with open(args.stats_json, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
    if args.print_cache_stats:
        cache_rows = {
            name: row
            for name, row in rows.items()
            if name.startswith("cache.")
        }
        print(render_stats_text(cache_rows), file=sys.stderr)
        if cache is not None:
            print(cache.describe(), file=sys.stderr)


def _drive(args, source: str, ci: CompilerInvocation, cache=None) -> int:
    """Map every outcome of one input to its exit code.

    0 = success, 1 = user diagnostics / guest failure, 70 = internal
    compiler error (EX_SOFTWARE), 124 = timeout or fuel exhaustion.  The
    ordering matters: ExecutionTimeout and DeadlockError subclass
    InterpreterError."""
    from repro.runtime.team import TeamError

    try:
        return _drive_one(args, source, ci, cache)
    except CompilationError as err:
        print(err.diagnostics_text, file=sys.stderr)
        return EXIT_ICE if err.ice else EXIT_USER_ERROR
    except InternalCompilerError as err:
        print(err.render(), file=sys.stderr)
        return EXIT_ICE
    except PassVerificationError as err:
        # A pass broke the IR invariants: a compiler bug, not user error.
        print(f"miniclang: error: {err}", file=sys.stderr)
        return EXIT_ICE
    except ExecutionTimeout as err:
        print(f"miniclang: error: {err}", file=sys.stderr)
        if err.snapshot is not None:
            print(err.snapshot.render(), file=sys.stderr)
        return EXIT_TIMEOUT
    except DeadlockError as err:
        print(f"miniclang: error: {err}", file=sys.stderr)
        if err.snapshot is not None:
            print(err.snapshot.render(), file=sys.stderr)
        return EXIT_USER_ERROR
    except (Trap, InterpreterError, MemoryError_, TeamError) as err:
        print(f"miniclang: error: {err}", file=sys.stderr)
        return EXIT_USER_ERROR
    except Exception as err:  # last-resort driver-level containment
        if not crash_recovery_enabled():
            raise
        print(
            "miniclang: error: internal compiler error in driver: "
            f"{type(err).__name__}: {err}",
            file=sys.stderr,
        )
        return EXIT_ICE


def _drive_one(
    args, source: str, ci: CompilerInvocation, cache=None
) -> int:
    """The actual compile/run logic for one input (exceptions are
    mapped to exit codes by :func:`_drive`)."""
    instrument = _build_instrumentation(args)
    if args.run:
        result = run_source(source, ci, instrument=instrument)
        _emit_remarks(args, result.compile_result)
        if ci.profile_detail:
            print(
                result.profile.render_text(
                    result.compile_result.module
                ),
                file=sys.stderr,
            )
        sys.stdout.write(result.stdout)
        code = result.exit_code
        return int(code) & 0xFF if isinstance(code, int) else 0

    # Introspection flags (-print-before/-Rpass/-verify-each/...) need
    # the passes to actually execute, so only a plain compile goes
    # through the cache.
    if instrument is not None or ci.syntax_only or (
        args.rpass or args.rpass_missed or args.rpass_analysis
    ):
        cache = None
    result = compile_source(source, ci, cache=cache, instrument=instrument)
    if cache is not None:
        diagnostics, output_text = result.diagnostics_text, result.ir_text
    else:
        diagnostics = result.diagnostics_text()
        output_text = ""
        if args.ast_dump or args.ast_dump_shadow:
            output_text = result.ast_dump(
                function=args.function,
                dump_shadow=args.ast_dump_shadow,
            )
        elif not ci.syntax_only:
            output_text = result.ir_text()
    if diagnostics:
        print(diagnostics, file=sys.stderr)
    _emit_remarks(args, result)

    if output_text:
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(output_text + "\n")
        else:
            print(output_text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
