"""Property-based tests (hypothesis) on :class:`CompilerInvocation`.

* key coverage — changing any single field changes the fingerprint,
  unless the field is declared key-irrelevant;
* command-line round trip — ``miniclang``'s own parser, run on
  ``to_argv()``, rebuilds an equal invocation.
"""

from __future__ import annotations

from dataclasses import fields, replace

from hypothesis import given, settings, strategies as st

from repro.driver.cli import build_arg_parser
from repro.invocation import KEY_IRRELEVANT, CompilerInvocation

FAST = settings(max_examples=60, deadline=None)

names = st.text("abcxyz_", min_size=1, max_size=6)
paths = st.text("abc/_.", min_size=1, max_size=8)
counts = st.integers(min_value=0, max_value=10_000)
optional_counts = st.none() | counts

#: one strategy per field; the coverage test fails when a field is
#: added to CompilerInvocation without a strategy here.  Values stay
#: inside what the command line can spell (no leading dashes).
FIELD_VALUES = {
    "filename": names.map(lambda n: n + ".c"),
    "openmp": st.booleans(),
    "defines": st.dictionaries(
        names.map(str.upper), st.text("0123456789xy", max_size=3)
    ),
    "include_paths": st.lists(paths, max_size=3).map(tuple),
    "virtual_files": st.dictionaries(
        names.map(lambda n: n + ".h"), st.text("int x;", max_size=6)
    ),
    "strip_omp_transforms": st.booleans(),
    "enable_irbuilder": st.booleans(),
    "error_limit": counts,
    "syntax_only": st.booleans(),
    "verify": st.booleans(),
    "optimize": st.booleans(),
    "exec_engine": st.sampled_from(["interp", "closures"]),
    "entry": names,
    "num_threads": st.integers(min_value=1, max_value=64),
    "fuel": optional_counts,
    "timeout_s": st.none()
    | st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    "memory_limit": optional_counts,
    "max_call_depth": counts,
    "profile_detail": st.booleans(),
    "crash_reproducer_dir": st.none() | paths,
    "invocation": st.none() | st.text(max_size=20),
}

invocations = st.fixed_dictionaries(FIELD_VALUES).map(
    lambda values: CompilerInvocation(**values)
)


def test_every_field_has_a_strategy():
    assert set(FIELD_VALUES) == {f.name for f in fields(CompilerInvocation)}


def test_declared_key_irrelevant_set():
    assert KEY_IRRELEVANT == {"crash_reproducer_dir", "invocation"}


def _perturbed(old):
    """A value of the same shape that differs from *old*."""
    if isinstance(old, bool):
        return not old
    if old is None:
        return 1
    if isinstance(old, (int, float)):
        return old + 1
    if isinstance(old, str):
        return old + "x"
    if isinstance(old, tuple):
        return old + ("new",)
    return {**old, "NEW": "1"}


@FAST
@given(base=invocations)
def test_every_field_changes_the_fingerprint_or_is_declared(base):
    source = "int main() { return 0; }\n"
    fingerprint = base.fingerprint(source)
    for f in fields(CompilerInvocation):
        changed = replace(
            base, **{f.name: _perturbed(getattr(base, f.name))}
        )
        if f.name in KEY_IRRELEVANT:
            assert changed.fingerprint(source) == fingerprint
        else:
            assert changed.fingerprint(source) != fingerprint, f.name


@FAST
@given(
    inv=invocations.map(
        # no command-line spelling: library-only options, and the
        # invocation text is the command line itself
        lambda i: replace(
            i, verify=True, virtual_files={}, invocation=None
        )
    )
)
def test_to_argv_round_trips_through_the_cli_parser(inv):
    args = build_arg_parser().parse_args(inv.to_argv())
    assert args.inputs == [inv.filename]
    rebuilt = CompilerInvocation.from_args(
        args,
        filename=args.inputs[0],
        # the parser fills in its own default crash directory
        crash_reproducer_dir=(
            args.crash_reproducer_dir
            if inv.crash_reproducer_dir is not None
            else None
        ),
    )
    assert rebuilt == inv
