"""Property-based tests (hypothesis) on cache-key stability.

The content address is the cache's entire correctness argument: two
requests share a key iff a compiler run could not tell them apart.  So
the properties are exactly the ones a wrong key would break:

* determinism — the same request always hashes identically, including
  in a fresh interpreter (no ``PYTHONHASHSEED`` leakage);
* sensitivity — any single-byte source change, and any semantically
  distinct flag change, produces a different key;
* insensitivity — line-ending spelling and ``-D`` order do not produce
  a different key.
"""

from __future__ import annotations

import subprocess
import sys

from hypothesis import given, settings, strategies as st

from repro.cache.key import source_id, stage_key
from repro.invocation import CompilerInvocation

FAST = settings(max_examples=50, deadline=None)

sources = st.text(
    alphabet=st.characters(codec="ascii", exclude_categories=("Cs",)),
    min_size=1,
    max_size=120,
)


def invocation_fingerprint(source: str, **options) -> str:
    return CompilerInvocation(**options).fingerprint(source)


class TestDeterminism:
    @FAST
    @given(source=sources, optimize=st.booleans())
    def test_same_request_same_key(self, source, optimize):
        assert invocation_fingerprint(
            source, optimize=optimize
        ) == invocation_fingerprint(source, optimize=optimize)

    @FAST
    @given(material=st.lists(st.text(max_size=20), max_size=4))
    def test_stage_key_is_pure(self, material):
        assert stage_key("codegen", "p", material) == stage_key(
            "codegen", "p", material
        )

    def test_fingerprint_is_stable_across_processes(self):
        """The key must not depend on interpreter state: a fresh
        process (fresh ``PYTHONHASHSEED``) computes the same hash."""
        import os

        import repro

        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        source = "int main() { return 42; }\n"
        here = invocation_fingerprint(source, optimize=True)
        script = (
            f"import sys; sys.path.insert(0, {src_dir!r})\n"
            "from repro.invocation import CompilerInvocation\n"
            "print(CompilerInvocation(optimize=True)"
            f".fingerprint({source!r}))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == here


class TestSensitivity:
    @FAST
    @given(source=sources, data=st.data())
    def test_single_byte_change_alters_key(self, source, data):
        index = data.draw(
            st.integers(min_value=0, max_value=len(source) - 1)
        )
        old = source[index]
        replacement = data.draw(
            st.characters(codec="ascii").filter(lambda c: c != old)
        )
        mutated = source[:index] + replacement + source[index + 1 :]
        if mutated.replace("\r\n", "\n").replace(
            "\r", "\n"
        ) == source.replace("\r\n", "\n").replace("\r", "\n"):
            return  # e.g. a CR<->LF swap: line-ending
            # canonicalization folds these together, a shared key
            # is the *correct* answer
        assert invocation_fingerprint(mutated) != invocation_fingerprint(
            source
        )
        assert source_id(mutated) != source_id(source)

    @FAST
    @given(source=sources)
    def test_semantic_flag_changes_alter_key(self, source):
        base = invocation_fingerprint(source)
        assert invocation_fingerprint(source, optimize=True) != base
        assert invocation_fingerprint(source, enable_irbuilder=True) != base
        assert invocation_fingerprint(source, openmp=False) != base
        assert (
            invocation_fingerprint(source, strip_omp_transforms=True)
            != base
        )
        assert invocation_fingerprint(source, defines={"N": "4"}) != base
        assert invocation_fingerprint(source, filename="other.c") != base

    @FAST
    @given(source=sources, a=st.text("DN14", max_size=3))
    def test_define_value_alters_key(self, source, a):
        assert invocation_fingerprint(
            source, defines={"X": a}
        ) != invocation_fingerprint(source, defines={"X": a + "1"})


class TestInsensitivity:
    @FAST
    @given(
        source=sources,
        defines=st.dictionaries(
            st.sampled_from("ABCDN"), st.text("DN14", max_size=3)
        ),
    )
    def test_define_order_does_not_alter_key(self, source, defines):
        reordered = dict(reversed(list(defines.items())))
        assert invocation_fingerprint(
            source, defines=defines
        ) == invocation_fingerprint(source, defines=reordered)

    @FAST
    @given(source=sources)
    def test_line_ending_spelling_does_not_alter_key(self, source):
        assert invocation_fingerprint(
            source.replace("\n", "\r\n")
        ) == invocation_fingerprint(source)
