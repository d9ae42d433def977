"""The shared "worst code wins" exit-code policy and the multi-input
batch aggregation of the ``miniclang`` driver.

The regression of record: a batch containing both an ICE (70) and a
timeout (124) must exit 70 — an internal compiler error is the most
severe diagnosis — which a plain ``max()`` over the numeric codes gets
backwards.
"""

from __future__ import annotations

import pytest

from repro.driver.cli import main
from repro.driver.exitcodes import (
    EXIT_ICE,
    EXIT_OK,
    EXIT_TIMEOUT,
    EXIT_UNAVAILABLE,
    EXIT_USER_ERROR,
    worst_exit_code,
)

OK_SOURCE = "int main() { return 0; }\n"
USER_ERROR_SOURCE = "int main() { return undeclared; }\n"
#: guest spins forever: --fuel exhaustion -> 124
TIMEOUT_SOURCE = (
    "int main() {\n"
    "  int x = 0;\n"
    "  for (int i = 0; i < 1000000000; i += 1) x += i;\n"
    "  return x;\n"
    "}\n"
)


class TestWorstExitCode:
    def test_empty_is_ok(self):
        assert worst_exit_code() == EXIT_OK

    def test_identity(self):
        for code in (
            EXIT_OK,
            EXIT_USER_ERROR,
            EXIT_ICE,
            EXIT_UNAVAILABLE,
            EXIT_TIMEOUT,
        ):
            assert worst_exit_code(code) == code

    def test_severity_ranking(self):
        # 0 < 1 < 75 < 124 < 70
        assert worst_exit_code(EXIT_OK, EXIT_USER_ERROR) == EXIT_USER_ERROR
        assert (
            worst_exit_code(EXIT_USER_ERROR, EXIT_UNAVAILABLE)
            == EXIT_UNAVAILABLE
        )
        assert (
            worst_exit_code(EXIT_UNAVAILABLE, EXIT_TIMEOUT) == EXIT_TIMEOUT
        )
        assert worst_exit_code(EXIT_TIMEOUT, EXIT_ICE) == EXIT_ICE

    def test_ice_beats_timeout_regardless_of_numeric_order(self):
        assert worst_exit_code(EXIT_TIMEOUT, EXIT_ICE) == EXIT_ICE
        assert worst_exit_code(EXIT_ICE, EXIT_TIMEOUT) == EXIT_ICE

    def test_unknown_nonzero_ranks_as_user_error(self):
        # guest main() return values (e.g. 7, 42) are plain failures
        assert worst_exit_code(EXIT_OK, 42) == 42
        assert worst_exit_code(42, EXIT_TIMEOUT) == EXIT_TIMEOUT
        assert worst_exit_code(42, EXIT_ICE) == EXIT_ICE

    def test_severity_tie_keeps_first(self):
        assert worst_exit_code(7, 42) == 7
        assert worst_exit_code(EXIT_USER_ERROR, 42) == EXIT_USER_ERROR

    def test_order_independent_across_severities(self):
        codes = [EXIT_OK, 42, EXIT_UNAVAILABLE, EXIT_TIMEOUT, EXIT_ICE]
        import itertools

        for perm in itertools.permutations(codes):
            assert worst_exit_code(*perm) == EXIT_ICE


@pytest.fixture
def write(tmp_path):
    def _write(name: str, text: str) -> str:
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return _write


class TestBatchAggregation:
    """miniclang with several inputs: the batch keeps going past
    failures and exits with the worst outcome."""

    def test_all_ok(self, write, capsys):
        a = write("a.c", OK_SOURCE)
        b = write("b.c", OK_SOURCE)
        assert main(["--run", a, b]) == EXIT_OK

    def test_user_error_wins_over_ok(self, write, capsys):
        ok = write("ok.c", OK_SOURCE)
        bad = write("bad.c", USER_ERROR_SOURCE)
        assert main(["--run", bad, ok]) == EXIT_USER_ERROR
        assert main(["--run", ok, bad]) == EXIT_USER_ERROR

    def test_ice_wins_over_ok(self, write, capsys, tmp_path):
        ok = write("ok.c", OK_SOURCE)
        crash = write("crash.c", OK_SOURCE)
        code = main(
            [
                "-finject-fault",
                "parser:2",  # arm on the second input only
                "-crash-reproducer-dir",
                str(tmp_path / "crashes"),
                ok,
                crash,
            ]
        )
        assert code == EXIT_ICE

    def test_timeout_wins_over_user_error(self, write, capsys):
        bad = write("bad.c", USER_ERROR_SOURCE)
        spin = write("spin.c", TIMEOUT_SOURCE)
        code = main(["--run", "--fuel", "20000", bad, spin])
        assert code == EXIT_TIMEOUT

    def test_ice_wins_over_timeout_either_order(
        self, write, capsys, tmp_path
    ):
        """The max() regression: 70 must beat 124 in both orders."""
        spin = write("spin.c", TIMEOUT_SOURCE)
        crash = write("crash.c", OK_SOURCE)
        crashes = str(tmp_path / "crashes")
        code = main(
            [
                "--run",
                "--fuel",
                "20000",
                "-finject-fault",
                "parser:2",
                "-crash-reproducer-dir",
                crashes,
                spin,
                crash,
            ]
        )
        assert code == EXIT_ICE
        code = main(
            [
                "--run",
                "--fuel",
                "20000",
                "-finject-fault",
                "parser:1",
                "-crash-reproducer-dir",
                crashes,
                crash,
                spin,
            ]
        )
        assert code == EXIT_ICE

    def test_batch_continues_past_failures(self, write, capsys):
        """Later inputs still compile after an earlier one fails."""
        bad = write("bad.c", USER_ERROR_SOURCE)
        ok = write("ok.c", OK_SOURCE)
        code = main([bad, ok])
        captured = capsys.readouterr()
        assert code == EXIT_USER_ERROR
        assert "define" in captured.out  # IR of ok.c was still emitted

    def test_each_input_compiles_under_its_own_name(self, write, capsys):
        a = write("a.c", OK_SOURCE)
        b = write("b.c", OK_SOURCE)
        assert main([a, b]) == EXIT_OK
        out = capsys.readouterr().out
        assert f"; ModuleID = '{a}'" in out
        assert f"; ModuleID = '{b}'" in out

    def test_run_takes_precedence_over_syntax_only(self, write, capsys):
        ok = write("ok.c", OK_SOURCE)
        assert main(["--run", "-fsyntax-only", ok]) == EXIT_OK

    def test_unreadable_input_is_user_error(self, write, capsys):
        ok = write("ok.c", OK_SOURCE)
        assert main(["/nonexistent/missing.c", ok]) == EXIT_USER_ERROR
