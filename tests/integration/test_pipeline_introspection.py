"""End-to-end tests of the pass-pipeline introspection tooling
(ISSUE 2 acceptance): ``-print-changed`` IR diffs, ``-verify-each``
pass attribution with crash reproducers, ``-opt-bisect-limit``
boundaries, ``bisect_pipeline`` convergence, and ``-debug-counter``
site suppression."""

import io
import os

import pytest

from repro.driver.cli import main
from repro.instrument import (
    DEBUG_COUNTERS,
    PassInstrumentation,
    PassVerificationError,
)
from repro.interp import Interpreter
from repro.ir.instructions import StoreInst
from repro.ir.values import ConstantInt
from repro.midend import default_pass_pipeline
from repro.midend.pass_manager import FunctionPass
from repro.pipeline import bisect_pipeline, compile_source

UNROLL_SRC = """
int main() {
  int sum = 0;
  #pragma omp unroll partial(4)
  for (int i = 0; i < 32; i++) sum += i;
  return sum % 256;
}
"""

TWO_LOOP_SRC = """
int main() {
  int a = 0;
  int b = 0;
  #pragma omp unroll partial(2)
  for (int i = 0; i < 8; i++) a += i;
  #pragma omp unroll partial(2)
  for (int j = 0; j < 8; j++) b += j;
  return a + b;
}
"""

PLAIN_SRC = """
int main() {
  int x = 1;
  int y = 2;
  return x + y;
}
"""


@pytest.fixture(autouse=True)
def _clean_debug_counters():
    yield
    DEBUG_COUNTERS.unset_all()


def write_source(tmp_path, source):
    path = tmp_path / "input.c"
    path.write_text(source)
    return str(path)


def optimize(source, instrument=None, pm=None):
    result = compile_source(source)
    if pm is None:
        pm = default_pass_pipeline(
            remarks=result.diagnostics.remarks, instrument=instrument
        )
    run = pm.run(result.module, instrument)
    return result, run


# ======================================================================
class TestPrintChangedCLI:
    def test_emits_diff_for_changing_pass_only(self, tmp_path, capsys):
        path = write_source(tmp_path, PLAIN_SRC)
        code = main(["-O1", "-print-changed", path])
        assert code == 0
        err = capsys.readouterr().err
        # mem2reg promotes x/y -> a diff with -/+ lines...
        assert "*** IR Diff After mem2reg on main ***" in err
        assert "--- main before mem2reg" in err
        assert "+++ main after mem2reg" in err
        assert any(line.startswith("-") for line in err.splitlines())
        # ...while loop-unroll (nothing annotated) stays silent.
        assert "loop-unroll" not in err

    def test_acceptance_demo_example(self, capsys):
        """ISSUE acceptance: -O1 -print-changed on the shipped example
        emits a unified diff for at least one pass."""
        code = main(["-O1", "-print-changed", "examples/observability_demo.c"])
        assert code == 0
        err = capsys.readouterr().err
        assert "*** IR Diff After" in err
        assert "@@ -" in err

    def test_print_before_and_after_all(self, tmp_path, capsys):
        path = write_source(tmp_path, PLAIN_SRC)
        assert main(["-O1", "-print-before-all", "-print-after-all", path]) == 0
        err = capsys.readouterr().err
        assert "*** IR Dump Before loop-unroll on main ***" in err
        assert "*** IR Dump After dce on main ***" in err

    def test_print_before_single_pass(self, tmp_path, capsys):
        path = write_source(tmp_path, PLAIN_SRC)
        assert main(["-O1", "-print-before=mem2reg", path]) == 0
        err = capsys.readouterr().err
        assert "*** IR Dump Before mem2reg on main ***" in err
        assert "Dump Before dce" not in err


class TestPrintPipelinePassesCLI:
    def test_lists_passes_in_order(self, capsys):
        assert main(["-print-pipeline-passes"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == [
            "loop-unroll",
            "mem2reg",
            "constant-fold",
            "simplify-cfg",
            "dce",
        ]

    def test_input_still_required_without_it(self, capsys):
        with pytest.raises(SystemExit):
            main(["-O1"])


# ======================================================================
class _TerminatorEater(FunctionPass):
    """Deliberately broken pass: eats the entry block's terminator, which
    -verify-each must catch and attribute."""

    name = "eat-terminator"

    def run_on_function(self, fn):
        fn.entry_block.instructions.pop()
        return True


class TestVerifyEach:
    def seeded_pipeline(self, remarks=None, instrument=None):
        pm = default_pass_pipeline(remarks=remarks, instrument=instrument)
        pm.passes.insert(2, _TerminatorEater())
        return pm

    def test_attributes_failure_to_offending_pass(self, tmp_path):
        instrument = PassInstrumentation(
            verify_each=True,
            reproducer_dir=str(tmp_path / "crashes"),
            stream=io.StringIO(),
        )
        with pytest.raises(PassVerificationError) as exc:
            optimize(
                PLAIN_SRC,
                instrument,
                pm=self.seeded_pipeline(instrument=instrument),
            )
        err = exc.value
        assert err.pass_name == "eat-terminator"
        assert err.function == "main"
        assert err.index == 3  # loop-unroll, mem2reg, eat-terminator
        assert "eat-terminator" in str(err)

    def test_writes_before_and_after_reproducers(self, tmp_path):
        crash_dir = tmp_path / "crashes"
        instrument = PassInstrumentation(
            verify_each=True,
            reproducer_dir=str(crash_dir),
            stream=io.StringIO(),
        )
        with pytest.raises(PassVerificationError) as exc:
            optimize(
                PLAIN_SRC,
                instrument,
                pm=self.seeded_pipeline(instrument=instrument),
            )
        assert exc.value.reproducer_dir == str(crash_dir)
        names = sorted(os.listdir(crash_dir))
        assert names == [
            "0003-eat-terminator-main.after.ll",
            "0003-eat-terminator-main.before.ll",
        ]
        before = (crash_dir / names[1]).read_text()
        after = (crash_dir / names[0]).read_text()
        assert "ret" in before  # terminator still present before
        assert before != after

    def test_clean_pipeline_passes_verification(self, tmp_path):
        instrument = PassInstrumentation(
            verify_each=True,
            reproducer_dir=str(tmp_path / "crashes"),
            stream=io.StringIO(),
        )
        optimize(UNROLL_SRC, instrument)  # must not raise
        assert not (tmp_path / "crashes").exists()

    @pytest.mark.parametrize("cached", [False, True])
    def test_cli_O_verifies_after_the_mid_end(
        self, tmp_path, capsys, monkeypatch, cached
    ):
        """A pass that breaks the IR is an internal compiler error on
        every -O path, cached or not — never silently printed IR."""
        import repro.midend

        monkeypatch.setattr(
            repro.midend, "default_pass_pipeline", self.seeded_pipeline
        )
        path = write_source(tmp_path, PLAIN_SRC)
        flags = [f"-fcache={tmp_path / 'cache'}"] if cached else []
        crashes = ["-crash-reproducer-dir", str(tmp_path / "crashes")]
        assert main(["-O", *flags, *crashes, path]) == 70
        assert capsys.readouterr().out == ""

    def test_cli_verify_each_clean_exit(self, tmp_path, capsys):
        path = write_source(tmp_path, UNROLL_SRC)
        assert main(["-O1", "-verify-each", path]) == 0
        capsys.readouterr()


# ======================================================================
class TestOptBisectBoundaries:
    def total_executions(self, source):
        instrument = PassInstrumentation(
            opt_bisect_limit=-1, stream=io.StringIO()
        )
        optimize(source, instrument)
        return len(instrument.executions)

    def test_limit_zero_runs_nothing(self):
        baseline = compile_source(UNROLL_SRC).ir_text()
        instrument = PassInstrumentation(
            opt_bisect_limit=0, stream=io.StringIO()
        )
        result, run = optimize(UNROLL_SRC, instrument)
        assert result.ir_text() == baseline
        assert not any(e.ran for e in instrument.executions)
        assert not run.changed

    def test_limit_equal_to_total_matches_unlimited(self):
        result_full, _ = optimize(UNROLL_SRC)
        total = self.total_executions(UNROLL_SRC)
        instrument = PassInstrumentation(
            opt_bisect_limit=total, stream=io.StringIO()
        )
        result_limited, _ = optimize(UNROLL_SRC, instrument)
        assert all(e.ran for e in instrument.executions)
        assert result_limited.ir_text() == result_full.ir_text()

    def test_cli_bisect_limit_partial_run_still_correct(
        self, tmp_path, capsys
    ):
        path = write_source(tmp_path, UNROLL_SRC)
        code = main(["-O1", "--run", "-opt-bisect-limit=1", path])
        assert code == sum(range(32)) % 256
        err = capsys.readouterr().err
        assert "BISECT: running pass (1) loop-unroll" in err
        assert "BISECT: NOT running pass (2) mem2reg" in err


class _ConstantCorruptor(FunctionPass):
    """Deliberately broken pass: silently turns `int sum = 0` into
    `int sum = 1` — valid IR, wrong program."""

    name = "corrupt-init"

    def run_on_function(self, fn):
        for inst in fn.instructions():
            if (
                isinstance(inst, StoreInst)
                and isinstance(inst.value, ConstantInt)
                and inst.value.value == 0
            ):
                inst.value = ConstantInt(inst.value.type, 1)
                return True
        return False


class TestBisectPipeline:
    def test_converges_on_seeded_broken_pass(self):
        def factory(remarks=None, instrument=None):
            pm = default_pass_pipeline(
                remarks=remarks, instrument=instrument
            )
            # before mem2reg, while the store of the initializer exists
            pm.passes.insert(1, _ConstantCorruptor())
            return pm

        expected = sum(range(32)) % 256

        def predicate(result):
            return Interpreter(result.module).run("main", []) == expected

        outcome = bisect_pipeline(
            UNROLL_SRC, predicate, pipeline_factory=factory
        )
        assert outcome.found
        assert outcome.culprit.pass_name == "corrupt-init"
        assert outcome.culprit_index == 2
        assert outcome.culprit_index == outcome.culprit.index
        assert "corrupt-init" in outcome.describe()

    def test_healthy_pipeline_reports_no_culprit(self):
        expected = sum(range(32)) % 256
        outcome = bisect_pipeline(
            UNROLL_SRC,
            lambda r: Interpreter(r.module).run("main", []) == expected,
        )
        assert not outcome.found
        assert outcome.culprit_index is None
        assert outcome.total_executions == 5

    def test_failure_before_any_pass_is_index_zero(self):
        outcome = bisect_pipeline(UNROLL_SRC, lambda r: False)
        assert outcome.culprit_index == 0
        assert outcome.culprit is None


# ======================================================================
class TestDebugCounters:
    def unroll_messages(self, source):
        result, _ = optimize(source)
        return [r.message for r in result.remarks.by_pass("loop-unroll")]

    def test_suppresses_exactly_one_site(self):
        baseline = self.unroll_messages(TWO_LOOP_SRC)
        assert sum("unrolled loop" in m for m in baseline) == 2

        DEBUG_COUNTERS.apply_spec("unroll-transform=1")
        gated = self.unroll_messages(TWO_LOOP_SRC)
        suppressed = [m for m in gated if "suppressed by" in m]
        unrolled = [m for m in gated if "unrolled loop" in m]
        assert len(suppressed) == 1
        assert len(unrolled) == 1  # the second site still transforms

    def test_suppressed_site_keeps_pipeline_semantics(self):
        DEBUG_COUNTERS.apply_spec("unroll-transform=0,0")
        result, run = optimize(TWO_LOOP_SRC)
        assert run.info("loop-unroll").functions_changed == 0
        # the rest of the pipeline still runs and the program is intact
        assert run.info("mem2reg").changed
        assert Interpreter(result.module).run("main", []) == 2 * sum(
            range(8)
        )

    def test_mem2reg_site_gating(self):
        DEBUG_COUNTERS.apply_spec("mem2reg-promote=0,0")
        result, run = optimize(PLAIN_SRC)
        assert "alloca" in result.ir_text()
        DEBUG_COUNTERS.unset_all()
        result2, _ = optimize(PLAIN_SRC)
        assert "alloca" not in result2.ir_text()

    def test_mem2reg_partial_window(self):
        DEBUG_COUNTERS.apply_spec("mem2reg-promote=1,1")
        result, _ = optimize(PLAIN_SRC)
        # x and y promotable; exactly one survives as an alloca
        assert result.ir_text().count("= alloca") == 1

    def test_simplifycfg_site_gating(self):
        DEBUG_COUNTERS.apply_spec("simplifycfg-transform=0,0")
        _, run = optimize(UNROLL_SRC)
        assert run.info("simplify-cfg").functions_changed == 0

    def test_cli_flag_round_trip(self, tmp_path, capsys):
        path = write_source(tmp_path, TWO_LOOP_SRC)
        code = main(
            [
                "-O1",
                "--run",
                "-debug-counter=unroll-transform=1",
                "-Rpass-missed=loop-unroll",
                path,
            ]
        )
        assert code == 2 * sum(range(8))
        err = capsys.readouterr().err
        assert "suppressed by -debug-counter=unroll-transform" in err
        # counters disarm on CLI exit: a second plain run is unaffected
        assert not DEBUG_COUNTERS.get("unroll-transform").is_set

    def test_cli_rejects_bad_spec(self, tmp_path, capsys):
        path = write_source(tmp_path, PLAIN_SRC)
        assert main(["-debug-counter=bogus", path]) == 1
        assert "invalid -debug-counter spec" in capsys.readouterr().err
