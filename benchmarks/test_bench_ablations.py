"""Ablation benchmarks for the design choices DESIGN.md calls out.

* IRBuilder on-the-fly folding on/off (paper §1.3: folding "avoids
  creating instructions that would later be optimized away anyway") —
  measured as static instruction count of the emitted module.
* Remainder-scheme vs conditional-exit unrolling — dynamic instruction
  counts of the two mid-end strategies on the same loop.
* Representation cost scaling with loop-nest depth (Sema work per
  representation).
"""

import pytest

from repro.pipeline import compile_source, run_source
from benchmarks.conftest import make_loop_nest_source


def static_instruction_count(module) -> int:
    return sum(
        len(block.instructions)
        for fn in module.functions.values()
        for block in fn.blocks
    )


class TestIRBuilderFoldingAblation:
    SRC = r"""
    int main(void) {
      int x = (3 + 4) * 2;
      int arr[8];
      for (int i = 0 * 1; i < 8 * 1 + 0; i += 1 + 0)
        arr[i] = i * 1 + (2 - 2);
      int sum = 0;
      #pragma omp unroll partial(2 + 2)
      for (int i = 0; i < 8; i += 1) sum += arr[i] + (10 / 2);
      printf("%d %d\n", x, sum);
      return 0;
    }
    """

    def _compile(self, folding: bool):
        import repro.codegen.function as cgf_mod
        from repro.ir.irbuilder import IRBuilder

        original_init = IRBuilder.__init__

        def patched(self_b, module):
            original_init(self_b, module)
            self_b.folding_enabled = folding

        IRBuilder.__init__ = patched
        try:
            return compile_source(self.SRC)
        finally:
            IRBuilder.__init__ = original_init

    def test_bench_with_folding(self, benchmark):
        result = benchmark(lambda: self._compile(True))
        count = static_instruction_count(result.module)
        benchmark.extra_info["static_instructions"] = count

    def test_bench_without_folding(self, benchmark):
        result = benchmark(lambda: self._compile(False))
        count = static_instruction_count(result.module)
        benchmark.extra_info["static_instructions"] = count

    def test_folding_emits_fewer_instructions(self):
        folded = static_instruction_count(self._compile(True).module)
        unfolded = static_instruction_count(
            self._compile(False).module
        )
        assert folded < unfolded
        # Semantics unchanged either way.
        from repro.interp import Interpreter

        out_f = Interpreter(self._compile(True).module)
        out_f.run("main")
        out_u = Interpreter(self._compile(False).module)
        out_u.run("main")
        assert out_f.output() == out_u.output()


class TestUnrollSchemeAblation:
    """Remainder scheme (simple-condition loops) vs conditional-exit
    scheme (compound conditions) on equivalent workloads."""

    REMAINDER_ELIGIBLE = r"""
    int main(void) {
      long acc = 0;
      #pragma clang loop unroll_count(4)
      for (int i = 0; i < 997; i += 1) acc += i;
      printf("%d\n", (int)acc);
      return 0;
    }
    """
    # The && in the condition forces the conditional-exit scheme.
    CONDITIONAL_ONLY = r"""
    int main(void) {
      long acc = 0;
      int limit = 997;
      #pragma clang loop unroll_count(4)
      for (int i = 0; i < 997 && i < limit; i += 1) acc += i;
      printf("%d\n", (int)acc);
      return 0;
    }
    """

    def test_bench_remainder_scheme(self, benchmark):
        result = benchmark(
            lambda: run_source(
                self.REMAINDER_ELIGIBLE, openmp=False, optimize=True
            )
        )
        benchmark.extra_info["instructions"] = result.instruction_count
        benchmark.extra_info["scheme"] = "remainder"

    def test_bench_conditional_scheme(self, benchmark):
        result = benchmark(
            lambda: run_source(
                self.CONDITIONAL_ONLY, openmp=False, optimize=True
            )
        )
        benchmark.extra_info["instructions"] = result.instruction_count
        benchmark.extra_info["scheme"] = "conditional-exit"

    def test_schemes_selected_as_designed(self):
        from repro.instrument.stats import STATS
        from repro.midend import LoopUnrollPass

        for src, expect_remainder in (
            (self.REMAINDER_ELIGIBLE, True),
            (self.CONDITIONAL_ONLY, False),
        ):
            result = compile_source(src, openmp=False)
            pass_ = LoopUnrollPass()
            before = STATS.snapshot()
            pass_.run_on_function(result.module.get_function("main"))
            unrolled = {
                row["labels"]["strategy"]: row["value"]
                for row in STATS.delta_since(before)[
                    "loop-unroll.loops-unrolled"
                ]["series"]
            }
            if expect_remainder:
                assert unrolled.get("partial") == 1
            else:
                assert unrolled.get("conditional") == 1

    def test_remainder_beats_conditional(self):
        """The remainder scheme drops the per-copy checks; it must
        execute fewer instructions than conditional-exit on the same
        trip count."""
        remainder = run_source(
            self.REMAINDER_ELIGIBLE, openmp=False, optimize=True
        )
        conditional = run_source(
            self.CONDITIONAL_ONLY, openmp=False, optimize=True
        )
        assert remainder.stdout == conditional.stdout
        assert (
            remainder.instruction_count
            < conditional.instruction_count
        )


class TestNestDepthScaling:
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("irbuilder", [False, True])
    def test_bench_sema_scaling(self, benchmark, depth, irbuilder):
        src = make_loop_nest_source(
            depth, extent=4, pragma="#pragma omp parallel for"
        )
        benchmark.extra_info["depth"] = depth
        benchmark.extra_info["representation"] = (
            "irbuilder" if irbuilder else "shadow"
        )
        result = benchmark(
            lambda: compile_source(
                src, syntax_only=True, enable_irbuilder=irbuilder
            )
        )
        assert result.ok

    @pytest.mark.parametrize("depth", [2, 3])
    def test_collapse_executes_correctly_at_depth(self, depth):
        pragma = (
            f"#pragma omp parallel for collapse({depth}) "
            "reduction(+: acc)"
        )
        src = make_loop_nest_source(depth, extent=3, pragma=pragma)
        expected = 0
        idx = [0] * depth

        def rec(level):
            nonlocal expected
            if level == depth:
                expected += sum(idx)
                return
            for v in range(3):
                idx[level] = v
                rec(level + 1)

        rec(0)
        for irb in (False, True):
            result = run_source(src, enable_irbuilder=irb)
            assert int(result.stdout) == expected
