"""The compiler drivers: ``miniclang`` (:mod:`repro.driver.cli`) and
``miniclang-serve`` (:mod:`repro.driver.serve`), clang-like command
lines over the pipeline and the compile service."""
