"""The plain ``miniclang`` compile path imports only the compiler.

One-shot CLI latency is mostly import time, so the driver must not pull
in the cache, the compile service, the mid-end, the execution engines or
the service's request telemetry until a flag asks for them.
"""

from __future__ import annotations

import os
import subprocess
import sys

import repro

OPTIONAL_PACKAGES = (
    "repro.cache",
    "repro.service",
    "repro.midend",
    "repro.exec",
    "repro.instrument.telemetry",
)


def test_cli_import_loads_no_optional_package():
    src_dir = os.path.dirname(os.path.dirname(repro.__file__))
    script = (
        "import sys\n"
        "import repro.driver.cli\n"
        f"prefixes = {OPTIONAL_PACKAGES!r}\n"
        "print('\\n'.join(sorted(\n"
        "    m for m in sys.modules\n"
        "    if any(m == p or m.startswith(p + '.') for p in prefixes)\n"
        ")))\n"
    )
    env = dict(os.environ, PYTHONPATH=src_dir)
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    assert out.stdout.split() == []


def test_cli_module_runs_once():
    """``python -m repro.driver.cli`` executes ``cli.py`` once.  A
    package ``__init__`` that imports the module makes runpy execute it
    a second time as ``__main__`` and warn about it on stderr."""
    src_dir = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run(
        [sys.executable, "-m", "repro.driver.cli", "-print-pipeline-passes"],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=src_dir),
    )
    assert "RuntimeWarning" not in out.stderr, out.stderr
