"""Shared pytest plumbing.

Collects the one-line verdicts emitted by the acceptance tests and
replays them in the terminal summary, so they stay visible even when
stdout capture swallows in-test prints.  Property tests run a few
derandomized examples without deadlines: the examples repeat from run
to run, and a machine whose CPU speed drifts cannot flake them.  BLAS
runs one thread unless the environment says otherwise, as
``perfbench/run.py`` pins it: a suite that shares its cores with
another process then keeps its own pace.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from hypothesis import settings  # noqa: E402

settings.register_profile("leafquant", derandomize=True, deadline=None,
                          max_examples=8)
settings.load_profile("leafquant")

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(name: str, passed: bool, detail: str) -> str:
    line = f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return line


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
