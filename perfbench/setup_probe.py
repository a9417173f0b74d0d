"""Time one cold set-up of a workload in a fresh interpreter.

Set-up is what a user pays before a run starts: importing
``leafquant``, ``parse_scenario`` on the generated document,
``ScenarioConfig.driven()`` and the initial packet.  ``run.py`` starts
this script several times and reports the median; it prints the
seconds as its only output line.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv: list[str]) -> int:
    workload, seed = argv[0], int(argv[1])
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import workloads

    doc = workloads.scenario_document(
        workload, workloads.draw_parameters(workload, seed))
    start = time.perf_counter()
    from leafquant.operators import WaveSection
    from leafquant.scenarios import parse_scenario

    config = parse_scenario(doc)
    dh = config.driven()
    t0 = dh.span[0]
    WaveSection.gaussian(config.grid, center=config.initial_center,
                         width=config.initial_width,
                         momentum=config.initial_kick, time=t0,
                         sigma=dh.path.value(t0))
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
