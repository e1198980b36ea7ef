"""Speed probe for another process's CPU: ``python -m perf.prober <seconds>``.

The HTTP server child cannot probe itself — a probe on its event loop
waits for the GIL whenever the engine thread runs, and reads that as a slow
machine.  This process sits on the server's CPU instead, runs the probe
(~1 ms) every ``<seconds>``, and prints ``at_ns took_ns`` per sample; the
load generator reads the lines as they come.  ``perf_counter_ns`` is
``CLOCK_MONOTONIC``: the same clock in every process of the machine.
"""

from __future__ import annotations

import sys
import time

from perf.clock import SpeedProbe
from perf.paths import pin_to_cpu


def main(interval: float) -> None:
    pin_to_cpu(last=True)
    probe = SpeedProbe()
    while True:
        probe.sample()
        print(probe.at_ns[-1], probe.took_ns[-1], flush=True)
        time.sleep(interval)


if __name__ == "__main__":
    try:
        main(float(sys.argv[1]))
    except (KeyboardInterrupt, BrokenPipeError):
        pass
