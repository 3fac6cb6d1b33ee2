"""Set-up probe: import qkdsim from the checkout, build a workload's
scenarios, and print the wall-clock time at which the first scenario is
ready to run.

    python3 perfbench/setup_probe.py <workload> <scale>
"""

import sys
import time

from checkout import use_checkout_source

use_checkout_source()
import scenarios  # noqa: E402  (needs the checkout on sys.path first)

scenarios.build(sys.argv[1], float(sys.argv[2]))
print(time.time(), flush=True)
