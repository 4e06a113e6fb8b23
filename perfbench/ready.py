"""Set-up probe: prints "ready" once the workload's first operation could run.

    python perfbench/ready.py WORKLOAD SEED

run.py times a fresh interpreter running this, from its start until that
line: for cli, the import of kspoly; for the in-process workloads, also the
dataset loads, basis tables and generated inputs.
"""

import sys

workload, seed = sys.argv[1], int(sys.argv[2])
if workload == "cli":
    import kspoly  # noqa: F401
else:
    import harness

    harness.setup_workload(workload, seed)
print("ready", flush=True)
