"""perflab — the repository's benchmark: seven layer-separating workloads.

``python -m perflab.run`` measures what the simulator costs its users
(host seconds, set-up time, memory) and what the modelled SP would take
(simulated microseconds, distance from the paper's numbers), verifies
every workload's outputs, and in a separate traced pass attributes host
time to the repository's packages.  See ``perflab/README.md``.

The package never imports ``repro`` at import time: the parent process
(:mod:`perflab.run`) only orchestrates worker subprocesses, and only
:mod:`perflab.worker` loads the program under test.
"""
