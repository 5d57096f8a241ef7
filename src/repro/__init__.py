"""Reproduction of "Low-Latency Communication on the IBM RISC System/6000 SP".

Chang, Czajkowski, Hawblitzel, von Eicken - ACM/IEEE Supercomputing 1996.

The paper's whole stack - SP Active Messages over the TB2 adapter, the
IBM MPL baseline, Split-C, and MPI (MPICH-over-AM plus an MPI-F model) -
implemented as real protocol code over a microsecond-accurate
discrete-event simulation of the SP's communication hardware.

Quick start::

    from repro.sim import Simulator
    from repro.hardware import build_sp_machine
    from repro.am import attach_spam

    sim = Simulator()
    machine = build_sp_machine(sim, nprocs=2)
    am0, am1 = attach_spam(machine)
    # see examples/quickstart.py for a complete program

Package map (details in DESIGN.md):

- :mod:`repro.sim`      - deterministic event engine
- :mod:`repro.hardware` - TB2 adapter, MicroChannel, switch, nodes
- :mod:`repro.am`       - SP Active Messages (the paper's contribution)
- :mod:`repro.mpl`      - IBM MPL baseline + the AM-over-MPL shim
- :mod:`repro.splitc`   - the Split-C runtime
- :mod:`repro.mpi`      - MPICH-over-AM, MPI-F, AM-direct collectives
- :mod:`repro.apps`     - Split-C benchmarks + NAS kernels
- :mod:`repro.bench`    - the table/figure measurement harness
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
