"""End-to-end SV-to-trace benchmark with per-layer timings.

Every workload takes all 22 suite designs from SystemVerilog source to a
finished, reference-checked trace through the public layer calls:

* ``behavioural`` — Moore frontend, then the compiled ``blaze`` engine;
* ``netlist`` — frontend, ``lower_to_structural``, ``netlist_design``,
  then the levelized engine on a cold compile cache;
* ``batch`` — frontend, then ``simulate_batch`` (a uniform K=16 batch
  and a seeded K=4 batch), with every lane demuxed;
* ``crosscheck`` — frontend, then the reference ``interp`` engine and
  the ``cycle`` engine.

Run ``python -m benchmarks.e2e --seed 0`` from the repository root (see
``README.md`` in this directory).
"""
