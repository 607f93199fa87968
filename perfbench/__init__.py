"""perfbench — seven clocks over one QDWH task graph.

Every workload runs the same Algorithm-1 problem through the same seven
clocks (dense LAPACK, tiled eager, threads, processes, both guarded by
an empty ``RecoveryPolicy``, and the modelled schedule), so the metric
set is identical on every workload.  Run it with::

    python -m perfbench                      # every workload, bench_out/
    python -m perfbench --compare A.json B.json
    python -m perfbench --workload small_tiles --seed 1 --seconds 30 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and the rule
for later issues.  Nothing here imports numpy: ``perfbench.env.pin()``
must run first so BLAS starts single-threaded.
"""
