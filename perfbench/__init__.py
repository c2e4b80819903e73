"""perfbench — the repository's wall-clock benchmark.

Three closed-loop, single-client workloads (``analytic-cold``,
``serve-hot``, ``ingest-ivm``) driven only through the public API, with an
adjacency-set oracle checking every answer and an optional traced run that
attributes wall time to the ``api``, ``joins``, ``core``, ``service``,
``relational``, ``storage`` and ``graphs`` layers.  Run it with::

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 30 --trace 0

See ``perfbench/README.md`` for the metrics and what each should predict.
"""
