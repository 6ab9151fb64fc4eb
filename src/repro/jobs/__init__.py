"""Workload library: MapReduce job profiles.

Profiles cover the spectrum of MapReduce behaviours the paper's
workload suite (HiBench-style) spans:

=============  ==========================  ============================
job            traffic character            profile module
=============  ==========================  ============================
terasort       shuffle-heavy 1:1:1          :mod:`repro.jobs.terasort`
sort           terasort w/ replicated out   :mod:`repro.jobs.sort`
wordcount      aggregation (combiner)       :mod:`repro.jobs.wordcount`
grep           filter, near-empty shuffle   :mod:`repro.jobs.grep`
pagerank       iterative, output-chained    :mod:`repro.jobs.pagerank`
kmeans         iterative, input re-read     :mod:`repro.jobs.kmeans`
join           two-input shuffle join       :mod:`repro.jobs.join`
teragen        map-only generator           :mod:`repro.jobs.teragen`
dfsio          HDFS I/O micro-benchmarks    :mod:`repro.jobs.dfsio`
=============  ==========================  ============================

``make_job(kind, input_gb, ...)`` is the uniform factory used by the
experiment harness.  Multi-stage workloads (Pig/Hive chains, TPCx-HS)
compose these profiles into :class:`~repro.jobs.plan.WorkloadPlan`
DAGs; ``make_plan(name, ...)`` is the corresponding plan factory.
"""
