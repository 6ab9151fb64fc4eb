"""MapReduce engine on top of HDFS + YARN + the flow network.

The engine reproduces the mechanisms that generate each of Keddah's
traffic components:

* **HDFS read** — map tasks read their input splits with the NameNode's
  locality preference (node-local reads are silent; rack-local and
  remote reads become flows);
* **shuffle** — every (map, reduce) pair exchanges one partition fetch
  once the map commits, gated by the reducer slow-start fraction and
  the per-reducer parallel-copy limit;
* **HDFS write** — reducers (or map-only tasks) write their output
  through replication pipelines;
* **control** — job submission, job-jar staging and localisation, AM-RM
  heartbeats, container-launch RPCs, task completion notifications and
  the job-history write.

:class:`~repro.mapreduce.cluster.HadoopCluster` assembles a full
simulated deployment; :class:`~repro.mapreduce.driver.JobDriver` runs
(possibly iterative) jobs on it.

:mod:`~repro.mapreduce.appmaster` drives every task of one round;
:mod:`~repro.mapreduce.result` and :mod:`~repro.mapreduce.counters`
hold what a run reports.
"""
