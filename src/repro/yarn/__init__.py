"""YARN substrate: resource management and scheduling.

Implements the YARN control plane at the fidelity that shapes traffic
and task timing:

* **heartbeat-driven allocation** — NodeManagers heartbeat the
  ResourceManager (a small control flow each beat); container grants
  happen *at* heartbeats, reproducing YARN's allocation latency;
* **pluggable schedulers** — FIFO, Fair, Capacity and DRF, selected by
  :attr:`repro.cluster.config.HadoopConfig.scheduler`, which is one of
  the cluster-configuration axes the paper varies;
* **application protocol** — applications (the MapReduce AppMaster in
  :mod:`repro.mapreduce`) register, expose pending container demand,
  and accept grants; container launches cost an AM→NM RPC flow.
"""
