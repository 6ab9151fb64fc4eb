"""Cluster substrate: racks, hosts, switches, topologies and configs.

This package defines the *static* shape of the simulated Hadoop
deployment — which hosts exist, how they are wired, and the Hadoop
configuration knobs the paper varies (block size, replication factor,
reducer count, scheduler, ...).  The dynamic behaviour lives in
:mod:`repro.net` (links and flows), :mod:`repro.hdfs` and
:mod:`repro.yarn`.
"""
