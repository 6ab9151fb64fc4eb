"""Deterministic discrete-event simulation kernel.

``simkit`` is the substrate under every other subsystem in this
repository: the flow-level network simulator, HDFS, YARN and the
MapReduce engine are all sets of ``simkit`` processes and callbacks
driven by one :class:`~repro.simkit.core.Simulator` event loop.

Design goals:

* **Determinism** — given the same seed, a simulation produces the same
  event ordering and therefore the same captured traffic, which the
  regression tests rely on.  Ties in event time are broken by an
  explicit (priority, sequence) pair, never by object identity.
* **Small surface** — events, generator-based processes, signals,
  counted resources and FIFO stores.  Nothing else is needed by the
  Hadoop substrate.
* **Named RNG streams** — every stochastic component draws from its own
  :func:`~repro.simkit.rng.RngRegistry.stream`, so adding a new source
  of randomness never perturbs existing ones.

Modules: :mod:`~repro.simkit.core` (the event loop, processes,
signals), :mod:`~repro.simkit.resources` (resources and stores) and
:mod:`~repro.simkit.rng`.
"""
