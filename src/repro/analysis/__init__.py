"""Analysis: breakdowns, comparisons and table rendering.

The quantitative layer between raw traces and the experiment outputs:

* :mod:`repro.analysis.tables` — plain-text table/series rendering used
  by every benchmark to print the rows a paper figure would plot;
* :mod:`repro.analysis.breakdown` — per-component traffic volume and
  flow-count decompositions of job traces;
* :mod:`repro.analysis.compare` — captured-vs-synthetic validation
  (two-sample KS per component metric, volume/count errors);
* :mod:`repro.analysis.jct` — job-completion-time statistics;
* :mod:`repro.analysis.plans` — per-stage attribution and scoring of
  workload-plan captures.
"""
