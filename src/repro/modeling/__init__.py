"""Keddah stage 2 — empirical traffic modelling.

Given captured :class:`~repro.capture.records.JobTrace` datasets, this
package produces the paper's deliverable: a statistical model of each
job type's traffic, decomposed by component, that a network simulator
can sample from.

Pipeline:

1. :mod:`repro.modeling.empirical` — ECDFs and summary statistics;
2. :mod:`repro.modeling.distributions` — a candidate family of
   parametric distributions (exponential, lognormal, Weibull, gamma,
   Pareto, normal, uniform) with MLE fitting, plus degenerate and
   empirical-quantile fallbacks for data parametric families cannot
   represent (e.g. block-size point masses);
3. :mod:`repro.modeling.fitting` — goodness of fit (Kolmogorov-Smirnov)
   and information-criterion model selection;
4. :mod:`repro.modeling.scaling` — linear scaling laws of flow counts
   and volumes against input size, fitted across capture campaigns;
5. :mod:`repro.modeling.model` — the assembled
   :class:`~repro.modeling.model.JobTrafficModel` with JSON
   round-tripping, and :func:`~repro.modeling.model.fit_job_model`.
"""
