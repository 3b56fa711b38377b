"""Experiment drivers: one module per table/figure of the paper.

Every module exposes ``run(fast=False) -> ExperimentResult``; the CLI
(``python -m repro.experiments.runner``) and the tests go through these.
``fast=True`` trades statistical tightness for runtime (shorter
simulations, coarser grids) and is what the tests and the goldens use;
the defaults regenerate the paper-quality numbers recorded in
EXPERIMENTS.md.

=================  =======================================================
experiment id      paper artefact
=================  =======================================================
``table1``         Table 1 — historical relationship parameters
``table2``         Table 2 — layered queuing processing-time parameters
``fig2``           Figure 2 — mean RT vs clients, three architectures
``fig3``           Figure 3 — accuracy vs gap between calibration points
``fig4``           Figure 4 — heterogeneous-workload predictions
``fig5``/``fig6``  Figures 5/6 — RM cost metrics vs load at slack levels
``fig7``/``fig8``  Figures 7/8 — cost trade-off as slack is reduced
``accuracy``       Sections 4-6 headline accuracy numbers
``percentiles``    Section 7.1 — 90th-percentile predictions
``caching``        Section 7.2 — cache modelling and LQN circularity
``delay``          Section 8.5 — prediction-delay comparison
``recalibration``  Sections 4.2/8.4 — accuracy vs amount of historical data
=================  =======================================================
"""

from repro.experiments.scenario import ExperimentResult

__all__ = ["ExperimentResult"]
