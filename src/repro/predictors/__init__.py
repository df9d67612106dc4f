"""Store-load dependence predictors.

* :class:`StoreSets` -- the Chrysos/Emer predictor used for load scheduling
  by the paper's realistic conventional baseline.  Perfect scheduling and
  perfect bypassing prediction (the normalization baseline and the
  "Perfect SMB" bars) are idealizations ``Processor`` implements inline.
"""

from repro.predictors.store_sets import StoreSets, StoreSetsStats

__all__ = [
    "StoreSets",
    "StoreSetsStats",
]
