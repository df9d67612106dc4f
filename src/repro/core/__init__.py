"""The paper's primary contribution: the NoSQ mechanisms.

* :mod:`repro.core.srq` -- the store register queue: a rename-only structure
  holding store data-input register tags (Section 3.2).
* :mod:`repro.core.bypass_predictor` -- the hybrid path-sensitive
  distance-based store-load bypassing predictor with confidence/delay
  (Section 3.3).
* :mod:`repro.core.ssbf` -- the tagged store sequence Bloom filter (T-SSBF)
  and its untagged variant (Sections 2.2 and 3.4).
* :mod:`repro.core.svw` -- SVW re-execution filtering with SMB-aware
  equality/inequality tests (Section 3.4).
* :mod:`repro.core.partial_word` -- partial-word bypassing transformations
  and the injected shift & mask operation (Section 3.5).
* :mod:`repro.core.commit_pipeline` -- the extended in-order back-end
  pipeline: store execution at commit, load address (re)generation, shared
  data-cache write port, flush latency (Section 3.4, Table 4).
"""

from repro.core.srq import SRQEntry, StoreRegisterQueue
from repro.core.bypass_predictor import (
    BypassingPredictor,
    BypassPrediction,
    BypassPredictorConfig,
)
from repro.core.ssbf import TaggedSSBF, UntaggedSSBF, SSBFEntry
from repro.core.svw import SVWFilter, BypassVerdict
from repro.core.partial_word import (
    BypassTransform,
    transform_for,
    apply_transform,
    needs_injected_op,
)
from repro.core.commit_pipeline import CommitPipeline, BackendConfig

__all__ = [
    "SRQEntry",
    "StoreRegisterQueue",
    "BypassingPredictor",
    "BypassPrediction",
    "BypassPredictorConfig",
    "TaggedSSBF",
    "UntaggedSSBF",
    "SSBFEntry",
    "SVWFilter",
    "BypassVerdict",
    "BypassTransform",
    "transform_for",
    "apply_transform",
    "needs_injected_op",
    "CommitPipeline",
    "BackendConfig",
]
