"""k-graceful-degradability verification.

* :mod:`repro.core.verify.parallel` — the exhaustive engine,
  :func:`verify_exhaustive_parallel`: check *every* fault set of size
  ``<= k`` on the witness kernel (a machine proof for the given
  instance; this is how the paper's own "computer checking" of the
  special solutions worked);
* :mod:`repro.core.verify.exhaustive` — fault-set enumeration and the
  cold sweep :func:`verify_exhaustive`, which shares no code with the
  engine and is the oracle its tests and ``repro bench`` compare with;
* :mod:`repro.core.verify.certificates` — result objects;
* :mod:`repro.core.verify.sampling` — randomized + adversarial fault
  sampling for instances too large to exhaust;
* :mod:`repro.core.verify.adversarial` — structure-aware fault-set
  generators that target the constructions' weak spots.

The numpy-backed engine (:mod:`~repro.core.verify.batch`,
:mod:`~repro.core.verify.parallel`, :mod:`~repro.core.verify.shm`) loads
on first use of one of its names, so importing the package — as every
serving process does — does not import numpy.
"""

from importlib import import_module

from ..hamilton import IncrementalInstanceBuilder
from .adversarial import (
    ADVERSARIAL_GENERATORS,
    attachment_attack,
    neighborhood_attack,
    segment_attack,
    terminal_attack,
    uniform_faults,
)
from .certificates import VerificationCertificate, VerificationMode
from .exhaustive import (
    gray_unrank,
    iter_fault_sets,
    iter_fault_sets_gray,
    iter_gray_indices,
    verify_exhaustive,
)
from .regression import replay as replay_regression_vectors
from .sampling import verify_sampled
from .symmetry import CanonicalVerdictCache, orbit_representatives
from .warm import WitnessSweeper

__all__ = [
    "VerificationCertificate",
    "VerificationMode",
    "iter_fault_sets",
    "iter_fault_sets_gray",
    "gray_unrank",
    "iter_gray_indices",
    "verify_exhaustive",
    "verify_exhaustive_parallel",
    "orbit_representatives",
    "CanonicalVerdictCache",
    "WitnessKernel",
    "SharedSweepContext",
    "ShmWorkerPool",
    "IncrementalInstanceBuilder",
    "WitnessSweeper",
    "verify_sampled",
    "replay_regression_vectors",
    "ADVERSARIAL_GENERATORS",
    "uniform_faults",
    "terminal_attack",
    "attachment_attack",
    "neighborhood_attack",
    "segment_attack",
]

#: names resolved from their numpy-backed module on first access
_LAZY = {
    "WitnessKernel": ".batch",
    "verify_exhaustive_parallel": ".parallel",
    "SharedSweepContext": ".shm",
    "ShmWorkerPool": ".shm",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(module, __name__), name)
