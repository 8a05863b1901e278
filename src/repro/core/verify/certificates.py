"""Verification result objects."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Hashable

Node = Hashable


class VerificationMode(str, enum.Enum):
    EXHAUSTIVE = "exhaustive"
    SAMPLED = "sampled"


@dataclass(frozen=True)
class VerificationCertificate:
    """Outcome of a verification pass.

    ``counterexample`` is a fault set the network does **not** tolerate
    (``None`` when none was found).  ``undecided`` lists fault sets on
    which the exact solver ran out of budget: they are *not* evidence
    either way.  A certificate is

    * a **disproof** when ``counterexample`` is set;
    * a **proof** of k-graceful-degradability when the mode is exhaustive,
      no counterexample was found, and nothing was undecided;
    * statistical evidence otherwise.

    An exhaustive certificate's ``k`` is the budget its sweep covered:
    every fault set of every size ``0..k``.  A sweep that skipped size 0
    covers no budget (``k == -1``) and proves nothing.
    """

    mode: VerificationMode
    k: int
    checked: int
    tolerated: int
    counterexample: tuple[Node, ...] | None = None
    undecided: tuple[tuple[Node, ...], ...] = field(default_factory=tuple)
    elapsed_seconds: float = 0.0
    network_description: str = ""
    #: actual solver invocations (< ``checked`` when witnesses were adapted
    #: or orbits collapsed; 0 when the sweep predates the counter).
    solver_calls: int = 0
    #: total search nodes expanded across all solver invocations.
    nodes_expanded: int = 0

    @property
    def ok(self) -> bool:
        """No counterexample found (does not by itself imply a proof)."""
        return self.counterexample is None

    @property
    def is_proof(self) -> bool:
        """True when this certificate *proves* the k-GD property."""
        return (
            self.mode is VerificationMode.EXHAUSTIVE
            and self.k >= 0
            and self.counterexample is None
            and not self.undecided
        )

    def __bool__(self) -> bool:
        return self.ok

    def summary(self) -> str:
        verdict = (
            "PROOF"
            if self.is_proof
            else ("ok" if self.ok else f"COUNTEREXAMPLE {self.counterexample!r}")
        )
        solver = (
            f", solves={self.solver_calls}" if self.solver_calls else ""
        )
        return (
            f"{self.network_description or 'network'}: {verdict} "
            f"[{self.mode.value}, k={self.k}, checked={self.checked}, "
            f"tolerated={self.tolerated}, undecided={len(self.undecided)}"
            f"{solver}, {self.elapsed_seconds:.2f}s]"
        )
