"""Vectorized witness kernel for the exhaustive sweep.

The warm sweep (:mod:`repro.core.verify.warm`) decides fault sets one at
a time: patch the instance, try to splice the previous witness, fall
back to a solver.  Per-set Python overhead — not solver work — is what
bounds it: on the dense construction graphs >95% of fault sets are
decided by a splice whose *logic* is a handful of bitmask tests.

This module hoists those tests out of the per-set loop and runs them as
numpy matrix ops over whole *batches* of fault sets at once.  A
**witness library** holds spanning paths found during the sweep; for
each library witness a set of flat tables is precomputed (path position
per node, run-bridge chords, terminal attachment per candidate
endpoint), and a batch of fault sets — a ``(B, j)`` matrix of node
indices in revolving-door order — is accepted wholesale when some
witness provably adapts to every set in it.  Only the *residue* (sets no
library witness provably tolerates) falls back to the scalar warm path,
which also grows the library as it solves.

Acceptance is **sound by construction** — a set is accepted only when an
explicit pipeline can be assembled from the witness:

* every faulty processor the witness does not visit must be in the
  fault set (``required ⊆ F``), so the surviving path still spans;
* every *interior* run of ``r`` consecutive faulty path positions is
  bridged by a verified chord between its healthy flanks
  (``badrun[r]`` tables);
* faulty prefix/suffix runs are *truncated*, shifting the endpoints
  inward (positions ``pre`` / ``h-1-suf``);
* the shifted endpoints retain a healthy input/output terminal after
  discounting faulty attached terminals, in either orientation.

False rejects are fine (they land in the residue and get solved
exactly); false accepts are impossible, so verdicts, counterexamples
and ``checked``/``tolerated`` totals are identical to the warm sweep's
— asserted in the test suite.

The sweep that drives the kernel is
:func:`~repro.core.verify.parallel.verify_exhaustive_parallel`: its
chunk worker runs one Gray-rank range through
:meth:`WitnessKernel.accept_batch` and decides the residue with a
:class:`~repro.core.verify.warm.WitnessSweeper` in rank order.
:meth:`WitnessKernel.accept_row` is the same decision procedure for one
row in plain Python: the conditional-witness tier, and the oracle the
vectorized tier is tested against.
"""

from __future__ import annotations

from math import comb
from typing import Hashable, Iterable, Sequence

import numpy as np

from ..hamilton import SolvePolicy, Status, solve_posa
from ..model import PipelineNetwork

Node = Hashable

#: full-coverage witnesses evaluated in the vectorized tier.
GENERAL_CAP = 24
#: residue-grown witnesses (usable only for supersets of the fault set
#: that produced them), evaluated per-row on the vectorized tier's
#: leftovers.
CONDITIONAL_CAP = 4096
#: Pósa rotation attempts used to diversify the general library at
#: sweep start; distinct paths multiply single-witness coverage.
DIVERSIFY_ROUNDS = 12
#: refuse to materialize revolving-door index arrays above this many
#: elements (rows x width); larger sweeps stream through the unranking
#: generator instead.
GRAY_ELEMENT_CAP = 80_000_000

_GRAY_CACHE: dict[tuple[int, int], np.ndarray] = {}
_GRAY_CACHE_MAX = 8


def gray_index_array(n: int, j: int) -> np.ndarray:
    """The full revolving-door sequence of ``j``-subsets of ``range(n)``
    as a ``(C(n, j), j)`` integer array, built by array-level recursion
    (no per-tuple Python work) and cached per ``(n, j)``.

    Row ``r`` equals :func:`~repro.core.verify.exhaustive.gray_unrank`
    ``(n, j, r)`` — workers slice chunk ranges straight out of it.
    """
    key = (n, j)
    hit = _GRAY_CACHE.get(key)
    if hit is not None:
        return hit
    if comb(n, j) * max(j, 1) > GRAY_ELEMENT_CAP:
        raise ValueError(f"C({n}, {j}) index array exceeds element cap")
    dtype = np.int16 if n < (1 << 15) else np.int32
    # Pascal-style DP over m: prev[i] is the sequence for C(m-1, i).
    prev: list[np.ndarray] = [np.zeros((1, 0), dtype=dtype)]
    for m in range(1, n + 1):
        cur: list[np.ndarray] = [np.zeros((1, 0), dtype=dtype)]
        for i in range(1, min(m, j) + 1):
            col = np.full((len(prev[i - 1]), 1), m - 1, dtype=dtype)
            tail = np.hstack([prev[i - 1][::-1], col])
            if i < len(prev):
                cur.append(np.vstack([prev[i], tail]))
            else:
                cur.append(tail)
        prev = cur
    out = prev[j]
    out.setflags(write=False)
    if len(_GRAY_CACHE) >= _GRAY_CACHE_MAX:
        _GRAY_CACHE.pop(next(iter(_GRAY_CACHE)))
    _GRAY_CACHE[key] = out
    return out


def _trailing_ones(x: int, width: int) -> int:
    n = 0
    while n < width and x >> n & 1:
        n += 1
    return n


def _leading_ones(x: int, width: int) -> int:
    n = 0
    while n < width and x >> (width - 1 - n) & 1:
        n += 1
    return n


class _Witness:
    """Flat accept tables for one library witness (a spanning path of
    the healthy processors, as builder bit indices in path order)."""

    __slots__ = (
        "bits", "h", "req", "wpos", "badrun", "sufshift",
        "hin_deg", "hout_deg", "tin_deg", "tout_deg",
        "hin_set", "hout_set", "tin_set", "tout_set",
        "np_wpos", "np_hin_att", "np_hout_att", "np_tin_att",
        "np_tout_att", "np_hin_deg", "np_hout_deg", "np_tin_deg",
        "np_tout_deg",
    )

    def __init__(self) -> None:
        self.np_wpos = None


class WitnessKernel:
    """Vectorized accept tests over a witness library.

    ``universe`` is the repr-sorted fault universe (the order
    :func:`~repro.core.verify.exhaustive.iter_fault_sets_gray` walks);
    fault sets are presented as rows of universe indices.  ``general``
    witnesses span every processor and run in the vectorized tier;
    ``conditional`` witnesses (grown from residue solves under fault
    sets with processor faults) only apply to supersets of the faults
    they were found under and run per-row on the leftovers.
    """

    def __init__(
        self,
        network: PipelineNetwork,
        universe: Sequence[Node],
        k: int,
    ) -> None:
        from .warm import IncrementalInstanceBuilder

        self.network = network
        self.k = k
        self.universe = list(universe)
        self.U = len(self.universe)
        self.uindex = {v: u for u, v in enumerate(self.universe)}
        self.builder = IncrementalInstanceBuilder(network)
        #: universe index of each processor bit (-1: outside the universe)
        self.bit_uidx = [
            self.uindex.get(p, -1) for p in self.builder.procs
        ]
        self.general: list[_Witness] = []
        self.conditional: list[_Witness] = []
        self._by_req: dict[int, list[_Witness]] = {}
        self._seen: set[tuple[int, ...]] = set()
        # run-length LUTs over a (k+1)-bit window; fault sets carry at
        # most k bits so runs never fill the window
        self.win = k + 1
        self.winmask = (1 << self.win) - 1
        self.trail = [_trailing_ones(t, self.win) for t in range(1 << self.win)]
        self.lead = [_leading_ones(t, self.win) for t in range(1 << self.win)]
        self.np_trail = np.array(self.trail, dtype=np.int8)
        self.np_lead = np.array(self.lead, dtype=np.int8)

    # -- library -------------------------------------------------------
    def add_witness(self, bits: Iterable[int]) -> bool:
        """Add a spanning-path witness (builder bit indices, path
        order).  Returns ``False`` for duplicates, unusable paths
        (too short for truncation windows, or skipping a processor that
        can never fail) and when the relevant cap is full."""
        bits = tuple(bits)
        h = len(bits)
        k = self.k
        # sufshift and the endpoint-candidate indices need h >= k+1
        # (pre + suf <= |F| <= k < h, so the truncated ends never
        # cross); position masks must fit one 64-bit lane
        if h < k + 1 or h > 63:
            return False
        key = bits if bits[0] <= bits[-1] else tuple(reversed(bits))
        if key in self._seen:
            return False
        b = self.builder
        req: set[int] = set()
        for bit in range(len(b.procs)):
            if bit not in bits:
                u = self.bit_uidx[bit]
                if u < 0:
                    # the witness skips a processor that is not in the
                    # fault universe: it can never span the survivors
                    return False
                req.add(u)
        on_path = set(bits)
        if len(on_path) != h:
            return False
        w = _Witness()
        w.bits = bits
        w.h = h
        w.req = frozenset(req)
        w.sufshift = h - self.win
        wpos = [-1] * self.U
        for pos, bit in enumerate(bits):
            u = self.bit_uidx[bit]
            if u >= 0:
                wpos[u] = pos
        w.wpos = wpos
        # badrun[r]: interior starts i (1 <= i <= h-1-r) where the chord
        # bridging an exact faulty run [i, i+r-1] is missing
        adj = b.base_adj
        badrun = [0] * (k + 1)
        for r in range(1, k + 1):
            mask = 0
            for i in range(1, h - r):
                if not adj[bits[i - 1]] >> bits[i + r] & 1:
                    mask |= 1 << i
            badrun[r] = mask
        w.badrun = badrun
        # endpoint-candidate attachment: after truncating a faulty
        # prefix of length d the head is bits[d]; symmetric for tails
        uindex = self.uindex
        w.hin_deg, w.hout_deg = [], []
        w.tin_deg, w.tout_deg = [], []
        w.hin_set, w.hout_set = [], []
        w.tin_set, w.tout_set = [], []
        for d in range(k + 1):
            hp, tp = bits[d], bits[h - 1 - d]
            hin, hout = b.in_terms[hp], b.out_terms[hp]
            tin, tout = b.in_terms[tp], b.out_terms[tp]
            w.hin_deg.append(len(hin))
            w.hout_deg.append(len(hout))
            w.tin_deg.append(len(tin))
            w.tout_deg.append(len(tout))
            w.hin_set.append(frozenset(
                uindex[t] for t in hin if t in uindex))
            w.hout_set.append(frozenset(
                uindex[t] for t in hout if t in uindex))
            w.tin_set.append(frozenset(
                uindex[t] for t in tin if t in uindex))
            w.tout_set.append(frozenset(
                uindex[t] for t in tout if t in uindex))
        if w.req:
            if len(self.conditional) >= CONDITIONAL_CAP:
                return False
            self._seen.add(key)
            self.conditional.append(w)
            self._by_req.setdefault(min(w.req), []).append(w)
        else:
            if len(self.general) >= GENERAL_CAP:
                return False
            self._seen.add(key)
            self._build_np(w)
            self.general.append(w)
        return True

    def _build_np(self, w: _Witness) -> None:
        k = self.k
        w.np_wpos = np.array(w.wpos, dtype=np.int32)
        for name, sets in (
            ("np_hin_att", w.hin_set), ("np_hout_att", w.hout_set),
            ("np_tin_att", w.tin_set), ("np_tout_att", w.tout_set),
        ):
            att = np.zeros((k + 1, self.U), dtype=np.int8)
            for d in range(k + 1):
                for u in sets[d]:
                    att[d, u] = 1
            setattr(w, name, att)
        w.np_hin_deg = np.array(w.hin_deg, dtype=np.int32)
        w.np_hout_deg = np.array(w.hout_deg, dtype=np.int32)
        w.np_tin_deg = np.array(w.tin_deg, dtype=np.int32)
        w.np_tout_deg = np.array(w.tout_deg, dtype=np.int32)

    def add_witness_path(self, path: Sequence[Node]) -> bool:
        """Add a witness given as a processor path (nodes, no
        terminals)."""
        index = self.builder.index
        return self.add_witness([index[p] for p in path])

    def diversify(self, policy: SolvePolicy, rounds: int = DIVERSIFY_ROUNDS) -> None:
        """Grow the general library with rotation-extension variants of
        the fault-free instance: distinct spanning paths give the
        vectorized tier independent chances to accept a batch row."""
        inst, in_space = self.builder.instance(())
        if not in_space or inst.trivial is not None:
            return
        index = self.builder.index
        base = (policy.seed or 0) * 1009
        for i in range(rounds):
            report = solve_posa(
                inst,
                restarts=1,
                rotations=4 * inst.h,
                seed=base + 7919 * i + 1,
            )
            if report.status is Status.FOUND:
                self.add_witness([index[p] for p in report.path[1:-1]])

    # -- accept: shared scalar core ------------------------------------
    def _accept_one(self, w: _Witness, row: Sequence[int]) -> bool:
        """The decision procedure for one witness and one fault set
        (universe indices).  The numpy tier is this, vectorized."""
        for r in w.req:
            if r not in row:
                return False
        Q = 0
        wpos = w.wpos
        for u in row:
            p = wpos[u]
            if p >= 0:
                Q |= 1 << p
        pre = self.trail[Q & self.winmask]
        suf = self.lead[Q >> w.sufshift]
        j = len(row)
        A = Q
        badrun = w.badrun
        for r in range(1, j + 1):
            if r > 1:
                A &= Q >> (r - 1)
            if not A:
                break
            exact = A & ~(Q << 1) & ~(Q >> r)
            if exact & badrun[r]:
                return False
        f_hin = f_hout = f_tin = f_tout = 0
        hin_set = w.hin_set[pre]
        hout_set = w.hout_set[pre]
        tin_set = w.tin_set[suf]
        tout_set = w.tout_set[suf]
        for u in row:
            if u in hin_set:
                f_hin += 1
            if u in hout_set:
                f_hout += 1
            if u in tin_set:
                f_tin += 1
            if u in tout_set:
                f_tout += 1
        if w.hin_deg[pre] - f_hin >= 1 and w.tout_deg[suf] - f_tout >= 1:
            return True
        return w.hout_deg[pre] - f_hout >= 1 and w.tin_deg[suf] - f_tin >= 1

    def _accept_np(self, w: _Witness, F: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_accept_one` for a general witness over a
        ``(B, j)`` batch of universe-index rows."""
        j = F.shape[1]
        P = w.np_wpos[F]
        Pc = P.clip(min=0).astype(np.uint64)
        one = np.uint64(1)
        M = np.where(P >= 0, one << Pc, np.uint64(0))
        Q = np.bitwise_or.reduce(M, axis=1)
        pre = self.np_trail[(Q & np.uint64(self.winmask)).astype(np.int64)]
        suf = self.np_lead[(Q >> np.uint64(w.sufshift)).astype(np.int64)]
        ok = np.ones(len(F), dtype=bool)
        A = Q
        for r in range(1, j + 1):
            if r > 1:
                A = A & (Q >> np.uint64(r - 1))
            bad = w.badrun[r]
            if bad:
                exact = A & ~(Q << one) & ~(Q >> np.uint64(r))
                ok &= (exact & np.uint64(bad)) == 0
        f_hin = w.np_hin_att[pre[:, None], F].sum(axis=1)
        f_hout = w.np_hout_att[pre[:, None], F].sum(axis=1)
        f_tin = w.np_tin_att[suf[:, None], F].sum(axis=1)
        f_tout = w.np_tout_att[suf[:, None], F].sum(axis=1)
        fwd = (w.np_hin_deg[pre] - f_hin >= 1) & \
            (w.np_tout_deg[suf] - f_tout >= 1)
        rev = (w.np_hout_deg[pre] - f_hout >= 1) & \
            (w.np_tin_deg[suf] - f_tin >= 1)
        ok &= fwd | rev
        return ok

    def _accept_conditional(self, row: Sequence[int]) -> bool:
        for u in row:
            for w in self._by_req.get(u, ()):
                if self._accept_one(w, row):
                    return True
        return False

    def accept_row(self, row: Sequence[int]) -> bool:
        """Scalar accept: any library witness provably tolerates *row*
        (a tuple of universe indices)."""
        for w in self.general:
            if self._accept_one(w, row):
                return True
        return self._accept_conditional(row)

    def accept_batch(self, rows: np.ndarray) -> np.ndarray:
        """Accept mask for a ``(B, j)`` integer array of same-size
        fault-set rows (universe indices)."""
        B = len(rows)
        acc = np.zeros(B, dtype=bool)
        if rows.shape[1] == 0:
            return acc
        live = np.arange(B)
        Fl = rows
        for w in self.general:
            if not live.size:
                break
            ok = self._accept_np(w, Fl)
            acc[live[ok]] = True
            live = live[~ok]
            Fl = rows[live]
        if self.conditional and live.size:
            leftover = Fl.tolist()
            for idx, row in zip(live.tolist(), leftover):
                if self._accept_conditional(row):
                    acc[idx] = True
        return acc
