"""Vectorized witness kernel for the exhaustive sweep.

The warm sweep (:mod:`repro.core.verify.warm`) decides fault sets one at
a time: patch the instance, try to splice the previous witness, fall
back to a solver.  Per-set Python overhead — not solver work — is what
bounds it: on the dense construction graphs >95% of fault sets are
decided by a splice whose *logic* is a handful of bitmask tests.

This module hoists those tests out of the per-set loop and runs them as
numpy matrix ops over whole *batches* of fault sets at once.  A
**witness library** holds spanning paths found during the sweep.  Every
library witness is stacked into kernel-level tables indexed by witness
id (path position per node, run-bridge chords, candidate endpoint
processors), and a batch of fault sets — a ``(B, j)`` matrix of
node indices in revolving-door order — is accepted row by row when some
witness provably adapts to the set.  Only the *residue* (sets no library
witness provably tolerates) falls back to the scalar warm path, which
also grows the library as it solves.

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

One vectorized evaluator decides ``(row, witness)`` pairs for both
tiers of :meth:`WitnessKernel.accept_batch`.  The general tier pairs the
live rows with one general witness at a time and drops accepted rows;
the conditional tier pairs each leftover row only with the conditional
witnesses whose required set is a subset of it, found through an exact
required-set index.  Rows are evaluated in blocks of :data:`ROW_BLOCK`,
which bounds the pair temporaries whatever the chunk size.

The sweep that drives the kernel is
:func:`~repro.core.verify.parallel.verify_exhaustive_parallel`: its
chunk worker runs one Gray-rank range through
:meth:`WitnessKernel.accept_batch` and decides the residue with a
:class:`~repro.core.verify.warm.WitnessSweeper` in rank order.
:meth:`WitnessKernel.accept_row` is the same decision procedure in
plain Python, one witness at a time: the oracle the vectorized kernel
is tested against.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Hashable, Iterable, Sequence

import numpy as np

from ..hamilton import (
    IncrementalInstanceBuilder,
    SolvePolicy,
    Status,
    solve_posa,
)
from ..model import PipelineNetwork

Node = Hashable

#: full-coverage witnesses, tried one at a time on the live rows.
GENERAL_CAP = 24
#: residue-grown witnesses (usable only for supersets of the fault set
#: that produced them), paired with the leftover rows that contain
#: their required set.
CONDITIONAL_CAP = 4096
#: Pósa rotation attempts used to diversify the general library at
#: sweep start; distinct paths multiply single-witness coverage.
DIVERSIFY_ROUNDS = 12
#: refuse to materialize revolving-door index arrays above this many
#: elements (rows x width); larger sweeps stream through the unranking
#: generator instead.
GRAY_ELEMENT_CAP = 80_000_000
#: rows :meth:`WitnessKernel.accept_batch` evaluates at once: bounds the
#: ``(row, witness)`` pair temporaries for any chunk size.
ROW_BLOCK = 8192
#: required-set keys are int64 radix numbers; a kernel whose largest key
#: would not fit keeps no conditional witnesses.
KEY_LIMIT = 1 << 63

_GRAY_CACHE: dict[tuple[int, int], np.ndarray] = {}
_GRAY_CACHE_MAX = 8

#: ``_POSBIT[p]`` is the bit of path position ``p``; ``_POSBIT[-1]`` (a
#: node off the path) is 0.  Paths are at most 63 positions long.
_POSBIT = np.array([1 << p for p in range(63)] + [0], dtype=np.uint64)


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


def _any_alive(tab: np.ndarray, procs: np.ndarray, alive: np.ndarray) -> np.ndarray:
    """Per pair: processor ``procs[i]`` has an attached terminal in the
    bitset ``alive[:, i]`` (*tab* and *alive* are word-major)."""
    hit = (tab[0].take(procs) & alive[0]) != 0
    for i in range(1, len(tab)):
        hit |= (tab[i].take(procs) & alive[i]) != 0
    return hit


class _Witness:
    """One library witness: a spanning path of the healthy processors,
    as builder bit indices in path order, with the scalar tables
    :meth:`WitnessKernel._accept_one` reads; ``wid`` is its row in the
    kernel's stacked tables."""

    __slots__ = ("bits", "req", "wid", "wpos", "badrun", "sufshift")


class WitnessKernel:
    """Vectorized accept tests over a witness library.

    ``universe`` is the repr-sorted fault universe (the order
    :func:`~repro.core.verify.exhaustive.iter_fault_sets_gray` walks);
    fault sets are presented as rows of universe indices.  ``k`` is the
    largest fault-set size the kernel is asked about: it sizes the
    run-length window and the per-length tables.  ``general`` witnesses
    span every processor; ``conditional`` witnesses (grown from residue
    solves under fault sets with processor faults) only apply to
    supersets of the faults they were found under.
    """

    def __init__(
        self,
        network: PipelineNetwork,
        universe: Sequence[Node],
        k: int,
    ) -> None:
        self.network = network
        self.k = k
        self.universe = list(universe)
        self.U = len(self.universe)
        self.uindex = {v: u for u, v in enumerate(self.universe)}
        self.builder = b = IncrementalInstanceBuilder(network)
        #: universe index of each processor bit (-1: outside the universe)
        self.bit_uidx = [
            self.uindex.get(p, -1) for p in self.builder.procs
        ]
        self.general: list[_Witness] = []
        self.conditional: list[_Witness] = []
        self._seen: set[tuple[int, ...]] = set()
        # run-length LUTs over a (k+1)-bit window; fault sets carry at
        # most k bits so runs never fill the window
        self.win = k + 1
        self.winmask = (1 << self.win) - 1
        self.trail = [_trailing_ones(t, self.win) for t in range(1 << self.win)]
        self.lead = [_leading_ones(t, self.win) for t in range(1 << self.win)]
        self.np_trail = np.array(self.trail, dtype=np.int8)
        self.np_lead = np.array(self.lead, dtype=np.int8)
        # terminal attachment per processor bit: the universe indices of
        # its input/output terminals and their total counts (terminals
        # outside the universe never fail) for the scalar oracle; for
        # the vectorized tier, bitsets over the universe's terminals
        # plus one bit for "has a terminal outside the universe"
        uindex = self.uindex
        self._in_set = [
            frozenset(uindex[t] for t in ts if t in uindex) for ts in b.in_terms
        ]
        self._out_set = [
            frozenset(uindex[t] for t in ts if t in uindex) for ts in b.out_terms
        ]
        self._in_deg = [len(ts) for ts in b.in_terms]
        self._out_deg = [len(ts) for ts in b.out_terms]
        terms = [u for u, v in enumerate(self.universe) if v in network.terminals]
        tbit = {u: 1 << i for i, u in enumerate(terms)}
        outside = 1 << len(terms)
        words = len(terms) // 64 + 1

        def word_major(masks: list[int]) -> np.ndarray:
            return np.array(
                [[m >> 64 * i & (1 << 64) - 1 for m in masks]
                 for i in range(words)],
                dtype=np.uint64,
            )

        def attached(sets: list[frozenset], degs: list[int]) -> np.ndarray:
            return word_major([
                sum(tbit[u] for u in ts) | (outside if d > len(ts) else 0)
                for ts, d in zip(sets, degs)
            ])

        self._termbits = word_major([tbit.get(u, 0) for u in range(self.U)])
        self._in_att = attached(self._in_set, self._in_deg)
        self._out_att = attached(self._out_set, self._out_deg)
        # stacked per-witness tables, indexed by witness id: path
        # position per universe node, suffix shift, missing-chord masks
        # per run length, and the head/tail processor after truncating
        # d faulty end positions
        self._pos = np.zeros((0, self.U), dtype=np.int8)
        self._shift = np.zeros(0, dtype=np.uint64)
        self._badrun = np.zeros((0, self.win), dtype=np.uint64)
        self._ends = np.zeros((0, 2, self.win), dtype=np.int16)
        # exact required-set index: radix base U+1 over ascending
        # universe indices gives every set of at most k indices its own
        # key, when the largest key fits int64
        self._radix = self.U + 1
        self._keyed = self._radix ** k < KEY_LIMIT
        self._req_keys: list[int] = []
        self._index: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._max_req = 0
        self._coef: dict[tuple[int, int], np.ndarray] = {}

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
        on_path = set(bits)
        if len(on_path) != h:
            return False
        b = self.builder
        req: list[int] = []
        for bit in range(len(b.procs)):
            if bit not in on_path:
                u = self.bit_uidx[bit]
                if u < 0:
                    # the witness skips a processor that is not in the
                    # fault universe: it can never span the survivors
                    return False
                req.append(u)
        if req:
            # a required set wider than k fits no row, and without int64
            # keys the kernel keeps no conditional witnesses
            if (
                len(req) > k
                or not self._keyed
                or len(self.conditional) >= CONDITIONAL_CAP
            ):
                return False
        elif len(self.general) >= GENERAL_CAP:
            return False
        w = _Witness()
        w.bits = bits
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
        self._seen.add(key)
        w.wid = wid = len(self.general) + len(self.conditional)
        if wid == len(self._pos):
            cap = min(max(64, 2 * wid), GENERAL_CAP + CONDITIONAL_CAP)
            for name in ("_pos", "_shift", "_badrun", "_ends"):
                old = getattr(self, name)
                new = np.zeros((cap,) + old.shape[1:], dtype=old.dtype)
                new[:wid] = old
                setattr(self, name, new)
        self._pos[wid] = wpos
        self._shift[wid] = w.sufshift
        self._badrun[wid] = badrun
        # after truncating a faulty prefix of length d the head is
        # bits[d]; symmetric for tails
        self._ends[wid] = (bits[: k + 1], bits[::-1][: k + 1])
        if req:
            self.conditional.append(w)
            self._req_keys.append(sum(
                (u + 1) * self._radix ** i for i, u in enumerate(sorted(req))
            ))
            self._max_req = max(self._max_req, len(req))
            self._index = None
        else:
            self.general.append(w)
        return True

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

    # -- accept: the scalar oracle ---------------------------------------
    def _accept_one(self, w: _Witness, row: Sequence[int]) -> bool:
        """The decision procedure for one witness and one fault set
        (universe indices).  :meth:`_accept_pairs` is this, vectorized."""
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
        head, tail = w.bits[pre], w.bits[-1 - suf]
        f_hin = f_hout = f_tin = f_tout = 0
        hin_set = self._in_set[head]
        hout_set = self._out_set[head]
        tin_set = self._in_set[tail]
        tout_set = self._out_set[tail]
        for u in row:
            if u in hin_set:
                f_hin += 1
            if u in hout_set:
                f_hout += 1
            if u in tin_set:
                f_tin += 1
            if u in tout_set:
                f_tout += 1
        in_deg, out_deg = self._in_deg, self._out_deg
        if in_deg[head] - f_hin >= 1 and out_deg[tail] - f_tout >= 1:
            return True
        return out_deg[head] - f_hout >= 1 and in_deg[tail] - f_tin >= 1

    def accept_row(self, row: Sequence[int]) -> bool:
        """Scalar accept, the oracle for :meth:`accept_batch`: any
        library witness provably tolerates *row* (a sequence of universe
        indices)."""
        return any(
            self._accept_one(w, row) for w in self.general + self.conditional
        )

    # -- accept: vectorized ----------------------------------------------
    def _accept_pairs(
        self,
        cols: np.ndarray,
        alive: np.ndarray,
        ri: np.ndarray,
        wid: int | np.ndarray,
    ) -> np.ndarray:
        """Decide ``(row, witness)`` pairs: pair ``i`` is row ``ri[i]``
        of the ``(j, B)`` column-major block *cols* against witness id
        ``wid[i]``, or against ``wid`` for every pair when it is one id.
        ``alive[:, r]`` is the bitset of terminals row ``r`` leaves
        healthy.  The caller guarantees each witness's required set is
        in its row; everything else :meth:`_accept_one` checks is
        checked here."""
        wid = np.reshape(wid, -1)
        F = cols.take(ri, axis=1)
        Q = np.bitwise_or.reduce(
            _POSBIT.take(self._pos.take(F + wid * self.U)), axis=0
        )
        pre = self.np_trail.take((Q & np.uint64(self.winmask)).astype(np.intp))
        suf = self.np_lead.take((Q >> self._shift.take(wid)).astype(np.intp))
        # interior runs: bit i of A & (N >> r) starts an exact faulty
        # run of length r; bridged unless badrun[r] marks it
        N = ~Q
        bad = np.zeros_like(Q)
        A = Q
        base = wid * self.win
        for r in range(1, len(F) + 1):
            if r > 1:
                A = A & (Q >> np.uint64(r - 1))
                if not A.any():
                    break
            bad |= A & (N >> np.uint64(r)) & self._badrun.take(base + r)
        ok = (bad & ~(Q << np.uint64(1))) == 0
        # the truncated endpoints must keep a healthy input at one end
        # and a healthy output at the other
        head = self._ends.take(2 * base + pre)
        tail = self._ends.take(2 * base + self.win + suf)
        a = alive.take(ri, axis=1)
        ok &= (
            _any_alive(self._in_att, head, a) & _any_alive(self._out_att, tail, a)
        ) | (
            _any_alive(self._out_att, head, a) & _any_alive(self._in_att, tail, a)
        )
        return ok

    def _conditional_pairs(
        self, cols: np.ndarray, live: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ``(row, conditional witness)`` pairs whose required set is
        a subset of the row, for rows *live* of the column-major block
        *cols*: each row's column subsets are keyed like required sets
        and looked up in the library's sorted distinct keys."""
        if self._index is None:
            keys = np.array(self._req_keys, dtype=np.int64)
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            first = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
            wids = np.array([w.wid for w in self.conditional])[order]
            self._index = (keys[first], np.r_[first, len(keys)], wids)
        ukeys, bounds, wids = self._index
        rows = np.sort(cols.take(live, axis=1), axis=0).astype(np.int64) + 1
        K = self._subset_coef(len(cols)) @ rows
        at = np.minimum(np.searchsorted(ukeys, K), len(ukeys) - 1)
        s, r = np.nonzero(ukeys[at] == K)
        g = at[s, r]
        start = bounds[g]
        count = bounds[g + 1] - start
        # expand each hit to its key's run of witness ids
        offs = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
        return live[np.repeat(r, count)], wids[np.repeat(start, count) + offs]

    def _subset_coef(self, j: int) -> np.ndarray:
        """``(S, j)`` radix weights: ``coef @ (rows + 1)`` keys the
        ``S`` column subsets of ascending column-major *rows* that are
        no wider than the widest required set."""
        m = min(j, self._max_req)
        coef = self._coef.get((j, m))
        if coef is None:
            subsets = []
            for size in range(1, m + 1):
                for combo in combinations(range(j), size):
                    weights = [0] * j
                    for i, c in enumerate(combo):
                        weights[c] = self._radix ** i
                    subsets.append(weights)
            coef = self._coef[(j, m)] = np.array(subsets, dtype=np.int64)
        return coef

    def accept_batch(self, rows: np.ndarray) -> np.ndarray:
        """Accept mask for a ``(B, j)`` integer array of same-size
        fault-set rows (universe indices)."""
        B = len(rows)
        acc = np.zeros(B, dtype=bool)
        if rows.shape[1] == 0:
            return acc
        for s in range(0, B, ROW_BLOCK):
            cols = rows[s : s + ROW_BLOCK].T.copy()
            alive = ~np.bitwise_or.reduce(
                self._termbits.take(cols, axis=1), axis=1
            )
            live = np.arange(cols.shape[1])
            for w in self.general:
                if not live.size:
                    break
                ok = self._accept_pairs(cols, alive, live, w.wid)
                acc[s + live[ok]] = True
                live = live[~ok]
            if self.conditional and live.size:
                ri, wid = self._conditional_pairs(cols, live)
                ok = self._accept_pairs(cols, alive, ri, wid)
                acc[s + ri[ok]] = True
        return acc
