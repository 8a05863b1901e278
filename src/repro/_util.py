"""Small internal helpers shared across :mod:`repro` modules."""

from __future__ import annotations

import os
import random
from typing import Iterable, Iterator, Sequence, TypeVar

from .errors import InvalidParameterError

T = TypeVar("T")


def check_positive_int(value: int, name: str, minimum: int = 1) -> int:
    """Validate that *value* is an ``int`` with ``value >= minimum``.

    Returns the value so it can be used inline::

        n = check_positive_int(n, "n")
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidParameterError(f"{name} must be an int, got {value!r}")
    if value < minimum:
        raise InvalidParameterError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_nk(n: int, k: int) -> tuple[int, int]:
    """Validate the paper's global requirement ``n >= 1`` and ``k >= 1``."""
    return check_positive_int(n, "n"), check_positive_int(k, "k")


def as_rng(rng: random.Random | int | None) -> random.Random:
    """Coerce *rng* into a :class:`random.Random` instance.

    ``None`` yields a fresh unseeded generator; an ``int`` seeds a new one;
    an existing generator is passed through.  Keeping randomness behind this
    helper makes every randomized routine in the library reproducible by
    passing an integer seed.
    """
    if rng is None:
        return random.Random()
    if isinstance(rng, random.Random):
        return rng
    if isinstance(rng, int) and not isinstance(rng, bool):
        return random.Random(rng)
    raise InvalidParameterError(f"rng must be None, int, or random.Random, got {rng!r}")


def pairs(seq: Sequence[T]) -> Iterator[tuple[T, T]]:
    """Yield consecutive pairs ``(seq[i], seq[i+1])``."""
    for i in range(len(seq) - 1):
        yield seq[i], seq[i + 1]


def popcount(x: int) -> int:
    """Number of set bits in a non-negative integer."""
    return x.bit_count()


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of *mask* in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices: Iterable[int]) -> int:
    """Bitmask with the given bit indices set."""
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def stable_unique(items: Iterable[T]) -> list[T]:
    """Deduplicate *items* preserving first-seen order."""
    seen: set[T] = set()
    out: list[T] = []
    for item in items:
        if item not in seen:
            seen.add(item)
            out.append(item)
    return out


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # non-Linux
        return os.cpu_count() or 1


def git_sha() -> str | None:
    """``HEAD`` of the git checkout this package runs from; ``None``
    outside a checkout or without a ``git`` binary."""
    import subprocess

    here = os.path.dirname(os.path.abspath(__file__))
    try:
        out = subprocess.run(
            ["git", "-C", here, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def host_meta() -> dict:
    """The host fields both BENCH files record in their ``meta`` block:
    Python version, machine, usable CPUs and git sha."""
    import platform

    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": usable_cpus(),
        "git_sha": git_sha(),
    }
