"""Independent combinatorial ground truth for partition-counting streams.

This module never touches the series engine: counts come from direct dynamic
programming over parts, plus a fast modular path built on the pentagonal-number
recurrence.  Agreement between these counters and the series evaluation of the
corresponding eta quotients is what the verification harness leans on.

``regular_counts(l)`` counts partitions with no part divisible by ``l``;
``bipartition_counts(l, m)`` counts pairs (one ``l``-regular, one ``m``-regular
partition) by total size.  ``coeff_fast`` reproduces the bipartition stream
modulo a prime at indices in the millions: two successive pentagonal-recurrence
inversions give the doubly-inverted Euler product, then the two sparse
pentagonal factors are multiplied in, all O(N*sqrt(N)) time and O(N) memory.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, Union

import numpy as np

EXACT_CAP = 20000  # policy cap for exact-mode tables


@dataclass(frozen=True)
class CountTable:
    """A computed coefficient table.

    ``kind`` is ``"regular"`` (then ``m == 0``) or ``"bipartite"``;
    ``modulus == 0`` means exact counts.  ``values[n]`` is the count at n.
    """

    kind: str
    l: int
    m: int
    n_max: int
    modulus: int
    values: Sequence[int]

    def __post_init__(self):
        if self.kind not in ("regular", "bipartite"):
            raise ValueError(f"unknown table kind {self.kind!r}")
        if len(self.values) != self.n_max + 1:
            raise ValueError("values length must be n_max + 1")

    def __getitem__(self, n: int) -> int:
        if not 0 <= n <= self.n_max:
            raise IndexError(f"index {n} outside table range 0..{self.n_max}")
        return int(self.values[n])

    # -- binary cache ------------------------------------------------------

    _MAGIC = b"QDCT\x01\x00\x00\x00"

    def save(self, path: Union[str, Path]) -> None:
        """Write the table to disk atomically (modular tables only; entries fit int64)."""
        if self.modulus < 2:
            raise ValueError("only modular tables are cacheable")
        kind_code = 0 if self.kind == "regular" else 1
        header = self._MAGIC + struct.pack(
            "<QQQQQ", kind_code, self.l, self.m, self.n_max, self.modulus
        )
        arr = np.asarray(self.values, dtype="<i8")
        path = Path(path)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "wb") as fh:
                fh.write(header)
                fh.write(arr.tobytes())
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CountTable":
        with open(path, "rb") as fh:
            magic = fh.read(8)
            if magic != cls._MAGIC:
                raise ValueError(f"{path}: not a count-table cache file")
            kind_code, l, m, n_max, modulus = struct.unpack("<QQQQQ", fh.read(40))
            data = np.frombuffer(fh.read(), dtype="<i8")
        if len(data) != n_max + 1:
            raise ValueError(f"{path}: truncated cache file")
        kind = "regular" if kind_code == 0 else "bipartite"
        return cls(kind, int(l), int(m), int(n_max), int(modulus), data.astype(np.int64))

    def cache_name(self) -> str:
        return f"{self.kind}-{self.l}-{self.m}-{self.n_max}-m{self.modulus}.qdct"


# ---------------------------------------------------------------------------
# dynamic-programming counters (ground truth)
# ---------------------------------------------------------------------------

def regular_counts(l: int, n_max: int, modulus: int = 0) -> CountTable:
    """Count ``l``-regular partitions (no part divisible by ``l``) for
    ``n = 0..n_max`` by the classic unbounded-parts DP."""
    if l < 2:
        raise ValueError("regularity index must be >= 2")
    if modulus == 0 and n_max > EXACT_CAP:
        raise ValueError(f"exact mode capped at n_max = {EXACT_CAP}")
    counts = [0] * (n_max + 1)
    counts[0] = 1
    for part in range(1, n_max + 1):
        if part % l == 0:
            continue
        for n in range(part, n_max + 1):
            counts[n] += counts[n - part]
        if modulus:
            for n in range(n_max + 1):
                counts[n] %= modulus
    return CountTable("regular", l, 0, n_max, modulus, counts)


def bipartition_counts(l: int, m: int, n_max: int, modulus: int = 0) -> CountTable:
    """Count (l, m)-regular bipartitions: the convolution of the two regular
    tables, since a bipartition splits its total between the two components."""
    if l < 2 or m < 2:
        raise ValueError("both regularity indices must be >= 2")
    if modulus == 0 and n_max > EXACT_CAP:
        raise ValueError(f"exact mode capped at n_max = {EXACT_CAP}")
    a = regular_counts(l, n_max, modulus).values
    b = regular_counts(m, n_max, modulus).values
    if modulus and (modulus - 1) ** 2 * (n_max + 1) < 2**62:
        conv = np.convolve(
            np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        )[: n_max + 1] % modulus
        values: Sequence[int] = conv
    else:
        out = [0] * (n_max + 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j in range(n_max + 1 - i):
                bj = b[j]
                if bj:
                    out[i + j] += ai * bj
        if modulus:
            out = [v % modulus for v in out]
        values = out
    return CountTable("bipartite", l, m, n_max, modulus, values)


# ---------------------------------------------------------------------------
# fast modular path (pentagonal recurrence, blocked for vectorization)
# ---------------------------------------------------------------------------

def _pentagonal_taps(limit: int, scale: int = 1) -> list[tuple[int, int]]:
    """Nonzero exponents (with signs) of the Euler product in ``q^scale``,
    excluding the constant term: pairs ``(scale*g_k, (-1)^k)``."""
    if scale < 1:
        raise ValueError(f"pentagonal scale must be >= 1, got {scale}")
    taps = []
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        if scale * g1 > limit:
            break
        sign = -1 if k % 2 else 1
        taps.append((scale * g1, sign))
        g2 = k * (3 * k + 1) // 2
        if scale * g2 <= limit:
            taps.append((scale * g2, sign))
        k += 1
    return taps


def _invert_euler(n_max: int, p: int, seed: np.ndarray | None = None,
                  block: int = 1024) -> np.ndarray:
    """Solve ``u * f = seed`` mod p where f is the Euler product (f_1).

    With ``seed = delta_0`` this yields the unrestricted partition numbers;
    feeding the result back in as the new seed gives the two-color counts.
    The recurrence is the pentagonal one; blocks let numpy do the long-range
    tap accumulation while a small in-block convolution resolves the local
    dependencies.
    """
    taps = _pentagonal_taps(n_max)
    u = np.zeros(n_max + 1, dtype=np.int64)
    rhs0 = 1 if seed is None else int(seed[0]) % p
    u[0] = rhs0
    # bootstrap block: plain sequential recurrence
    head = min(block, n_max + 1)
    for n in range(1, head):
        acc = int(seed[n]) if seed is not None else 0
        for g, s in taps:
            if g > n:
                break
            acc -= s * u[n - g]
        u[n] = acc % p
    if seed is None:
        inv_head = u[:head].copy()
    else:
        # the in-block solve always convolves against 1/f_1 itself
        inv_head = _invert_euler(head - 1, p, block=block)
    t0 = head
    while t0 <= n_max:
        t1 = min(t0 + block, n_max + 1)
        width = t1 - t0
        r = np.zeros(width, dtype=np.int64)
        if seed is not None:
            r += seed[t0:t1]
        for g, s in taps:
            lo, hi = t0 - g, t1 - g
            src_lo, src_hi = max(lo, 0), min(hi, t0)
            if src_hi > src_lo:
                if s > 0:
                    r[src_lo - lo : src_hi - lo] -= u[src_lo:src_hi]
                else:
                    r[src_lo - lo : src_hi - lo] += u[src_lo:src_hi]
        r %= p
        blockval = np.convolve(inv_head[:width], r)[:width] % p
        u[t0:t1] = blockval
        t0 = t1
    return u


def _sparse_eta_mult(v: np.ndarray, k: int, p: int) -> np.ndarray:
    """Multiply a dense mod-p array by the sparse pentagonal factor ``f_k``."""
    n_max = len(v) - 1
    out = v.copy()
    for g, s in _pentagonal_taps(n_max, scale=k):
        if s > 0:
            out[g:] += v[: n_max + 1 - g]
        else:
            out[g:] -= v[: n_max + 1 - g]
    return out % p


# int64 headroom: the in-block convolution sums up to block_size * (p-1)^2,
# so 1024 * (2^26)^2 = 2^62 is the safe ceiling
FAST_MOD_CAP = 1 << 26


def coeff_fast(l: int, m: int, n_max: int, p: int) -> CountTable:
    """Bipartition counts mod a prime via the sparse pentagonal machinery.

    Agrees with :func:`bipartition_counts` everywhere both are computed.
    """
    if not 2 <= p <= FAST_MOD_CAP:
        raise ValueError(f"coeff_fast needs a modulus in [2, {FAST_MOD_CAP}]")
    u = _invert_euler(n_max, p)           # 1 / f_1
    v = _invert_euler(n_max, p, seed=u)   # 1 / f_1^2
    w = _sparse_eta_mult(v, l, p)
    w = _sparse_eta_mult(w, m, p)
    return CountTable("bipartite", l, m, n_max, p, w)


def regular_coeff_fast(l: int, n_max: int, p: int) -> CountTable:
    """Regular-partition counts mod a prime by the same sparse machinery."""
    if not 2 <= p <= FAST_MOD_CAP:
        raise ValueError(f"regular_coeff_fast needs a modulus in [2, {FAST_MOD_CAP}]")
    u = _invert_euler(n_max, p)
    w = _sparse_eta_mult(u, l, p)
    return CountTable("regular", l, 0, n_max, p, w)
