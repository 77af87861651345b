"""Independent combinatorial ground truth for partition-counting streams.

This module uses no code from the series engine.  Agreement between its counts
and the series evaluation of the corresponding eta quotients is what the
verification harness leans on.

``regular_counts(l)`` counts partitions with no part divisible by ``l``;
``bipartition_counts(l, m)`` counts pairs (one ``l``-regular, one ``m``-regular
partition) by total size.  Both run one dynamic program over parts: the
bipartition generating function is the product of the two regular ones, so the
parts of both regularities are added into one array.

``coeff_fast`` and ``regular_coeff_fast`` reproduce the same streams modulo a
prime at indices in the millions.  Starting from 1, they divide by the Euler
product f_1 once per regularity (the pentagonal recurrence, blocked so numpy
does the long-range work), then multiply in each sparse factor f_l: O(N*sqrt(N))
time and O(N) memory.

:class:`TableCache` builds the tables a run needs by that fast path and, given
a directory, reuses and saves ``*.qdct`` files there.  A file is chosen by its
header alone (stream, modulus, range); its name plays no part.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

EXACT_CAP = 20000  # policy cap for exact-mode tables


@dataclass(frozen=True)
class SourceSpec:
    """Which coefficient stream a family reads: regular b_l or bipartite B_{l,m}."""

    kind: str  # "regular" | "bipartite"
    l: int
    m: int = 0

    def describe(self) -> str:
        if self.kind == "regular":
            return f"b_{self.l}"
        return f"B_{{{self.l},{self.m}}}"


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
    def _read_header(cls, fh, path) -> tuple[str, int, int, int, int]:
        """``(kind, l, m, n_max, modulus)`` from the 48-byte file header."""
        head = fh.read(48)
        if len(head) != 48 or head[:8] != cls._MAGIC:
            raise ValueError(f"{path}: not a count-table cache file")
        kind_code, l, m, n_max, modulus = struct.unpack("<QQQQQ", head[8:])
        if kind_code > 1:
            raise ValueError(f"{path}: unknown table kind code {kind_code}")
        return ("regular", "bipartite")[kind_code], l, m, n_max, modulus

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CountTable":
        with open(path, "rb") as fh:
            kind, l, m, n_max, modulus = cls._read_header(fh, path)
            data = np.frombuffer(fh.read(), dtype="<i8")
        if len(data) != n_max + 1:
            raise ValueError(f"{path}: truncated cache file")
        return cls(kind, int(l), int(m), int(n_max), int(modulus), data.astype(np.int64))

    def cache_name(self) -> str:
        return f"{self.kind}-{self.l}-{self.m}-{self.n_max}-m{self.modulus}.qdct"


# ---------------------------------------------------------------------------
# dynamic-programming counters (ground truth)
# ---------------------------------------------------------------------------

def _dp(regularities: Sequence[int], n_max: int, modulus: int) -> list[int]:
    """Unbounded-parts DP for the product over ``l`` of the l-regular
    generating functions: every part not divisible by ``l``, for each ``l``."""
    if min(regularities) < 2:
        raise ValueError("regularity indices must be >= 2")
    if modulus == 0 and n_max > EXACT_CAP:
        raise ValueError(f"exact mode capped at n_max = {EXACT_CAP}")
    counts = [1] + [0] * n_max
    for l in regularities:
        for part in range(1, n_max + 1):
            if part % l == 0:
                continue
            for n in range(part, n_max + 1):
                counts[n] += counts[n - part]
            if modulus:
                counts = [c % modulus for c in counts]
    return counts


def regular_counts(l: int, n_max: int, modulus: int = 0) -> CountTable:
    """Count ``l``-regular partitions (no part divisible by ``l``) for
    ``n = 0..n_max``."""
    return CountTable("regular", l, 0, n_max, modulus, _dp((l,), n_max, modulus))


def bipartition_counts(l: int, m: int, n_max: int, modulus: int = 0) -> CountTable:
    """Count (l, m)-regular bipartitions: pairs of an l-regular and an
    m-regular partition, by total size."""
    return CountTable("bipartite", l, m, n_max, modulus, _dp((l, m), n_max, modulus))


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


def _divide_by_euler(rhs: np.ndarray, p: int, block: int = 1024) -> np.ndarray:
    """Solve ``u * f_1 = rhs`` mod p, where f_1 is the Euler product.

    The recurrence is the pentagonal one.  Block by block, numpy subtracts the
    taps that reach back before the block; convolving the rest with 1/f_1
    (computed once, sequentially, on the first block) resolves the taps inside it.
    """
    n_max = len(rhs) - 1
    taps = _pentagonal_taps(n_max)
    inv_head = np.zeros(min(block, n_max + 1), dtype=np.int64)
    inv_head[0] = 1
    for n in range(1, len(inv_head)):
        acc = 0
        for g, s in taps:
            if g > n:
                break
            acc -= s * inv_head[n - g]
        inv_head[n] = acc % p
    u = np.zeros(n_max + 1, dtype=np.int64)
    for t0 in range(0, n_max + 1, block):
        t1 = min(t0 + block, n_max + 1)
        r = rhs[t0:t1].copy()
        for g, s in taps:
            lo, hi = t0 - g, t1 - g
            src_lo, src_hi = max(lo, 0), min(hi, t0)
            if src_hi > src_lo:
                if s > 0:
                    r[src_lo - lo : src_hi - lo] -= u[src_lo:src_hi]
                else:
                    r[src_lo - lo : src_hi - lo] += u[src_lo:src_hi]
        r %= p
        u[t0:t1] = np.convolve(inv_head[: t1 - t0], r)[: t1 - t0] % p
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


def _fast(regularities: Sequence[int], n_max: int, p: int) -> np.ndarray:
    """The product over ``l`` of ``f_l / f_1``, mod p, to ``n_max``."""
    if not 2 <= p <= FAST_MOD_CAP:
        raise ValueError(f"the fast path needs a modulus in [2, {FAST_MOD_CAP}]")
    w = np.zeros(n_max + 1, dtype=np.int64)
    w[0] = 1
    for _ in regularities:
        w = _divide_by_euler(w, p)
    for l in regularities:
        w = _sparse_eta_mult(w, l, p)
    return w


def coeff_fast(l: int, m: int, n_max: int, p: int) -> CountTable:
    """Bipartition counts mod a prime via the sparse pentagonal machinery.

    Agrees with :func:`bipartition_counts` everywhere both are computed.
    """
    return CountTable("bipartite", l, m, n_max, p, _fast((l, m), n_max, p))


def regular_coeff_fast(l: int, n_max: int, p: int) -> CountTable:
    """Regular-partition counts mod a prime by the same sparse machinery."""
    return CountTable("regular", l, 0, n_max, p, _fast((l,), n_max, p))


# ---------------------------------------------------------------------------
# table cache
# ---------------------------------------------------------------------------

class TableCache:
    """Fast-path tables for one run, kept in memory and, with a cache
    directory, reused from and saved to ``*.qdct`` files there."""

    def __init__(self, cache_dir: Optional[Union[str, Path]]):
        self.cache_dir = Path(cache_dir) if cache_dir else None
        if self.cache_dir:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._tables: dict[tuple[SourceSpec, int], CountTable] = {}

    def _from_disk(self, spec: SourceSpec, p: int, order: int) -> Optional[CountTable]:
        """Smallest cached table for this stream covering ``order``.  Only the
        headers are read to choose; the chosen file's header is checked again
        after it is loaded."""
        if not self.cache_dir:
            return None
        want = (spec.kind, spec.l, spec.m, p)
        candidates = []
        for path in self.cache_dir.glob("*.qdct"):
            try:
                with open(path, "rb") as fh:
                    kind, l, m, n_max, modulus = CountTable._read_header(fh, path)
            except (ValueError, OSError):
                continue
            if (kind, l, m, modulus) == want and n_max >= order:
                candidates.append((n_max, path))
        for _, path in sorted(candidates):
            try:
                table = CountTable.load(path)
            except (ValueError, OSError):
                continue
            if (table.kind, table.l, table.m, table.modulus) == want and table.n_max >= order:
                return table
        return None

    def get(self, spec: SourceSpec, p: int, order: int) -> CountTable:
        """The table of stream ``spec`` mod ``p`` covering ``0..order``."""
        key = (spec, p)
        table = self._tables.get(key)
        if table is not None and table.n_max >= order:
            return table
        table = self._from_disk(spec, p, order)
        if table is None:
            if spec.kind == "bipartite":
                table = coeff_fast(spec.l, spec.m, order, p)
            else:
                table = regular_coeff_fast(spec.l, order, p)
            if self.cache_dir:
                table.save(self.cache_dir / table.cache_name())
        self._tables[key] = table
        return table
