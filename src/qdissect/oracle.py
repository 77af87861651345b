"""Independent combinatorial ground truth for partition-counting streams.

This module uses no code from the series engine.  Agreement between its counts
and the series evaluation of the corresponding eta quotients is what the
verification harness leans on.

A stream is named by one :class:`SourceSpec`: the regular b_l counts
partitions with no part divisible by ``l``, the bipartite B_{l,m} counts pairs
(one ``l``-regular, one ``m``-regular partition) by total size.  Its
``regularities`` are ``(l,)`` or ``(l, m)``, and both builders take the spec.
:func:`dp_counts` runs one dynamic program over parts: the bipartition
generating function is the product of the two regular ones, so the parts of
both regularities are added into one array.

:func:`tables` reproduces the same streams modulo any p in [2, 2^26], prime
or not, at indices in the millions, in O(N log N) time.  A stream is
prod_l f_l / f_1^r, where f_k = prod_j (1 - q^(kj)) and r is the number of
its regularities.  A batch's streams are packed into groups of pairwise
coprime moduli, and each group is one division mod the product P of its
moduli.  Its denominator is D = f_1^R, R the largest r among its members,
and member i's numerator is N_i = prod_l f_l * f_1^(R - r): b_17 beside a
bipartite stream is f_17 f_1 / f_1^2.  Both are exact products of sparse
series, each f_k given by the taps of Euler's pentagonal number theorem
(about 4.4e6 tap pairs for f_1^2 at 1.65M, and no FFT).  N_i is reduced mod
P as it is summed, and built to its member's own order n_i, times e_i,
where e_i = 1 mod p_i and e_i = 0 mod the other moduli; the group's
numerator is N = sum_i e_i N_i mod P.  D is built once per batch for each
R, over Z, to the top order of the groups that divide by it
(``_denominators``), in a dtype that a bound on its partial sums proves wide
enough, and held as the narrowest signed dtype that holds its entries, read
from them: f_1^2 has entries of at most 18 in size to 1.65M and 32 to 3e7,
so it takes int8, the bytes of one table mod a one-byte P.  Each group
reduces it mod its own P.  One division N/D to q^n, n the largest n_i,
follows (Karp and Markstein, ACM TOMS 23, 1997):

  - Newton's iteration g <- g*(2 - D*g), which doubles the number of correct
    terms per step, gives g = 1/D to h = ceil((n+1)/2) terms only, through
    lengths halved from h down (h, ceil(h/2), ...);
  - y = N*g mod q^h is the low half of the quotient;
  - the high half is g times the remainder (N - D*y) / q^h, to n - h + 1
    terms.

That is the half-length inverse (about 1.4 products of full length) and three
products: two of half length and D*y, full length by half; about 3.2 full
products in all, for a regular table as for a bipartite one, and for a group
as for one stream.

The quotient mod p_i is member i's table through q^(n_i).  By the Chinese
remainder theorem Z/P is the product of the rings Z/p_i, and N = N_i mod p_i
through q^(n_i); coefficient k of a quotient depends on the numerator and the
denominator only through q^k.  The division needs only D[0] = 1, a unit mod
any P, and each product is exact mod any P under the bound below.
:func:`coeff_fast` is the group of one stream, with P = p and R = r: a
regular stream is f_l / f_1, a bipartite one f_l f_m / f_1^2.  Nothing here
relies on the congruence f_p = f_1^p (mod p), on a Jacobi identity or on any
identity of the catalog.

The packing (``_coprime_groups``) adds no knob.  A stream joins a group only
if its modulus p is coprime to P, P*p keeps the dtype of the members' tables,
and one limb keeps the products mod P*p exact to the group's top order.  So a
group's arrays are as wide as a lone build's: only moduli of one byte share a
division.  The packing is first-fit decreasing on the modulus: each modulus's
longest stream, largest modulus first, then the other streams, longest first.
The eight streams of ``verify --suite families`` make four groups: B_{3,7},
B_{9,5} and B_{5,11} mod 231 to 1,652,053; b_17 and B_{5,13} mod 221 to
1,288,874; B_{3,11} and B_{81,17} mod 187; B_{2,8} mod 11 alone.  All four
divide by f_1^2, built once.  They take 3,284 transforms (forward and
inverse), where eight lone builds take 6,715.

Every product is a truncated product mod p (``_mulmod``), of which the
caller may ask only the coefficients from ``lo`` on.  Residues are taken in
balanced form, |x| <= p/2, and cut into blocks of a power-of-two length B, at
most 32 over the n + 1 coefficients of the product and at least 1024 long, so
a product of up to 1024 coefficients is one block: two forward transforms
and one inverse.  That floor keeps Newton's early steps, and the whole of a
small table, from cutting a few terms into 32 tiny blocks.  A block is
transformed by a float64 real FFT of length 2B.  Along each diagonal d the
spectral products A_i * B_(d-i) are summed, one inverse transform follows, its
outputs are rounded to integers, and its upper half is carried into block
d + 1.

  - Window: a block's spectrum is computed when the first diagonal that uses
    it is reached, and dropped after the last.
  - ``lo``: the diagonals below the one under ``lo`` are skipped, as they
    carry nothing into the coefficients wanted.  The division asks for D*y
    from h on, since its low half is N's, and Newton's step for f*g from k
    on, since f*g = 1 + O(q^k).
  - Split: the shorter operand is cut at a block boundary near its middle,
    b = b_lo + q^k * b_hi, and the two halves are multiplied one after the
    other.  A pass then holds the spectra of about as many blocks as the
    product has output blocks, 16 bytes per output coefficient.  For the
    (3,7) table to 1,652,053 the division's traced peak (spectra, transforms
    and arrays) is 23.5 MB, in D*y, against 58 MB with the spectra of whole
    operands.
  - Newton's f*g is not split.  Its one pass from lo = k transforms each
    block of f once and holds the spectra of all of g's blocks and as many
    of f's: since the top-down lengths make g about half of f, that is about
    as many blocks as f has, and the last step of the (3,7) division peaks
    at 21.2 MB, under D*y.
  - Hand-off: the b_hi pass runs first, and at lo = 0 the b_lo pass starts
    from the spectra of a's whole blocks that it still holds, so a block of
    a is transformed once.  A block cut short by the b_hi pass's shorter
    range has another spectrum, and is not handed on.  At lo > 0 the b_lo
    pass starts with a full window of its own, and handed-on spectra would
    wait beside it, so none are; D*y, the division's largest product, is
    such a one.  The (3,7) table to 1,652,053 takes 1,269 transforms; with
    Newton's f*g split and its lengths doubled from 1 it took 1,610, and
    3,922 without the floor and the hand-off as well.

Exactness.  Every product obeys Percival's bound on a float64 FFT
convolution, behind the rounding guard; both live in ``_fftbound``, which
the series engine's wide exact products share.  By Cauchy-Schwarz the sum
over a diagonal of ||A_i|| * ||B_(d-i)|| is at most ||a|| * ||b|| <=
(n+1) * h^2 when every entry is at most h in size, so ``_error_bound`` is
taken with T the number of blocks.  A pass of a split product uses the same
B and limbs; each of its diagonals sums fewer terms, from parts of the
operands, so the bound holds for it too.  ``_limb_bits`` then splits the
operands into balanced limbs of s bits, with h = 2^(s-1), just narrow enough
that (n+1) * h^2 times the factor is at most 1/4 (``_max_digit`` of one
pair), so every rounded output is the exact integer.  One limb (h = p/2)
covers every catalog stream, and every group's P < 256 to 2.5e7: for (81,17)
mod 17 to 2.5e7 the bound is 5.2e-5, and mod 255 it would be 0.013.  A
modulus near 2^26 needs two limbs at n = 300 and three at n = 1e6.
The guard (``_rounded``) runs on every output of every diagonal computed.
The exact integers, below 2^53 in size, are reduced mod p in float64 as
x - floor(x/p) * p.  Tables are held as the smallest unsigned dtype that
holds p - 1, whether built, loaded or on disk.

:func:`tables` builds a batch's groups on ``jobs`` threads, the group with the
longest stream first; the FFTs and the large element-wise loops release the
GIL.  The sparse pentagonal products hold it for most of their time, in one
small numpy call per tap of every factor after the first (the first factor's
taps go in with one call).  The largest of them, f_1^2 (2,100 taps at
1.65M), is the denominator, built once on the calling thread before the
pool starts; only the numerators, one per member, are built on the pool.
Given a directory, each (stream, modulus) has one ``*.qdct`` file there,
named by :meth:`SourceSpec.cache_name`.  The file is served only if its
CRC32 passes and its header names the same stream and modulus with a range
that covers the order; anything else is a miss, and the table is built and
saved over that name, through a temporary file and a rename, by the thread
that built its group.  A build writes only its
streams' files, and leaves every other file in the directory alone.
"""

from __future__ import annotations

import math
import os
import struct
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from ._fftbound import _max_digit, _rounded

EXACT_CAP = 20000  # policy cap for exact-mode tables
_KINDS = ("regular", "bipartite")  # a stream's kind, by its code in a cache file


@dataclass(frozen=True)
class SourceSpec:
    """Which coefficient stream a family reads: regular b_l or bipartite B_{l,m}."""

    kind: str  # "regular" | "bipartite"
    l: int
    m: int = 0

    def __post_init__(self):
        if not (self.l >= 2 and (self.kind == "regular" and self.m == 0
                                 or self.kind == "bipartite" and self.m >= 2)):
            raise ValueError("a source is regular L (m=0) or bipartite L M, "
                             f"with L, M >= 2; got {self!r}")

    @property
    def regularities(self) -> tuple[int, ...]:
        """The ``l`` of every regular factor: ``(l,)`` or ``(l, m)``."""
        return (self.l,) if self.kind == "regular" else (self.l, self.m)

    def describe(self) -> str:
        if self.kind == "regular":
            return f"b_{self.l}"
        return f"B_{{{self.l},{self.m}}}"

    def cache_name(self, modulus: int) -> str:
        """The one cache file name of this stream mod ``modulus``."""
        return f"{self.kind}-{self.l}-{self.m}-m{modulus}.qdct"


@dataclass(frozen=True)
class CountTable:
    """The counts of the stream ``source`` at ``n = 0..n_max``:
    ``values[n]`` is the count at n, mod ``modulus`` (0 means exact).
    """

    source: SourceSpec
    modulus: int
    values: Sequence[int]

    @property
    def n_max(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, n: int) -> int:
        if not 0 <= n <= self.n_max:
            raise IndexError(f"index {n} outside table range 0..{self.n_max}")
        return int(self.values[n])

    # -- binary cache ------------------------------------------------------

    _MAGIC = b"QDCT\x03\x00\x00\x00"

    @staticmethod
    def _body_dtype(modulus: int) -> np.dtype:
        """On disk, entries are little-endian, of the smallest unsigned dtype
        that holds modulus - 1."""
        return np.dtype(np.min_scalar_type(modulus - 1)).newbyteorder("<")

    def save(self, path: Union[str, Path]) -> None:
        """Write the header, the entries and a CRC32 of both, atomically
        (modular tables only)."""
        if self.modulus < 2:
            raise ValueError("only modular tables are cacheable")
        src = self.source
        header = self._MAGIC + struct.pack(
            "<QQQQQ", _KINDS.index(src.kind), src.l, src.m, self.n_max, self.modulus
        )
        body = np.asarray(self.values, dtype=self._body_dtype(self.modulus)).tobytes()
        crc = zlib.crc32(body, zlib.crc32(header))
        path = Path(path)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "wb") as fh:
                fh.write(header)
                fh.write(body)
                fh.write(struct.pack("<I", crc))
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CountTable":
        """The table in ``path``; a ``ValueError`` if the file is not one of
        this format version, its header names no valid stream, or its length,
        checksum or entries are wrong."""
        with open(path, "rb") as fh:
            data = memoryview(fh.read())
        if len(data) < 48 or data[:8] != cls._MAGIC:
            raise ValueError(f"{path}: not a version-{cls._MAGIC[4]} count-table cache file")
        kind_code, l, m, n_max, modulus = struct.unpack("<QQQQQ", data[8:48])
        if kind_code >= len(_KINDS):
            raise ValueError(f"{path}: unknown table kind code {kind_code}")
        source = SourceSpec(_KINDS[kind_code], int(l), int(m))
        dtype = cls._body_dtype(modulus)
        if len(data) != 48 + (n_max + 1) * dtype.itemsize + 4:
            raise ValueError(f"{path}: truncated cache file")
        (crc,) = struct.unpack("<I", data[-4:])
        if zlib.crc32(data[:-4]) != crc:
            raise ValueError(f"{path}: checksum mismatch")
        values = np.frombuffer(data[48:-4], dtype=dtype)
        if values.max() >= modulus:
            raise ValueError(f"{path}: entries outside 0..modulus-1")
        return cls(source, int(modulus), values)


# ---------------------------------------------------------------------------
# dynamic-programming counters (ground truth)
# ---------------------------------------------------------------------------

def dp_counts(source: SourceSpec, n_max: int, modulus: int = 0) -> CountTable:
    """The counts of ``source`` for ``n = 0..n_max`` by the unbounded-parts DP
    for the product over its regularities ``l`` of the l-regular generating
    functions: every part not divisible by ``l``, for each ``l``."""
    if modulus == 0 and n_max > EXACT_CAP:
        raise ValueError(f"exact mode is capped at index {EXACT_CAP}")
    counts = [1] + [0] * n_max
    for l in source.regularities:
        for part in range(1, n_max + 1):
            if part % l == 0:
                continue
            for n in range(part, n_max + 1):
                counts[n] += counts[n - part]
            if modulus:
                counts = [c % modulus for c in counts]
    return CountTable(source, modulus, counts)


# ---------------------------------------------------------------------------
# fast modular path (one division over blocked float-FFT products)
# ---------------------------------------------------------------------------

FAST_MOD_CAP = 1 << 26

_BLOCKS = 32  # operands are cut into at most this many blocks per product
_MIN_BLOCK = 1024  # ... each at least this long: a shorter product is one block


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


def _pentagonal_product(scales: Sequence[int], n: int, p: int, lead: int = 1) -> np.ndarray:
    """``lead`` times the product over s in ``scales`` of f_s to q^n, mod p, or
    over Z when p is 0, as an exact product of the sparse pentagonal series:
    each tap of the next factor adds a shifted copy of the nonzero entries so
    far, reduced mod p at once, so that mod p no array wider than the result
    is held.

    Over Z the sums run in the narrowest signed dtype that holds |lead| times
    the product over the later factors of 1 + their number of taps, a bound
    on every partial sum, and an ``OverflowError`` is raised if int64 does not
    hold it; the result is held as the narrowest signed dtype that holds its
    entries, read from them."""
    first, *later = sorted(scales)  # one row per tap: the largest scale, with the fewest, last
    factors = [_pentagonal_taps(n, s) for s in later]
    if p:
        dtype = np.min_scalar_type(p - 1)
    else:
        bound = abs(lead) * math.prod(1 + len(taps) for taps in factors)
        dtype = np.min_scalar_type(-bound - 1)
        if dtype.kind != "i":
            raise OverflowError(f"a product of {len(scales)} factors to q^{n} may not fit int64")
    out = np.zeros(n + 1, dtype=dtype)
    out[0] = lead
    taps = np.array(_pentagonal_taps(n, first), dtype=np.int64).reshape(-1, 2)
    out[taps[:, 0]] = lead * taps[:, 1] % p if p else lead * taps[:, 1]  # the first factor's taps
    for factor in factors:
        idx = np.flatnonzero(out)
        val = out[idx].astype(np.int64) if p else out[idx]
        for g, sign in factor:
            at = idx[: np.searchsorted(idx, n - g, side="right")] + g
            if p:
                out[at] = (out[at] + sign * val[: len(at)]) % p
            else:
                out[at] += sign * val[: len(at)]
    if not p:
        out = out.astype(np.min_scalar_type(min(int(out.min()), -int(out.max()) - 1)))
    return out


def _step(n: int) -> int:
    """The block length of a product to q^n: a power of two, at least
    ``_MIN_BLOCK``, and at most ``_BLOCKS`` blocks over n + 1 coefficients."""
    return max(1 << (-(-(n + 1) // _BLOCKS) - 1).bit_length(), _MIN_BLOCK)


def _limb_bits(p: int, n: int, length: int, terms: int) -> Optional[int]:
    """Width of the balanced limbs a product of length-(n+1) operands mod p
    needs so that the bound (of one pair: see the module docstring) stays
    within the guard: None when one limb (|x| <= p/2) suffices."""
    h_max = _max_digit(n, length, terms, 1)
    if p // 2 <= h_max:
        return None
    if h_max < 2:
        raise ArithmeticError(f"no limb width keeps a product to q^{n} exact")
    return h_max.bit_length()


def _limbs(x: np.ndarray, p: int, bits: Optional[int]) -> list[np.ndarray]:
    """Residues mod p as float limbs: balanced (|x| <= p/2), then, if ``bits``
    is given, cut into balanced base-2^bits digits, least significant first."""
    v = x.astype(np.int64)
    v -= (v > p // 2).astype(np.int64) * p
    if bits is None:
        return [v.astype(np.float64)]
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    limbs, top = [], p // 2  # top bounds |v|
    while True:
        digit = ((v + half) & mask) - half
        limbs.append(digit.astype(np.float64))
        if top < half:  # then digit == v
            return limbs
        v = (v - digit) >> bits
        top = (top + half) >> bits


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p, in place, for a float array of integers below 2^53 in size:
    x/p is then rounded so finely that its floor is the exact quotient."""
    x -= np.floor(x / p) * p
    return x


def _product_pass(a: np.ndarray, b: np.ndarray, p: int, lo: int, n: int,
                  step: int, bits: Optional[int], out: np.ndarray, sa: dict) -> dict:
    """Add coefficients lo..n of a*b, mod p, into ``out[0 .. n - lo]``, and
    return the spectra of a's blocks still held at the end.

    Diagonal d sums the spectral products of the blocks i of a and d - i of b,
    one inverse transform gives its exact integers, and its upper half is
    carried into block d + 1.  A block's spectra are computed at the first
    diagonal that uses it, unless ``sa`` holds those of a's already, and
    dropped after the last.  The first diagonal computed is the one below lo's block, for
    its carry alone.
    """
    na, nb = -(-len(a) // step), -(-len(b) // step)
    limbs = len(_limbs(np.zeros(1), p, bits))  # the same for every block
    weight = [pow(2, (bits or 0) * j, p) for j in range(2 * limbs - 1)]
    carry = [[np.zeros(step)] * limbs for _ in range(limbs)]
    sb: dict[int, list] = {}

    def window(spectra: dict, x: np.ndarray, used: range) -> None:
        """Drop the spectra of x's blocks before ``used``; compute, one per
        limb, those in it."""
        for i in [i for i in spectra if i < used.start]:
            del spectra[i]
        for i in used:
            if i not in spectra:
                limbs_i = _limbs(x[i * step : (i + 1) * step], p, bits)
                spectra[i] = [np.fft.rfft(limb, 2 * step) for limb in limbs_i]

    for d in range(max(lo // step - 1, 0), n // step + 1):
        pairs = range(max(0, d - nb + 1), min(d, na - 1) + 1)
        window(sa, a, pairs)
        window(sb, b, range(d - pairs.stop + 1, d - pairs.start + 1))
        block = None
        for s in range(limbs):
            for t in range(limbs):
                if pairs:
                    acc = sa[pairs[0]][s] * sb[d - pairs[0]][t]
                    for i in pairs[1:]:
                        acc += sa[i][s] * sb[d - i][t]
                    r = _rounded(np.fft.irfft(acc, 2 * step))
                else:
                    r = np.zeros(2 * step)
                low = r[:step] + carry[s][t]  # exact coefficients of this limb pair
                carry[s][t] = r[step:]
                if limbs > 1:
                    low = _mod(low, p) * weight[s + t]
                block = low if block is None else _mod(block + low, p)
        first, stop = max(d * step, lo), min((d + 1) * step, n + 1)
        if first < stop:
            at = slice(first - lo, stop - lo)
            out[at] = _mod(out[at] + block[first - d * step : stop - d * step], p)
    return sa


def _mulmod(a: np.ndarray, b: np.ndarray, p: int, n: int, lo: int = 0,
            split: bool = True) -> np.ndarray:
    """Coefficients lo..n of the truncated product (a*b mod q^(n+1)) mod p of
    residue arrays.

    Both operands are cut into blocks of a power of two length B, at least
    ``_MIN_BLOCK`` and at most ``_BLOCKS`` of them over n + 1 coefficients;
    each block is transformed at length 2B, and the products along each
    diagonal are summed before one inverse transform.  With ``split``, the
    shorter operand is split at a block boundary near its middle, b = b_lo +
    q^k * b_hi, and the two halves are multiplied one after the other, so that
    each pass holds the spectra of about as many blocks as the product has
    output blocks.  At lo = 0 the b_hi pass, run first, hands the spectra of
    a's whole blocks to the b_lo pass (see the module docstring).  Without
    it, one pass holds its whole window and transforms each block once;
    0 <= lo <= n.
    """
    a, b = a[: n + 1], b[: n + 1]
    if len(a) < len(b):
        a, b = b, a
    step = _step(n)
    bits = _limb_bits(p, n, 2 * step, -(-(n + 1) // step))
    out = np.zeros(n + 1 - lo, dtype=np.min_scalar_type(p - 1))
    k = step * (-(-len(b) // step) // 2) if split else 0  # 0: one pass
    spectra = {}
    if k:
        spectra = _product_pass(a[: n + 1 - k], b[k:], p, max(lo - k, 0), n - k, step,
                                bits, out[max(k - lo, 0):], {})
        # a block cut short by a[: n + 1 - k] has another spectrum
        spectra = {i: s for i, s in spectra.items() if lo == 0 and (i + 1) * step <= n + 1 - k}
    _product_pass(a, b[: k or None], p, lo, n, step, bits, out, spectra)
    return out


def _inverse(f: np.ndarray, p: int) -> np.ndarray:
    """1/f mod p to the length of f, for f[0] == 1, by Newton's iteration
    g <- g*(2 - f*g), which doubles the number of correct terms each step.

    The lengths are taken from the top down, each the next one halved and
    rounded up, so that the last step starts from about half of f's length,
    not from the largest power of two below it.  f*g is one pass,
    which transforms each block of f once and holds the spectra of about as
    many blocks as f has: no more than D*y, the division's largest product,
    holds in its split passes."""
    lengths = [len(f)]
    while lengths[-1] > 1:
        lengths.append(-(-lengths[-1] // 2))
    g = np.ones(1, dtype=f.dtype)
    for k2 in reversed(lengths[:-1]):
        k = len(g)
        e = _mulmod(f, g, p, k2 - 1, lo=k, split=False)  # f*g = 1 + O(q^k): terms k..k2-1
        t = _mulmod(g, e, p, k2 - k - 1).astype(np.int64)
        g = np.concatenate((g, (-t % p).astype(g.dtype)))
    return g


def _submod(acc: np.ndarray, x: np.ndarray, p: int) -> None:
    """acc[:len(x)] -= x mod p, in place, for residues below p of acc's dtype,
    with no wider array: acc - x wraps below 0 exactly where p is to be added
    back, and unsigned sums are exact mod 2^bits, so p may be 2^bits."""
    head = acc[: len(x)]
    wrap = head < x
    head -= x
    np.add(head, np.array(p).astype(head.dtype), out=head, where=wrap)


def _divide(num: np.ndarray, den: np.ndarray, p: int) -> np.ndarray:
    """num/den mod p to the length of num, for den[0] == 1 (Karp-Markstein),
    written over num: with g = 1/den to half the length h, the quotient is
    y = num*g there, and above it g times the remainder (num - den*y) / q^h.
    y takes num's low half, which nothing reads after it, and the remainder
    the high half, so no array of the quotient's length is made."""
    n = len(num) - 1
    h = (n + 2) // 2
    g = _inverse(den[:h], p)
    num[:h] = _mulmod(num, g, p, h - 1)
    if h <= n:
        rem = num[h:]
        _submod(rem, _mulmod(den, num[:h], p, n, lo=h), p)
        rem[:] = _mulmod(g, rem, p, n - h)
    return num


def _power(group: Sequence[tuple[SourceSpec, int, int]]) -> int:
    """R, the most regularities among a group's streams: its denominator is
    f_1^R."""
    return max(len(spec.regularities) for spec, _, _ in group)


def _denominators(groups: Sequence[Sequence[tuple[SourceSpec, int, int]]]
                  ) -> Callable[[int, int, int], np.ndarray]:
    """``den(R, n, P)``, f_1^R mod P to q^n, taken once by each group of a
    batch at its top order n.

    f_1^R is built here once per distinct R, exactly over Z, to the top order
    of the groups with that R, as the narrowest signed dtype that holds it
    (``_pentagonal_product`` with p = 0): int8 for f_1^2 to past 3e7.  Each
    array is owned either by one group or by the groups still to come, which
    keep only the prefix they read: a group takes the array itself when no
    group still to come reads as far, and a copy of its prefix otherwise.  It
    reduces it mod its P block by block, in the division's block length,
    through a signed dtype that holds P, and in place when the table dtype
    is as wide (int8 to uint8 for P <= 256).  So a one-byte group's
    denominator is the exact array's own memory, and no array as long as the
    exact one is freed before the division: glibc would then serve the
    division's spectra from its heap and keep them after they are freed.
    """
    tops: dict[int, list[int]] = {}
    for group in groups:
        tops.setdefault(_power(group), []).append(max(n for _, _, n in group))
    exact: dict[int, np.ndarray] = {}
    failed: dict[int, Exception] = {}
    for r, orders in tops.items():
        try:
            exact[r] = _pentagonal_product((1,) * r, max(orders), 0)
        except Exception as exc:  # raised by each group that takes it
            failed[r] = exc
    lock = threading.Lock()

    def den(r: int, n: int, P: int) -> np.ndarray:
        if r in failed:
            raise failed[r]
        with lock:
            f, waiting = exact.pop(r), tops[r]
            waiting.remove(n)
            if waiting:
                need = max(waiting) + 1
                if need == len(f):  # a group still to come reads all of f
                    exact[r], f = f, f[: n + 1].copy()
                else:
                    exact[r] = f[:need].copy()
        f = f[: n + 1]
        dtype = np.min_scalar_type(P - 1)
        out = f.view(dtype) if dtype.itemsize == f.itemsize else np.empty(n + 1, dtype)
        work = np.promote_types(f.dtype, np.min_scalar_type(-P))
        step = _step(n)
        for i in range(0, n + 1, step):
            out[i : i + step] = np.remainder(f[i : i + step], P, dtype=work)
        return out

    return den


def _build_group(streams: Sequence[tuple[SourceSpec, int, int]],
                 den: Callable[[int, int, int], np.ndarray]
                 ) -> dict[tuple[SourceSpec, int], CountTable]:
    """The table of each ``(stream, modulus, order)`` of a group of pairwise
    coprime moduli, keyed ``(stream, modulus)``, by one division mod their
    product P of their numerators by ``den(R, n, P)``, f_1^R mod P to the
    group's top order n (see the module docstring and ``_denominators``).

    Member i's numerator, times the f_1 it lacks, is built to its own order
    as e_i times itself mod P, where e_i = 1 mod p_i and 0 mod the other
    moduli: the longest member's is the group's numerator, and each other
    member's is built negated and subtracted from it, in place.  The quotient
    by f_1^r mod P, taken mod p_i through member i's order, is member i's
    table; the longest member takes the quotient itself, reduced in place.
    """
    for _, p, _ in streams:
        if not 2 <= p <= FAST_MOD_CAP:
            raise ValueError(f"the fast path needs a modulus in [2, {FAST_MOD_CAP}]")
    (top, p_top, n), *rest = sorted(streams, key=lambda s: -s[2])
    P = math.prod(p for _, p, _ in streams)
    r = _power(streams)
    denominator = den(r, n, P)  # first, so that the batch drops f_1^r as soon as it can

    def numerator(spec: SourceSpec, p: int, order: int, sign: int) -> np.ndarray:
        regs = spec.regularities
        e = P // p * pow(P // p, -1, p)
        return _pentagonal_product(regs + (1,) * (r - len(regs)), order, P, sign * e % P)

    num = numerator(top, p_top, n, 1)
    for member in rest:
        _submod(num, numerator(*member, -1), P)
    quotient = _divide(num, denominator, P)
    del denominator  # before the members' tables are cut from the quotient
    out = {(spec, p): CountTable(spec, p, quotient[: order + 1] % p) for spec, p, order in rest}
    if P != p_top:
        np.remainder(quotient, p_top, out=quotient)
    out[top, p_top] = CountTable(top, p_top, quotient)
    return out


def coeff_fast(source: SourceSpec, n_max: int, p: int) -> CountTable:
    """The counts of ``source`` mod any p in [2, 2^26], prime or not, to
    ``n_max``: the product over its regularities ``l`` of ``f_l / f_1``, by
    one division of prod_l f_l by f_1^r, both built from pentagonal taps (see
    the module docstring).  This is the group of one stream, so it shares its
    one build path with :func:`tables`.

    Agrees with :func:`dp_counts` everywhere both are computed.
    """
    group = [(source, p, n_max)]
    return _build_group(group, _denominators([group]))[source, p]


# ---------------------------------------------------------------------------
# a batch's tables, and the cache directory
# ---------------------------------------------------------------------------

def _cached(path: Path, spec: SourceSpec, p: int, order: int) -> Optional[CountTable]:
    """The table in ``path`` if it passes its checksum and its header names
    this stream and modulus to at least ``order``; else None."""
    if not path.exists():  # the usual miss, on an empty cache: no load is tried
        return None
    try:
        table = CountTable.load(path)
    except (ValueError, OSError):
        return None
    return table if (table.source, table.modulus) == (spec, p) and table.n_max >= order else None


def _coprime_groups(streams: Sequence[tuple[SourceSpec, int, int]]
                   ) -> list[list[tuple[SourceSpec, int, int]]]:
    """The ``(stream, modulus, order)`` streams packed into groups that
    :func:`_build_group` builds by one division each, the group with the
    longest stream first.

    A stream joins a group only if its modulus p is coprime to the group's
    product P, P*p keeps the dtype of the members' tables, and one limb keeps
    the products mod P*p exact to the group's top order.  The packing is
    first-fit decreasing on the modulus: each modulus's longest stream,
    largest modulus first, then the other streams, longest first.
    """
    longest = sorted(streams, key=lambda s: -s[2])
    firsts: dict[int, tuple] = {}
    for stream in longest:
        firsts.setdefault(stream[1], stream)

    def width(m: int) -> np.dtype:  # of a table mod m
        return np.min_scalar_type(m - 1)

    groups: list[list] = []
    for stream in (sorted(firsts.values(), key=lambda s: -s[1])
                   + [s for s in longest if firsts[s[1]] is not s]):
        _, p, order = stream
        for group in groups:
            P = math.prod(m for _, m, _ in group)
            top = max(order, *(n for _, _, n in group))
            step = _step(top)
            if (math.gcd(P, p) == 1 and width(P * p) == width(P) == width(p)
                    and _limb_bits(P * p, top, 2 * step, -(-(top + 1) // step)) is None):
                group.append(stream)
                break
        else:
            groups.append([stream])
    return sorted(groups, key=lambda group: -max(n for _, _, n in group))


def tables(needs: dict[tuple[SourceSpec, int], int],
           cache_dir: Optional[Union[str, Path]], jobs: int
           ) -> dict[tuple[SourceSpec, int], Union[CountTable, Exception]]:
    """The table of every ``(stream, modulus)`` in ``needs`` to at least its
    order, or the exception its build raised.

    With a cache directory, which must exist, each stream's file is read on
    the calling thread.  The streams not served from it are packed into
    groups of coprime moduli (``_coprime_groups``), and each group is built by
    one division on one of up to ``jobs`` threads, the group with the longest
    stream first.  Each denominator f_1^R the groups divide by is built once,
    on the calling thread, before the threads start (``_denominators``).
    The thread of a group saves each member over its stream's file; no other
    file in the directory is touched.  If a group's division raises,
    its members are built alone, so that an exception is the value of the
    stream that raised it.
    """
    cache_dir = Path(cache_dir) if cache_dir else None
    out: dict = {}
    todo = []
    for (spec, p), order in sorted(needs.items(), key=lambda item: -item[1]):
        table = _cached(cache_dir / spec.cache_name(p), spec, p, order) if cache_dir else None
        if table is None:
            todo.append((spec, p, order))
        else:
            out[spec, p] = table

    groups = _coprime_groups(todo)
    den = _denominators(groups)  # on this thread, before the pool

    def build(group, den=den):
        try:
            built = _build_group(group, den)
        except Exception as exc:  # the caller raises it where the table is read
            if len(group) == 1:
                return {group[0][:2]: exc}
            return {key: table for stream in group
                    for key, table in build([stream], _denominators([[stream]])).items()}
        if cache_dir:
            for (spec, p), table in built.items():
                try:
                    table.save(cache_dir / spec.cache_name(p))
                except Exception as exc:  # the caller names the file
                    built[spec, p] = exc
        return built

    if jobs == 1 or len(groups) < 2:
        done = map(build, groups)
    else:
        # imported here: it loads logging too, 0.5 MB that a run with
        # nothing to build on threads does not need
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(min(jobs, len(groups))) as pool:
            done = list(pool.map(build, groups))
    built = {key: table for results in done for key, table in results.items()}
    for spec, p, _ in todo:
        out[spec, p] = built[spec, p]
    return out
