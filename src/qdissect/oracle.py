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

:func:`coeff_fast` reproduces the same streams modulo any p in [2, 2^26],
prime or not, at indices in the millions, in O(N log N) time.  A stream is
prod_l f_l / f_1^r, where f_k = prod_j (1 - q^(kj)) and r is the number of
regularities.  Both the numerator N = prod_l f_l and the denominator
D = f_1^r are exact products of sparse series, each f_k given by the taps of
Euler's pentagonal number theorem, reduced mod p as they are summed (about
4.4e6 tap pairs at 1.65M, and no FFT).  One division N/D to q^n follows (Karp
and Markstein, ACM TOMS 23, 1997):

  - Newton's iteration g <- g*(2 - D*g), which doubles the number of correct
    terms per step, gives g = 1/D to h = ceil((n+1)/2) terms only;
  - y = N*g mod q^h is the low half of the quotient;
  - the high half is g times the remainder (N - D*y) / q^h, to n - h + 1
    terms.

That is the half-length inverse (about 1.4 products of full length) and three
products: two of half length and D*y, full length by half; about 3.2 full
products in all, for a regular table as for a bipartite one.  Nothing here
relies on the congruence f_p = f_1^p (mod p), on a Jacobi identity or on any
identity of the catalog.

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
    and arrays) is 23.1 MB, against 58 MB with the spectra of whole operands.
  - Hand-off: the b_hi pass runs first, and at lo = 0 the b_lo pass starts
    from the spectra of a's whole blocks that it still holds, so a block of
    a is transformed once.  A block cut short by the b_hi pass's shorter
    range has another spectrum, and is not handed on.  At lo > 0 the b_lo
    pass starts with a full window of its own, and handed-on spectra would
    wait beside it, so none are; D*y, the division's largest product, is
    such a one.  The (3,7) table to 1,652,053 takes 1,610 transforms, where
    3,922 without the floor and the hand-off.

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
covers every catalog stream: for (81,17) mod 17 to 2.5e7 the bound is
5.2e-5.  A modulus near 2^26 needs two limbs at n = 300 and three at n = 1e6.
The guard (``_rounded``) runs on every output of every diagonal computed.
The exact integers, below 2^53 in size, are reduced mod p in float64 as
x - floor(x/p) * p.  Tables are held as the smallest unsigned dtype that
holds p - 1, whether built, loaded or on disk.

:func:`tables` builds the tables of a batch by that fast path on ``jobs``
threads, the longest first; the FFTs and the large element-wise loops release
the GIL.  The sparse pentagonal products hold it for most of their time, in
one small numpy call per tap of every factor after the first (the first
factor's taps go in with one call).  Given a directory, each (stream, modulus)
has one ``*.qdct`` file there, named by :meth:`SourceSpec.cache_name`.  The
file is served only if its CRC32 passes and its header names the same stream
and modulus with a range that covers the order; anything else is a miss, and
the table is built and saved over that name, through a temporary file and a
rename.  A build writes only its stream's file, and leaves every other file
in the directory alone.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

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


def _pentagonal_product(scales: Sequence[int], n: int, p: int) -> np.ndarray:
    """prod over s in ``scales`` of f_s, mod p to q^n, as an exact product of
    the sparse pentagonal series: each tap of the next factor adds a shifted
    copy of the nonzero entries so far, reduced mod p at once, so no array
    wider than the result is held."""
    first, *rest = sorted(scales)  # one row per tap: the largest scale, with the fewest, last
    out = np.zeros(n + 1, dtype=np.min_scalar_type(p - 1))
    out[0] = 1
    taps = np.array(_pentagonal_taps(n, first), dtype=np.int64).reshape(-1, 2)
    out[taps[:, 0]] = taps[:, 1] % p  # the first factor's taps, in one step
    for s in rest:
        idx = np.flatnonzero(out)
        val = out[idx].astype(np.int64)
        for g, sign in _pentagonal_taps(n, s):
            at = idx[: np.searchsorted(idx, n - g, side="right")] + g
            out[at] = (out[at] + sign * val[: len(at)]) % p
    return out


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


def _mulmod(a: np.ndarray, b: np.ndarray, p: int, n: int, lo: int = 0) -> np.ndarray:
    """Coefficients lo..n of the truncated product (a*b mod q^(n+1)) mod p of
    residue arrays.

    Both operands are cut into blocks of a power of two length B, at least
    ``_MIN_BLOCK`` and at most ``_BLOCKS`` of them over n + 1 coefficients;
    each block is transformed at length 2B, and the products along each
    diagonal are summed before one inverse transform.  The shorter operand is
    split at a block boundary near its middle, b = b_lo + q^k * b_hi, and the
    two halves are multiplied one after the other, so that each pass holds the
    spectra of about as many blocks as the product has output blocks.  At
    lo = 0 the b_hi pass, run first, hands the spectra of a's whole blocks to
    the b_lo pass (see the module docstring); 0 <= lo <= n.
    """
    a, b = a[: n + 1], b[: n + 1]
    if len(a) < len(b):
        a, b = b, a
    step = max(1 << (-(-(n + 1) // _BLOCKS) - 1).bit_length(), _MIN_BLOCK)
    bits = _limb_bits(p, n, 2 * step, -(-(n + 1) // step))
    out = np.zeros(n + 1 - lo, dtype=np.min_scalar_type(p - 1))
    k = step * (-(-len(b) // step) // 2)  # 0 when b is one block: no split
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
    g <- g*(2 - f*g), which doubles the number of correct terms each step."""
    g = np.ones(1, dtype=f.dtype)
    while len(g) < len(f):
        k = len(g)
        k2 = min(2 * k, len(f))
        e = _mulmod(f, g, p, k2 - 1, lo=k)  # f*g = 1 + O(q^k): terms k..k2-1
        t = _mulmod(g, e, p, k2 - k - 1).astype(np.int64)
        g = np.concatenate((g, (-t % p).astype(g.dtype)))
    return g


def _divide(num: np.ndarray, den: np.ndarray, p: int) -> np.ndarray:
    """num/den mod p to the length of num, for den[0] == 1 (Karp-Markstein):
    with g = 1/den to half the length, the quotient is y = num*g there, and
    above it g times the remainder (num - den*y) / q^h."""
    n = len(num) - 1
    h = (n + 2) // 2
    g = _inverse(den[:h], p)
    y = _mulmod(num, g, p, h - 1)
    if h > n:
        return y
    # num[h:] is a view, so no wide copy of it is held while D*y runs
    rem = np.subtract(num[h:], _mulmod(den, y, p, n, lo=h), dtype=np.int32)
    rem = (rem % p).astype(num.dtype)
    return np.concatenate((y, _mulmod(g, rem, p, n - h)))


def coeff_fast(source: SourceSpec, n_max: int, p: int) -> CountTable:
    """The counts of ``source`` mod any p in [2, 2^26], prime or not, to
    ``n_max``: the product over its regularities ``l`` of ``f_l / f_1``, by
    one division of prod_l f_l by f_1^r, both built from pentagonal taps (see
    the module docstring).

    Agrees with :func:`dp_counts` everywhere both are computed.
    """
    if not 2 <= p <= FAST_MOD_CAP:
        raise ValueError(f"the fast path needs a modulus in [2, {FAST_MOD_CAP}]")
    regs = source.regularities
    num = _pentagonal_product(regs, n_max, p)
    den = _pentagonal_product((1,) * len(regs), n_max, p)
    return CountTable(source, p, _divide(num, den, p))


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


def tables(needs: dict[tuple[SourceSpec, int], int],
           cache_dir: Optional[Union[str, Path]], jobs: int
           ) -> dict[tuple[SourceSpec, int], Union[CountTable, Exception]]:
    """The table of every ``(stream, modulus)`` in ``needs`` to at least its
    order, or the exception its build raised.

    With a cache directory, which must exist, each stream's file is read on
    the calling thread.  The tables not served from it are built on up to
    ``jobs`` threads, the longest first, each built and saved over its
    stream's file by one thread; no other file in the directory is touched.
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

    def build(item):
        spec, p, order = item
        try:
            table = coeff_fast(spec, order, p)
            if cache_dir:
                table.save(cache_dir / spec.cache_name(p))
            return table
        except Exception as exc:  # the caller raises it where the table is read
            return exc

    if jobs == 1 or len(todo) < 2:
        done = map(build, todo)
    else:
        # imported here: it loads logging too, 0.5 MB that a run with
        # nothing to build on threads does not need
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(min(jobs, len(todo))) as pool:
            done = list(pool.map(build, todo))
    for (spec, p, _), result in zip(todo, done):
        out[spec, p] = result
    return out
