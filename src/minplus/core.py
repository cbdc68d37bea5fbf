"""Dense matrices over the min-plus semiring.

The semiring extends the reals with +inf. Addition is min, multiplication
is ordinary +, so +inf is the additive identity (it never wins a min) and
absorbs products, while 0 is the multiplicative identity. NaN and -inf are
rejected at construction: without -inf the sum of any two entries is well
defined, so no inf - inf indeterminacy can ever arise downstream.
Entries are checked once per matrix: at the boundary, where the public
constructor copies its argument, and once, without a copy, when the
package wraps a matrix it built, since finite sums can overflow to -inf.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NegativeCycleError, ParseError, ShapeError

INF = float("inf")

CSV_FLOAT_FORMAT = ".17g"
TILE_ROWS = 64  # rows per tile of each row-tiled pass: write_matrix_csv (its first tile picks the format),
# is_idempotent and the waypoint scan; one height bounds the scratch of every such pass at TILE_ROWS x n entries
IDEMPOTENT_TOL = 1e-9  # is_idempotent: finite entries of A (x) A and A agree within this
# kleene_star runs B pivots per pass over D, H rows at a time (B*H*n scratch).
# B divides H, so a symmetric pivot block lies in one tile and reads no stale entry.
CLOSURE_BLOCK = 8
CLOSURE_ROWS = 16


class TropicalMatrix:
    """Immutable dense n x m matrix with entries in R or +inf.

    Wraps a read-only float64 array. Use ``.data`` for raw access; all
    semiring operations live in module-level functions. ``_idempotent``
    holds is_idempotent's verdict (True/False), or None before it is asked;
    only this module reads or writes it.
    """

    __slots__ = ("_data", "_idempotent")

    def __init__(self, entries) -> None:
        data = np.asarray(entries, dtype=float) + 0.0  # a copy, in which -0 is 0
        if data.ndim != 2:
            raise ShapeError(f"matrix entries must form a 2-d table, got {data.ndim}-d")
        self._data, self._idempotent = _checked(data), None

    @classmethod
    def _wrap(cls, data: np.ndarray) -> "TropicalMatrix":
        """Own a 2-d float array the package just built and nothing else writes: checked, not copied."""
        matrix = cls.__new__(cls)
        matrix._data, matrix._idempotent = _checked(data), None
        return matrix

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def rows(self) -> int:
        return self._data.shape[0]

    @property
    def cols(self) -> int:
        return self._data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._data.shape

    def transpose(self) -> "TropicalMatrix":
        return TropicalMatrix._wrap(self._data.T)

    def __repr__(self) -> str:  # pragma: no cover
        return f"TropicalMatrix({self.rows}x{self.cols})"


def _checked(data: np.ndarray) -> np.ndarray:
    """data, read-only, once one min reduction shows no NaN and no -inf entry."""
    low = data.min(initial=INF)  # NaN propagates; an empty array gives inf
    if np.isnan(low):
        raise DomainError("NaN entries are not representable")
    if low == -INF:
        raise DomainError("-inf entries are not representable")
    data.setflags(write=False)
    return data


def _as_matrix(m) -> TropicalMatrix:
    """m itself if it is a TropicalMatrix, else a checked copy of it."""
    return m if isinstance(m, TropicalMatrix) else TropicalMatrix(m)


def _data_of(m) -> np.ndarray:
    """Validated float array behind a TropicalMatrix or array-like."""
    return _as_matrix(m).data


def _factors(cols: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """[c, 1] (..., h, 2) and [1; r] (..., 2, w), the factors of _outer_sum for c (..., h), r (..., w)."""
    left, right = np.ones(cols.shape + (2,)), np.ones(rows.shape[:-1] + (2, rows.shape[-1]))
    left[..., 0], right[..., 1, :] = cols, rows
    return left, right


@np.errstate(invalid="ignore")
def _outer_sum(out: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """out[..., i, j] = c_i + r_j as one rank-2 matmul [c, 1] @ [1; r] of _factors(c, r); returns out.
    Each product is x*1 = x, exact, and BLAS sums into a zeroed accumulator: fl(c_i + r_j), the broadcast
    add's bits, but for -0 + -0 = +0 (input enters with -0 made 0). OpenBLAS forms 0*inf in discarded edge
    lanes, setting the invalid flag, so the matmul alone ignores it; entries lie in R or +inf, so no kept
    lane is invalid."""
    return np.matmul(left, right, out=out)


def _fold(out: np.ndarray, cols: np.ndarray, rows: np.ndarray, term: np.ndarray, selectors=None) -> None:
    """The min-plus product out[..., i, j] = min_k cols[k, ..., i] + rows[k, ..., j], len(cols) >= 1.

    out is only written. k = 0's rank-one sum goes into it as one _outer_sum; each later one, from its
    k's factors refilled in place, into the scratch term, the shape of out, folded in with np.minimum:
    nothing has a k axis. min is exact and order-free, so out equals the broadcast formula bit for bit.
    With selectors all 0, selectors gets the smallest attaining k: a strictly smaller sum raises it to
    k, and every earlier selector is below k, so ties keep the earlier k, as argmin does. k takes the
    selectors' dtype, as a Python int above 255 would overflow uint8 under numpy 2 promotion.
    """
    better = None if selectors is None else np.empty(out.shape, dtype=bool)
    left, right = _factors(cols[0], rows[0])
    _outer_sum(out, left, right)
    for k in range(1, len(cols)):
        left[..., 0], right[..., 1, :] = cols[k], rows[k]
        _outer_sum(term, left, right)
        if better is not None:
            np.less(term, out, out=better)
            np.maximum(selectors, better.view(np.uint8) * selectors.dtype.type(k), out=selectors)
        np.minimum(out, term, out=out)


def _mirror(a: np.ndarray, rows: int) -> None:
    """Mirror the upper triangle of each (..., n, n) matrix of a into its lower one, by bands of rows."""
    for top in range(rows, a.shape[-1], rows):
        a[..., top:top + rows, :top] = a[..., :top, top:top + rows].swapaxes(-1, -2)


def _mp(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Raw min-plus product of float arrays whose shapes agree, in two n x m arrays, neither
    filled before _fold writes it; an empty k-sum is all inf, the additive identity."""
    if not a.shape[1]:
        return np.full((a.shape[0], b.shape[1]), INF)
    out = np.empty((a.shape[0], b.shape[1]))
    _fold(out, a.T, b, np.empty_like(out))
    return out


def mp_multiply(A: TropicalMatrix, B: TropicalMatrix) -> TropicalMatrix:
    """Min-plus matrix product: entry (i,j) = min_k(a_ik + b_kj)."""
    a, b = _data_of(A), _data_of(B)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner dimensions disagree: {a.shape} x {b.shape}")
    return TropicalMatrix._wrap(_mp(a, b))


def mp_power(A: TropicalMatrix, k: int) -> TropicalMatrix:
    """k-fold min-plus product of a square matrix with itself; k=0 gives I."""
    a = _data_of(A)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"power needs a square matrix, got {a.shape}")
    if k < 0:
        raise DomainError("negative powers are not defined")
    out = np.full(a.shape, INF)
    np.fill_diagonal(out, 0.0)
    for _ in range(k):
        out = _mp(out, a)
    return TropicalMatrix._wrap(out)


def kleene_star(A: TropicalMatrix) -> TropicalMatrix:
    """Closure I min A min A^2 min ... of a square matrix.

    The fixed point is computed by the Floyd-Warshall recurrence (identical
    limit, O(n^3)); for inputs free of negative cycles this is the
    all-pairs shortest-path matrix. A strictly negative diagonal entry
    after closure means a negative-weight cycle exists and the series
    diverges, reported as NegativeCycleError.

    Pivots k0..k0+B-1 (B = CLOSURE_BLOCK) form a block. Its column panel C
    and row panel R are copied from D and the block's own pivots run on the
    panels alone, so C(:,t) and R(t,:) hold column and row k0+t exactly as
    the one-pivot loop reads them at pivot k0+t. One pass over D then takes
    D = min(D, min_t C(:,t) + R(t,:)), H = CLOSURE_ROWS rows at a time, each tile's
    B sums one _outer_sum of [C, 1] and [1; R] into B*H*n scratch. min is exact and
    order-free and every candidate is a sum the one-pivot loop forms, so the result
    equals that loop bit for bit, a negative diagonal included. (The textbook blocked
    update reads each block's final panels: other sums, so real weights round differently.)
    A symmetric D stays symmetric bit for bit, as fl(a+b) = fl(b+a). Then
    R = C^T, read from the block's columns above it and its rows from
    column k0 on, fresh because B divides H and the block lies in one tile;
    each tile updates only its columns from its own top row rightwards, and
    the lower triangle is mirrored at the end.
    """
    a = _data_of(A)
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"closure needs a square matrix, got {a.shape}")
    d = a.copy()
    np.fill_diagonal(d, np.minimum(a.diagonal(), 0.0))  # D = A min I
    symmetric = np.array_equal(d, d.T)
    sums = np.empty(CLOSURE_BLOCK * min(CLOSURE_ROWS, n) * n)
    least = np.empty(min(CLOSURE_ROWS, n) * n)
    for k0 in range(0, n, CLOSURE_BLOCK):
        k1, lefts, right = min(k0 + CLOSURE_BLOCK, n), None, None  # free the last block's factors first
        if symmetric:  # rows k0..k1 may be stale left of column k0: read columns there
            col = row = np.concatenate((d[:k0, k0:k1].T, d[k0:k1, k0:]), axis=1)
        else:
            col, row = d[:, k0:k1].T.copy(), d[k0:k1].copy()  # C^T and R
        for t in range(k1 - k0 - 1):  # pivot k0+t on the later panel columns and rows
            np.minimum(col[t + 1:], row[t, k0 + t + 1:k1, None] + col[t], out=col[t + 1:])
            if not symmetric:
                np.minimum(row[t + 1:], col[t, k0 + t + 1:k1, None] + row[t], out=row[t + 1:])
        lefts, right = _factors(col, row)  # [C, 1] and [1; R]
        for top in range(0, n, CLOSURE_ROWS):
            left = top if symmetric else 0
            rows = d[top:top + CLOSURE_ROWS, left:]
            h, w = rows.shape
            tile = sums[: (k1 - k0) * h * w].reshape(k1 - k0, h, w)
            # all B sums, then one reduce: a _fold over the pivots ran 1.4-1.6x slower at n = 400
            _outer_sum(tile, lefts[:, top:top + h], right[:, :, left:])
            low = np.minimum.reduce(tile, axis=0, out=least[: h * w].reshape(h, w))
            rows[...] = np.minimum(low, rows, out=low)  # out=rows would copy a strided rows twice
    if symmetric:
        _mirror(d, CLOSURE_ROWS)
    if (np.diag(d) < 0).any():
        raise NegativeCycleError("matrix contains a negative-weight cycle; the closure diverges")
    closure = TropicalMatrix._wrap(d)
    closure._idempotent = True  # a closure without negative cycles is idempotent
    return closure


def _entries_close(a: np.ndarray, b: np.ndarray) -> bool:
    # inf must match inf exactly; finite entries compare within IDEMPOTENT_TOL. The scratch is one gap,
    # made absolute in place (inf - finite is inf and inf - inf is nan, both outside), and two masks
    close = np.isinf(a) & np.isinf(b)
    with np.errstate(invalid="ignore"):
        gap = np.subtract(a, b)
    close |= np.abs(gap, out=gap) <= IDEMPOTENT_TOL
    return bool(close.all())


def is_idempotent(A: TropicalMatrix) -> bool:
    """True iff A (x) A equals A entrywise within IDEMPOTENT_TOL (inf matches only inf). The product is
    folded and compared TILE_ROWS rows at a time, stopping at the first tile that differs. A TropicalMatrix
    keeps the verdict, so its product runs at most once, and never for a closure, marked by kleene_star."""
    A = _as_matrix(A)
    if A.rows != A.cols:
        raise ShapeError(f"idempotency needs a square matrix, got {A.shape}")
    if A._idempotent is None:
        a = A.data
        A._idempotent = all(_entries_close(_mp(a[top:top + TILE_ROWS], a), a[top:top + TILE_ROWS])
                            for top in range(0, len(a), TILE_ROWS))
    return A._idempotent


def _frobenius(diff: np.ndarray) -> np.ndarray:
    """||diff||_F over the last two axes, squaring diff in place: for each matrix the bits of
    np.sqrt(np.sum(diff ** 2)), as each matrix's squares are summed as one flat row."""
    squares = np.square(diff, out=diff)
    return np.sqrt(np.sum(squares.reshape(squares.shape[:-2] + (-1,)), axis=-1))


def frobenius_distance(A: TropicalMatrix, B: TropicalMatrix) -> float:
    """Square root of the summed squared entrywise differences.

    Defined only for finite matrices; any inf entry raises DomainError.
    """
    a, b = _data_of(A), _data_of(B)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    if np.isinf(a).any() or np.isinf(b).any():
        raise DomainError("Frobenius distance is only defined for finite matrices")
    return float(_frobenius(a - b))


def read_matrix_csv(text: str) -> TropicalMatrix:
    """Parse the matrix CSV format: comma-separated decimals, `inf` for +inf.

    Header-free; blank lines are skipped; rows must all have the same
    length. NaN and -inf tokens are outside the format.
    """
    rows: list[list[float]] = []
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        values = []
        for token in stripped.split(","):
            token = token.strip()
            try:
                value = float(token) + 0.0  # -0 enters as 0
            except ValueError:
                raise ParseError(f"line {lineno}: cannot parse entry {token!r}") from None
            if not value > -INF:  # NaN fails the comparison too
                raise ParseError(f"line {lineno}: entry {token!r} is outside the format")
            values.append(value)
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise ParseError(f"line {lineno}: expected {width} entries, got {len(values)}")
        rows.append(values)
    if not rows:
        return TropicalMatrix._wrap(np.empty((0, 0)))
    return TropicalMatrix._wrap(np.array(rows))


def write_matrix_csv(M: TropicalMatrix) -> str:
    """Render to the matrix CSV format, each entry as format(v, CSV_FLOAT_FORMAT); inverse of read_matrix_csv.

    Distance matrices repeat few values, so if the first TILE_ROWS rows hold under one distinct entry in
    four, each distinct int64 bit pattern is formatted once: -0.0 and 0.0 are equal floats that format apart.
    Otherwise (an SVD approximation, say) one row template formats every entry: a lookup would only add."""
    def sorted_distinct(keys: np.ndarray) -> np.ndarray:
        ordered = np.sort(keys, axis=None)
        return np.concatenate((ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]))

    keys = _data_of(M).view(np.int64)
    if 4 * len(sorted_distinct(keys[:TILE_ROWS])) < keys[:TILE_ROWS].size:
        distinct = sorted_distinct(keys)
        text = [format(v, CSV_FLOAT_FORMAT) for v in distinct.view(float).tolist()]
        table = np.array([t + end for t in text for end in ",\n"], "S")  # NUL-padded; entry 2k + 1 ends a row
        cells = (table[2 * np.searchsorted(distinct, rows) + (np.arange(keys.shape[1]) + 1 == keys.shape[1])]
                 for rows in np.split(keys, range(TILE_ROWS, len(keys), TILE_ROWS)))
        return b"".join(tile.tobytes().translate(None, b"\0") for tile in cells).decode()
    row_template = ",".join(["%" + CSV_FLOAT_FORMAT] * keys.shape[1]) + "\n"  # "%" formats like format()
    return "".join([row_template % tuple(row.tolist()) for row in keys.view(float)])
