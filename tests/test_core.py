"""Tropical matrix type, min-plus products, Kleene star, CSV round trips."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from minplus import (
    INF,
    DomainError,
    NegativeCycleError,
    ShapeError,
    TropicalMatrix,
    frobenius_distance,
    is_idempotent,
    kleene_star,
    load_edge_list,
    mp_multiply,
    mp_power,
    read_matrix_csv,
    shortest_path_matrix,
    write_matrix_csv,
)

from conftest import random_nonneg_graph_matrix
from oracles import identity, ref_kleene_star, tropical_allclose, truncated_series


def test_matrix_rejects_nan_and_minus_inf():
    with pytest.raises(DomainError):
        TropicalMatrix([[0.0, np.nan]])
    with pytest.raises(DomainError):
        TropicalMatrix([[0.0, -np.inf]])


def test_matrix_turns_negative_zero_into_zero():
    # -0 enters as 0, in the constructor as in the CSV reader; the values stay
    entries = [[-0.0, 1.0], [-0.0, INF]]
    for m in (TropicalMatrix(entries), TropicalMatrix(np.array(entries)), read_matrix_csv("-0,1\n-0.0,inf\n")):
        assert not np.signbit(m.data).any()
        assert np.array_equal(m.data, entries)


def test_matrix_requires_two_dims():
    with pytest.raises(ShapeError):
        TropicalMatrix([1.0, 2.0])


def test_matrix_is_immutable():
    m = TropicalMatrix([[1.0, 2.0]])
    with pytest.raises((ValueError, AttributeError)):
        m.data[0, 0] = 5.0


def test_built_matrices_are_checked_for_overflow():
    # finite sums can overflow, so a matrix the package builds is checked too
    dag = TropicalMatrix([[0.0, -1e308, INF], [INF, 0.0, -1e308], [INF, INF, 0.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DomainError, match="NaN"):
            kleene_star(dag)
        with pytest.raises(DomainError, match="-inf"):
            mp_multiply(TropicalMatrix([[-1e308]]), TropicalMatrix([[-1e308]]))


def test_built_matrices_keep_their_bytes_and_are_immutable():
    data = np.random.default_rng(8).standard_normal((4, 3))
    data[0, 1] = INF
    m = TropicalMatrix(data)
    square = TropicalMatrix(np.abs(data[:3]))
    built = {
        "transpose": (m.transpose(), data.T),
        "csv": (read_matrix_csv(write_matrix_csv(m)), data),
        "product": (mp_multiply(m, m.transpose()), None),
        "closure": (kleene_star(square), None),
    }
    for name, (matrix, expected) in built.items():
        if expected is not None:
            assert matrix.data.tobytes() == expected.tobytes(), name
        assert not matrix.data.flags.writeable, name


def test_identity_is_neutral():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        a = TropicalMatrix(rng.integers(-4, 10, size=(n, n)).astype(float))
        i = identity(n)
        assert np.array_equal(mp_multiply(i, a).data, a.data)
        assert np.array_equal(mp_multiply(a, i).data, a.data)


def test_multiply_hand_values(example_a):
    # row [0, 2, inf] times column [5, 1, 0]: min(0+5, 2+1, inf) = 3
    row = TropicalMatrix([[0.0, 2.0, INF]])
    col = TropicalMatrix([[5.0], [1.0], [0.0]])
    assert mp_multiply(row, col).data[0, 0] == 3.0
    # squared one-hop matrix, entry (1,4) 1-based: 1 + 5 via the third node
    sq = mp_multiply(TropicalMatrix(example_a), TropicalMatrix(example_a))
    assert sq.data[0, 3] == 6.0


def test_multiply_shape_mismatch():
    with pytest.raises(ShapeError):
        mp_multiply(TropicalMatrix(np.zeros((2, 3))), TropicalMatrix(np.zeros((2, 3))))


def test_multiply_infinity_absorbs():
    a = TropicalMatrix([[INF, INF]])
    b = TropicalMatrix([[1.0], [2.0]])
    assert mp_multiply(a, b).data[0, 0] == INF


def test_associativity_exact_on_integers():
    rng = np.random.default_rng(1)
    for _ in range(30):
        n, m, k, d = (int(rng.integers(1, 7)) for _ in range(4))
        mats = []
        for rows, cols in ((n, m), (m, k), (k, d)):
            data = rng.integers(-5, 12, size=(rows, cols)).astype(float)
            data[rng.random(size=(rows, cols)) < 0.2] = INF
            mats.append(TropicalMatrix(data))
        a, b, c = mats
        left = mp_multiply(mp_multiply(a, b), c)
        right = mp_multiply(a, mp_multiply(b, c))
        assert np.array_equal(left.data, right.data)


def brute_force_product(a, b):
    """Triple-loop oracle: entry (i,j) = min over k of a_ik + b_kj."""
    out = np.full((a.shape[0], b.shape[1]), INF)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            for k in range(a.shape[1]):
                out[i, j] = min(out[i, j], a[i, k] + b[k, j])
    return out


@pytest.mark.parametrize(
    "shape", [(5, 1, 4), (1, 6, 1), (1, 5, 7), (6, 0, 3), (4, 7, 3), (7, 3, 5)]
)
def test_multiply_matches_brute_force_bitwise(shape):
    n, k, m = shape
    rng = np.random.default_rng(list(shape))
    for _ in range(5):
        a = rng.normal(scale=10.0, size=(n, k))
        b = rng.normal(scale=10.0, size=(k, m))
        a[rng.random(size=a.shape) < 0.25] = INF
        b[rng.random(size=b.shape) < 0.25] = INF
        got = mp_multiply(TropicalMatrix(a), TropicalMatrix(b)).data
        assert got.shape == (n, m)
        assert np.array_equal(got, brute_force_product(a, b))


def test_transpose_antihomomorphism():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = TropicalMatrix(rng.integers(0, 9, size=(3, 4)).astype(float))
        b = TropicalMatrix(rng.integers(0, 9, size=(4, 5)).astype(float))
        lhs = mp_multiply(a, b).transpose()
        rhs = mp_multiply(b.transpose(), a.transpose())
        assert np.array_equal(lhs.data, rhs.data)


def test_power_zero_is_identity():
    a = TropicalMatrix([[3.0, 1.0], [0.0, 2.0]])
    assert np.array_equal(mp_power(a, 0).data, identity(2).data)


def test_power_matches_repeated_product(example_a):
    a = TropicalMatrix(example_a)
    p = mp_multiply(mp_multiply(a, a), a)
    assert np.array_equal(mp_power(a, 3).data, p.data)


def test_kleene_star_of_example_matches_distances(example_a, example_d):
    star = kleene_star(TropicalMatrix(example_a))
    assert np.array_equal(star.data, example_d)
    assert star.data[0, 4] == 9.0
    assert star.data[1, 3] == 7.0


def test_kleene_star_of_identity():
    assert np.array_equal(kleene_star(identity(4)).data, identity(4).data)


def test_kleene_star_negative_cycle_raises():
    with pytest.raises(NegativeCycleError):
        kleene_star(TropicalMatrix([[0.0, -1.0], [-1.0, 0.0]]))


def test_kleene_star_negative_entries_without_cycle():
    # one-way negative edge: no cycle, closure is finite
    a = TropicalMatrix([[0.0, -2.0], [INF, 0.0]])
    star = kleene_star(a)
    assert np.array_equal(star.data, np.array([[0.0, -2.0], [INF, 0.0]]))


def test_kleene_star_truncated_series(example_a):
    a = TropicalMatrix(example_a)
    partial = identity(6)
    for p in range(1, 6):
        partial = TropicalMatrix(np.minimum(partial.data, mp_power(a, p).data))
        got = truncated_series(a, p)
        assert np.array_equal(got.data, partial.data)
    # non-negative weights: the series stabilizes at power n-1
    assert np.array_equal(truncated_series(a, 5).data, kleene_star(a).data)


def closure_cases(n):
    """(name, one-hop matrix) pairs at size n: integer and real weights,
    directed and undirected, two components, a symmetric negative entry,
    which closes a negative cycle, and a directed negative edge inside
    the first pivot block, which does not."""
    rng = np.random.default_rng(n)
    base = rng.integers(1, 10, size=(n, n)).astype(float)
    base[rng.random((n, n)) < 0.9] = INF
    real = base * (0.1 * np.pi)
    cut = np.zeros((n, n), dtype=bool)
    cut[: n // 2, n // 2:] = True
    cut |= cut.T
    negative = np.minimum(base, base.T)
    negative[0, min(1, n - 1)] = negative[min(1, n - 1), 0] = -1.0
    backward = real.copy()
    if n > 1:  # every other edge weighs at least 0.1*pi > 0.3
        backward[min(5, n - 1), min(3, n - 2)] = -0.3
    return [
        ("integer directed", base),
        ("integer undirected", np.minimum(base, base.T)),
        ("real directed", real),
        ("real undirected", np.minimum(real, real.T)),
        ("disconnected directed", np.where(cut, INF, real)),
        ("disconnected undirected", np.where(cut, INF, np.minimum(real, real.T))),
        ("symmetric negative entry", negative),
        ("directed negative edge", backward),
    ]


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 15, 16, 17, 33, 63, 64, 65, 129, 200])
def test_kleene_star_matches_full_matrix_reference(n):
    # the blocked closure, upper triangle only on symmetric input, equals
    # the full-matrix loop byte for byte on both sides of each block and
    # tile edge, and with a partial last block
    raised = 0
    for name, a in closure_cases(n):
        try:
            expected = ref_kleene_star(a)
        except NegativeCycleError:
            raised += 1
            with pytest.raises(NegativeCycleError):
                kleene_star(TropicalMatrix(a))
            continue
        assert kleene_star(TropicalMatrix(a)).data.tobytes() == expected.tobytes(), name
    assert raised == 1


def test_kleene_star_memory_is_one_matrix_and_a_tile():
    n = 300
    rng = np.random.default_rng(301)
    a = TropicalMatrix(random_nonneg_graph_matrix(rng, n, density=0.02))
    tracemalloc.start()
    try:
        kleene_star(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.7 * n * n * 8  # D and O(CLOSURE_BLOCK*CLOSURE_ROWS*n) scratch; no copy of D


def test_kleene_star_idempotent_and_dominated():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        a = TropicalMatrix(random_nonneg_graph_matrix(rng, n))
        star = kleene_star(a)
        assert is_idempotent(TropicalMatrix(star.data))  # an unmarked copy, so the product runs
        assert (star.data <= a.data + 1e-12).all()
        assert (np.diag(star.data) == 0.0).all()


def test_kleene_star_monotone():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        a = random_nonneg_graph_matrix(rng, n)
        bump = rng.integers(0, 3, size=(n, n)).astype(float)
        np.fill_diagonal(bump, 0.0)
        bigger = a + np.where(np.isinf(a), 0.0, bump)
        sa = kleene_star(TropicalMatrix(a)).data
        sb = kleene_star(TropicalMatrix(bigger)).data
        assert (sa <= sb + 1e-12).all()


def test_is_idempotent_hand_cases():
    assert is_idempotent(TropicalMatrix([[0.0, 1.0], [1.0, 0.0]]))
    assert is_idempotent(identity(3))
    # square of (0,1;3,0): entry (0,1) = min(0+1, 1+0) = 1 and entry
    # (1,0) = min(3+0, 0+3) = 3, so the matrix reproduces itself
    assert is_idempotent(TropicalMatrix([[0.0, 1.0], [3.0, 0.0]]))
    # nonzero diagonal keeps shrinking under squaring
    assert not is_idempotent(TropicalMatrix([[1.0, 1.0], [1.0, 1.0]]))


def test_is_idempotent_memory_is_quadratic():
    n = 300
    rng = np.random.default_rng(300)
    closure = kleene_star(TropicalMatrix(random_nonneg_graph_matrix(rng, n, density=0.02)))
    unmarked = TropicalMatrix(closure.data)  # kleene_star's mark would skip the product
    tracemalloc.start()
    try:
        assert is_idempotent(unmarked)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * n * n * 8  # a few n x n arrays, never n x n x n
    assert peak < 3.5 * n * n * 8  # the product, its scratch and the comparison; one k's factors at a time


def test_tropical_allclose_infinity_handling():
    a = TropicalMatrix([[0.0, INF]])
    b = TropicalMatrix([[1e-12, INF]])
    c = TropicalMatrix([[0.0, 1e9]])
    assert tropical_allclose(a, b)
    assert not tropical_allclose(a, c)


def test_frobenius_distance_hand_value():
    d = frobenius_distance(
        TropicalMatrix([[0.0, 1.0], [1.0, 0.0]]),
        TropicalMatrix([[2.0, 1.0], [1.0, 4.0]]),
    )
    assert d == pytest.approx(np.sqrt(20.0))
    assert frobenius_distance(TropicalMatrix([[3.0]]), TropicalMatrix([[3.0]])) == 0.0


def test_frobenius_distance_rejects_infinity():
    with pytest.raises(DomainError):
        frobenius_distance(TropicalMatrix([[INF]]), TropicalMatrix([[0.0]]))


def test_csv_round_trip_exact():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n, d = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        data = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-8, 9)
        data[rng.random(size=(n, d)) < 0.2] = INF
        m = TropicalMatrix(data)
        back = read_matrix_csv(write_matrix_csv(m))
        assert np.array_equal(back.data, m.data)


def ref_write_csv(data):
    """The matrix CSV format, one format() call per entry."""
    lines = [",".join(format(v, ".17g") for v in row) for row in data]
    return "\n".join(lines) + ("\n" if lines else "")


def test_csv_writer_matches_per_value_format():
    rng = np.random.default_rng(6)
    random = rng.standard_normal((7, 5)) * 10.0 ** rng.integers(-300, 300, size=(7, 5))
    graph30 = load_edge_list((Path(__file__).parent / "golden" / "graph30.edges").read_text())
    cases = [  # mostly distinct entries, then mostly repeated ones: each path of the writer
        np.array([[-1.5, -0.0, 0.0, INF], [1e-300, 1e300, -1e-300, -1e300], [0.1, 1 / 3, 5e-324, 2.0**53]]),
        random,
        np.empty((3, 0)),
        np.empty((0, 0)),
        np.array([[INF]]),
        shortest_path_matrix(graph30).data,
        rng.choice([0.0, -0.0, INF], size=(20, 90)),
        rng.choice([5e-324, 1e300], size=(9, 8)),
        rng.choice([1.0, 2.5, INF], size=(150, 7)),  # rows in three tiles
    ]
    for data in cases:  # wrapped, not constructed: the constructor would turn -0.0 into 0.0
        assert write_matrix_csv(TropicalMatrix._wrap(data)) == ref_write_csv(data)


def test_csv_writer_memory_is_its_text_and_one_key_array():
    n = 300
    closure = kleene_star(TropicalMatrix(random_nonneg_graph_matrix(np.random.default_rng(302), n, density=0.02)))
    tracemalloc.start()
    try:
        text = write_matrix_csv(closure)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(text) + n * n * 8  # no n x n array of strings or indices beside the int64 keys


def test_csv_reads_inf_token_any_case():
    m = read_matrix_csv("0,INF\nInf,1\n")
    assert m.data[0, 1] == INF and m.data[1, 0] == INF


def test_csv_skips_blank_lines():
    m = read_matrix_csv("\n1,2\n\n3,4\n\n")
    assert np.array_equal(m.data, np.array([[1.0, 2.0], [3.0, 4.0]]))


def test_csv_empty_input_gives_empty_matrix():
    m = read_matrix_csv("")
    assert m.shape == (0, 0)


def test_csv_parse_errors_carry_line_numbers():
    from minplus import ParseError

    with pytest.raises(ParseError, match="line 2"):
        read_matrix_csv("1,2\n3\n")
    with pytest.raises(ParseError):
        read_matrix_csv("1,nan\n")
    with pytest.raises(ParseError):
        read_matrix_csv("1,-inf\n")
    with pytest.raises(ParseError):
        read_matrix_csv("1,abc\n")
