import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from toricnash import intlinalg as la
from toricnash.errors import DependentGenerators, ValidationError, ZeroVector


def det2(A):
    return A[0][0] * A[1][1] - A[0][1] * A[1][0]


def is_hermite(H):
    """Row echelon, positive pivots, entries above each pivot in [0, pivot)."""
    last = -1
    for row in H:
        nz = [j for j, x in enumerate(row) if x != 0]
        if not nz:
            continue
        p = nz[0]
        if p <= last:
            return False
        last = p
    # pivot columns reduced
    pivots = []
    for i, row in enumerate(H):
        nz = [j for j, x in enumerate(row) if x != 0]
        if nz:
            pivots.append((i, nz[0]))
    for i, p in pivots:
        if H[i][p] <= 0:
            return False
        for k in range(i):
            if not (0 <= H[k][p] < H[i][p]):
                return False
    return True


def test_hnf_hand_example():
    # hand row-reduction: swap, eliminate, reduce above the pivot
    H, U = la.hermite_normal_form([[2, 4], [1, 3]])
    assert H == ((1, 1), (0, 2))
    assert la.matmul(U, ((2, 4), (1, 3))) == H
    assert abs(det2(U)) == 1


def test_hnf_identity_and_zero():
    H, U = la.hermite_normal_form(la.identity(3))
    assert H == la.identity(3)
    assert U == la.identity(3)
    H, _ = la.hermite_normal_form([[0, 0]])
    assert H == ((0, 0),)


def test_hnf_random_properties():
    rng = random.Random(7)
    for _ in range(500):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = la.mat([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        H, U = la.hermite_normal_form(A)
        assert la.matmul(U, A) == H
        assert abs(la.determinant(U)) == 1
        assert is_hermite(H)


def test_snf_examples():
    D, U, V = la.smith_normal_form([[2, 4], [1, 3]])
    assert la.diagonal(D) == (1, 2)
    assert D == la.matmul(la.matmul(U, ((2, 4), (1, 3))), V)
    D, _, _ = la.smith_normal_form([[6, 0], [0, 4]])
    assert la.diagonal(D) == (2, 12)
    D, _, _ = la.smith_normal_form(la.identity(2))
    assert la.diagonal(D) == (1, 1)


def test_snf_random_properties():
    rng = random.Random(11)
    for _ in range(500):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = la.mat([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        D, U, V = la.smith_normal_form(A)
        assert D == la.matmul(la.matmul(U, A), V)
        assert abs(la.determinant(U)) == 1
        assert abs(la.determinant(V)) == 1
        d = la.diagonal(D)
        for i, x in enumerate(d):
            assert x >= 0
            if i + 1 < len(d) and x != 0:
                assert d[i + 1] % x == 0
            if x == 0 and i + 1 < len(d):
                assert d[i + 1] == 0
        # off-diagonal zero
        for i, row in enumerate(D):
            for j, x in enumerate(row):
                if i != j:
                    assert x == 0
        if m == n:
            prod = 1
            for x in d:
                prod *= x
            assert prod == abs(la.determinant(A))


def cofactor_adjugate(A):
    """The adjugate by its definition: adj[i][j] = (-1)^(i+j) times the minor
    of A without row j and column i."""
    n = len(A)
    return tuple(tuple((-1) ** (i + j) * la.determinant(
        [r[:i] + r[i + 1:] for k, r in enumerate(A) if k != j])
        for j in range(n)) for i in range(n))


def test_adjugate_random_properties():
    """A adj(A) = det(A) I on seeded random square matrices of size 1-6,
    with det the Bareiss determinant and adj the cofactor matrix; about a
    fifth are made singular by a dependent last row."""
    rng = random.Random(13)
    singular = 0
    for _ in range(600):
        n = rng.randint(1, 6)
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.2:
            k = rng.randint(-2, 2)
            A[-1] = [k * a for a in A[0]]
        det, adj = la.adjugate(A)
        assert det == la.determinant(A)
        assert la.matmul(A, adj) == tuple(la.vscale(det, r) for r in la.identity(n))
        assert adj == cofactor_adjugate(la.mat(A))
        singular += det == 0
    assert singular > 50


def test_adjugate_edge_cases():
    assert la.adjugate(()) == (1, ())
    assert la.adjugate([[0]]) == (0, ((1,),))
    assert la.adjugate([[0, 0], [0, 0]]) == (0, ((0, 0), (0, 0)))
    assert la.adjugate([[2, 1], [4, 2]]) == (0, ((2, -1), (-4, 2)))
    with pytest.raises(ValidationError, match="non-square"):
        la.adjugate([[1, 2]])


def test_unimodular_inverse_random():
    rng = random.Random(17)
    for _ in range(200):
        d = rng.randint(1, 6)
        U = random_unimodular(rng, d)
        if rng.random() < 0.5:
            U = (la.vneg(U[0]),) + U[1:]
        assert la.matmul(U, la.unimodular_inverse(U)) == la.identity(d)


@pytest.mark.parametrize("A, why", [
    (((1, 0),), "non-square"), (((1, 2), (2, 4)), "singular"),
    (((2, 1), (1, 1)), None), (((2, 0), (0, 1)), "not unimodular")])
def test_unimodular_inverse_rejects(A, why):
    if why is None:
        assert la.unimodular_inverse(A) == ((1, -1), (-1, 2))
        return
    with pytest.raises(ValidationError, match=why):
        la.unimodular_inverse(A)


def test_primitive_part():
    assert la.primitive_part((4, 6)) == (2, 3)
    assert la.primitive_part((-2, 0)) == (-1, 0)
    assert la.primitive_part((1, 2, 3)) == (1, 2, 3)
    with pytest.raises(ZeroVector):
        la.primitive_part((0, 0))
    rng = random.Random(3)
    for _ in range(200):
        d = rng.randint(1, 4)
        v = tuple(rng.randint(-9, 9) for _ in range(d))
        if la.is_zero(v):
            continue
        k = rng.randint(1, 9)
        assert la.primitive_part(la.vscale(k, v)) == la.primitive_part(v)


# the generator definitions the C-builtin kernels replaced
def old_dot(u, v):
    return sum(a * b for a, b in zip(u, v, strict=True))


def old_vadd(u, v):
    return tuple(a + b for a, b in zip(u, v, strict=True))


def old_vsub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


def old_gcd_vec(v):
    g = 0
    for a in v:
        g = math.gcd(g, a)
    return g


def old_primitive_part(v):
    g = old_gcd_vec(v)
    if g == 0:
        raise ZeroVector("primitive part of the zero vector is undefined")
    return tuple(a // g for a in v)


@st.composite
def vector_pairs(draw):
    d = draw(st.integers(0, 6))
    vector = st.tuples(*[st.integers(-10**6, 10**6) | st.integers(-3, 3)] * d)
    return draw(vector), draw(vector)


@given(vector_pairs())
def test_kernels_match_generator_definitions(pair):
    u, v = pair
    assert la.dot(u, v) == old_dot(u, v)
    assert la.vadd(u, v) == old_vadd(u, v)
    assert la.vsub(u, v) == old_vsub(u, v)
    assert la.gcd_vec(u) == old_gcd_vec(u)
    assert la.is_zero(u) == all(a == 0 for a in u)
    assert la.vec(list(u)) == u
    if la.is_zero(u):
        with pytest.raises(ZeroVector):
            la.primitive_part(u)
    else:
        got = la.primitive_part(u)
        assert got == old_primitive_part(u)
        assert type(got) is tuple and all(type(a) is int for a in got)


@given(vector_pairs(), st.integers(1, 3))
def test_kernels_reject_a_length_mismatch(pair, extra):
    u, v = pair
    longer = v + (1,) * extra
    for kernel in (la.dot, la.vadd, la.vsub):
        with pytest.raises(ValueError):
            kernel(u, longer)
        with pytest.raises(ValueError):
            kernel(longer, u)


def test_vec_rejects_non_integer_entries():
    assert la.vec([1, -2, True]) == (1, -2, 1)
    assert type(la.vec([True])[0]) is int
    for bad in ([0.5, 1], [1.0, 2], [Fraction(1, 2)], [Fraction(2, 1)], ["1"]):
        with pytest.raises(ValidationError):
            la.vec(bad)


def test_sublattice_index():
    assert la.sublattice_index([(1, 0), (1, 2)]) == 2
    assert la.sublattice_index(la.identity(3)) == 1
    with pytest.raises(DependentGenerators):
        la.sublattice_index([(1, 0), (2, 0)])


def random_unimodular(rng, d, steps=6):
    M = [list(r) for r in la.identity(d)]
    for _ in range(steps):
        i, j = rng.sample(range(d), 2) if d > 1 else (0, 0)
        if i == j:
            continue
        q = rng.randint(-2, 2)
        M[i] = [a + q * b for a, b in zip(M[i], M[j])]
    return la.mat(M)


def test_sublattice_index_unimodular_invariance():
    rng = random.Random(19)
    for _ in range(200):
        d = rng.randint(2, 4)
        k = rng.randint(1, d)
        while True:
            gens = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(k)]
            if la.rank(gens) == k:
                break
        U = random_unimodular(rng, d)
        moved = [la.mat_vec(U, g) for g in gens]
        assert la.sublattice_index(gens) == la.sublattice_index(moved)


def test_kernel_and_saturation():
    B = la.saturation_basis([(2, 0, 2), (0, 4, 4)])
    # saturation of span{(1,0,1),(0,1,1)} is itself (already saturated)
    assert B == ((1, 0, 1), (0, 1, 1))
    _, Q, k = la.lattice_frame([(2, 0, 2), (0, 4, 4)], 3)
    assert k == 2
    assert la.vec_mat((1, 0, 1), Q) == (1, 0, 0)
    assert la.vec_mat((0, 1, 1), Q) == (0, 1, 0)


@pytest.mark.parametrize("vectors, P", [
    ([(1, 2, 3)], ((1, 2, 3), (0, 1, 0), (0, 0, 1))),
    ([(1, 2, 3), (2, 3, 7)], ((1, 0, 5), (0, 1, -1), (0, 0, 1))),
    ([(1, 0, 0, 1), (0, 1, 0, 1), (1, 3, 7, 11)],
     ((1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1), (0, 0, 0, 1))),
    ([], la.identity(3))])
def test_lattice_frame_completion(vectors, P):
    """The completion rows fix the canonical facet normals of lower-
    dimensional cones, and through them every reported resolution."""
    got, Q, k = la.lattice_frame(vectors, len(P))
    assert got == P
    assert k == len(vectors)
    assert la.matmul(P, Q) == la.identity(len(P))


@pytest.mark.parametrize("vectors", [
    [(2, 0), (0, 1)], [(1, 2, 3), (0, 1, 0), (0, 0, 7)]])
def test_lattice_frame_full_rank_is_identity(monkeypatch, vectors):
    """dim vectors with a nonzero determinant span a full-rank sublattice,
    whose saturation is the whole lattice: the identity frame, with no
    saturation basis computed, even when the sublattice has index > 1."""
    def refuse(vs):
        raise AssertionError(f"saturation_basis({vs}) was called")

    monkeypatch.setattr(la, "saturation_basis", refuse)
    d = len(vectors)
    assert la.lattice_frame(vectors, d) == (la.identity(d), la.identity(d), d)


@pytest.mark.parametrize("vectors, P, Q, k", [
    ([(1, 2), (2, 4)], ((1, 2), (0, 1)), ((1, -2), (0, 1)), 1),
    ([(1, 2, 3), (2, 4, 6), (0, 0, 1)],
     ((1, 2, 0), (0, 0, 1), (0, 1, 0)), ((1, 0, -2), (0, 0, 1), (0, 1, 0)), 2)])
def test_lattice_frame_singular_square_is_saturated(monkeypatch, vectors, P, Q, k):
    """A square input of determinant 0 takes the saturation path; the frames
    were recorded before full-rank inputs skipped it."""
    calls = []
    real = la.saturation_basis

    def counting(vs):
        calls.append(vs)
        return real(vs)

    monkeypatch.setattr(la, "saturation_basis", counting)
    assert la.lattice_frame(vectors, len(vectors)) == (P, Q, k)
    assert len(calls) == 1


@st.composite
def frame_inputs(draw):
    d = draw(st.integers(1, 4))
    vector = st.tuples(*[st.integers(-3, 3)] * d)
    return d, draw(st.lists(vector, max_size=4)), draw(vector)


@given(frame_inputs())
def test_lattice_frame_properties(case):
    d, vectors, w = case
    P, Q, k = la.lattice_frame(vectors, d)
    assert la.matmul(P, Q) == la.identity(d)
    assert P[:k] == la.saturation_basis(vectors)
    assert k == la.rank(vectors)
    for v in vectors:
        c = la.vec_mat(v, Q)
        assert la.is_zero(c[k:])
        assert la.vec_mat(c[:k] + la.zero_vec(d - k), P) == v
    in_span = la.rank(list(vectors) + [w]) == k
    assert la.is_zero(la.vec_mat(w, Q)[k:]) == in_span

