"""Exact integer linear algebra on plain tuples.

Vectors are tuples of Python ints, matrices are tuples of row tuples, so every
value is immutable, hashable, and arbitrary precision.  No floats and no
rationals anywhere: vec() rejects them, and inverses come from the
fraction-free adjugate.
Every change of lattice coordinates (into a saturated span, its quotient,
and back) goes through lattice_frame.

The vector kernels (dot, vadd, vsub, gcd_vec, primitive_part, is_zero, vec)
are the innermost loops of the library, so they run on C builtins: map over
the operator functions, one gcd of all entries, any().  The binary ones
check lengths first and raise ValueError on a mismatch.
"""

from __future__ import annotations

from math import gcd
from operator import add, index, mul, sub

from .errors import DependentGenerators, ValidationError, ZeroVector

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]


def vec(xs) -> Vec:
    """xs as a Vec.  Ints and bools pass; a float, Fraction or any other
    entry without __index__ raises ValidationError instead of truncating."""
    try:
        return tuple(map(index, xs))
    except TypeError:
        raise ValidationError(f"vector entries must be integers, got {xs!r}") from None


def strict_vec(xs, what="vector") -> Vec:
    """xs as a Vec, for input checks at library entry points: unlike vec(),
    which takes bools as 0 and 1, it rejects any entry that is not an int."""
    if not isinstance(xs, (tuple, list)) or \
       not all(type(x) is int for x in xs):
        raise ValidationError(f"{what} must be a sequence of ints, got {xs!r}")
    return tuple(xs)


def mat(rows) -> Mat:
    return tuple(vec(r) for r in rows)


def zero_vec(d: int) -> Vec:
    return (0,) * d


def is_zero(v) -> bool:
    return not any(v)


def _length_mismatch(u, v):
    return ValueError(f"vector lengths differ: {len(u)} != {len(v)}")


def dot(u, v) -> int:
    if len(u) != len(v):
        raise _length_mismatch(u, v)
    return sum(map(mul, u, v))


def vadd(u, v) -> Vec:
    if len(u) != len(v):
        raise _length_mismatch(u, v)
    return tuple(map(add, u, v))


def vsum(vs, d: int) -> Vec:
    """The sum of the vectors vs, all of length d; the zero vector if none."""
    return tuple(map(sum, zip(*vs, strict=True))) or zero_vec(d)


def vsub(u, v) -> Vec:
    if len(u) != len(v):
        raise _length_mismatch(u, v)
    return tuple(map(sub, u, v))


def vneg(v) -> Vec:
    return tuple(-a for a in v)


def vscale(k: int, v) -> Vec:
    return tuple(k * a for a in v)


def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(A) -> Mat:
    return tuple(zip(*A)) if A else ()


def matmul(A, B) -> Mat:
    Bt = transpose(B)
    return tuple(tuple(dot(r, c) for c in Bt) for r in A)


def mat_vec(A, v) -> Vec:
    return tuple(dot(r, v) for r in A)


def vec_mat(v, A) -> Vec:
    return tuple(dot(v, c) for c in transpose(A))


def gcd_vec(v) -> int:
    return gcd(*v)


def primitive_part(v) -> Vec:
    """v / gcd(coords); spans the same ray.  Raises ZeroVector on v = 0 or
    an empty v."""
    g = gcd(*v)
    if g == 1:
        return tuple(v)
    if g == 0:
        raise ZeroVector("primitive part of the zero vector is undefined")
    return tuple(a // g for a in v)


def hermite_normal_form(A) -> tuple[Mat, Mat]:
    """Row-style Hermite normal form.

    Returns (H, U) with H = U*A, U unimodular, H in row echelon form with
    positive pivots and entries above each pivot reduced into [0, pivot).
    """
    A = mat(A)
    m = len(A)
    if m == 0:
        return (), ()
    n = len(A[0])
    H = [list(r) for r in A]
    U = [list(r) for r in identity(m)]

    def _addmul(dst, src, q):
        H[dst] = [a - q * b for a, b in zip(H[dst], H[src])]
        U[dst] = [a - q * b for a, b in zip(U[dst], U[src])]

    r = 0
    for c in range(n):
        if r == m:
            break
        # gcd loop: make H[r][c] the positive gcd of column c below row r
        while True:
            nz = [i for i in range(r, m) if H[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(H[i][c]), i))
            if i0 != r:
                H[r], H[i0] = H[i0], H[r]
                U[r], U[i0] = U[i0], U[r]
            if H[r][c] < 0:
                H[r] = [-a for a in H[r]]
                U[r] = [-a for a in U[r]]
            clean = True
            for i in range(r + 1, m):
                q = H[i][c] // H[r][c]
                if q:
                    _addmul(i, r, q)
                if H[i][c] != 0:
                    clean = False
            if clean:
                break
        if H[r][c] != 0:
            for i in range(r):
                q = H[i][c] // H[r][c]
                if q:
                    _addmul(i, r, q)
            r += 1
    return mat(H), mat(U)


def rank(A) -> int:
    A = mat(A)
    if not A:
        return 0
    H, _ = hermite_normal_form(A)
    return sum(1 for row in H if not is_zero(row))


def smith_normal_form(A) -> tuple[Mat, Mat, Mat]:
    """Smith normal form: returns (D, U, V) with D = U*A*V.

    D is diagonal with nonnegative entries d_i satisfying d_i | d_{i+1};
    U and V are unimodular.
    """
    A = mat(A)
    m = len(A)
    if m == 0:
        return (), (), ()
    n = len(A[0])
    D = [list(r) for r in A]
    U = [list(r) for r in identity(m)]
    V = [list(r) for r in identity(n)]

    def row_addmul(dst, src, q):
        D[dst] = [a - q * b for a, b in zip(D[dst], D[src])]
        U[dst] = [a - q * b for a, b in zip(U[dst], U[src])]

    def col_addmul(dst, src, q):
        for row in (D, V):
            for i in range(len(row)):
                row[i][dst] -= q * row[i][src]

    def row_swap(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for row in (D, V):
            for k in range(len(row)):
                row[k][i], row[k][j] = row[k][j], row[k][i]

    for t in range(min(m, n)):
        while True:
            entries = [(abs(D[i][j]), i, j) for i in range(t, m)
                       for j in range(t, n) if D[i][j] != 0]
            if not entries:
                break
            _, i0, j0 = min(entries)
            if i0 != t:
                row_swap(t, i0)
            if j0 != t:
                col_swap(t, j0)
            if D[t][t] < 0:
                D[t] = [-a for a in D[t]]
                U[t] = [-a for a in U[t]]
            for i in range(t + 1, m):
                q = D[i][t] // D[t][t]
                if q:
                    row_addmul(i, t, q)
            for j in range(t + 1, n):
                q = D[t][j] // D[t][t]
                if q:
                    col_addmul(j, t, q)
            if any(D[i][t] for i in range(t + 1, m)) or \
               any(D[t][j] for j in range(t + 1, n)):
                continue
            # divisibility fix: pull in a row holding a non-divisible entry
            bad = next(((i, j) for i in range(t + 1, m) for j in range(t + 1, n)
                        if D[i][j] % D[t][t] != 0), None)
            if bad is None:
                break
            row_addmul(t, bad[0], -1)
    return mat(D), mat(U), mat(V)


def diagonal(D) -> Vec:
    return tuple(D[i][i] for i in range(min(len(D), len(D[0]) if D else 0)))


def determinant(A) -> int:
    """Bareiss fraction-free determinant of a square integer matrix."""
    A = mat(A)
    n = len(A)
    if n == 0:
        return 1
    M = [list(r) for r in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i][k] != 0), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def adjugate(A) -> tuple[int, Mat]:
    """(det A, adj A) of a square integer matrix, so A adj(A) = det(A) I.

    Fraction-free Gauss-Jordan elimination (Bareiss) on (A | I): every entry
    stays an integer minor of (A | I), so each division is exact, and a
    nonsingular A ends at (d I | d A^-1), for d the determinant of A with its
    rows swapped as pivoting did.  Signed back, that right block is adj(A).
    A singular A stops short of that; its adjugate is read off the cofactors.
    """
    A = mat(A)
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValidationError(f"a non-square matrix {A!r} has no adjugate")
    M = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(A)]
    sign = 1
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if M[i][k] != 0), None)
        if piv is None:
            return 0, tuple(tuple(
                (-1) ** (i + j) * determinant(
                    [r[:i] + r[i + 1:] for m, r in enumerate(A) if m != j])
                for j in range(n)) for i in range(n))
        if piv != k:
            M[k], M[piv] = M[piv], M[k]
            sign = -sign
        pivot_row = M[k]
        p = pivot_row[k]
        for i in range(n):
            if i != k:
                f = M[i][k]
                M[i] = [(p * a - f * b) // prev for a, b in zip(M[i], pivot_row)]
        prev = p
    return sign * prev, tuple(tuple(sign * a for a in row[n:]) for row in M)


def unimodular_inverse(A) -> Mat:
    """Inverse of a unimodular integer matrix: det(A) adj(A), det(A) = +-1.

    Raises ValidationError when A is not square, is singular, or has a
    determinant other than +-1.
    """
    det, adj = adjugate(A)
    if det == 0:
        raise ValidationError(f"cannot invert a singular matrix {mat(A)!r}")
    if det not in (1, -1):
        raise ValidationError(f"matrix {mat(A)!r} is not unimodular")
    return adj if det == 1 else tuple(vneg(row) for row in adj)


def saturation_basis(vectors) -> Mat:
    """Canonical (HNF) basis of (Q-span of the vectors) intersected with Z^d."""
    vectors = mat(vectors)
    if not vectors:
        return ()
    D, _, V = smith_normal_form(vectors)
    d = diagonal(D)
    Vinv = unimodular_inverse(V)
    rows = tuple(Vinv[i] for i in range(len(d)) if d[i] != 0)
    if not rows:
        return ()
    H, _ = hermite_normal_form(rows)
    return tuple(r for r in H if not is_zero(r))


def lattice_frame(vectors, dim: int) -> tuple[Mat, Mat, int]:
    """(P, Q, k): a unimodular P whose first k rows are
    saturation_basis(vectors), and Q = P^-1.

    For c = v Q, v lies in the saturated span iff c[k:] == 0, and then c[:k]
    are its coordinates on the basis; c[k:] is the image of v in the quotient
    lattice Z^dim / span.  With U B V = (I_k | 0) the Smith form of the
    saturated basis B, P is B over the last dim - k rows of V^-1 and
    Q = V diag(U, I).  When k is 0 or dim, that is the identity; dim vectors
    with a nonzero determinant have k = dim, so they take no Smith form.
    """
    if len(vectors) == dim and determinant(vectors):
        return identity(dim), identity(dim), dim
    B = saturation_basis(vectors)
    k = len(B)
    if k in (0, dim):
        return identity(dim), identity(dim), k
    _, U, V = smith_normal_form(B)
    P = B + unimodular_inverse(V)[k:]
    Q = tuple(a + r[k:] for a, r in zip(matmul([r[:k] for r in V], U), V))
    return P, Q, k


def sublattice_index(generators) -> int:
    """Index of the lattice spanned by the generators inside its saturation.

    Requires the generators to be linearly independent; equals the product of
    the nonzero Smith diagonal entries (the absolute determinant when square).
    """
    G = mat(generators)
    if not G:
        return 1
    D, _, _ = smith_normal_form(G)
    d = diagonal(D)
    if len(d) < len(G) or any(x == 0 for x in d):
        raise DependentGenerators("generators are linearly dependent")
    idx = 1
    for x in d:
        idx *= x
    return idx
