"""so(n) and sl_n from matrix bases, for tests on user algebras of dimension
6 to 10.  They stay out of the catalog, whose names the CLI accepts."""

from fractions import Fraction

from liestar.algebra import algebra_from_brackets


def _unit(n, i, j):
    m = [[Fraction(0)] * n for _ in range(n)]
    m[i][j] = Fraction(1)
    return m


def _commutator(a, b):
    n = len(a)
    ab = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    ba = [[sum(b[i][k] * a[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[ab[i][j] - ba[i][j] for j in range(n)] for i in range(n)]


def _from_basis(basis, coordinates, name):
    """Structure constants of the span of `basis`, where `coordinates(m)`
    gives a matrix of the span in that basis."""
    brackets = []
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            for k, v in enumerate(coordinates(_commutator(basis[i], basis[j]))):
                if v:
                    brackets.append((i + 1, j + 1, k + 1, v))
    return algebra_from_brackets(len(basis), brackets, name=name)


def so_n(n):
    """so(n) on the basis E_ij - E_ji, i < j; dimension n(n-1)/2."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    basis = []
    for i, j in pairs:
        m = _unit(n, i, j)
        m[j][i] = Fraction(-1)
        basis.append(m)
    return _from_basis(basis, lambda m: [m[i][j] for i, j in pairs], f"so{n}")


def sl_n(n):
    """sl_n on the basis E_ij (i != j) and E_ii - E_(i+1)(i+1); dimension
    n^2 - 1."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    basis = [_unit(n, i, j) for i, j in pairs]
    for i in range(n - 1):
        m = _unit(n, i, i)
        m[i + 1][i + 1] = Fraction(-1)
        basis.append(m)

    def coordinates(m):
        # a traceless diagonal d is sum_k (d_1 + ... + d_k) H_k
        return [m[i][j] for i, j in pairs] + [sum(m[k][k] for k in range(i + 1)) for i in range(n - 1)]

    return _from_basis(basis, coordinates, f"sl{n}")
