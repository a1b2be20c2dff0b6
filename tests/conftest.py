import random

import pytest
from hypothesis import strategies as st

from eaqeckit import FMatrix, errors, field_new, from_generator
from eaqeckit.lincode import DEFAULT_BUDGET, check_pair


def random_matrix(rng: random.Random, field, nrows: int, ncols: int) -> FMatrix:
    return FMatrix(field, [[rng.randrange(field.q) for _ in range(ncols)]
                           for _ in range(nrows)], ncols)


def random_code(rng: random.Random, field, n: int, rows: int):
    """Random nonzero code of length n spanned by `rows` random rows."""
    while True:
        code = from_generator(random_matrix(rng, field, rows, n), allow_zero=True)
        if code.k > 0:
            return code


# One field per arithmetic backend: residues mod p, the flat tables of
# vec_ops (extension fields with q <= 1024), and the Z_p[x] routines above that.
BACKEND_FIELDS = [(13, 1), (3, 3), (17, 8)]


def draw_matrix(data, field, nrows: int, ncols: int) -> FMatrix:
    """Hypothesis-drawn product of an nrows x r and an r x ncols matrix, with
    r drawn in 1..min(nrows, ncols), so rank deficiency is common."""
    def block(rows, cols):
        entries = st.lists(st.integers(0, field.q - 1), min_size=cols, max_size=cols)
        return FMatrix(field, [data.draw(entries) for _ in range(rows)], cols)

    r = data.draw(st.integers(1, min(nrows, ncols)))
    return block(nrows, r) @ block(r, ncols)


def intersection_basis_bruteforce(C1, C2dual, budget: int = DEFAULT_BUDGET) -> FMatrix:
    """Basis of C1 ∩ C2dual by literal enumeration of C1 (oracle for intersection_dim)."""
    check_pair(C1, C2dual)
    if C1.field.q**C1.k > budget:
        raise errors.Infeasible(f"{C1.field.q}^{C1.k} codewords exceed budget {budget}")
    members = [w for w in C1.codewords() if C2dual.contains(w)]  # the zero word at least
    return FMatrix(C1.field, members, C1.n).row_basis()


@pytest.fixture(scope="session")
def f2():
    return field_new(2, 1)


@pytest.fixture(scope="session")
def f4():
    return field_new(2, 2)


@pytest.fixture(scope="session")
def f9():
    return field_new(3, 2)


@pytest.fixture(scope="session")
def f13():
    return field_new(13, 1)


@pytest.fixture(scope="session")
def f27():
    return field_new(3, 3)
