"""Exchange matrices, seeds, fraction arithmetic and closures."""

import dataclasses
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quiverkit import (
    ExchangeMatrix,
    LaurentFraction,
    Seed,
    a_path_matrix,
    counting_check,
    enumerate_cluster_variables,
    gamma,
    initial_seed,
    mutate_matrix,
    mutate_seed,
)
from quiverkit import mutation
from quiverkit.mutation import _closure, _GVectorSeeds


def lf(text, nvars=2):
    return LaurentFraction.from_expr(text, nvars)


def eval_fraction(x, point):
    """Pure-integer evaluation oracle, independent of the sympy backend."""

    def eval_poly(poly):
        total = Fraction(0)
        for monom, coeff in poly.terms():
            term = Fraction(int(coeff))
            for e, val in zip(monom, point):
                term *= Fraction(val) ** int(e)
            total += term
        return total

    den = eval_poly(x.denominator)
    if den == 0:
        return None
    return eval_poly(x.numerator) / den


coeffs = st.integers(-4, 4)
exponents = st.tuples(st.integers(0, 2), st.integers(0, 2))
poly_dicts = st.dictionaries(exponents, coeffs, min_size=0, max_size=4)


def to_expr(d):
    import sympy as sp

    u1, u2 = sp.Symbol("u_1"), sp.Symbol("u_2")
    return sum(
        (c * u1**e1 * u2**e2 for (e1, e2), c in d.items()), sp.Integer(0)
    )


sign_skew_entries = st.tuples(st.integers(1, 4), st.integers(1, 4), st.booleans())


@st.composite
def sign_skew_matrices(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                continue
            a, b, flip = draw(sign_skew_entries)
            if flip:
                m[i][j], m[j][i] = a, -b
            else:
                m[i][j], m[j][i] = -a, b
    return ExchangeMatrix(m)


@st.composite
def skew_symmetric_matrices(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = draw(st.integers(-3, 3))
            m[i][j], m[j][i] = v, -v
    return ExchangeMatrix(m)


@st.composite
def skew_symmetrizable_matrices(draw, max_n=4):
    """B[i][j] = S[i][j] * d[j], S skew-symmetric in {-1, 0, 1}, d_i in {1, 2}."""
    n = draw(st.integers(1, max_n))
    d = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            s = draw(st.integers(-1, 1))
            m[i][j], m[j][i] = s * d[j], -s * d[i]
    return ExchangeMatrix(m)


def exchange(n, *edges):
    """Exchange matrix with B[i][j] = a, B[j][i] = -b for each 1-based (i, j, a, b)."""
    m = [[0] * n for _ in range(n)]
    for i, j, a, b in edges:
        m[i - 1][j - 1], m[j - 1][i - 1] = a, -b
    return ExchangeMatrix(m)


E_7 = exchange(
    7, (1, 2, 1, 1), (2, 3, 1, 1), (3, 4, 1, 1), (4, 5, 1, 1), (5, 6, 1, 1), (3, 7, 1, 1)
)
# Sign-skew-symmetric, not skew-symmetrizable: d_1 = 2 d_2 = 6 d_3 and d_1 = d_3.
NOT_SYMMETRIZABLE = ExchangeMatrix([[0, 1, -1], [-2, 0, 1], [1, -3, 0]])


class TestMatrixMutation:
    def test_rank_two_example(self):
        M = ExchangeMatrix([[0, 1], [-1, 0]])
        assert mutate_matrix(M, 1) == ExchangeMatrix([[0, -1], [1, 0]])

    def test_zero_matrix_is_fixed(self):
        Z = ExchangeMatrix([[0] * 3 for _ in range(3)])
        for k in (1, 2, 3):
            assert mutate_matrix(Z, k) == Z

    def test_out_of_range_direction(self):
        M = a_path_matrix(3)
        with pytest.raises(IndexError):
            mutate_matrix(M, 0)
        with pytest.raises(IndexError):
            mutate_matrix(M, 4)

    @given(M=sign_skew_matrices())
    @settings(max_examples=80, deadline=None)
    def test_involution(self, M):
        for k in range(1, M.n + 1):
            assert mutate_matrix(mutate_matrix(M, k), k) == M

    @given(M=skew_symmetric_matrices())
    @settings(max_examples=80, deadline=None)
    def test_skew_symmetric_matrices_stay_skew_symmetric(self, M):
        for k in range(1, M.n + 1):
            out = mutate_matrix(M, k).rows()
            assert all(out[i][j] == -out[j][i] for i in range(M.n) for j in range(M.n))
            assert mutate_matrix(M, k).is_sign_skew_symmetric()

    @given(M=st.one_of(sign_skew_matrices(), skew_symmetrizable_matrices()))
    @settings(max_examples=80, deadline=None)
    def test_matches_textbook_formula(self, M):
        # b'_ij = b_ij + (|b_ik| * b_kj + b_ik * |b_kj|) / 2 off row and column k.
        b = M.rows()
        for k in range(1, M.n + 1):
            c = k - 1
            expected = [
                [
                    -b[i][j] if c in (i, j)
                    else b[i][j] + Fraction(abs(b[i][c]) * b[c][j] + b[i][c] * abs(b[c][j]), 2)
                    for j in range(M.n)
                ]
                for i in range(M.n)
            ]
            assert mutate_matrix(M, k).rows() == expected

    def test_sign_skew_symmetry_is_not_preserved_in_general(self):
        # Mutation leaves the sign-skew-symmetric class here: entries
        # (2,3) and (3,2) both become negative.  Involution still holds.
        M = ExchangeMatrix([[0, 1, -1], [-2, 0, 1], [1, -3, 0]])
        assert M.is_sign_skew_symmetric()
        out = mutate_matrix(M, 1)
        assert not out.is_sign_skew_symmetric()
        assert out[1, 2] == -1 and out[2, 1] == -2
        assert mutate_matrix(out, 1) == M

    def test_int64_overflow_is_an_error(self):
        # Entry (1,3) of the mutation at 2 is 2**80, which int64 would wrap to 0.
        big = 2**40
        M = ExchangeMatrix([[0, big, 0], [-big, 0, big], [0, -big, 0]])
        with pytest.raises(ValueError, match="within int64"):
            mutate_matrix(M, 2)
        # Negating -2**63 leaves int64 too.
        with pytest.raises(ValueError, match="within int64"):
            mutate_matrix(ExchangeMatrix([[0, -(2**63)], [1, 0]]), 1)
        assert mutate_matrix(ExchangeMatrix([[0, 2**62], [-1, 0]]), 1)[0, 1] == -(2**62)

    def test_validate(self):
        with pytest.raises(ValueError):
            ExchangeMatrix([[0, 1], [1, 0]]).validate()
        with pytest.raises(ValueError):
            ExchangeMatrix([[0, 1, 0], [-1, 0, 0]])
        with pytest.raises(ValueError, match="must be square"):
            ExchangeMatrix([])
        assert a_path_matrix(4).validate() is not None


class TestLaurentFraction:
    def test_canonical_equality(self):
        assert lf("(1+u_2)/u_1") == lf("(u_2+1)/u_1")
        assert lf("u_1/(1-u_2)") == lf("-u_1/(u_2-1)")
        assert lf("(2*u_1+2)/2") == lf("u_1+1")
        assert hash(lf("(1+u_2)/u_1")) == hash(lf("(u_2+1)/u_1"))

    def test_rendering(self):
        assert lf("u_1").render() == "u_1"
        assert lf("(1+u_1+u_2)/(u_1*u_2)").render() == "(u_1 + u_2 + 1) / u_1*u_2"
        assert lf("2/u_1").render() == "2 / u_1"
        assert lf("(u_1^2 + 3*u_1)/u_2", 2).render() == "(u_1^2 + 3*u_1) / u_2"

    def test_is_laurent_examples(self):
        assert lf("(1+u_1+u_2)/(u_1*u_2)").is_laurent()
        assert not lf("u_1/(1+u_2)").is_laurent()
        assert lf("u_1").is_laurent()
        assert not lf("u_1/(2*u_2)").is_laurent()

    def test_zero_renders_as_zero(self):
        x = lf("u_1")
        assert lf("0").render() == "0"
        assert (x + (-1) * x).render() == "0"

    @pytest.mark.parametrize(
        "x, y, quotient",
        [
            ("(u_1^2 + u_1)/u_2", "u_1*u_2", "(u_1 + 1)/u_2^2"),
            ("u_2^3", "-2*u_2", "-u_2^2/2"),
            ("u_2", "u_1 + 1", "u_2/(u_1 + 1)"),
            ("u_1*(u_1 + 1)/(u_2 + 1)", "u_1 + 1", "u_1/(u_2 + 1)"),
            ("u_1", "u_1/(u_2 + 1)", "u_2 + 1"),
            ("u_1^2/(2*u_2)", "u_1", "u_1/(2*u_2)"),
            ("0", "u_1", "0"),
            ("u_1 + 1", 2, "(u_1 + 1)/2"),
            ("u_1/u_2", -3, "-u_1/(3*u_2)"),
        ],
    )
    def test_division(self, x, y, quotient):
        # Exact Laurent division, a failed one, and operands outside its
        # reach: a non-monomial denominator, a zero dividend, an int divisor.
        got = lf(x) / (y if isinstance(y, int) else lf(y))
        assert got == lf(quotient)
        assert got.render() == lf(quotient).render()

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            lf("u_1") / lf("0")
        with pytest.raises(ZeroDivisionError):
            lf("u_1") / 0

    def test_operand_checks(self):
        with pytest.raises(ValueError, match="mixed numbers of variables"):
            lf("u_1") + lf("u_1", 1)
        with pytest.raises(ValueError, match="only non-negative integer powers"):
            lf("u_1") ** -1

    @given(a=poly_dicts, b=poly_dicts, c=poly_dicts)
    @settings(max_examples=60, deadline=None)
    def test_reduction_is_canonical(self, a, b, c):
        assume(any(v for v in b.values()))
        assume(any(v for v in c.values()))
        ea, eb, ec = to_expr(a), to_expr(b), to_expr(c)
        plain = LaurentFraction.from_expr(ea, 2) / LaurentFraction.from_expr(eb, 2)
        inflated = LaurentFraction.from_expr(ea * ec, 2) / LaurentFraction.from_expr(
            eb * ec, 2
        )
        assert plain == inflated

    @given(a=poly_dicts, b=poly_dicts, c=poly_dicts, d=poly_dicts)
    @settings(max_examples=60, deadline=None)
    def test_arithmetic_matches_integer_evaluation_oracle(self, a, b, c, d):
        assume(any(v for v in b.values()))
        assume(any(v for v in d.values()))
        x = LaurentFraction.from_expr(to_expr(a), 2) / LaurentFraction.from_expr(
            to_expr(b), 2
        )
        y = LaurentFraction.from_expr(to_expr(c), 2) / LaurentFraction.from_expr(
            to_expr(d), 2
        )
        for point in ((2, 3), (-1, 5), (7, -2)):
            vx, vy = eval_fraction(x, point), eval_fraction(y, point)
            if vx is None or vy is None:
                continue
            vsum = eval_fraction(x + y, point)
            vprod = eval_fraction(x * y, point)
            if vsum is not None:
                assert vsum == vx + vy
            if vprod is not None:
                assert vprod == vx * vy


class TestSeedMutation:
    def test_rank_two_exchange(self):
        seed = initial_seed(ExchangeMatrix([[0, 1], [-1, 0]]))
        out = mutate_seed(seed, 1)
        assert out.cluster[0] == lf("(1+u_2)/u_1")
        assert out.cluster[1] == lf("u_2")
        assert out.matrix == ExchangeMatrix([[0, -1], [1, 0]])

    def test_involution_on_seeds(self):
        for n in (1, 2, 3):
            seed = initial_seed(a_path_matrix(n))
            for k in range(1, n + 1):
                once = mutate_seed(seed, k)
                assert mutate_seed(once, k) == seed
                for k2 in range(1, n + 1):
                    twice = mutate_seed(once, k2)
                    assert mutate_seed(twice, k2) == once

    def test_rank_one_empty_products(self):
        seed = initial_seed(ExchangeMatrix([[0]]))
        out = mutate_seed(seed, 1)
        assert out.cluster[0] == LaurentFraction.from_expr("2/u_1", 1)

    def test_direction_out_of_range(self):
        with pytest.raises(IndexError):
            mutate_seed(initial_seed(a_path_matrix(2)), 3)

    def test_cluster_length_must_match_the_matrix(self):
        with pytest.raises(ValueError, match="cluster length must equal the matrix dimension"):
            Seed(cluster=(lf("u_1"),), matrix=a_path_matrix(2))

    def test_zero_entries(self):
        # A zero active entry fails in the exchange's division; a zero
        # elsewhere is an ordinary factor of the exchange relation.
        M = a_path_matrix(2)
        with pytest.raises(ZeroDivisionError):
            mutate_seed(Seed(cluster=(lf("0"), lf("u_2")), matrix=M), 1)
        out = mutate_seed(Seed(cluster=(lf("u_1"), lf("0")), matrix=M), 1)
        assert out.cluster == (lf("1/u_1"), lf("0"))


def field_exchange(cluster, rows, c):
    """The exchange relation (prod x_i^b + prod x_i^-b) / x_k in ``LaurentFraction``
    arithmetic, each product and the sum cancelled by the field: the reference
    that ``mutation._exchange`` is held to."""
    xk = cluster[c]
    pos = neg = LaurentFraction(xk._f.field.one)
    for x, row in zip(cluster, rows):
        e = row[c]
        if e > 0:
            pos = pos * x**e
        elif e < 0:
            neg = neg * x ** (-e)
    return (pos + neg) / xk


class TestExchange:
    """``_exchange`` gives the reference's canonical numerator and denominator
    in every direction of each seed a walk passes before its last step; the
    walk itself steps by the reference."""

    @staticmethod
    def check_walk(M, walk):
        """Compare the exchanges; True iff some reference result is not Laurent."""
        cluster, rows = initial_seed(M).cluster, M._m
        reached_non_laurent = False
        for k in walk:
            for c in range(M.n):
                got = mutation._exchange(cluster, rows, c)
                want = field_exchange(cluster, rows, c)
                assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
                reached_non_laurent |= not want.is_laurent()
            cluster = cluster[: k - 1] + (field_exchange(cluster, rows, k - 1),) + cluster[k:]
            rows = mutate_matrix(ExchangeMatrix._from_rows(rows), k)._m
        return reached_non_laurent

    # Walks of three steps, as in TestLaurentPhenomenon: one more can blow
    # up, e.g. rows ((0, 4, -86), (-2, 0, 25), (52, -30, 0)) after steps
    # 2, 1, 2 on [[0, -4, -2], [2, 0, -3], [4, 2, 0]].
    @given(M=skew_symmetrizable_matrices(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_laurent_seeds(self, M, data):
        walk = data.draw(st.lists(st.integers(1, M.n), max_size=3))
        assert not self.check_walk(M, walk)

    @given(
        M=st.one_of(st.just(NOT_SYMMETRIZABLE), sign_skew_matrices(max_n=3)), data=st.data()
    )
    @settings(max_examples=60, deadline=None)
    def test_cancelling_seeds(self, M, data):
        # NOT_SYMMETRIZABLE takes five steps in a few seconds at most, and 72
        # of its 243 five-step walks leave the Laurent polynomials.
        size = 5 if M is NOT_SYMMETRIZABLE else 3
        self.check_walk(M, data.draw(st.lists(st.integers(1, M.n), max_size=size)))

    def test_non_laurent_walk(self):
        # Step 5 leaves the Laurent polynomials, step 6 divides by an entry
        # whose denominator is not a monomial, and the seed after it has two.
        assert self.check_walk(NOT_SYMMETRIZABLE, [1, 2, 1, 3, 2, 3, 1])


class TestClosure:
    def test_rank_one(self):
        res = enumerate_cluster_variables(ExchangeMatrix([[0]]))
        assert res.variables == frozenset(
            {LaurentFraction.from_expr("u_1", 1), LaurentFraction.from_expr("2/u_1", 1)}
        )
        assert not res.cap_reached

    def test_rank_two_pentagon(self):
        res = enumerate_cluster_variables(ExchangeMatrix([[0, 1], [-1, 0]]))
        expected = {
            lf("u_1"),
            lf("u_2"),
            lf("(1+u_2)/u_1"),
            lf("(1+u_1)/u_2"),
            lf("(1+u_1+u_2)/(u_1*u_2)"),
        }
        assert res.variables == frozenset(expected)
        assert res.seed_count == 5  # the exchange graph is a pentagon
        assert all(x.is_laurent() for x in res.variables)

    def test_rank_three_path(self):
        res = enumerate_cluster_variables(a_path_matrix(3))
        assert len(res.variables) == 9
        assert res.seed_count == 14  # clusters of the associahedron
        assert all(x.is_laurent() for x in res.variables)

    def test_orientation_independence_of_the_count(self):
        reversed_path = ExchangeMatrix(
            [[0, -1, 0], [1, 0, -1], [0, 1, 0]]
        )
        res = enumerate_cluster_variables(reversed_path)
        assert len(res.variables) == 9

    def test_cap_is_a_flag_not_an_error(self):
        res = enumerate_cluster_variables(a_path_matrix(3), cap=3)
        assert res.cap_reached
        assert res.seed_count <= 3

    def test_non_sign_skew_input_is_rejected(self):
        with pytest.raises(ValueError):
            enumerate_cluster_variables(ExchangeMatrix([[0, 2], [2, 0]]))


def sort_key(f):
    """A total order on fractions: sorted denominator terms, then numerator terms."""
    return (
        tuple(sorted(f._f.denom.items())),
        tuple(sorted(f._f.numer.items())),
    )


class _FractionSeeds:
    """Closure seeds as :class:`Seed` values, keyed by their fractions.

    Every step runs the exchange relation.  This is the oracle that the
    g-vector closure is held to.
    """

    def __init__(self, M0: ExchangeMatrix):
        self.start = initial_seed(M0)
        self.start_key = self.key(self.start)
        self.found = set(self.start.cluster)

    @staticmethod
    def key(seed: Seed) -> tuple:
        """Sorted fraction keys and B permuted to match.

        Each cluster the closure reaches is a free generating set of
        ZZ(u_1, ..., u_n), as x_k = (P + Q) / x_k', so its entries differ.
        """
        labels, rows = [sort_key(f) for f in seed.cluster], seed.matrix._m
        order = sorted(range(len(labels)), key=labels.__getitem__)
        permuted = tuple(tuple(rows[i][j] for j in order) for i in order)
        return tuple(labels[i] for i in order), permuted

    def step(self, seed: Seed, c: int) -> Seed:
        return mutate_seed(seed, c + 1)

    def admit(self, parent: Seed, c: int, seed: Seed) -> Seed:
        self.found.add(seed.cluster[c])
        return seed

    def variables(self) -> frozenset:
        return frozenset(self.found)


class _CoherentGVectorSeeds(_GVectorSeeds):
    """The g-vector closure, checking every c-vector it mutates from."""

    def step(self, seed, c):
        C = seed[2]
        for j in range(len(C)):
            column = [r[j] for r in C]
            assert any(column), f"zero c-vector {j} in {C}"
            assert min(column) >= 0 or max(column) <= 0, f"c-vector {j} of {C} is not sign-coherent"
        return super().step(seed, c)


class _GVectorsOnly(_CoherentGVectorSeeds):
    """The same walk without the fractions; ``largest`` is the largest |entry| of a g-vector."""

    largest = 1

    def admit(self, parent, c, G):
        g = G[c]
        self.largest = max(self.largest, *map(abs, g))
        self.fractions.setdefault(g, None)  # known, so no exchange is computed
        return super().admit(parent, c, G)


class _KeyedWithB(_GVectorSeeds):
    """The g-vector closure keyed by (sorted g-vectors, B permuted to match),
    with B' built at every step: the key that the g-vector set replaced."""

    def __init__(self, M0):
        super().__init__(M0)
        self.start_key = self.key(self.start[:2])

    @staticmethod
    def key(seed):
        B, G = seed
        order = sorted(range(len(G)), key=G.__getitem__)
        return tuple(G[i] for i in order), tuple(tuple(B[i][j] for j in order) for i in order)

    def step(self, seed, c):
        B = seed[0]
        return mutation._mutate_rows(B, B[c], c, c), super().step(seed, c)

    def admit(self, parent, c, seed):
        B2, G2 = seed
        _, _, C2 = super().admit(parent, c, G2)
        return B2, G2, C2


def largest_g_entry(M, cap):
    seeds = _GVectorsOnly(M)
    _closure(M, cap, lambda _: seeds)
    return seeds.largest


def counting(monkeypatch, name):
    """Count calls of ``mutation.<name>`` from now on."""
    calls = []
    original = getattr(mutation, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(mutation, name, counted)
    return calls


class TestGVectorClosure:
    """The integer closure against the fraction closure it replaces."""

    @given(M=skew_symmetrizable_matrices(), cap=st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_fraction_closure(self, M, cap):
        assert M.is_skew_symmetrizable()
        # Wild rank-3 draws near cap 40 reach g-vector entries over 100,
        # and cluster variables whose fraction closure takes from seconds
        # to minutes; entries up to 64 keep each draw under about 0.5 s.
        assume(largest_g_entry(M, cap) <= 64)
        got = _closure(M, cap, _CoherentGVectorSeeds)
        assert got == enumerate_cluster_variables(M, cap)
        assert got == _closure(M, cap, _FractionSeeds)
        assert got == _closure(M, cap, _KeyedWithB)

    @pytest.mark.parametrize(
        "M",
        [
            a_path_matrix(5),
            exchange(4, (1, 2, 1, 1), (2, 3, 1, 1), (2, 4, 1, 1)),
            exchange(3, (1, 2, 1, 2), (2, 3, 1, 1)),
            exchange(2, (1, 2, 1, 3)),
            exchange(4, (1, 2, 1, 1), (2, 3, 1, 2), (3, 4, 1, 1)),
            exchange(6, (1, 2, 1, 1), (2, 3, 1, 1), (3, 4, 1, 1), (4, 5, 1, 1), (3, 6, 1, 1)),
        ],
        ids=["A_5", "D_4", "B_3", "G_2", "F_4", "E_6"],
    )
    def test_the_g_vector_set_keys_the_seed(self, M):
        # Keying by the g-vectors alone merges no two seeds that B tells apart.
        assert enumerate_cluster_variables(M) == _closure(M, 10000, _KeyedWithB)

    @pytest.mark.parametrize("kind", [_GVectorSeeds, _FractionSeeds])
    def test_rank_one(self, kind):
        res = _closure(ExchangeMatrix([[0]]), 10, kind)
        assert res.variables == {lf("u_1", 1), lf("2/u_1", 1)}
        assert (res.seed_count, res.cap_reached) == (2, False)

    @pytest.mark.parametrize("kind", [_GVectorSeeds, _FractionSeeds])
    def test_rank_two_pentagon(self, kind):
        res = _closure(ExchangeMatrix([[0, 1], [-1, 0]]), 10, kind)
        assert res.variables == {
            lf("u_1"), lf("u_2"), lf("(1+u_2)/u_1"), lf("(1+u_1)/u_2"), lf("(1+u_1+u_2)/(u_1*u_2)")
        }
        assert (res.seed_count, res.cap_reached) == (5, False)

    @pytest.mark.parametrize(
        "M, cap",
        [
            (a_path_matrix(5), 10000),
            (a_path_matrix(5), 7),
            (exchange(4, (1, 2, 1, 1), (2, 3, 1, 2), (3, 4, 1, 1)), 10000),
            (exchange(2, (1, 2, 1, 3)), 10000),
            (ExchangeMatrix([[0, 2, -2], [-2, 0, 2], [2, -2, 0]]), 20),
        ],
        ids=["A_5", "A_5-cap-7", "F_4", "G_2", "Markov-cap-20"],
    )
    def test_one_exchange_per_new_variable(self, monkeypatch, M, cap):
        exchanges = counting(monkeypatch, "_exchange")
        mutations = counting(monkeypatch, "mutate_seed")
        row_mutations = counting(monkeypatch, "_mutate_rows")
        steps = []
        step = _GVectorSeeds.step
        monkeypatch.setattr(_GVectorSeeds, "step", lambda *a: steps.append(a) or step(*a))
        res = enumerate_cluster_variables(M, cap)
        assert len(exchanges) == len(res.variables) - M.n
        assert mutations == []
        # B and C are mutated once per admitted seed, none for the start.
        assert len(row_mutations) == 2 * (res.seed_count - 1)
        if not res.cap_reached:
            # n steps from the start, and from every other seed all but the
            # step back along the direction it was reached by.
            assert len(steps) == M.n + (res.seed_count - 1) * (M.n - 1)

    @pytest.mark.parametrize(
        "M",
        [
            a_path_matrix(5),
            exchange(4, (1, 2, 1, 1), (2, 3, 1, 1), (2, 4, 1, 1)),
            exchange(3, (1, 2, 1, 2), (2, 3, 1, 1)),
            exchange(2, (1, 2, 1, 3)),
        ],
        ids=["A_5", "D_4", "B_3", "G_2"],
    )
    def test_a_laurent_closure_runs_no_gcd(self, monkeypatch, M):
        from sympy.polys.rings import PolyElement

        mutation._field(M.n)  # built once per n, before the count starts
        calls = []
        cancel = PolyElement.cancel
        monkeypatch.setattr(PolyElement, "cancel", lambda *a: calls.append(a) or cancel(*a))
        res = enumerate_cluster_variables(M)
        assert not res.cap_reached and all(x.is_laurent() for x in res.variables)
        assert calls == []

    def test_only_admitted_seeds_are_built(self):
        # B mutated at 2 has the entry 2**80.  The walk reaches that seed
        # third, so a cap of 2 stops before its B is built.
        big = 2**40
        M = ExchangeMatrix([[0, big, 0], [-big, 0, big], [0, -big, 0]])
        res = enumerate_cluster_variables(M, cap=2)
        assert (res.seed_count, res.cap_reached) == (2, True)
        with pytest.raises(ValueError, match="within int64"):
            enumerate_cluster_variables(M, cap=3)

    def test_int64_overflow_is_an_error(self):
        # As in the fraction closure: entry (1,3) of the mutation at 2 is 2**80.
        big = 2**40
        with pytest.raises(ValueError, match="within int64"):
            enumerate_cluster_variables(ExchangeMatrix([[0, big, 0], [-big, 0, big], [0, -big, 0]]))

    def test_not_skew_symmetrizable_is_rejected(self):
        # Sign-skew-symmetric, so only the skew-symmetrizability check fails.
        assert NOT_SYMMETRIZABLE.is_sign_skew_symmetric()
        with pytest.raises(ValueError, match="not skew-symmetrizable"):
            enumerate_cluster_variables(NOT_SYMMETRIZABLE, cap=12)


class TestSeedKey:
    """Both closure kinds key a seed up to permutation of its entries."""

    M = exchange(4, (1, 2, 1, 1), (2, 3, 1, 2), (3, 4, 1, 1))  # F_4
    PERM = (2, 0, 3, 1)

    @staticmethod
    def permute(rows, perm):
        return tuple(tuple(rows[i][j] for j in perm) for i in perm)

    @staticmethod
    def bump(rows):
        """``rows`` with the off-diagonal entry (1, 2) raised by one."""
        return (rows[0][:1] + (rows[0][1] + 1,) + rows[0][2:],) + tuple(rows[1:])

    def test_fraction_seeds(self):
        seed = mutate_seed(mutate_seed(initial_seed(self.M), 2), 3)
        B = seed.matrix._m
        permuted = Seed(
            tuple(seed.cluster[i] for i in self.PERM), ExchangeMatrix(self.permute(B, self.PERM))
        )
        bumped = Seed(seed.cluster, ExchangeMatrix(self.bump(B)))
        key = _FractionSeeds.key(seed)
        assert _FractionSeeds.key(permuted) == key
        assert _FractionSeeds.key(bumped) != key

    def test_g_vector_seeds(self):
        seeds = _GVectorSeeds(self.M)
        seed = seeds.start
        for c in (1, 2):
            seed = seeds.admit(seed, c, seeds.step(seed, c))
        G = seed[1]
        # The key is the set of g-vectors; B and C are not part of it.
        key = _GVectorSeeds.key(G)
        assert key == frozenset(G) and len(key) == self.M.n
        assert _GVectorSeeds.key(tuple(G[i] for i in self.PERM)) == key
        assert seeds.start_key == frozenset(seeds.start[1])


class TestSkewSymmetrizable:
    @pytest.mark.parametrize(
        "M",
        [
            exchange(3, (1, 2, 1, 2), (2, 3, 1, 1)),
            exchange(3, (1, 2, 2, 1), (2, 3, 1, 1)),
            exchange(2, (1, 2, 1, 3)),
            exchange(4, (1, 2, 1, 1), (2, 3, 1, 2), (3, 4, 1, 1)),
            ExchangeMatrix([[0]]),
            ExchangeMatrix([[0, 0], [0, 0]]),
            ExchangeMatrix([[0, 2, -2], [-2, 0, 2], [2, -2, 0]]),
        ],
        ids=["B_3", "C_3", "G_2", "F_4", "A_1", "A_1xA_1", "Markov"],
    )
    def test_symmetrizable(self, M):
        assert M.is_skew_symmetrizable()

    @pytest.mark.parametrize(
        "M",
        [
            NOT_SYMMETRIZABLE,
            ExchangeMatrix([[0, 1], [1, 0]]),  # not sign-skew-symmetric
            ExchangeMatrix([[0, 1], [0, 0]]),
            ExchangeMatrix([[1]]),
        ],
    )
    def test_not_symmetrizable(self, M):
        assert not M.is_skew_symmetrizable()

    @given(M=skew_symmetrizable_matrices())
    @settings(max_examples=60, deadline=None)
    def test_strategy_matrices_and_their_mutations(self, M):
        assert M.is_skew_symmetrizable()
        for k in range(1, M.n + 1):
            assert mutate_matrix(M, k).is_skew_symmetrizable()


class TestFiniteTypeCounts:
    """Variable and cluster counts of Fomin-Zelevinsky, Cluster algebras II."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_type_a(self, n):
        catalan = comb(2 * n + 2, n + 1) // (n + 2)
        self.check(a_path_matrix(n), n * (n + 3) // 2, catalan)

    @pytest.mark.parametrize(
        "M, n_vars, n_clusters",
        [
            pytest.param(exchange(3, (1, 2, 1, 2), (2, 3, 1, 1)), 12, 20, id="B_3"),
            pytest.param(
                exchange(4, (1, 2, 1, 2), (2, 3, 1, 1), (3, 4, 1, 1)), 20, 70, id="B_4"
            ),
            pytest.param(exchange(3, (1, 2, 2, 1), (2, 3, 1, 1)), 12, 20, id="C_3"),
            pytest.param(
                exchange(4, (1, 2, 1, 1), (2, 3, 1, 1), (2, 4, 1, 1)), 16, 50, id="D_4"
            ),
            pytest.param(
                exchange(5, (1, 2, 1, 1), (2, 3, 1, 1), (3, 4, 1, 1), (3, 5, 1, 1)),
                25,
                182,
                id="D_5",
            ),
            pytest.param(
                exchange(
                    6, (1, 2, 1, 1), (2, 3, 1, 1), (3, 4, 1, 1), (4, 5, 1, 1), (4, 6, 1, 1)
                ),
                36,
                672,
                id="D_6",
            ),
            pytest.param(
                exchange(
                    6, (1, 2, 1, 1), (2, 3, 1, 1), (3, 4, 1, 1), (4, 5, 1, 1), (3, 6, 1, 1)
                ),
                42,
                833,
                id="E_6",
            ),
            pytest.param(
                exchange(4, (1, 2, 1, 1), (2, 3, 1, 2), (3, 4, 1, 1)), 28, 105, id="F_4"
            ),
            pytest.param(exchange(2, (1, 2, 1, 3)), 8, 8, id="G_2"),
            pytest.param(E_7, 70, 4160, id="E_7"),
        ],
    )
    def test_other_types(self, M, n_vars, n_clusters):
        self.check(M, n_vars, n_clusters)

    @staticmethod
    def check(M, n_vars, n_clusters):
        res = enumerate_cluster_variables(M)
        assert not res.cap_reached
        assert len(res.variables) == n_vars
        assert res.seed_count == n_clusters
        assert all(x.is_laurent() for x in res.variables)


def mutate_against_the_field(seed, k):
    """``mutate_seed(seed, k)``, its new entry checked against the same exchange
    computed on the raw field elements by the field's own cancelling division."""
    col = k - 1
    pos = neg = seed.cluster[col]._f.field.one
    for i, x in enumerate(seed.cluster):
        e = seed.matrix[i, col]
        if e > 0:
            pos *= x._f**e
        elif e < 0:
            neg *= x._f ** (-e)
    expected = LaurentFraction((pos + neg) / seed.cluster[col]._f)
    out = mutate_seed(seed, k)
    got = out.cluster[col]
    assert got == expected
    assert hash(got) == hash(expected)
    assert got.render() == expected.render()
    assert sort_key(got) == sort_key(expected)
    return out


class TestLaurentPhenomenon:
    """The exchange step divides exactly when both sides are Laurent; the
    field's division is the oracle, so ``is_laurent`` is not a tautology."""

    @given(M=skew_symmetrizable_matrices(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_short_walks_stay_laurent(self, M, data):
        # Longer walks can blow up: a 4th step on [[0,2,2],[-2,0,2],[-2,-2,0]]
        # has a numerator of 4505 terms.
        walk = data.draw(st.lists(st.integers(1, M.n), max_size=3))
        seed = initial_seed(M)
        for k in walk:
            seed = mutate_against_the_field(seed, k)
            assert all(x.is_laurent() for x in seed.cluster)
            # Pairwise distinct entries: the seed key's sort is unique.
            assert len({sort_key(x) for x in seed.cluster}) == M.n

    def test_non_laurent_walk_matches_the_field(self):
        # Step 5 leaves the Laurent polynomials (its exact division fails);
        # step 6 then divides by an entry with a non-monomial denominator.
        seed = initial_seed(ExchangeMatrix([[0, 1, -1], [-2, 0, 1], [1, -3, 0]]))
        for k in (1, 2, 1, 3, 2, 3):
            seed = mutate_against_the_field(seed, k)
        assert [x.is_laurent() for x in seed.cluster] == [True, False, False]


class TestCounting:
    def test_counts_match_polygon_diagonals(self):
        # n = 7 has 429 clusters, more than n <= 6 ever reached; the seed cap
        # is the triangulation count, not the closure's default.
        for n in (1, 2, 3, 6, 7):
            assert counting_check(n)

    @pytest.mark.parametrize("flaw", ["cap one short", "one cluster short"])
    def test_cluster_count_is_checked(self, monkeypatch, flaw):
        real = mutation.enumerate_cluster_variables

        def flawed(M, cap):
            if flaw == "cap one short":
                return real(M, cap - 1)
            res = real(M, cap)
            return dataclasses.replace(res, seed_count=res.seed_count - 1)

        monkeypatch.setattr(mutation, "enumerate_cluster_variables", flawed)
        assert not counting_check(5)

    def test_explicit_counts(self):
        res = enumerate_cluster_variables(a_path_matrix(2))
        assert len(res.variables) == len(gamma(3, 1).vertices) == 5

    def test_range_guard(self):
        with pytest.raises(ValueError):
            counting_check(0)
        # No upper bound: n = 7 runs instead of being refused.
        assert counting_check(7)
