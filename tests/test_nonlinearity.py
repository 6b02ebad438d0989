import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from parastep import nonlinearity as nl
from parastep.errors import NonlinearityError
from parastep.nonlinearity import (
    EllipticityConstants,
    NonlinearityDescriptor,
    evaluate_F,
    pucci_minus,
    pucci_plus,
    verify_uniform_ellipticity,
)


def random_symmetric(rng, n, scale=1.0):
    G = rng.standard_normal((n, n)) * scale
    return (G + G.T) / 2


# ---------------------------------------------------------------------------
# Pucci operators
# ---------------------------------------------------------------------------


def test_pucci_frozen_values():
    # eigenvalues (2, -3) with (lam, Lam) = (1, 2):
    X = np.diag([2.0, -3.0])
    assert pucci_minus(X, 1, 2) == pytest.approx(1 * 2 + 2 * (-3))  # -4
    assert pucci_plus(X, 1, 2) == pytest.approx(2 * 2 + 1 * (-3))  # 1


def test_pucci_rotation_invariance(rng):
    for _ in range(20):
        X = random_symmetric(rng, 3)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        Y = Q @ X @ Q.T
        Y = (Y + Y.T) / 2
        assert pucci_minus(Y, 0.5, 2.5) == pytest.approx(pucci_minus(X, 0.5, 2.5), abs=1e-9)
        assert pucci_plus(Y, 0.5, 2.5) == pytest.approx(pucci_plus(X, 0.5, 2.5), abs=1e-9)


@given(st.floats(0.01, 100.0))
def test_pucci_positive_homogeneity(c):
    X = np.diag([1.0, -2.0])
    assert pucci_minus(c * X, 1, 3) == pytest.approx(c * pucci_minus(X, 1, 3), rel=1e-12)
    assert pucci_plus(c * X, 1, 3) == pytest.approx(c * pucci_plus(X, 1, 3), rel=1e-12)


def test_pucci_duality(rng):
    for _ in range(20):
        X = random_symmetric(rng, 2)
        assert -pucci_minus(-X, 1, 2) == pytest.approx(pucci_plus(X, 1, 2), abs=1e-12)


def test_pucci_monotone(rng):
    for _ in range(20):
        X = random_symmetric(rng, 2)
        W = rng.standard_normal((2, 2))
        Y = W @ W.T
        assert pucci_minus(X + Y, 1, 2) >= pucci_minus(X, 1, 2) - 1e-10
        assert pucci_plus(X + Y, 1, 2) >= pucci_plus(X, 1, 2) - 1e-10


def test_pucci_extremality(rng):
    # lam*tr <= M- <= M+ for PSD arguments; M- <= F_linear <= M+ for spectra in range
    for _ in range(20):
        X = random_symmetric(rng, 2)
        assert pucci_minus(X, 1, 2) <= pucci_plus(X, 1, 2) + 1e-12
        A = np.diag([1.3, 1.9])
        assert pucci_minus(X, 1, 2) - 1e-10 <= float(np.trace(A @ X)) <= pucci_plus(X, 1, 2) + 1e-10


def test_pucci_stacked():
    Xs = np.stack([np.diag([2.0, -3.0]), np.eye(2)])
    out = pucci_minus(Xs, 1, 2)
    np.testing.assert_allclose(out, [-4.0, 2.0])


def test_pucci_eigen_tolerance():
    # an eigenvalue at 5e-11 counts as zero
    X = np.diag([5e-11, -1.0])
    assert pucci_minus(X, 1, 2) == pytest.approx(-2.0)


def test_pucci_rejects_asymmetric():
    with pytest.raises(NonlinearityError):
        pucci_minus(np.array([[0.0, 1.0], [0.0, 0.0]]), 1, 2)


# ---------------------------------------------------------------------------
# descriptors and evaluate_F
# ---------------------------------------------------------------------------


def test_linear_descriptor_trace(rng):
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    desc = NonlinearityDescriptor.linear(A)
    X = random_symmetric(rng, 2)
    assert evaluate_F(desc, X) == pytest.approx(float(np.trace(A @ X)))
    # F1 constants: (min eig, n * max eig)
    e = np.linalg.eigvalsh(A)
    assert desc.constants.lam == pytest.approx(e[0])
    assert desc.constants.Lam == pytest.approx(2 * e[-1])


def test_linear_rejects_indefinite():
    with pytest.raises(NonlinearityError):
        NonlinearityDescriptor.linear(np.diag([1.0, -0.5]))


def test_pucci_descriptor_dimension_corrected_constants():
    d1 = NonlinearityDescriptor.pucci_minus(1, 2, dimension=1)
    assert (d1.constants.lam, d1.constants.Lam) == (1, 2)
    d2 = NonlinearityDescriptor.pucci_minus(1, 2, dimension=2)
    assert (d2.constants.lam, d2.constants.Lam) == (1, 4)


def test_bellman_reduces_to_linear(rng):
    A = np.diag([1.0, 2.0])
    desc = NonlinearityDescriptor.bellman_isaacs([[A]])
    X = random_symmetric(rng, 2)
    assert evaluate_F(desc, X) == pytest.approx(float(np.trace(A @ X)))


def test_bellman_minmax_order(rng):
    A1, A2 = np.diag([1.0, 1.0]), np.diag([2.0, 2.0])
    # min over {max over {A1, A2}} = max single row
    desc = NonlinearityDescriptor.bellman_isaacs([[A1, A2]])
    X = random_symmetric(rng, 2)
    assert evaluate_F(desc, X) == pytest.approx(
        max(float(np.trace(A1 @ X)), float(np.trace(A2 @ X)))
    )
    desc2 = NonlinearityDescriptor.bellman_isaacs([[A1], [A2]])
    assert evaluate_F(desc2, X) == pytest.approx(
        min(float(np.trace(A1 @ X)), float(np.trace(A2 @ X)))
    )


def test_custom_requires_F0_zero():
    with pytest.raises(NonlinearityError):
        NonlinearityDescriptor.custom(
            lambda X: float(np.trace(X)) + 1.0, 1, EllipticityConstants(1, 1)
        )


def test_dual_swaps_pucci(rng):
    d = NonlinearityDescriptor.pucci_minus(1, 2, dimension=2)
    dd = d.dual()
    assert dd.kind == "pucci_plus"
    X = random_symmetric(rng, 2)
    assert evaluate_F(dd, X) == pytest.approx(-evaluate_F(d, -X))


def _custom_heat_2d():
    """tr(A X) + |X|_max / 4, an operator with no structural kind."""
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    F = lambda X: float(np.trace(A @ X)) + 0.25 * float(np.abs(X).max())  # noqa: E731
    return NonlinearityDescriptor.custom(F, 2, EllipticityConstants(0.5, 4.0))


def test_custom_operator_evaluates_one_matrix_and_a_stack(rng):
    d = _custom_heat_2d()
    X = np.stack([random_symmetric(rng, 2) for _ in range(6)]).reshape(2, 3, 2, 2)
    got = evaluate_F(d, X)
    assert got.shape == (2, 3)
    assert got.tolist() == [[evaluate_F(d, M) for M in row] for row in X]
    assert type(evaluate_F(d, X[0, 0])) is float


@pytest.mark.parametrize("kind", ["pucci_minus", "pucci_plus", "max", "min", "custom"])
def test_dual_is_minus_F_of_minus_X(kind, rng):
    mats = [np.diag([1.0, 2.0]), np.array([[1.5, 0.25], [0.25, 0.5]]), np.eye(2)]
    d = {
        "pucci_minus": lambda: NonlinearityDescriptor.pucci_minus(1, 2, dimension=2),
        "pucci_plus": lambda: NonlinearityDescriptor.pucci_plus(1, 2, dimension=2),
        "max": lambda: NonlinearityDescriptor.bellman_isaacs([mats]),
        "min": lambda: NonlinearityDescriptor.bellman_isaacs([[A] for A in mats]),
        "custom": _custom_heat_2d,
    }[kind]()
    dd = d.dual()
    X = np.stack([random_symmetric(rng, 2) for _ in range(8)])
    assert np.allclose(evaluate_F(dd, X), -evaluate_F(d, -X), rtol=1e-12, atol=1e-12)
    assert np.allclose(evaluate_F(dd.dual(), X), evaluate_F(d, X), rtol=1e-12, atol=1e-12)


def test_mixed_min_max_family_has_no_structural_dual():
    d = NonlinearityDescriptor.bellman_isaacs([[np.eye(2), 2.0 * np.eye(2)], [np.eye(2)]])
    with pytest.raises(NonlinearityError, match="no structural dual for kind 'bellman_isaacs'"):
        d.dual()


def test_constants_validation():
    with pytest.raises(NonlinearityError):
        EllipticityConstants(0.0, 1.0)
    with pytest.raises(NonlinearityError):
        EllipticityConstants(2.0, 1.0)


@pytest.mark.parametrize("lam, Lam", [(1.0, np.inf), (np.inf, np.inf), (1.0, np.nan), (np.nan, 2.0)])
def test_constants_must_be_finite(lam, Lam):
    # pucci_plus(1, inf) used to be built; its falsifier margins were NaN, so
    # run_diagnostics reported a clean grid
    with pytest.raises(NonlinearityError, match=r"need finite 0 < lam <= Lam"):
        EllipticityConstants(lam, Lam)
    for build in (NonlinearityDescriptor.pucci_plus, NonlinearityDescriptor.pucci_minus):
        with pytest.raises(NonlinearityError, match=r"need finite 0 < lam <= Lam"):
            build(lam, Lam, dimension=2)
    with pytest.raises(NonlinearityError, match=r"need finite 0 < lam <= Lam"):
        pucci_plus(np.eye(2), lam, Lam)


@pytest.mark.parametrize("kind", ["pucci_plus", "pucci_minus"])
def test_evaluate_F_checks_pucci_arguments_once_and_still_refuses(kind):
    desc = getattr(NonlinearityDescriptor, kind)(1.0, 2.0, dimension=2)
    X = np.diag([2.0, -3.0])
    assert evaluate_F(desc, X) == getattr(nl, kind)(X, 1.0, 2.0)
    assert np.array_equal(evaluate_F(desc, np.stack([X, -X])), getattr(nl, kind)(np.stack([X, -X]), 1.0, 2.0))
    for bad, why in [(np.array([[0.0, 1.0], [0.0, 0.0]]), "not symmetric"), (np.diag([np.inf, 0.0]), "finite"),
                     (np.eye(3), "expected 2x2")]:
        with pytest.raises(NonlinearityError, match=why):
            evaluate_F(desc, bad)


# ---------------------------------------------------------------------------
# sampling verifier
# ---------------------------------------------------------------------------


def test_verify_pucci_1d_passes():
    desc = NonlinearityDescriptor.pucci_minus(1, 2, dimension=1)
    rep = verify_uniform_ellipticity(desc, trials=400, seed=3)
    assert rep["passed"], rep
    assert rep["constants"] == EllipticityConstants(1, 2)


def test_verify_linear_3I_against_1_2_fails():
    # F(Y) - F(0) = 3 tr Y = 3 > 2 = Lam*||Y|| already at Y = I (n=1).
    desc = NonlinearityDescriptor.linear(np.array([[3.0]]))
    rep = verify_uniform_ellipticity(desc, constants=EllipticityConstants(1, 2), trials=100)
    assert not rep["passed"]
    assert rep["worst_upper_margin"] > 0


def test_verify_heat_2d_passes():
    desc = NonlinearityDescriptor.linear(np.eye(2))
    rep = verify_uniform_ellipticity(desc, trials=400, seed=1)
    assert rep["passed"], rep  # constants (1, 2) in n=2


def test_verify_pucci_2d_needs_dimension_factor():
    desc = NonlinearityDescriptor.pucci_minus(1, 2, dimension=2)
    # corrected constants (1, 4) pass ...
    assert verify_uniform_ellipticity(desc, trials=400, seed=5)["passed"]
    # ... the naive pair (1, 2) is falsified by the deterministic battery
    # (X = diag(-5, 0), Y = 5I gives increment 15 > 2 * 5).
    rep = verify_uniform_ellipticity(desc, constants=EllipticityConstants(1, 2), trials=50)
    assert not rep["passed"]


def test_verify_all_builtin_kinds_pass(rng):
    kinds = [
        NonlinearityDescriptor.linear(np.array([[1.0]])),
        NonlinearityDescriptor.pucci_plus(1, 2, dimension=1),
        NonlinearityDescriptor.pucci_minus(0.5, 5, dimension=2),
        NonlinearityDescriptor.linear(np.array([[2.0, 0.4], [0.4, 1.0]])),
        NonlinearityDescriptor.bellman_isaacs(
            [[np.diag([1.0, 2.0]), np.eye(2)], [np.diag([2.0, 1.0])]]
        ),
    ]
    for desc in kinds:
        rep = verify_uniform_ellipticity(desc, trials=300, seed=11)
        assert rep["passed"], (desc.kind, rep)
