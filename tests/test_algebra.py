import json
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import aoc
from aoc.algebra import load_model, make_model, validate_model

E1, E2, E3 = np.eye(3)

vec3 = st.lists(st.floats(-5, 5, allow_nan=False), min_size=3, max_size=3).map(np.array)


def test_bracket_so3_cross_product(so3_j123):
    assert_allclose(aoc.bracket(so3_j123, E1, E2), E3)
    assert_allclose(aoc.bracket(so3_j123, E2, E3), E1)
    assert_allclose(aoc.bracket(so3_j123, E3, E1), E2)


def test_bracket_of_vector_with_itself_vanishes(so3_j123, rng):
    y = rng.standard_normal(3)
    assert_allclose(aoc.bracket(so3_j123, y, y), 0.0, atol=1e-14)


def test_bracket_abelian_is_zero(abelian3, rng):
    y, z = rng.standard_normal((2, 3))
    assert_allclose(aoc.bracket(abelian3, y, z), 0.0)


@given(y=vec3, z=vec3, w=vec3, a=st.floats(-3, 3), b=st.floats(-3, 3))
@settings(max_examples=50, deadline=None)
def test_bracket_bilinear_antisymmetric(y, z, w, a, b):
    m = aoc.so3_model((1.0, 2.0, 3.0))
    lhs = aoc.bracket(m, a * y + b * z, w)
    rhs = a * aoc.bracket(m, y, w) + b * aoc.bracket(m, z, w)
    assert_allclose(lhs, rhs, atol=1e-10)
    assert_allclose(aoc.bracket(m, y, z), -aoc.bracket(m, z, y), atol=1e-12)


def test_ad_star_matches_hand_cross_product(so3_j123):
    # <ad*_y mu, z> = <mu, [y, z]> reproduces mu x y on so(3)
    out = aoc.ad_star(so3_j123, E3, E1)
    assert_allclose(out, np.cross(E1, E3), atol=1e-15)
    assert_allclose(out, [0.0, -1.0, 0.0])


def test_ad_star_abelian_and_parallel(so3_j123, abelian3, rng):
    y, mu = rng.standard_normal((2, 3))
    assert_allclose(aoc.ad_star(abelian3, y, mu), 0.0)
    assert_allclose(aoc.ad_star(so3_j123, E1, E1), 0.0, atol=1e-15)


def test_ad_star_pairing_identity(so3_j123, rng):
    for _ in range(1000):
        y, mu, z = rng.standard_normal((3, 3))
        lhs = np.dot(aoc.ad_star(so3_j123, y, mu), z)
        rhs = np.dot(mu, aoc.bracket(so3_j123, y, z))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_ad_star_is_mu_cross_y_for_any_diagonal_inertia(rng):
    for diag in ([1.0, 1.0, 1.0], [2.0, 0.5, 7.0]):
        m = aoc.so3_model(diag)
        for _ in range(200):
            y, mu = rng.standard_normal((2, 3))
            assert_allclose(aoc.ad_star(m, y, mu), np.cross(mu, y), atol=1e-12)


def test_flat_sharp_diagonal(so3_j123):
    assert_allclose(aoc.flat(so3_j123, [1.0, 1.0, 1.0]), [1.0, 2.0, 3.0])
    assert_allclose(aoc.sharp(so3_j123, [1.0, 2.0, 3.0]), [1.0, 1.0, 1.0])


def test_flat_identity_inertia(so3_unit, rng):
    y = rng.standard_normal(3)
    assert_allclose(aoc.flat(so3_unit, y), y)


def test_sharp_flat_roundtrip(so3_j123, abelian3, rng):
    for model in (so3_j123, abelian3):
        ys = rng.standard_normal((100, model.n))
        assert_allclose(aoc.sharp(model, aoc.flat(model, ys)), ys, atol=1e-12)


def test_connection_abelian_zero(abelian3, rng):
    y, z = rng.standard_normal((2, 3))
    assert_allclose(aoc.connection_bilinear(abelian3, y, z), 0.0)


def test_connection_biinvariant_is_half_bracket(so3_unit):
    assert_allclose(aoc.connection_bilinear(so3_unit, E1, E2), [0.0, 0.0, 0.5])


def test_connection_diagonal_is_minus_bias(so3_j123, rng):
    y = rng.standard_normal(3)
    assert_allclose(aoc.connection_bilinear(so3_j123, y, y), -aoc.bias(so3_j123, y),
                    atol=1e-14)


def test_connection_torsion_free(so3_j123, abelian3, rng):
    for model in (so3_j123, abelian3):
        y, z = rng.standard_normal((2, 1000, model.n))
        res = (aoc.connection_bilinear(model, y, z) - aoc.connection_bilinear(model, z, y)
               - aoc.bracket(model, y, z))
        assert np.abs(res).max() < 1e-10


def test_connection_metric_compatible(so3_j123, abelian3, rng):
    for model in (so3_j123, abelian3):
        for _ in range(1000):
            w, y, z = rng.standard_normal((3, model.n))
            lhs = np.dot(aoc.flat(model, aoc.connection_bilinear(model, w, y)), z)
            rhs = np.dot(aoc.flat(model, y), aoc.connection_bilinear(model, w, z))
            assert abs(lhs + rhs) < 1e-10


def test_bias_principal_axis(so3_j123):
    assert_allclose(aoc.bias(so3_j123, E1), 0.0, atol=1e-15)


def test_bias_hand_value(so3_j123):
    # (J y) x y = (0, 0, -1) for y = (1, 1, 0), then J^{-1}
    assert_allclose(aoc.bias(so3_j123, [1.0, 1.0, 0.0]), [0.0, 0.0, -1.0 / 3.0])


def test_bias_identity_inertia_vanishes(so3_unit, rng):
    ys = rng.standard_normal((1000, 3))
    assert np.abs(aoc.bias(so3_unit, ys)).max() < 1e-12


def random_model(rng, n):
    """An n-dimensional model with random antisymmetric structure constants
    (the Jacobi identity need not hold) and a random positive definite inertia."""
    C = rng.standard_normal((n, n, n))
    A = rng.standard_normal((n, n))
    return make_model(n, n, C - C.transpose(0, 2, 1), A @ A.T / n + np.eye(n), strict=False)


@pytest.mark.parametrize("kind", ["so3", "random6"])
def test_bias_batch_is_bitwise_each_row_alone(kind, so3_j123, rng):
    model = so3_j123 if kind == "so3" else random_model(rng, 6)
    ys = rng.standard_normal((4, 7, model.n))
    rows = np.array([[aoc.bias(model, y) for y in block] for block in ys])
    assert np.array_equal(aoc.bias(model, ys), rows)
    for block, want in zip(ys, rows):
        assert np.array_equal(aoc.bias(model, block), want)


@pytest.mark.parametrize("kind", ["so3", "random6"])
def test_bias_matches_sharp_ad_star_flat(kind, so3_j123, rng):
    model = so3_j123 if kind == "so3" else random_model(rng, 6)
    ys = rng.standard_normal((1000, model.n))
    ref = aoc.sharp(model, aoc.ad_star(model, ys, aoc.flat(model, ys)))
    assert np.abs(aoc.bias(model, ys) - ref).max() <= 1e-15 * np.abs(ref).max()


@pytest.mark.parametrize("kind", ["so3", "random6"])
def test_ad_form_gives_the_matrix_of_ad(kind, so3_j123, rng):
    # omega @ ad_form, read as (n, n), maps v to [omega, v]
    model = so3_j123 if kind == "so3" else random_model(rng, 6)
    n = model.n
    omega, v = rng.standard_normal((2, 50, n))
    ad = (omega[:, None, :] @ model.ad_form).reshape(50, n, n)
    assert_allclose((ad @ v[..., None])[..., 0], aoc.bracket(model, omega, v), rtol=0,
                    atol=1e-13)


def test_embed_control_pads(so3_m2):
    assert_allclose(aoc.embed_control(so3_m2, [4.0, 5.0]), [4.0, 5.0, 0.0])
    with pytest.raises(aoc.DimensionMismatch):
        aoc.embed_control(so3_m2, [1.0, 2.0, 3.0])


def test_dimension_mismatch_raises(so3_j123):
    with pytest.raises(aoc.DimensionMismatch):
        aoc.bracket(so3_j123, [1.0, 0.0], [0.0, 1.0, 0.0])


def test_validate_builtin_models(so3_j123, abelian3):
    for model in (so3_j123, abelian3):
        report = validate_model(model)
        assert report.passed
        assert report.max_residual < 1e-12


def test_validate_reports_antisymmetry_failure():
    C = np.zeros((3, 3, 3))
    C[2, 0, 1] = 1.0  # partner entry C[2,1,0] missing
    model = make_model(3, 3, C, np.eye(3), strict=False)
    report = validate_model(model)
    assert "antisymmetry" in report.failures()


def test_validate_reports_indefinite_inertia():
    model = make_model(2, 2, np.zeros((2, 2, 2)), np.diag([1.0, -1.0]), strict=False)
    report = validate_model(model)
    assert "inertia_positive" in report.failures()


def test_validate_reports_adapted_basis_failure():
    inertia = np.array([[1.0, 0.0, 0.3], [0.0, 1.0, 0.0], [0.3, 0.0, 1.0]])
    model = make_model(3, 2, np.zeros((3, 3, 3)), inertia, strict=False)
    report = validate_model(model)
    assert "adapted_basis" in report.failures()


def test_strict_construction_rejects_bad_model():
    C = np.zeros((3, 3, 3))
    C[2, 0, 1] = 1.0
    with pytest.raises(ValueError):
        make_model(3, 3, C, np.eye(3))
    with pytest.raises(ValueError):
        make_model(3, 4, np.zeros((3, 3, 3)), np.eye(3))


@pytest.mark.parametrize("n,m", [(3.9, 2.7), (3, 2.7), (3.0, 3), (np.float64(3.0), 3),
                                 (3, True), ("3", 3)],
                         ids=["both-float", "m-float", "n-integral-float", "n-numpy-float",
                              "m-bool", "n-string"])
def test_make_model_rejects_non_integer_counts(n, m):
    # never truncated: make_model(3.9, 2.7, ...) is not the n = 3, m = 2 model
    with pytest.raises(ValueError, match="must be an integer"):
        make_model(n, m, np.zeros((3, 3, 3)), np.eye(3), strict=False)
    with pytest.raises(ValueError, match="must be an integer"):
        aoc.abelian_model(n, m=m)


def test_counts_below_their_floor_name_the_key():
    # one rule for every count: an integer of at least its floor
    with pytest.raises(ValueError, match=r"^algebra dimension n must be at least 1, got 0$"):
        make_model(0, 1, np.zeros((0, 0, 0)), np.eye(0))
    with pytest.raises(ValueError, match=r"^actuated dimension m must be at least 1, got 0$"):
        make_model(3, 0, np.zeros((3, 3, 3)), np.eye(3))
    with pytest.raises(ValueError, match=r"^algebra dimension n must be at least 1, got -2$"):
        aoc.abelian_model(-2)


def test_huge_integers_are_named_without_their_digits():
    # an integer of more than 4,300 digits has no repr: the message names the
    # key and the integer's size instead of failing in its own f-string
    with pytest.raises(ValueError, match=r"^tol must be finite and positive, got an integer of "
                                         r"16610 bits$"):
        aoc.algebra._positive(10 ** 5000, "tol")
    with pytest.raises(ValueError, match=r"^steps must be at least 1, got an integer of "
                                         r"16610 bits$"):
        aoc.algebra._count(-10 ** 5000, "steps", 1)


def test_make_model_takes_numpy_integer_counts():
    model = make_model(np.int64(3), np.int32(2), np.zeros((3, 3, 3)), np.eye(3))
    assert (model.n, model.m) == (3, 2) and type(model.n) is int


@pytest.mark.parametrize("inertia", [np.diag([1.0, -1.0, 1.0]), np.diag([1.0, 0.0, 1.0]),
                                     np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])],
                         ids=["indefinite", "semidefinite", "off-diagonal-indefinite"])
def test_inertia_not_positive_definite(inertia):
    with pytest.raises(ValueError, match="inertia is not positive definite"):
        make_model(3, 3, np.zeros((3, 3, 3)), inertia)
    model = make_model(3, 3, np.zeros((3, 3, 3)), inertia, strict=False)
    assert np.isnan(model.inertia_inv).all()
    assert "inertia_positive" in validate_model(model).failures()


def test_diagonal_inertia_inverse_is_exact():
    d = np.array([2.0, 3.0, 7.0, 0.1, 1e-3])
    model = make_model(5, 5, np.zeros((5, 5, 5)), np.diag(d))
    assert np.array_equal(model.inertia_inv, np.diag(1.0 / d))
    assert np.array_equal(aoc.so3_model((1.0, 2.0, 3.0)).inertia_inv.diagonal(),
                          [1.0, 0.5, 1.0 / 3.0])


def test_inertia_inverse_matches_cholesky_solve(rng):
    for n in range(1, 9):
        for _ in range(10):
            B = rng.standard_normal((n, n))
            inertia = B @ B.T + n * np.eye(n)  # eigenvalues from n to about 5 n
            got = make_model(n, n, np.zeros((n, n, n)), inertia).inertia_inv
            ref = scipy.linalg.cho_solve(scipy.linalg.cho_factor(inertia), np.eye(n))
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def test_kinetic_energy(so3_j123):
    assert aoc.kinetic_energy(so3_j123, [1.0, 1.0, 1.0]) == pytest.approx(3.0)


def test_load_model_roundtrip(tmp_path):
    triples = []
    eps = {(0, 1, 2): 1.0, (1, 2, 0): 1.0, (2, 0, 1): 1.0,
           (0, 2, 1): -1.0, (2, 1, 0): -1.0, (1, 0, 2): -1.0}
    for (i, j, k), v in eps.items():
        triples.append([k + 1, i + 1, j + 1, v])
    data = {"n": 3, "m": 2, "structure_constants": triples,
            "inertia": np.diag([1.0, 2.0, 3.0]).tolist()}
    path = tmp_path / "so3.json"
    path.write_text(json.dumps(data))
    model, rep = load_model(path)
    assert rep is None
    assert validate_model(model).passed
    ref = aoc.so3_model((1.0, 2.0, 3.0), m=2)
    assert_allclose(model.C, ref.C)


def test_load_model_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 1, "m": 1, "inertia": [[1.0]], "bogus": 1}))
    with pytest.raises(ValueError, match="unknown keys"):
        load_model(path)


def test_load_model_rejects_bad_indices(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "m": 1, "inertia": [[1.0, 0.0], [0.0, 1.0]],
                                "structure_constants": [[3, 1, 2, 1.0]]}))
    with pytest.raises(ValueError, match="out of range"):
        load_model(path)


EYE2 = [[1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("build, error, message", [
    (lambda tmp: make_model(2, 2, np.zeros((2, 2)), np.eye(2)), aoc.DimensionMismatch,
     "structure constants must have shape (2, 2, 2), got (2, 2)"),
    (lambda tmp: make_model(2, 2, np.zeros((2, 2, 2)), np.eye(3)), aoc.DimensionMismatch,
     "inertia must have shape (2, 2), got (3, 3)"),
    (lambda tmp: make_model(2, 2, np.zeros((2, 2, 2)), np.diag([1.0, np.nan])), ValueError,
     "model arrays must be finite"),
    # a 1-D inertia is the diagonal, so three moments make a 3x3 inertia for n = 2
    (lambda tmp: aoc.abelian_model(2, inertia=[1.0, 2.0, 3.0]), aoc.DimensionMismatch,
     "inertia must have shape (2, 2), got (3, 3)"),
    (lambda tmp: model_file(tmp, m=1, inertia=[[1.0]]), ValueError,
     "model file missing required key 'n'"),
    (lambda tmp: model_file(tmp, n=1, inertia=[[1.0]]), ValueError,
     "model file missing required key 'm'"),
    (lambda tmp: model_file(tmp, n=1, m=1), ValueError,
     "model file missing required key 'inertia'"),
    (lambda tmp: model_file(tmp, n=2, m=2, inertia=EYE2, rep_dim=2), ValueError,
     "rep_dim and basis_matrices must be given together"),
    (lambda tmp: model_file(tmp, n=2, m=2, inertia=EYE2, rep_dim=3,
                            basis_matrices=np.zeros((2, 2, 2)).tolist()),
     aoc.DimensionMismatch, "basis_matrices must have shape (2, 3, 3), got (2, 2, 2)"),
], ids=["structure-constants-shape", "inertia-shape", "non-finite", "abelian-diagonal-inertia",
        "missing-n", "missing-m", "missing-inertia", "rep-dim-without-basis", "basis-shape"])
def test_model_inputs_are_checked(build, error, message, tmp_path):
    with pytest.raises(error, match="^" + re.escape(message) + "$"):
        build(tmp_path)


def model_file(tmp_path, **data):
    """load_model of a model file holding ``data``."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    return load_model(path)
