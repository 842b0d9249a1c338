"""Lie algebra arithmetic from structure constants.

Vectors and covectors are plain numpy arrays of length ``n`` holding
components in the model basis and its dual; every operation broadcasts
over leading batch dimensions.  Models are frozen dataclasses treated as
immutable after construction, so all functions here are pure and safe
for concurrent use.

Coadjoint convention: ``<ad_star(y, mu), z> = <mu, bracket(y, z)>`` with
no sign flip.  On so(3) with the cross-product bracket this makes
``ad_star(y, mu) = mu x y``, which is the convention the rest of the
library (extremal flows included) relies on.

The drift ``bias(y) = sharp(ad_star(y, flat(y)))`` is a fixed quadratic
form in y.  ``make_model`` builds it once as the (n, n n) matrix
``drift``, and ``bias`` contracts it with y by two stacked matmuls, the
pattern of the fused extremal kernel in ``pmp``: numpy runs the same
product on every row of a stack, so a batch keeps the bits each row gets
alone.  The extremal kernel reads its y-block from the same matrix.

The basis must be adapted to the actuated subspace: the first ``m``
basis vectors span it, the remaining ``n - m`` span its inertia
orthogonal complement, and the inertia matrix is block diagonal across
that split.  ``validate_model`` checks this along with antisymmetry,
the Jacobi identity and positive definiteness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch

VALIDATE_TOL = 1e-12  # the residual below which a model or group invariant holds


@dataclass(frozen=True, eq=False)
class LieAlgebraModel:
    """Structure constants, inertia and actuation split of a Lie algebra.

    ``C[k, i, j]`` is the coefficient of the k-th basis vector in the
    bracket of basis vectors i and j.  ``inertia_inv``, ``drift`` and
    ``ad_form`` are precomputed once at construction: ``drift`` is the
    quadratic form of ``bias`` as an (n, n n) matrix, ``drift[p, l n + i]``
    being the coefficient of y_p y_i in component l, and ``ad_form`` is the
    bilinear form of the bracket as an (n, n n) matrix, ``ad_form[k, i n + j]
    = C[i, k, j]``, so that omega @ ad_form, read as (n, n), is the matrix of
    ad(omega) (``groups.dexpinv``).
    """

    n: int
    m: int
    C: np.ndarray
    inertia: np.ndarray
    inertia_inv: np.ndarray
    drift: np.ndarray
    ad_form: np.ndarray
    name: str = "custom"


def _shown(value):
    """repr(value) for an error message, or the size of an integer too long for
    Python to print (more than 4,300 digits), whose repr is itself a ValueError."""
    try:
        return repr(value)
    except ValueError:
        return f"an integer of {value.bit_length()} bits"


def _count(value, what, least, most=None):
    """An integer count of at least ``least`` (and at most ``most``, if given); a
    float, even an integral one, or a bool is a ValueError rather than a count
    truncated by ``int``, as is a count outside those bounds."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {_shown(value)}")
    if value < least:
        raise ValueError(f"{what} must be at least {least}, got {_shown(value)}")
    if most is not None and value > most:
        raise ValueError(f"{what} must be at most {most}, got {_shown(value)}")
    return int(value)


def _positive(value, what):
    """A finite positive real number; a bool, a string or any other value that
    is not a real number is a ValueError, as are 0, negatives, inf, nan and an
    integer beyond the largest float, which has no float value."""
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
            or not 0.0 < value <= float(np.finfo(float).max)):
        raise ValueError(f"{what} must be finite and positive, got {_shown(value)}")
    return value


def make_model(n, m, C, inertia, name="custom", strict=True) -> LieAlgebraModel:
    """Build a model from raw arrays, checking shapes and (optionally) invariants.

    The symmetrized inertia must pass a Cholesky factorization
    (``np.linalg.cholesky``), which is the positive-definiteness test;
    ``inertia_inv`` is then its ``np.linalg.inv``, exactly ``1/d`` on a
    diagonal.  With ``strict`` a failed factorization or invariant
    raises ``ValueError``; pass ``strict=False`` to construct
    deliberately broken models for validation reporting, in which case a
    failed factorization leaves ``inertia_inv`` (and so ``drift``) all NaN.
    The counts ``n`` and ``m`` must be integers with 1 <= m <= n.
    """
    n, m = _count(n, "algebra dimension n", 1), _count(m, "actuated dimension m", 1)
    if m > n:
        raise ValueError(f"actuated dimension m={m} must satisfy 1 <= m <= n={n}")
    C = np.asarray(C, dtype=float)
    inertia = np.asarray(inertia, dtype=float)
    if C.shape != (n, n, n):
        raise DimensionMismatch(f"structure constants must have shape {(n, n, n)}, got {C.shape}")
    if inertia.shape != (n, n):
        raise DimensionMismatch(f"inertia must have shape {(n, n)}, got {inertia.shape}")
    if not (np.isfinite(C).all() and np.isfinite(inertia).all()):
        raise ValueError("model arrays must be finite")

    sym = 0.5 * (inertia + inertia.T)
    try:
        np.linalg.cholesky(sym)
        inv = np.linalg.inv(sym)
    except np.linalg.LinAlgError:
        if strict:
            raise ValueError("inertia is not positive definite")
        inv = np.full((n, n), np.nan)

    # sharp(ad_star(y, flat y))_l = inv[l, j] C[k, i, j] y_i inertia[k, p] y_p
    drift = np.einsum("lj,kij,kp->pli", inv, C, inertia).reshape(n, n * n)
    model = LieAlgebraModel(n=n, m=m, C=C.copy(), inertia=inertia.copy(), inertia_inv=inv,
                            drift=drift, ad_form=C.transpose(1, 0, 2).reshape(n, n * n).copy(),
                            name=name)
    if strict:
        report = validate_model(model)
        if not report.passed:
            raise ValueError("model invariants violated: " + ", ".join(report.failures()))
    return model


def so3_model(inertia_diag=(1.0, 1.0, 1.0), m=3) -> LieAlgebraModel:
    """so(3) with the cross-product bracket and diagonal inertia.  Every
    invariant holds by construction once the moments are positive, so the
    model is built without the ``validate_model`` pass."""
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1.0
    # C[k, i, j] = eps_{ijk}
    C = np.transpose(eps, (2, 0, 1))
    diag = np.asarray(inertia_diag, dtype=float)
    if diag.shape != (3,) or np.any(diag <= 0):
        raise ValueError("inertia_diag must be three positive numbers")
    return make_model(3, m, C, np.diag(diag), name="so3", strict=False)


def abelian_model(n, m=None, inertia=None) -> LieAlgebraModel:
    """Abelian R^n (all structure constants zero)."""
    n = _count(n, "algebra dimension n", 1)
    m = n if m is None else m
    inertia = np.eye(n) if inertia is None else np.asarray(inertia, dtype=float)
    if inertia.ndim == 1:
        inertia = np.diag(inertia)
    return make_model(n, m, np.zeros((n, n, n)), inertia, name="abelian")


def load_model(path):
    """Load a custom model file.

    JSON schema: ``n``, ``m``, ``structure_constants`` as a list of
    ``[k, i, j, value]`` with 1-based indices (list every nonzero entry,
    including the antisymmetric partner), ``inertia`` as an n x n array.
    An optional matrix representation may be attached via ``rep_dim`` and
    ``basis_matrices`` (n matrices, row-major nested lists); it is
    returned as a separate dict for the group layer to consume.

    Returns ``(model, rep)`` where ``rep`` is ``None`` or a dict with
    keys ``rep_dim`` and ``basis_matrices``.  Invariants are NOT enforced
    here so that validation can report on broken files; run
    ``validate_model`` on the result.
    """
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(f"a model file holds a JSON object, got {data!r}")
    known = {"n", "m", "structure_constants", "inertia", "rep_dim", "basis_matrices", "name"}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown keys in model file: {sorted(unknown)}")
    for key in ("n", "m", "inertia"):
        if key not in data:
            raise ValueError(f"model file missing required key '{key}'")
    name = data.get("name", "custom")
    if not isinstance(name, str):
        raise ValueError(f"'name' must be a string, got {name!r}")
    n, entries = _count(data["n"], "'n'", 1), data.get("structure_constants", [])
    if not isinstance(entries, list):
        raise ValueError(f"structure_constants must be a list, got {entries!r}")
    C = np.zeros((n, n, n))
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 4
                and all(type(v) is int for v in entry[:3]) and type(entry[3]) in (int, float)):
            raise ValueError("structure constant entries are [k, i, j, value] with integer "
                             f"k, i, j, got {entry!r}")
        k, i, j, value = entry
        if not (1 <= k <= n and 1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"structure constant index out of range in {entry}")
        C[k - 1, i - 1, j - 1] = value
    model = make_model(n, data["m"], C, data["inertia"],
                       name=name, strict=False)
    rep = None
    if "basis_matrices" in data or "rep_dim" in data:
        if not ("basis_matrices" in data and "rep_dim" in data):
            raise ValueError("rep_dim and basis_matrices must be given together")
        d = _count(data["rep_dim"], "'rep_dim'", 1)
        basis = np.asarray(data["basis_matrices"], dtype=float)
        if basis.shape != (n, d, d):
            raise DimensionMismatch(f"basis_matrices must have shape {(n, d, d)}, got {basis.shape}")
        if not np.isfinite(basis).all():
            raise ValueError("basis_matrices must be finite")
        rep = {"rep_dim": d, "basis_matrices": basis}
    return model, rep


def _check_dim(model, v, what):
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (model.n,):
        raise DimensionMismatch(f"{what} must have {model.n} components, got shape {v.shape}")
    return v


def bracket(model, y, z) -> np.ndarray:
    """Lie bracket [y, z] in coordinates."""
    y = _check_dim(model, y, "y")
    z = _check_dim(model, z, "z")
    return np.einsum("kij,...i,...j->...k", model.C, y, z)


def ad_star(model, y, mu) -> np.ndarray:
    """Coadjoint action: <ad_star(y, mu), z> = <mu, [y, z]> for all z."""
    y = _check_dim(model, y, "y")
    mu = _check_dim(model, mu, "mu")
    return np.einsum("kij,...i,...k->...j", model.C, y, mu)


def flat(model, y) -> np.ndarray:
    """Lower an algebra vector with the inertia: y -> inertia @ y."""
    y = _check_dim(model, y, "y")
    return np.einsum("ij,...j->...i", model.inertia, y)


def sharp(model, xi) -> np.ndarray:
    """Raise a covector with the inertia inverse (factorized once per model)."""
    xi = _check_dim(model, xi, "xi")
    return np.einsum("ij,...j->...i", model.inertia_inv, xi)


def connection_bilinear(model, y, z) -> np.ndarray:
    """Bilinear map of the left-invariant metric connection.

    Torsion-free (antisymmetrization is the bracket) and metric
    compatible for constant sections.
    """
    return 0.5 * bracket(model, y, z) - 0.5 * sharp(
        model, ad_star(model, y, flat(model, z)) + ad_star(model, z, flat(model, y))
    )


def bias(model, y) -> np.ndarray:
    """Drift of the velocity equation: sharp(ad_star(y, flat(y))).

    Equals minus connection_bilinear(y, y); on so(3) it is
    inertia^{-1}((inertia y) x y), the free rigid body term.  Evaluated
    as two stacked matmuls against ``model.drift``: each row's (1, n)
    vector times the (n, n n) matrix gives that row's (n, n) matrix,
    which then multiplies the row's y.  A stacked matmul runs the same
    product for every row, so a batch gets the bits of each row alone.
    """
    y = _check_dim(model, y, "y")
    n = model.n
    M = (y[..., None, :] @ model.drift).reshape(y.shape[:-1] + (n, n))
    return (M @ y[..., None])[..., 0]


def embed_control(model, u) -> np.ndarray:
    """Pad an m-vector of controls with n - m zeros."""
    u = np.asarray(u, dtype=float)
    if u.shape[-1:] != (model.m,):
        raise DimensionMismatch(f"control must have {model.m} components, got shape {u.shape}")
    out = np.zeros(u.shape[:-1] + (model.n,))
    out[..., : model.m] = u
    return out


def kinetic_energy(model, y) -> np.ndarray:
    """Half the inertia quadratic form of a body velocity."""
    y = _check_dim(model, y, "y")
    return 0.5 * np.einsum("...i,...i->...", y, flat(model, y))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self) -> float:
        return max(c.residual for c in self.checks)

    def failures(self):
        return [c.name for c in self.checks if not c.passed]

    def lines(self):
        return [
            f"{'PASS' if c.passed else 'FAIL'}  {c.name:<24} residual={c.residual:.3e}"
            for c in self.checks
        ]


def validate_model(model) -> ValidationReport:
    """Check all model invariants; reports rather than throws."""
    C, inertia = model.C, model.inertia
    checks = []

    res = float(np.abs(C + np.transpose(C, (0, 2, 1))).max())
    checks.append(CheckResult("antisymmetry", res < VALIDATE_TOL, res))

    jac = (
        np.einsum("lij,plk->pijk", C, C)
        + np.einsum("ljk,pli->pijk", C, C)
        + np.einsum("lki,plj->pijk", C, C)
    )
    res = float(np.abs(jac).max())
    checks.append(CheckResult("jacobi_identity", res < VALIDATE_TOL, res))

    res = float(np.abs(inertia - inertia.T).max())
    checks.append(CheckResult("inertia_symmetric", res < VALIDATE_TOL, res))

    eigs = np.linalg.eigvalsh(0.5 * (inertia + inertia.T))
    lam_min = float(eigs.min())
    checks.append(CheckResult("inertia_positive", lam_min > 0.0, max(0.0, -lam_min)))

    if model.m < model.n:
        res = float(np.abs(inertia[: model.m, model.m:]).max())
    else:
        res = 0.0
    checks.append(CheckResult("adapted_basis", res < VALIDATE_TOL, res))

    return ValidationReport(tuple(checks))
