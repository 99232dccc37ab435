"""Dense symmetric-matrix primitives for small optimization problems.

A validated symmetric-matrix container, the symmetric eigendecomposition
(LAPACK through numpy), a positive-semidefinite square root, and a solver
for the stationary covariance equation ``G @ H + H @ G = Q`` with ``H``
symmetric positive definite.  It also owns the CSV format: every table
the package writes goes through ``_write_csv``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinAlgError",
    "SymmetryError",
    "NotPositiveDefiniteError",
    "SymMatrix",
    "EigenDecomposition",
    "sym_eigendecompose",
    "sqrt_spd",
    "solve_lyapunov",
    "trace",
    "write_matrix_csv",
    "read_matrix_csv",
]

# Relative slack allowed between mirrored entries of a symmetric matrix.
SYMMETRY_RTOL = 1e-12
# Eigenvalues of an allegedly PSD matrix may undershoot zero by this
# fraction of the spectral norm before we call it indefinite.
PSD_EIGENVALUE_SLACK = 1e-10
# Positive-definiteness margin required of the curvature matrix in
# solve_lyapunov, relative to its spectral norm.
PD_MARGIN = 1e-12
# CSV rows formatted and written at a time; bounds the text held at once.
_CSV_BLOCK_ROWS = 64


class LinAlgError(ValueError):
    """Base class for matrix precondition failures."""


class SymmetryError(LinAlgError):
    """Raised when a matrix fails the symmetry tolerance."""


class NotPositiveDefiniteError(LinAlgError):
    """Raised when a matrix misses a required definiteness margin."""


@dataclass(frozen=True)
class SymMatrix:
    """Immutable dense real symmetric matrix.

    The constructor copies its input, validates squareness, finiteness and
    symmetry (``|e[i,j] - e[j,i]| <= 1e-12 * max(1, |e[i,j]|)``), and freezes
    the underlying array.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise LinAlgError(f"expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise LinAlgError("matrix dimension must be at least 1")
        if not np.isfinite(arr).all():
            raise LinAlgError("matrix entries must be finite")
        diff = np.abs(arr - arr.T)
        bound = SYMMETRY_RTOL * np.maximum(1.0, np.abs(arr))
        if (diff > bound).any():
            i, j = np.unravel_index(np.argmax(diff - bound), arr.shape)
            raise SymmetryError(
                f"matrix is not symmetric: entries ({i},{j})={arr[i, j]!r} and "
                f"({j},{i})={arr[j, i]!r} differ beyond tolerance"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def diagonal(cls, values) -> "SymMatrix":
        return cls(np.diag(np.asarray(values, dtype=float)))


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral factorization M = V diag(w) V^T, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def sym_eigendecompose(matrix: SymMatrix) -> EigenDecomposition:
    """Full eigendecomposition by LAPACK's symmetric solver (``numpy.linalg.eigh``).

    Returns eigenvalues in ascending order with matching orthonormal
    eigenvector columns.  Every eigendecomposition in the package goes
    through this function.
    """
    eigenvalues, eigenvectors = np.linalg.eigh(matrix.entries)
    return EigenDecomposition(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def sqrt_spd(matrix: SymMatrix) -> np.ndarray:
    """Factor R with R @ R.T equal to the given PSD matrix.

    Eigenvalues in ``[-1e-10 * ||M||_2, 0)`` are treated as roundoff and
    clamped to zero; anything below that margin raises
    :class:`NotPositiveDefiniteError`.
    """
    eig = sym_eigendecompose(matrix)
    w = eig.eigenvalues
    spectral_norm = float(np.abs(w).max())
    floor = -PSD_EIGENVALUE_SLACK * spectral_norm
    lowest = float(w.min())
    if lowest < floor:
        raise NotPositiveDefiniteError(
            f"matrix is not positive semidefinite: eigenvalue {lowest:.6e} "
            f"is below the roundoff floor {floor:.6e}"
        )
    clamped = np.clip(w, 0.0, None)
    return eig.eigenvectors * np.sqrt(clamped)


def solve_lyapunov(hessian: SymMatrix, rhs: SymMatrix) -> SymMatrix:
    """Solve G @ H + H @ G = Q for symmetric G with H symmetric PD.

    Diagonalizes H and divides the rotated right-hand side entrywise by the
    eigenvalue-pair sums.  H must be positive definite with margin
    ``min eig > 1e-12 * ||H||_2``.
    """
    if hessian.dim != rhs.dim:
        raise LinAlgError(
            f"dimension mismatch: hessian is {hessian.dim}x{hessian.dim}, "
            f"right-hand side is {rhs.dim}x{rhs.dim}"
        )
    eig = sym_eigendecompose(hessian)
    w = eig.eigenvalues
    spectral_norm = float(np.abs(w).max())
    if float(w.min()) <= PD_MARGIN * spectral_norm:
        raise NotPositiveDefiniteError(
            "stationary covariance undefined: curvature eigenvalue "
            f"{float(w.min()):.6e} fails the positive-definiteness margin "
            f"{PD_MARGIN * spectral_norm:.6e}"
        )
    v = eig.eigenvectors
    rotated = v.T @ rhs.entries @ v
    scaled = rotated / (w[:, None] + w[None, :])
    out = v @ scaled @ v.T
    out = 0.5 * (out + out.T)
    return SymMatrix(out)


def trace(matrix: SymMatrix) -> float:
    return float(np.trace(matrix.entries))


def _write_csv(path, header: str, columns) -> None:
    """Write the line ``header``, then one per row of ``columns``: an array column's ``tolist()``
    cells by ``repr`` if float, else by ``str``; a list column's cells by ``str``."""
    with open(path, "wb") as fh:  # bytes: no newline translation on any platform
        fh.write(f"{header}\n".encode())
        for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            cells = [map(str, c) if type(c) is list else map(repr if c.dtype.kind == "f" else str, c.tolist())
                     for c in (column[start : start + _CSV_BLOCK_ROWS] for column in columns)]
            fh.write(("\n".join(map(",".join, zip(*cells))) + "\n").encode())


def write_matrix_csv(path, matrix: SymMatrix) -> None:
    """Write a matrix as CSV: a ``# dim=<n>`` comment line, then rows."""
    _write_csv(path, f"# dim={matrix.dim}", list(matrix.entries.T))


def read_matrix_csv(path) -> SymMatrix:
    """Read a matrix written by :func:`write_matrix_csv`."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = [line.strip() for line in fh]
    lines = [line for line in raw if line]
    if not lines or not lines[0].startswith("#"):
        raise LinAlgError(f"{path}: missing '# dim=<n>' header line")
    header = lines[0].lstrip("#").strip()
    if not header.startswith("dim="):
        raise LinAlgError(f"{path}: malformed header {lines[0]!r}")
    try:
        dim = int(header[len("dim=") :])
    except ValueError as exc:
        raise LinAlgError(f"{path}: malformed header {lines[0]!r}") from exc
    body = [line for line in lines[1:] if not line.startswith("#")]
    if len(body) != dim:
        raise LinAlgError(
            f"{path}: expected {dim} data rows, found {len(body)}"
        )
    rows = []
    for line in body:
        cells = line.split(",")
        if len(cells) != dim:
            raise LinAlgError(
                f"{path}: expected {dim} columns, found {len(cells)} in {line!r}"
            )
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise LinAlgError(f"{path}: malformed cell in {line!r}") from exc
    return SymMatrix(np.array(rows))
