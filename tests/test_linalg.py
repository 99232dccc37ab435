import re

import numpy as np
import numpy.testing as npt
import pytest

from sgdscope.linalg import (
    LinAlgError,
    NotPositiveDefiniteError,
    SymMatrix,
    SymmetryError,
    read_matrix_csv,
    solve_lyapunov,
    sqrt_spd,
    sym_eigendecompose,
    trace,
    write_matrix_csv,
)

import _oracles
from _oracles import lyapunov_kron_oracle, random_spd, random_symmetric
from sgdscope import engine, experiments, linalg, problems
from sgdscope.engine import Trajectory
from sgdscope.experiments import CurveEntry, CurveSet, ScanRow


class TestSymMatrix:
    def test_valid_construction_copies_and_freezes(self):
        raw = np.array([[2.0, 1.0], [1.0, 2.0]])
        m = SymMatrix(raw)
        raw[0, 0] = 99.0
        assert m.entries[0, 0] == 2.0
        assert m.dim == 2
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0

    def test_asymmetric_rejected(self):
        with pytest.raises(SymmetryError):
            SymMatrix(np.array([[1.0, 2.0], [2.1, 1.0]]))

    def test_symmetry_tolerance_is_relative(self):
        # Mirror mismatch just inside 1e-12 * max(1, |entry|) passes.
        big = 1e6
        ok = np.array([[1.0, big], [big + big * 0.5e-12, 1.0]])
        SymMatrix(ok)
        bad = np.array([[1.0, big], [big + big * 5e-12, 1.0]])
        with pytest.raises(SymmetryError):
            SymMatrix(bad)

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(LinAlgError):
            SymMatrix(np.zeros((2, 3)))
        with pytest.raises(LinAlgError):
            SymMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(LinAlgError):
            SymMatrix(np.zeros((0, 0)))

    def test_constructors(self):
        npt.assert_array_equal(SymMatrix(np.eye(3)).entries, np.eye(3))
        npt.assert_array_equal(
            SymMatrix.diagonal([1.0, 2.0]).entries, np.diag([1.0, 2.0])
        )
        assert SymMatrix(np.zeros((4, 4))).dim == 4


class TestEigendecompose:
    def test_known_two_by_two(self):
        # Characteristic polynomial of [[2,1],[1,2]] factors as (x-1)(x-3).
        eig = sym_eigendecompose(SymMatrix(np.array([[2.0, 1.0], [1.0, 2.0]])))
        npt.assert_allclose(eig.eigenvalues, [1.0, 3.0], rtol=1e-12)
        low = eig.eigenvectors[:, 0]
        high = eig.eigenvectors[:, 1]
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        assert abs(np.dot(low, [inv_sqrt2, -inv_sqrt2])) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.dot(high, [inv_sqrt2, inv_sqrt2])) == pytest.approx(1.0, abs=1e-12)

    def test_identity_and_diagonal(self):
        eig = sym_eigendecompose(SymMatrix(np.eye(4)))
        npt.assert_allclose(eig.eigenvalues, np.ones(4))
        eig = sym_eigendecompose(SymMatrix.diagonal([3.0, -1.0, 2.0]))
        npt.assert_allclose(eig.eigenvalues, [-1.0, 2.0, 3.0])
        # Eigenvectors of a diagonal matrix are coordinate axes.
        npt.assert_allclose(np.abs(eig.eigenvectors.T @ eig.eigenvectors), np.eye(3), atol=1e-14)

    def test_dim_one(self):
        eig = sym_eigendecompose(SymMatrix(np.array([[7.0]])))
        npt.assert_allclose(eig.eigenvalues, [7.0])
        npt.assert_allclose(eig.eigenvectors, [[1.0]])

    def test_matches_reference_solver_on_random_matrices(self):
        # 100 seeded symmetric matrices, dims 1..50, against numpy's eigh.
        for seed in range(100):
            rng = np.random.default_rng(seed)
            dim = int(rng.integers(1, 51))
            m = random_symmetric(rng, dim) * float(rng.uniform(0.1, 10.0))
            eig = sym_eigendecompose(SymMatrix(m))
            ref = np.linalg.eigvalsh(m)
            scale = max(1.0, float(np.abs(ref).max()))
            npt.assert_allclose(eig.eigenvalues, ref, rtol=1e-10, atol=1e-10 * scale)

    def test_reconstruction_and_orthogonality(self):
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            dim = int(rng.integers(2, 51))
            m = random_symmetric(rng, dim)
            eig = sym_eigendecompose(SymMatrix(m))
            fro = np.linalg.norm(m)
            v, w = eig.eigenvectors, eig.eigenvalues
            assert np.linalg.norm((v * w) @ v.T - m) <= 1e-10 * max(1.0, fro)
            gram = eig.eigenvectors.T @ eig.eigenvectors
            assert np.abs(gram - np.eye(dim)).max() <= 1e-12

    def test_eigenvalues_sorted_ascending(self):
        rng = np.random.default_rng(42)
        m = random_symmetric(rng, 12)
        eig = sym_eigendecompose(SymMatrix(m))
        assert (np.diff(eig.eigenvalues) >= 0).all()


class TestSqrtSpd:
    def test_diagonal_case(self):
        r = sqrt_spd(SymMatrix.diagonal([4.0, 9.0]))
        npt.assert_allclose(r @ r.T, np.diag([4.0, 9.0]), atol=1e-12)

    def test_dense_case_reconstructs(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        r = sqrt_spd(SymMatrix(m))
        npt.assert_allclose(r @ r.T, m, atol=1e-12)

    def test_random_psd_reconstruction(self):
        for seed in range(25):
            rng = np.random.default_rng(2000 + seed)
            dim = int(rng.integers(1, 30))
            m = random_spd(rng, dim, shift=0.0)  # may be near-singular
            r = sqrt_spd(SymMatrix(m))
            npt.assert_allclose(r @ r.T, m, atol=1e-10 * max(1.0, np.linalg.norm(m)))

    def test_tiny_negative_eigenvalue_clamped(self):
        m = SymMatrix.diagonal([1.0, -1e-13])
        r = sqrt_spd(m)
        npt.assert_allclose(r @ r.T, np.diag([1.0, 0.0]), atol=1e-12)

    def test_indefinite_rejected_with_eigenvalue_in_message(self):
        with pytest.raises(NotPositiveDefiniteError) as excinfo:
            sqrt_spd(SymMatrix.diagonal([1.0, -1e-3]))
        assert "-1.000000e-03" in str(excinfo.value)


class TestSolveLyapunov:
    def test_hand_solved_two_by_two(self):
        # In the eigenbasis of [[2,1],[1,2]] the equation decouples into
        # 2*lambda_i * g_i = 1, giving G = [[1/3, -1/6], [-1/6, 1/3]].
        h = SymMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        g = solve_lyapunov(h, SymMatrix(np.eye(2)))
        expected = np.array([[1.0 / 3.0, -1.0 / 6.0], [-1.0 / 6.0, 1.0 / 3.0]])
        npt.assert_allclose(g.entries, expected, atol=1e-12)

    def test_identity_curvature_halves_rhs(self):
        q = np.array([[2.0, 0.4], [0.4, 1.0]])
        g = solve_lyapunov(SymMatrix(np.eye(2)), SymMatrix(q))
        npt.assert_allclose(g.entries, q / 2.0, atol=1e-13)

    def test_matches_kronecker_oracle_on_random_pairs(self):
        for seed in range(100):
            rng = np.random.default_rng(3000 + seed)
            dim = int(rng.integers(1, 21))
            h = random_spd(rng, dim)
            q = random_spd(rng, dim)
            g = solve_lyapunov(SymMatrix(h), SymMatrix(q))
            oracle = lyapunov_kron_oracle(h, q)
            npt.assert_allclose(g.entries, oracle, atol=1e-9)
            residual = g.entries @ h + h @ g.entries - q
            assert np.linalg.norm(residual) < 1e-10 * np.linalg.norm(q)

    def test_trace_identities(self):
        # trace(H G) = trace(Q)/2 and trace(H^2 G) = trace(Q H)/2 follow from
        # taking traces of G H + H G = Q against I and H.
        for seed in range(20):
            rng = np.random.default_rng(4000 + seed)
            dim = int(rng.integers(2, 16))
            h = random_spd(rng, dim)
            q = random_spd(rng, dim)
            g = solve_lyapunov(SymMatrix(h), SymMatrix(q)).entries
            npt.assert_allclose(
                np.trace(h @ g), 0.5 * np.trace(q), rtol=1e-10
            )
            npt.assert_allclose(
                np.trace(h @ h @ g), 0.5 * np.trace(q @ h), rtol=1e-10
            )

    def test_semidefinite_curvature_rejected(self):
        h = SymMatrix.diagonal([1.0, 1e-13])
        with pytest.raises(NotPositiveDefiniteError, match="stationary covariance undefined"):
            solve_lyapunov(h, SymMatrix(np.eye(2)))

    def test_dimension_mismatch(self):
        with pytest.raises(LinAlgError, match="dimension mismatch"):
            solve_lyapunov(SymMatrix(np.eye(2)), SymMatrix(np.eye(3)))


class TestTrace:
    def test_trace(self):
        assert trace(SymMatrix.diagonal([1.0, 2.0, 3.5])) == pytest.approx(6.5)


class TestMatrixCsv:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        m = SymMatrix(random_spd(rng, 5))
        path = tmp_path / "m.csv"
        write_matrix_csv(path, m)
        back = read_matrix_csv(path)
        npt.assert_array_equal(back.entries, m.entries)
        first = path.read_text().splitlines()[0]
        assert first == "# dim=5"

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,0.0\n0.0,1.0\n")
        with pytest.raises(LinAlgError, match="header"):
            read_matrix_csv(path)

    def test_wrong_row_count_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# dim=3\n1.0,0.0,0.0\n0.0,1.0,0.0\n")
        with pytest.raises(LinAlgError, match="rows"):
            read_matrix_csv(path)

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# dim=2\n1.0,0.0\nabc,1.0\n")
        with pytest.raises(LinAlgError, match=f"^{re.escape(str(path))}: malformed cell in 'abc,1.0'$"):
            read_matrix_csv(path)


# Floats whose text is easy to get wrong: signed zero, the smallest subnormal,
# a float printed in exponent form, a sum that is not its decimal, NaN, inf.
SPECIAL = [-0.0, 5e-324, 1e16, 0.1 + 0.2, float("nan"), float("inf")]
MANY = linalg._CSV_BLOCK_ROWS * 2 + 5


def _traj(steps, times=None, thetas=None):
    steps = np.asarray(steps)
    values = np.resize(np.array(SPECIAL), len(steps))
    return Trajectory(1, steps, steps * 0.5 if times is None else np.asarray(times), values,
                      values[::-1].copy(), thetas)


def _scan_row(i, batch_size=4, value=0.1 + 0.2):
    return ScanRow(f"exp{i:02d}", batch_size, 0.05, batch_size / 0.05, value, 1e16, -0.0, 5e-324,
                   float("nan"), float("inf"), 1.0, 2.5, value, 3)


def _scan_oracle(rows):
    return _oracles.scan_csv(rows, experiments._SCAN_COLUMNS)


def _curves(lengths, accuracy):
    entries = []
    for i, n in enumerate(lengths):
        acc = None if accuracy[i] is None else np.resize(np.array(SPECIAL + [0.25]), n)
        entries.append(CurveEntry(f"lr{i}_bs{i + 1}", "base" if i == 0 else "same_ratio", 0.1, i + 1,
                                  _traj(np.arange(n) * 3), np.zeros(0), 0.0, acc))
    return CurveSet(entries[0], entries[1:], np.zeros(0))


_rng = np.random.default_rng(2020)
WRITER_CASES = {
    "trajectory-special": (engine.write_trajectory_csv, _oracles.trajectory_csv, (_traj(np.arange(6)),)),
    "trajectory-int64-steps": (engine.write_trajectory_csv, _oracles.trajectory_csv,
                               (_traj(np.array([0, 2**53 + 1, 2**62 + 3], dtype=np.int64)),)),
    "trajectory-float-steps-int-times": (engine.write_trajectory_csv, _oracles.trajectory_csv,
                                         (_traj(np.array([0.0, 2.0, 5.0]), times=np.array([0, 3, 7])),)),
    "trajectory-many": (engine.write_trajectory_csv, _oracles.trajectory_csv,
                        (_traj(np.arange(MANY), times=_rng.standard_normal(MANY)),)),
    "snapshots-special": (engine.write_snapshots_csv, _oracles.snapshots_csv,
                          (_traj(np.arange(6), thetas=np.array([SPECIAL, SPECIAL[::-1]]).T),)),
    "snapshots-many": (engine.write_snapshots_csv, _oracles.snapshots_csv,
                       (_traj(np.arange(MANY) * 7, thetas=_rng.standard_normal((MANY, 3))),)),
    "matrix-special": (linalg.write_matrix_csv, _oracles.matrix_csv,
                       (SymMatrix(np.array([[-0.0, 5e-324], [5e-324, 1e16]]) + np.diag([0.0, 0.1 + 0.2])),)),
    "matrix-many": (linalg.write_matrix_csv, _oracles.matrix_csv, (SymMatrix(random_symmetric(_rng, MANY)),)),
    "dataset-special": (problems.write_dataset_csv, _oracles.dataset_csv,
                        (np.array([SPECIAL, SPECIAL[::-1]]).T, np.array([0, 1, 2, 0, 1, 2]))),
    "dataset-many": (problems.write_dataset_csv, _oracles.dataset_csv,
                     (_rng.standard_normal((MANY, 2)), np.arange(MANY) % 3)),
    "scan-empty": (experiments.write_scan_csv, _scan_oracle, ([],)),
    "scan-one-row": (experiments.write_scan_csv, _scan_oracle, ([_scan_row(1)],)),
    "scan-many": (experiments.write_scan_csv, _scan_oracle,
                  ([_scan_row(i, i % 7 + 1, float(i)) for i in range(MANY)],)),
    "curves-accuracy": (experiments.write_curves_csv, _oracles.curves_csv, (_curves([50, 50, 40], [1, 1, 1]),)),
    "curves-no-accuracy": (experiments.write_curves_csv, _oracles.curves_csv,
                           (_curves([3, 70], [None, None]),)),
    "curves-entry-without-accuracy": (experiments.write_curves_csv, _oracles.curves_csv,
                                      (_curves([20, 60], [1, None]),)),
}


class TestCsvWriters:
    @pytest.mark.parametrize("case", list(WRITER_CASES))
    def test_writer_bytes_match_the_cell_by_cell_oracle(self, tmp_path, case):
        writer, oracle, args = WRITER_CASES[case]
        path = tmp_path / "out.csv"
        writer(path, *args)
        expected = oracle(*args)
        assert path.read_bytes() == expected.encode("utf-8")
        if case.endswith("many"):
            assert expected.count("\n") > 2 * linalg._CSV_BLOCK_ROWS + 1
