"""Rotation algebra: Bloch map, its Shepperd-rule inverse, named rotations,
and the canonical eigenframe of the LAPACK symmetric eigensolver."""

import itertools

import numpy as np
import pytest

from spinrev import (
    axis_cycle,
    random_special_unitary,
    rotation_about,
    so3_to_su2,
    su2_to_so3,
    sym_eig,
)
from spinrev.rotations import SIGMA_X, SIGMA_Y, SIGMA_Z, check_rotation
from spinrev.search import octahedral_group

from helpers import random_rotation

EX, EY, EZ = np.eye(3)


class TestSu2ToSo3:
    def test_identity(self):
        assert np.abs(su2_to_so3(np.eye(2)) - np.eye(3)).max() <= 1e-12

    def test_quarter_turn_about_y_sends_z_to_x(self):
        # u_y with u_y^dag sigma_z u_y = sigma_x
        uy = np.array([[1, 1], [-1, 1]], dtype=complex) / np.sqrt(2)
        assert np.abs(uy.conj().T @ SIGMA_Z @ uy - SIGMA_X).max() <= 1e-12
        R = su2_to_so3(uy)
        assert np.abs(R @ EZ - EX).max() <= 1e-12

    def test_half_turn_about_z(self):
        # u = exp(-i pi sigma_z / 2) = -i sigma_z; conjugation flips x and y
        # (sigma_z sigma_x sigma_z = -sigma_x, sigma_z sigma_y sigma_z = -sigma_y)
        u = np.array([[-1j, 0], [0, 1j]])
        assert np.abs(su2_to_so3(u) - np.diag([-1.0, -1.0, 1.0])).max() <= 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            su2_to_so3(np.array([[1.0, 0.1], [0.0, 1.0]]))

    def test_composition_reverses_order(self):
        # the u^dag sigma u convention composes contravariantly
        rng = np.random.default_rng(11)
        for _ in range(100):
            u = random_special_unitary(rng)
            v = random_special_unitary(rng)
            lhs = su2_to_so3(u @ v)
            rhs = su2_to_so3(v) @ su2_to_so3(u)
            assert np.abs(lhs - rhs).max() <= 1e-10

    def test_output_is_rotation(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            R = su2_to_so3(random_special_unitary(rng))
            assert np.abs(R.T @ R - np.eye(3)).max() <= 1e-12
            assert abs(np.linalg.det(R) - 1.0) <= 1e-12


class TestSo3ToSu2:
    def test_identity(self):
        u = so3_to_su2(np.eye(3))
        assert np.abs(u - np.eye(2)).max() <= 1e-12

    def test_half_turn_about_z_lifts_to_sigma_z(self):
        u = so3_to_su2(np.diag([-1.0, -1.0, 1.0]))
        # proportional to sigma_z up to phase
        assert abs(abs(np.trace(u @ SIGMA_Z)) - 2.0) <= 1e-10
        R = su2_to_so3(u)
        assert np.abs(R - np.diag([-1.0, -1.0, 1.0])).max() <= 1e-10

    def test_z_to_x_quarter_turn(self):
        R = rotation_about((0, 1, 0), np.pi / 2)
        assert np.abs(R @ EZ - EX).max() <= 1e-12
        u = so3_to_su2(R)
        assert np.abs(u.conj().T @ SIGMA_Z @ u - SIGMA_X).max() <= 1e-10

    def test_round_trip_on_rotations(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            R = random_rotation(rng)
            assert np.abs(su2_to_so3(so3_to_su2(R)) - R).max() <= 1e-10

    def test_round_trip_near_and_at_half_turns(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            axis = rng.normal(size=3)
            for angle in (np.pi, np.pi - 1e-5, np.pi - 1e-3, 1e-7):
                R = rotation_about(axis, angle)
                assert np.abs(su2_to_so3(so3_to_su2(R)) - R).max() <= 1e-10

    def test_rejects_reflection(self):
        with pytest.raises(ValueError, match="determinant"):
            so3_to_su2(np.diag([1.0, 1.0, -1.0]))

    def test_round_trip_to_rounding_on_octahedral_rotations(self):
        group = octahedral_group()
        assert len(group) == 24
        for R in group:
            assert np.abs(su2_to_so3(so3_to_su2(R)) - R).max() <= 2e-15

    def test_round_trip_to_rounding_near_half_turns_and_tiny_angles(self):
        # pi - 2e-4 and pi - 1e-3 are where an axis/angle recovery divides
        # the antisymmetric part by a small sin(angle) and loses digits
        rng = np.random.default_rng(17)
        angles = (np.pi, np.pi - 1e-9, np.pi - 1e-6, np.pi - 1e-4, np.pi - 2e-4, np.pi - 1e-3, 1e-9)
        for _ in range(50):
            axis = rng.normal(size=3)
            for angle in angles:
                R = rotation_about(axis, angle)
                assert np.abs(su2_to_so3(so3_to_su2(R)) - R).max() <= 2e-15


def _per_matrix_lift(R):
    # the one-matrix Shepperd rule, kept as the reference for the stacked lift
    (xx, xy, xz), (yx, yy, yz), (zx, zy, zz) = R
    M = np.array(
        [
            [1.0 + xx - yy - zz, xy + yx, xz + zx, zy - yz],
            [xy + yx, 1.0 - xx + yy - zz, yz + zy, xz - zx],
            [xz + zx, yz + zy, 1.0 - xx - yy + zz, yx - xy],
            [zy - yz, xz - zx, yx - xy, 1.0 + xx + yy + zz],
        ]
    )
    k = int(np.argmax(np.diag(M)))
    x, y, z, w = M[:, k] / (2.0 * np.sqrt(M[k, k]))
    return w * np.eye(2, dtype=complex) + 1j * (x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z)


class TestStackedLift:
    def _rotations(self):
        rng = np.random.default_rng(18)
        mats = list(octahedral_group())
        for i in range(300):
            if i % 3 == 0:
                mats.append(random_rotation(rng))
            else:  # within 1e-3 to 1e-11 of a half turn
                mats.append(rotation_about(rng.normal(size=3), np.pi - 10.0 ** -rng.uniform(3, 11)))
        return np.array(mats)

    def test_bitwise_equal_to_the_per_matrix_rule(self):
        mats = self._rotations()
        stacked = so3_to_su2(mats)
        reference = np.array([_per_matrix_lift(R) for R in mats])
        assert stacked.shape == (324, 2, 2)
        assert np.array_equal(stacked, reference)
        # signed zeros included
        assert stacked.tobytes() == reference.tobytes()
        single = np.array([so3_to_su2(R) for R in mats])
        assert single.tobytes() == reference.tobytes()

    def test_leading_axes_are_kept(self):
        mats = self._rotations()[:24]
        assert np.array_equal(so3_to_su2(mats.reshape(2, 3, 4, 3, 3)), so3_to_su2(mats).reshape(2, 3, 4, 2, 2))

    def test_one_bad_matrix_rejects_the_stack(self):
        mats = self._rotations()[:24].copy()
        mats[7] = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError, match="determinant"):
            so3_to_su2(mats)


class TestCheckRotation:
    """The stacked check against R^T R and LAPACK's det, one matrix at a time."""

    def _verdict(self, R, tol):
        try:
            check_rotation(R, tol)
        except ValueError as err:
            return str(err)
        return None

    def _reference(self, R, tol):
        if not np.abs(R.T @ R - np.eye(3)).max() <= tol:
            return "matrix is not orthogonal: R^T R deviates from the identity"
        if not abs(np.linalg.det(R) - 1.0) <= tol:
            return "orthogonal matrix has determinant -1, not a rotation"
        return None

    def test_verdicts_match_the_reference(self):
        rng = np.random.default_rng(19)
        mats = [random_rotation(rng) for _ in range(40)] + list(octahedral_group())
        mats += [-R for R in mats[:10]]
        mats += [np.full((3, 3), np.nan), np.full((3, 3), np.inf), np.diag([1.0, 1.0, -1.0])]
        # unit columns that are not orthogonal
        mats += [R @ np.array([[1.0, 0.6, 0.0], [0.0, 0.8, 0.0], [0.0, 0.0, 1.0]]) for R in mats[:5]]
        for delta in (1e-14, 1e-10, 1e-6):
            for R in mats[:20]:
                bent = R.copy()
                bent[rng.integers(3), rng.integers(3)] += delta
                mats.append(bent)
        for R in mats:
            assert self._verdict(R, 1e-12) == self._reference(R, 1e-12)

    def test_one_bad_matrix_anywhere_in_a_stack(self):
        rng = np.random.default_rng(20)
        stack = np.array([random_rotation(rng) for _ in range(2 * 3 * 5)]).reshape(2, 3, 5, 3, 3)
        assert check_rotation(stack, 1e-12) is not None
        for where, bad, message in [((0, 0, 0), np.diag([1.0, -1.0, 1.0]), "determinant"),
                                    ((1, 2, 4), 2.0 * np.eye(3), "not orthogonal"),
                                    ((1, 0, 3), np.full((3, 3), np.nan), "not orthogonal")]:
            broken = stack.copy()
            broken[where] = bad
            with pytest.raises(ValueError, match=message):
                check_rotation(broken, 1e-12)


class TestAxisCycle:
    def test_cycles_the_axes(self):
        S = axis_cycle()
        assert np.array_equal(S @ EX, EY)
        assert np.array_equal(S @ EY, EZ)
        assert np.array_equal(S @ EZ, EX)

    def test_order_three(self):
        S = axis_cycle()
        assert np.array_equal(S @ S @ S, np.eye(3))

    def test_conjugates_diagonals_cyclically(self):
        S = axis_cycle()
        D = np.diag([1.0, 1.0, -2.0])
        assert np.array_equal(S @ D @ S.T, np.diag([-2.0, 1.0, 1.0]))


class TestSymEig:
    def test_already_diagonal(self):
        spec = sym_eig(np.diag([1.0, 1.0, -2.0]))
        assert np.array_equal(spec.eigenvalues, [1.0, 1.0, -2.0])
        assert np.array_equal(spec.eigenvectors, np.eye(3))

    def test_complete_graph_spectrum(self):
        W = np.ones((4, 4)) - np.eye(4)
        spec = sym_eig(W)
        assert np.abs(spec.eigenvalues - np.array([3.0, -1.0, -1.0, -1.0])).max() <= 1e-12

    def test_reconstruction_and_eigh_agreement(self):
        rng = np.random.default_rng(15)
        for n in (3, 5, 9):
            M = rng.normal(size=(n, n))
            M = M + M.T
            spec = sym_eig(M)
            Q, lam = spec.eigenvectors, spec.eigenvalues
            rel = np.linalg.norm(Q @ np.diag(lam) @ Q.T - M) / np.linalg.norm(M)
            assert rel <= 1e-10
            assert abs(np.linalg.det(Q) - 1.0) <= 1e-10
            # independent oracle for the eigenvalues
            assert np.abs(lam - np.linalg.eigvalsh(M)[::-1]).max() <= 1e-10 * np.linalg.norm(M)

    def test_invariant_under_orthogonal_conjugation(self):
        rng = np.random.default_rng(16)
        M = rng.normal(size=(6, 6))
        M = M + M.T
        base = sym_eig(M).eigenvalues
        for _ in range(5):
            Q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
            conj = sym_eig(Q @ M @ Q.T).eigenvalues
            assert np.abs(conj - base).max() <= 1e-10

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            sym_eig(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_zero_matrix(self):
        spec = sym_eig(np.zeros((4, 4)))
        assert np.array_equal(spec.eigenvalues, np.zeros(4))
        assert np.array_equal(spec.eigenvectors, np.eye(4))

    @pytest.mark.parametrize(
        "diagonal",
        [(1.0, 1.0, -2.0), (2.0, 1.0, -1.0), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0)],
        ids=["dipole", "class2", "identity", "zero"],
    )
    def test_diagonal_inputs_give_the_permuted_identity(self, diagonal):
        for perm in itertools.permutations(diagonal):
            d = np.array(perm)
            order = np.argsort(-d, kind="stable")
            expected = np.eye(3)[:, order]
            if np.linalg.det(expected) < 0.0:
                expected[:, -1] = -expected[:, -1]
            spec = sym_eig(np.diag(d))
            assert np.array_equal(spec.eigenvalues, d[order])
            assert np.array_equal(spec.eigenvectors, expected)

    def test_canonical_signs_and_orientation(self):
        rng = np.random.default_rng(18)
        for n in (3, 6):
            for _ in range(20):
                M = rng.normal(size=(n, n))
                Q = sym_eig(M + M.T).eigenvectors
                lead = Q[np.argmax(np.abs(Q), axis=0), np.arange(n)]
                assert np.all(lead[:-1] > 0.0)
                assert abs(np.linalg.det(Q) - 1.0) <= 1e-12


def test_rotation_about_rejects_zero_axis():
    with pytest.raises(ValueError, match="axis"):
        rotation_about((0.0, 0.0, 0.0), 1.0)
