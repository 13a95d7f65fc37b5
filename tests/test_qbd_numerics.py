"""Numerical-edge regression tests for the QBD solver hot path.

Covers the bugfix sweep: the representable tightened-fallback tolerance,
stagnation fail-fast in the logarithmic-reduction loop (scalar and
batched), and the cumulative R-power cache behind ``level_vector``.
"""

import numpy as np
import pytest

from repro.markov import QbdProcess, solve_g_matrix
from repro.markov.qbd import _STAGNATION_WINDOW, _tightened_tol, solve_g_matrix_batched
from repro.robustness import ConvergenceError


def mm1_qbd(lam: float, mu: float) -> QbdProcess:
    return QbdProcess(
        boundary_local=[np.zeros((1, 1))],
        boundary_up=[np.array([[lam]])],
        boundary_down=[np.array([[mu]])],
        a0=np.array([[lam]]),
        a1=np.zeros((1, 1)),
        a2=np.array([[mu]]),
    )


class TestTightenedTol:
    def test_never_below_a_few_eps(self):
        eps = float(np.finfo(float).eps)
        for tol in (0.0, 1e-300, 1e-16, 1e-15):
            assert _tightened_tol(tol) >= 8.0 * eps

    def test_clamps_the_historical_1e15_target(self):
        # The historical rung tightened to min(tol, 1e-15) — below what a
        # float64 step size around 1.0 can resolve, so the target was
        # unattainable and the rung burned its whole budget.
        assert _tightened_tol(1e-15) == 8.0 * float(np.finfo(float).eps)
        assert _tightened_tol(1e-15) > 1e-15

    def test_always_tightens_below_the_ladder_default(self):
        # The fallback rung always tightens relative to the ladder default
        # (1e-13): the result sits in (1e-15, 1e-13) for any caller tol.
        for tol in (1e-6, 1e-13, 1e-15, 0.0):
            tightened = _tightened_tol(tol)
            assert 1e-15 < tightened < 1e-13

    def test_monotone_and_representable(self):
        # Tightening must never produce a target a converging float64
        # iterate cannot reach: 1.0 + tightened must differ from 1.0.
        for tol in (1e-6, 1e-13, 1e-16, 0.0):
            tightened = _tightened_tol(tol)
            assert tightened <= max(tol, 8.0 * float(np.finfo(float).eps))
            assert 1.0 + tightened != 1.0


class TestStagnationFailFast:
    # A transient birth-death block (rho > 1): t plateaus at a constant,
    # so without stagnation detection the loop burns all of max_iter.
    A0 = np.array([[1.05]])
    A1 = np.array([[-2.05]])
    A2 = np.array([[1.0]])

    def test_scalar_stagnation_raises_early(self):
        with pytest.raises(ConvergenceError, match="stagnated") as excinfo:
            solve_g_matrix(self.A0, self.A1, self.A2, tol=1e-30, max_iter=500)
        iterations = excinfo.value.context["iterations"]
        # Fail-fast: the plateau is detected within the stagnation window,
        # not after exhausting the 500-iteration budget.
        assert iterations < 100
        assert excinfo.value.context["residual"] > 1e-30

    def test_converging_iterates_never_trip_the_window(self):
        g = solve_g_matrix(
            np.array([[0.3]]), np.array([[-1.3]]), np.array([[1.0]])
        )
        assert g[0, 0] == pytest.approx(1.0)

    def test_batched_stagnation_matches_scalar(self):
        # Stack the stagnating slice with a converging one: the plateau
        # slice comes back non-converged at the scalar detection point
        # while the healthy slice still converges.
        a0 = np.stack([self.A0, np.array([[0.6]])])
        a1 = np.stack([self.A1, np.array([[-1.6]])])
        a2 = np.stack([self.A2, self.A2])
        g, iterations, converged = solve_g_matrix_batched(
            a0, a1, a2, tol=1e-30, max_iter=500
        )
        assert not converged[0]
        assert converged[1]
        assert g[0, 0, 0] == 0.0  # non-converged slices stay zeroed
        with pytest.raises(ConvergenceError) as excinfo:
            solve_g_matrix(self.A0, self.A1, self.A2, tol=1e-30, max_iter=500)
        assert iterations[0] == excinfo.value.context["iterations"]
        assert iterations[0] >= _STAGNATION_WINDOW


def _reference_log_reduction(a0, a1, a2, tol, max_iter):
    """One chain, one plain loop: ``(G or None, iterations, stagnated)``.

    The reference for the stacked iteration: same arithmetic, with the
    stagnation counter updated every iteration.
    """
    m = a1.shape[0]
    ident = np.eye(m)
    theta = np.abs(np.diag(a1)).max() * (1.0 + 1e-9)
    kernels = np.linalg.solve(
        ident - (ident + a1 / theta), np.concatenate([a0 / theta, a2 / theta], axis=1)
    )
    h, low = kernels[:, :m], kernels[:, m:]
    g, t = low.copy(), h.copy()
    best, stalled = np.inf, 0
    for iteration in range(1, max_iter + 1):
        sol = np.linalg.solve(
            ident - (h @ low + low @ h), np.concatenate([h @ h, low @ low], axis=1)
        )
        h, low = sol[:, :m], sol[:, m:]
        g = g + t @ low
        t = t @ h
        step = float(np.abs(t).max())
        if step < tol:
            return g, iteration, False
        if step < best * (1.0 - 1e-6):
            best, stalled = step, 0
        else:
            stalled += 1
            if stalled >= _STAGNATION_WINDOW:
                return None, iteration, True
    return None, max_iter, False


class TestStackedIterationMatchesReference:
    def test_every_slice_matches_the_plain_loop(self):
        # Converging, slowly converging and plateauing (rho > 1) chains in
        # one stack, so slices leave it at different iterations.
        rng = np.random.default_rng(3)
        blocks = []
        for scale in (0.2, 0.5, 0.9, 1.0, 1.3, 2.0):
            for _ in range(3):
                a0 = rng.random((3, 3)) * scale
                a2 = rng.random((3, 3))
                a1 = rng.random((3, 3)) * 0.3
                np.fill_diagonal(a1, 0.0)
                np.fill_diagonal(a1, -(a1.sum(1) + a0.sum(1) + a2.sum(1)))
                blocks.append((a0, a1, a2))
        stack = [np.stack([b[k] for b in blocks]) for k in range(3)]
        for tol, max_iter in ((1e-13, 200), (1e-30, 200), (1e-13, 6)):
            g, iterations, converged = solve_g_matrix_batched(
                *stack, tol=tol, max_iter=max_iter
            )
            outcomes = {True: 0, False: 0}
            for i, (a0, a1, a2) in enumerate(blocks):
                ref_g, ref_iterations, _ = _reference_log_reduction(
                    a0, a1, a2, tol, max_iter
                )
                assert iterations[i] == ref_iterations
                assert converged[i] == (ref_g is not None)
                if ref_g is not None:
                    np.testing.assert_array_equal(g[i], ref_g)
                outcomes[bool(converged[i])] += 1
            assert outcomes[True] and outcomes[False]

    def test_single_chain_errors_match_the_plain_loop(self):
        a0, a1, a2 = (
            np.array([[1.05]]),
            np.array([[-2.05]]),
            np.array([[1.0]]),
        )
        _, ref_iterations, stagnated = _reference_log_reduction(
            a0, a1, a2, 1e-30, 500
        )
        assert stagnated
        with pytest.raises(ConvergenceError, match="stagnated") as excinfo:
            solve_g_matrix(a0, a1, a2, tol=1e-30, max_iter=500)
        assert excinfo.value.context["iterations"] == ref_iterations
        with pytest.raises(ConvergenceError, match="did not converge in 3") as excinfo:
            solve_g_matrix(
                np.array([[0.5]]), np.array([[-1.5]]), np.array([[1.0]]),
                tol=1e-30, max_iter=3,
            )
        assert excinfo.value.context["iterations"] == 3


class TestRPowerCache:
    def test_level_vector_extends_cumulatively(self):
        sol = mm1_qbd(0.5, 1.0).solve()
        b = sol.first_repeating_level
        # Mixed-order queries: the cache extends to the largest power seen
        # and holds exactly powers 0..max, each computed once.
        for level in (b + 5, b + 2, b + 7, b + 3):
            sol.level_vector(level)
        assert len(sol._r_powers) == 8
        rho = 0.5
        for k, power in enumerate(sol._r_powers):
            assert power[0, 0] == pytest.approx(rho**k)

    def test_repeated_queries_return_the_cached_object(self):
        sol = mm1_qbd(0.5, 1.0).solve()
        first = sol._r_power(4)
        assert sol._r_power(4) is first
        # A smaller power afterwards must not rebuild anything.
        n = len(sol._r_powers)
        sol._r_power(2)
        assert len(sol._r_powers) == n

    def test_level_vector_values_unchanged(self):
        lam, mu = 0.5, 1.0
        sol = mm1_qbd(lam, mu).solve()
        rho = lam / mu
        for level in (0, 1, 3, 6):
            expected = (1.0 - rho) * rho**level
            assert sol.level_probability(level) == pytest.approx(expected, rel=1e-9)

    def test_matrix_power_work_is_linear_not_quadratic(self):
        # Regression for the hot-path bug: level_vector(n) used to call
        # matrix_power(R, n - b) per level, re-multiplying from scratch.
        # Count multiplications via a spy on the R matrix.
        sol = mm1_qbd(0.5, 1.0).solve()

        class CountingMatrix(np.ndarray):
            pass

        counted = sol.r_matrix.view(CountingMatrix)
        counted.mults = 0

        original_matmul = CountingMatrix.__rmatmul__

        def counting_rmatmul(self, other):
            type(self).mults_seen += 1
            return np.asarray(other) @ np.asarray(self)

        CountingMatrix.mults_seen = 0
        CountingMatrix.__rmatmul__ = counting_rmatmul
        try:
            sol.r_matrix = counted
            top = sol.first_repeating_level + 10
            for level in range(sol.first_repeating_level, top + 1):
                sol.level_vector(level)
            # One extension product per new power: exactly `top - b`
            # multiplications for powers 1..10 (power 0 is the identity).
            assert CountingMatrix.mults_seen == 10
        finally:
            CountingMatrix.__rmatmul__ = original_matmul
