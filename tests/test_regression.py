"""Regression oracle: linear maps, structured ERM, clamping, consistency."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from latentlqr import (DecoderClass, StructuredClass, ValidationError, erm_fit,
                       erm_fit_increment, fit_linear_map)
from latentlqr.regression import _kron, _opnorm_clamp


def identity_class(**kwargs) -> DecoderClass:
    return DecoderClass(candidates=(lambda y: np.atleast_2d(y),), contains_truth=0, **kwargs)


class TestFitLinearMap:
    def test_exact_recovery(self):
        rng = np.random.default_rng(0)
        m_star = rng.standard_normal((2, 3))
        x = rng.standard_normal((50, 3))
        m = fit_linear_map(x, x @ m_star.T)
        assert np.allclose(m, m_star, atol=1e-9)

    def test_single_sample_ridge_limit(self):
        e1 = np.zeros((1, 3))
        e1[0, 0] = 1.0
        m = fit_linear_map(e1, e1)
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0
        assert np.allclose(m, expected, atol=1e-9)

    def test_zero_targets(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((20, 2))
        assert np.allclose(fit_linear_map(x, np.zeros((20, 2))), 0.0)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((200, 3))
        y = rng.standard_normal((200, 2))
        m = fit_linear_map(x, y)
        resid = x @ m.T - y
        cross = np.linalg.norm(resid.T @ x, "fro")
        scale = np.linalg.norm(x, "fro") * np.linalg.norm(y, "fro")
        assert cross <= 1e-6 * scale

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            fit_linear_map(np.zeros((3, 2)), np.zeros((4, 2)))


class TestErmFit:
    def test_identity_class_doubling(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((100, 2))
        klass = StructuredClass(base=identity_class(), output_dim=2, radius=10.0)
        fit = erm_fit(klass, x, 2.0 * x)
        assert np.allclose(fit.m, 2.0 * np.eye(2), atol=1e-8)
        assert fit.empirical_loss < 1e-12

    def test_candidate_selection(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((500, 2))
        target = x @ np.array([[1.0, 2.0], [0.0, 1.0]]).T
        swap = DecoderClass(candidates=(lambda y: np.atleast_2d(y),
                                        lambda y: np.atleast_2d(y)[:, ::-1] ** 3),
                            contains_truth=0)
        klass = StructuredClass(base=swap, output_dim=2, radius=10.0)
        fit = erm_fit(klass, x, target)
        assert fit.candidate_index == 0

    def test_clamp_exact(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((100, 2))
        klass = StructuredClass(base=identity_class(), output_dim=2, radius=1.5)
        fit = erm_fit(klass, x, 4.0 * x)
        assert fit.clamped
        svals = np.linalg.svd(fit.m, compute_uv=False)
        assert abs(svals[0] - 1.5) < 1e-9

    def test_clamp_never_exceeds_radius(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((60, 3))
        y = rng.standard_normal((60, 2)) * 5
        klass = StructuredClass(base=identity_class(), output_dim=2, radius=0.3)
        fit = erm_fit(klass, x, y)
        assert np.linalg.svd(fit.m, compute_uv=False)[0] <= 0.3 + 1e-9

    def test_erm_dominance(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((300, 2))
        y = x @ rng.standard_normal((2, 2)) + 0.1 * rng.standard_normal((300, 2))
        cls = DecoderClass(candidates=(lambda o: np.atleast_2d(o),
                                       lambda o: np.tanh(np.atleast_2d(o)),
                                       lambda o: np.atleast_2d(o) ** 2),
                           contains_truth=0)
        klass = StructuredClass(base=cls, output_dim=2, radius=5.0)
        fit = erm_fit(klass, x, y)
        assert fit.empirical_loss == min(fit.all_losses)
        assert fit.candidate_index == int(np.argmin(fit.all_losses))

    @pytest.mark.parametrize("radius", [10.0, 0.3], ids=["free", "clamped"])
    @pytest.mark.parametrize("kind", ["erm_fit", "erm_fit_increment"])
    def test_loss_recomputed(self, kind, radius):
        rng = np.random.default_rng(8)
        x_now, x = rng.standard_normal((2, 50, 2))
        y = x + 0.2 * rng.standard_normal((50, 2))
        left, shift = np.array([[1.0, 0.5], [0.0, 2.0]]), 0.3 * np.eye(2)
        candidates = (lambda o: np.atleast_2d(o), lambda o: np.tanh(np.atleast_2d(o)),
                      lambda o: np.atleast_2d(o) ** 2)

        def fit(cands):
            klass = StructuredClass(base=DecoderClass(candidates=cands), output_dim=2,
                                    radius=radius)
            if kind == "erm_fit":
                return erm_fit(klass, x, y)
            return erm_fit_increment(klass, x_now, x, left, shift, y)

        def manual(f, m):
            pred = f(x) @ m.T
            if kind == "erm_fit_increment":
                pred = (pred - f(x_now) @ m.T @ shift.T) @ left.T
            return np.mean(np.sum((pred - y) ** 2, axis=1))

        best = fit(candidates)
        assert best.clamped == (radius < 1.0)
        expected = manual(candidates[best.candidate_index], best.m)
        assert abs(best.empirical_loss - expected) <= 1e-9 * expected
        for idx, f in enumerate(candidates):
            alone = fit((f,))
            expected = manual(f, alone.m)
            assert abs(best.all_losses[idx] - expected) <= 1e-9 * expected

    def test_empty_data(self):
        klass = StructuredClass(base=identity_class(), output_dim=2, radius=1.0)
        with pytest.raises(ValidationError):
            erm_fit(klass, np.zeros((0, 2)), np.zeros((0, 2)))

    def test_well_specified_consistency_rate(self):
        # error should roughly halve going from n to 4n samples
        m_star = np.array([[0.8, -0.3], [0.2, 0.5]])
        klass = StructuredClass(base=identity_class(), output_dim=2, radius=5.0)
        errors = {}
        for n in (10_000, 40_000):
            errs = []
            for seed in range(5):
                rng = np.random.default_rng(100 + seed)
                x = rng.standard_normal((n, 2))
                y = x @ m_star.T + rng.standard_normal((n, 2))
                fit = erm_fit(klass, x, y)
                errs.append(np.linalg.norm(fit.m - m_star, "fro"))
            errors[n] = np.mean(errs)
        ratio = errors[10_000] / errors[40_000]
        assert 1.2 <= ratio <= 3.5


class TestErmFitIncrement:
    def test_exact_recovery(self):
        rng = np.random.default_rng(10)
        m_star = np.array([[0.7, 0.2], [-0.1, 0.9]])
        left = rng.standard_normal((3, 2))
        shift = np.array([[0.5, 0.1], [0.0, 0.4]])
        y_now = rng.standard_normal((200, 2))
        y_next = rng.standard_normal((200, 2))
        targets = (y_next @ m_star.T @ left.T) - (y_now @ m_star.T @ shift.T @ left.T)
        klass = StructuredClass(base=identity_class(), output_dim=2, radius=10.0)
        fit = erm_fit_increment(klass, y_now, y_next, left, shift, targets)
        assert np.allclose(fit.m, m_star, atol=1e-7)
        assert fit.empirical_loss < 1e-12

    def test_offsets_match_shifted_targets(self):
        rng = np.random.default_rng(11)
        y_now = rng.standard_normal((120, 2))
        y_next = rng.standard_normal((120, 2))
        targets = rng.standard_normal((120, 2))
        e = rng.standard_normal((120, 2))
        left = np.eye(2)
        shift = 0.3 * np.eye(2)
        klass = StructuredClass(base=identity_class(), output_dim=2, radius=10.0)
        a = erm_fit_increment(klass, y_now, y_next, left, shift, targets, offsets=e)
        b = erm_fit_increment(klass, y_now, y_next, left, shift, targets - e)
        assert np.allclose(a.m, b.m, atol=1e-12)

    def test_reduces_to_simple_when_shift_zero(self):
        rng = np.random.default_rng(12)
        y_now = rng.standard_normal((150, 2))
        y_next = rng.standard_normal((150, 2))
        targets = rng.standard_normal((150, 2))
        klass = StructuredClass(base=identity_class(), output_dim=2, radius=10.0)
        inc = erm_fit_increment(klass, y_now, y_next, np.eye(2), np.zeros((2, 2)), targets)
        simple = erm_fit(klass, y_next, targets)
        assert np.allclose(inc.m, simple.m, atol=1e-8)


class TestMemoryLayout:
    @pytest.mark.parametrize("d", [1, 2])
    def test_a_strided_view_fits_like_its_copy(self, d):
        # phase 3 hands the fits columns of (n, T, d) observation arrays
        rng = np.random.default_rng(13)
        big = rng.standard_normal((400, 3, d))
        targets = rng.standard_normal((400, d))
        left, shift = rng.standard_normal((d, d)), 0.5 * np.eye(d)
        klass = StructuredClass(base=identity_class(), output_dim=d, radius=10.0)
        now, nxt = big[:, 0], big[:, 1]
        for a, b in ((erm_fit(klass, now, targets), erm_fit(klass, now.copy(), targets)),
                     (erm_fit_increment(klass, now, nxt, left, shift, targets),
                      erm_fit_increment(klass, now.copy(), nxt.copy(), left, shift, targets))):
            assert np.array_equal(a.m, b.m)
            assert a.empirical_loss == b.empirical_loss


@pytest.mark.parametrize("a_shape, b_shape", [((1, 1), (1, 1)), ((2, 2), (2, 2)),
                                              ((2, 3), (4, 1)), ((5, 5), (3, 2))])
def test_kron_matches_numpy_bitwise(a_shape, b_shape):
    rng = np.random.default_rng(sum(a_shape + b_shape))
    a, b = rng.standard_normal(a_shape), rng.standard_normal(b_shape)
    assert np.array_equal(_kron(a, b), np.kron(a, b))


class TestOpnormClampProperties:
    @settings(max_examples=200, deadline=None)
    @given(m=arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 5)),
                    elements=st.floats(-1e6, 1e6)),
           radius=st.floats(1e-6, 1e6))
    def test_never_exceeds_the_radius(self, m, radius):
        clamped, was_clamped = _opnorm_clamp(m, radius)
        assert np.linalg.norm(clamped, 2) <= radius * (1 + 1e-12)
        if not was_clamped:
            assert clamped is m

    @settings(max_examples=200, deadline=None)
    @given(m=arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 5)),
                    elements=st.floats(-1e3, 1e3)),
           slack=st.floats(1.0 + 1e-9, 1e3))
    def test_within_the_radius_is_returned_unchanged(self, m, slack):
        radius = max(np.linalg.norm(m, 2) * slack, 1e-300)
        clamped, was_clamped = _opnorm_clamp(m, radius)
        assert clamped is m and not was_clamped
