"""Tests for the functional ops: activations, softmax, sparse matmul, etc."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from helpers import numerical_gradient

from repro.exceptions import ModelError
from repro.nn import Parameter, Tensor
from repro.nn import functional as F


class TestActivations:
    def test_relu_values_and_grad(self):
        x = Parameter(np.array([-1.0, 0.0, 2.0]))
        out = F.relu(x)
        assert np.allclose(out.data, [0.0, 0.0, 2.0])
        out.sum().backward()
        assert np.allclose(x.grad, [0.0, 0.0, 1.0])

    def test_tanh_gradient_numeric(self):
        x = Parameter(np.array([0.3, -0.7]))
        F.tanh(x).sum().backward()
        numeric = numerical_gradient(
            lambda: float(np.tanh(x.data).sum()), x.data
        )
        assert np.allclose(x.grad, numeric, atol=1e-6)

    def test_exp_log_inverse(self):
        x = Parameter(np.array([0.5, 1.5]))
        out = F.exp(x)
        assert np.allclose(np.log(out.data), x.data)
        out.sum().backward()
        assert np.allclose(x.grad, np.exp(x.data), atol=1e-9)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = Tensor(np.random.default_rng(0).normal(size=(5, 4)))
        out = F.softmax(x)
        assert np.allclose(out.data.sum(axis=1), np.ones(5))

    def test_mask_zeroes_invalid(self):
        x = Tensor(np.zeros((2, 4)))
        mask = np.array([[True, True, False, False], [True, False, False, False]])
        out = F.softmax(x, mask=mask)
        assert np.allclose(out.data[0], [0.5, 0.5, 0.0, 0.0])
        assert np.allclose(out.data[1], [1.0, 0.0, 0.0, 0.0])

    def test_gradient_matches_numeric(self):
        rng = np.random.default_rng(1)
        x = Parameter(rng.normal(size=(3, 4)))
        weights = rng.normal(size=(3, 4))
        mask = rng.random((3, 4)) > 0.3
        mask[:, 0] = True

        def loss():
            logits = np.where(mask, x.data, -1e30)
            shifted = logits - logits.max(axis=1, keepdims=True)
            exps = np.where(mask, np.exp(shifted), 0.0)
            probs = exps / exps.sum(axis=1, keepdims=True)
            return float((probs * weights).sum())

        (F.softmax(x, mask=mask) * Tensor(weights)).sum().backward()
        assert np.allclose(x.grad, numerical_gradient(loss, x.data), atol=1e-5)

    def test_extreme_logits_stable(self):
        x = Tensor(np.array([[1000.0, -1000.0, 0.0, 0.0]]))
        out = F.softmax(x)
        assert np.isfinite(out.data).all()


class TestStructuralOps:
    def test_concat_and_grad(self):
        a = Parameter(np.ones((2, 2)))
        b = Parameter(2 * np.ones((2, 3)))
        out = F.concat([a, b], axis=1)
        assert out.shape == (2, 5)
        (out * 3).sum().backward()
        assert np.allclose(a.grad, 3 * np.ones((2, 2)))
        assert np.allclose(b.grad, 3 * np.ones((2, 3)))

    def test_concat_empty_raises(self):
        with pytest.raises(ModelError):
            F.concat([])

    def test_take_rows_forward_backward(self):
        x = Parameter(np.arange(12, dtype=float).reshape(4, 3))
        idx = np.array([0, 2, 2])
        out = F.take_rows(x, idx)
        assert np.allclose(out.data, x.data[idx])
        out.sum().backward()
        expected = np.zeros((4, 3))
        expected[0] = 1
        expected[2] = 2  # row 2 gathered twice
        assert np.allclose(x.grad, expected)

    def test_take_rows_2d_index(self):
        x = Parameter(np.arange(8, dtype=float).reshape(4, 2))
        idx = np.array([[0, 1], [3, 3]])
        out = F.take_rows(x, idx)
        assert out.shape == (2, 2, 2)
        out.sum().backward()
        assert x.grad[3].sum() == pytest.approx(4.0)

    def test_sparse_matmul_matches_dense(self):
        rng = np.random.default_rng(2)
        matrix = sp.random(6, 5, density=0.5, random_state=3, format="csr")
        x = Parameter(rng.normal(size=(5, 2)))
        out = F.sparse_matmul(matrix, x)
        assert np.allclose(out.data, matrix.toarray() @ x.data)
        weights = rng.normal(size=(6, 2))
        (out * Tensor(weights)).sum().backward()
        assert np.allclose(x.grad, matrix.toarray().T @ weights)

    def test_sparse_matmul_requires_sparse(self):
        with pytest.raises(ModelError):
            F.sparse_matmul(np.eye(3), Tensor(np.ones((3, 1))))

class TestGaussianLogProb:
    def test_matches_scipy(self):
        from scipy.stats import norm

        mean = Tensor(np.array([[0.0, 1.0]]))
        log_std = Tensor(np.array([0.0, np.log(2.0)]))
        actions = np.array([[0.5, 2.0]])
        lp = F.gaussian_log_prob(mean, log_std, actions)
        expected = norm.logpdf(0.5, 0, 1) + norm.logpdf(2.0, 1, 2)
        assert lp.data[0] == pytest.approx(expected)

    def test_gradient_wrt_mean_numeric(self):
        rng = np.random.default_rng(4)
        mean = Parameter(rng.normal(size=(3, 2)))
        log_std = Parameter(np.zeros(2))
        actions = rng.normal(size=(3, 2))

        def loss():
            std = np.exp(log_std.data)
            z = (actions - mean.data) / std
            per = -0.5 * z**2 - log_std.data - 0.5 * np.log(2 * np.pi)
            return float(per.sum())

        F.gaussian_log_prob(mean, log_std, actions).sum().backward()
        assert np.allclose(mean.grad, numerical_gradient(loss, mean.data), atol=1e-5)
        assert np.allclose(
            log_std.grad, numerical_gradient(loss, log_std.data), atol=1e-5
        )
