"""Tests for the autodiff tensor engine, including finite-difference checks."""

from __future__ import annotations

import numpy as np
import pytest
from helpers import numerical_gradient
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ModelError
from repro.nn import Parameter, Tensor, as_tensor


class TestBasics:
    def test_construction_and_shape(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.ndim == 2
        assert t.size == 4

    def test_item_requires_scalar(self):
        assert Tensor(3.0).item() == 3.0

    def test_as_tensor_passthrough(self):
        t = Tensor(1.0)
        assert as_tensor(t) is t
        assert isinstance(as_tensor(2.0), Tensor)

    def test_detach_cuts_tape(self):
        p = Parameter(np.ones(3))
        out = (p * 2.0).detach() * 3.0
        out.sum().backward()
        assert p.grad is None

    def test_backward_requires_scalar_or_gradient(self):
        t = Parameter(np.ones(3))
        with pytest.raises(ModelError):
            (t * 2).backward()

    def test_backward_gradient_shape_check(self):
        t = Parameter(np.ones(3))
        with pytest.raises(ModelError):
            (t * 2).backward(np.ones(2))


class TestGradients:
    def test_add_mul_chain(self):
        a = Parameter(np.array([1.0, 2.0]))
        b = Parameter(np.array([3.0, 4.0]))
        out = (a * b + a).sum()
        out.backward()
        assert np.allclose(a.grad, b.data + 1)
        assert np.allclose(b.grad, a.data)

    def test_broadcasting_gradient(self):
        a = Parameter(np.ones((3, 2)))
        b = Parameter(np.array([10.0, 20.0]))  # broadcast over rows
        (a * b).sum().backward()
        assert np.allclose(b.grad, [3.0, 3.0])

    def test_matmul_gradient_matches_numeric(self):
        rng = np.random.default_rng(0)
        a = Parameter(rng.normal(size=(3, 4)))
        b = Parameter(rng.normal(size=(4, 2)))

        def loss():
            return float(((a.data @ b.data) ** 2).sum())

        out = a @ b
        (out * out).sum().backward()
        assert np.allclose(a.grad, numerical_gradient(loss, a.data), atol=1e-5)
        assert np.allclose(b.grad, numerical_gradient(loss, b.data), atol=1e-5)

    def test_division_gradient(self):
        a = Parameter(np.array([4.0]))
        b = Parameter(np.array([2.0]))
        (a / b).backward()
        assert np.allclose(a.grad, [0.5])
        assert np.allclose(b.grad, [-1.0])

    def test_pow_gradient(self):
        a = Parameter(np.array([3.0]))
        (a ** 2).backward()
        assert np.allclose(a.grad, [6.0])

    def test_reshape_and_transpose(self):
        a = Parameter(np.arange(6, dtype=float).reshape(2, 3))
        out = a.reshape(3, 2).T.sum()
        out.backward()
        assert np.allclose(a.grad, np.ones((2, 3)))

    def test_sum_axis_keepdims(self):
        a = Parameter(np.ones((2, 3)))
        a.zero_grad()
        a_sum = a.sum(axis=1, keepdims=True)
        (a_sum * 2).sum().backward()
        assert np.allclose(a.grad, 2 * np.ones((2, 3)))

    def test_mean_gradient(self):
        a = Parameter(np.ones(4))
        a.mean().backward()
        assert np.allclose(a.grad, 0.25 * np.ones(4))

    def test_gradient_accumulates_on_reuse(self):
        a = Parameter(np.array([2.0]))
        out = a * a  # a used twice
        out.backward()
        assert np.allclose(a.grad, [4.0])

    def test_diamond_graph_gradient(self):
        """f(x) = (x*2) + (x*3); gradient must be 5 (no double count)."""
        x = Parameter(np.array([1.0]))
        out = x * 2 + x * 3
        out.backward()
        assert np.allclose(x.grad, [5.0])

    def test_first_gradient_is_stored_without_a_copy(self):
        x = Parameter(np.zeros(3))
        grad = np.array([1.0, 2.0, 3.0])
        x._accumulate(grad)
        assert x.grad is grad
        x._accumulate(grad)  # later gradients add out of place
        assert np.array_equal(x.grad, [2.0, 4.0, 6.0])
        assert np.array_equal(grad, [1.0, 2.0, 3.0])

    def test_self_addition_leaves_the_upstream_gradient_intact(self):
        x = Parameter(np.array([1.0, -2.0, 3.0]))
        out = x + x
        grad = np.array([0.5, 1.5, -2.0])
        out.backward(grad)
        assert np.array_equal(x.grad, 2.0 * grad)
        assert np.array_equal(grad, [0.5, 1.5, -2.0])
        assert out.grad is grad

    def test_reshape_views_give_correct_gradients(self):
        x = Parameter(np.arange(6, dtype=float).reshape(2, 3))
        grad = np.arange(6, dtype=float) + 1.0
        # A single reshape hands x a view of the upstream gradient ...
        x.reshape(6).backward(grad)
        assert np.array_equal(x.grad, grad.reshape(2, 3))
        assert np.shares_memory(x.grad, grad)
        # ... and a second use accumulates without writing through it.
        x.zero_grad()
        (x.reshape(6) + x.reshape(6)).backward(grad)
        assert np.array_equal(x.grad, 2.0 * grad.reshape(2, 3))
        assert np.array_equal(grad, np.arange(6, dtype=float) + 1.0)

    @given(
        st.lists(st.floats(-5, 5), min_size=4, max_size=4),
        st.lists(st.floats(-5, 5), min_size=4, max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_sub_neg_property(self, xs, ys):
        a = Parameter(np.array(xs))
        b = Parameter(np.array(ys))
        (a - b).sum().backward()
        assert np.allclose(a.grad, np.ones(4))
        assert np.allclose(b.grad, -np.ones(4))

    def test_rsub_rtruediv(self):
        a = Parameter(np.array([2.0]))
        (1.0 - a).backward()
        assert np.allclose(a.grad, [-1.0])
        a.zero_grad()
        (1.0 / a).backward()
        assert np.allclose(a.grad, [-0.25])
