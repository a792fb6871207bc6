"""Edge-case tests for the batch dimension in the nn substrate.

The batched scenario engine leans on four primitives: gradient
unbroadcasting over leading batch axes, batched (sparse) matrix products,
batched row gathers, and the path <-> grid regroup. These tests pin their semantics down directly.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from helpers import numerical_gradient, scatter_add_rows

from repro.nn import Parameter, Tensor
from repro.nn import functional as F
from repro.nn.tensor import _unbroadcast


class TestUnbroadcastBatchAxes:
    def test_sums_single_leading_batch_axis(self):
        grad = np.arange(24, dtype=float).reshape(2, 3, 4)
        out = _unbroadcast(grad, (3, 4))
        assert out.shape == (3, 4)
        assert np.allclose(out, grad.sum(axis=0))

    def test_sums_multiple_leading_axes(self):
        grad = np.ones((2, 5, 3, 4))
        out = _unbroadcast(grad, (3, 4))
        assert out.shape == (3, 4)
        assert np.allclose(out, 10 * np.ones((3, 4)))

    def test_sums_broadcast_middle_axis_with_batch(self):
        grad = np.ones((2, 3, 4))
        out = _unbroadcast(grad, (3, 1))
        assert out.shape == (3, 1)
        assert np.allclose(out, 8 * np.ones((3, 1)))

    def test_identity_when_shapes_match(self):
        grad = np.ones((2, 3, 4))
        assert _unbroadcast(grad, (2, 3, 4)) is grad


class TestBatchedMatmul:
    def test_forward_matches_numpy(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(3, 4, 5)))
        w = Tensor(rng.normal(size=(5, 2)))
        out = x @ w
        assert out.shape == (3, 4, 2)
        assert np.allclose(out.data, x.data @ w.data)

    def test_shared_weight_gradient_sums_over_batch(self):
        rng = np.random.default_rng(1)
        x = Parameter(rng.normal(size=(3, 4, 5)))
        w = Parameter(rng.normal(size=(5, 2)))
        (x @ w).sum().backward()

        def loss_w():
            return float((x.data @ w.data).sum())

        assert np.allclose(w.grad, numerical_gradient(loss_w, w.data), atol=1e-5)
        assert np.allclose(x.grad, numerical_gradient(loss_w, x.data), atol=1e-5)

    def test_batched_both_operands(self):
        rng = np.random.default_rng(2)
        a = Parameter(rng.normal(size=(2, 3, 4)))
        b = Parameter(rng.normal(size=(2, 4, 5)))
        weights = rng.normal(size=(2, 3, 5))
        ((a @ b) * Tensor(weights)).sum().backward()

        def loss():
            return float(((a.data @ b.data) * weights).sum())

        assert np.allclose(a.grad, numerical_gradient(loss, a.data), atol=1e-5)
        assert np.allclose(b.grad, numerical_gradient(loss, b.data), atol=1e-5)

    def test_linear_layer_accepts_batch(self):
        from repro.nn.layers import Linear

        layer = Linear(4, 3, rng=np.random.default_rng(3))
        x = Tensor(np.random.default_rng(4).normal(size=(2, 5, 4)))
        out = layer(x)
        assert out.shape == (2, 5, 3)
        looped = np.stack([(layer(Tensor(x.data[i]))).data for i in range(2)])
        assert np.allclose(out.data, looped)


class TestBatchedSparseMatmul:
    def test_forward_matches_dense_per_batch(self):
        rng = np.random.default_rng(5)
        matrix = sp.random(6, 5, density=0.5, random_state=6, format="csr")
        x = Tensor(rng.normal(size=(3, 5, 2)))
        out = F.sparse_matmul(matrix, x)
        assert out.shape == (3, 6, 2)
        for i in range(3):
            assert np.allclose(out.data[i], matrix.toarray() @ x.data[i])

    def test_gradient_matches_dense_per_batch(self):
        rng = np.random.default_rng(7)
        matrix = sp.random(6, 5, density=0.5, random_state=8, format="csr")
        x = Parameter(rng.normal(size=(3, 5, 2)))
        weights = rng.normal(size=(3, 6, 2))
        (F.sparse_matmul(matrix, x) * Tensor(weights)).sum().backward()
        for i in range(3):
            assert np.allclose(x.grad[i], matrix.toarray().T @ weights[i])

    def test_unbatched_path_unchanged(self):
        rng = np.random.default_rng(9)
        matrix = sp.random(4, 3, density=0.6, random_state=10, format="csr")
        x = Parameter(rng.normal(size=(3, 2)))
        out = F.sparse_matmul(matrix, x)
        assert np.allclose(out.data, matrix.toarray() @ x.data)
        out.sum().backward()
        assert np.allclose(x.grad, matrix.toarray().T @ np.ones((4, 2)))


class TestBatchedTakeRows:
    def test_forward_gathers_per_batch(self):
        x = Tensor(np.arange(24, dtype=float).reshape(2, 4, 3))
        idx = np.array([[0, 2], [1, 1]])
        out = F.take_rows(x, idx)
        assert out.shape == (2, 2, 2, 3)
        assert np.allclose(out.data, x.data[:, idx])

    def test_backward_scatter_adds_per_batch(self):
        x = Parameter(np.zeros((2, 4, 3)))
        idx = np.array([0, 2, 2])
        out = F.take_rows(x, idx)
        out.sum().backward()
        expected = np.zeros((4, 3))
        expected[0] = 1.0
        expected[2] = 2.0
        for i in range(2):
            assert np.allclose(x.grad[i], expected)

    def test_backward_matches_numeric(self):
        rng = np.random.default_rng(11)
        x = Parameter(rng.normal(size=(2, 4, 3)))
        idx = np.array([[3, 0], [1, 3]])
        weights = rng.normal(size=(2, 2, 2, 3))
        (F.take_rows(x, idx) * Tensor(weights)).sum().backward()

        def loss():
            return float((x.data[:, idx] * weights).sum())

        assert np.allclose(x.grad, numerical_gradient(loss, x.data), atol=1e-5)

    def test_rejects_vectors(self):
        from repro.exceptions import ModelError

        with pytest.raises(ModelError):
            F.take_rows(Tensor(np.ones(3)), np.array([0]))


class TestPairLinear:
    """Split-weight fused concat+linear (the FlowGNN message-passing op)."""

    def test_matches_concat_linear(self):
        rng = np.random.default_rng(20)
        a = Tensor(rng.normal(size=(2, 7, 3)))
        b = Tensor(rng.normal(size=(2, 7, 4)))
        w = Tensor(rng.normal(size=(7, 5)))
        bias = Tensor(rng.normal(size=5))
        out = F.pair_linear(a, b, w, bias)
        expected = np.concatenate([a.data, b.data], axis=-1) @ w.data + bias.data
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_gradients_match_numeric(self):
        rng = np.random.default_rng(21)
        a = Parameter(rng.normal(size=(3, 4, 2)))
        b = Parameter(rng.normal(size=(3, 4, 3)))
        w = Parameter(rng.normal(size=(5, 2)))
        bias = Parameter(rng.normal(size=2))
        weights = rng.normal(size=(3, 4, 2))
        (F.pair_linear(a, b, w, bias) * Tensor(weights)).sum().backward()

        def loss():
            out = np.concatenate([a.data, b.data], axis=-1) @ w.data + bias.data
            return float((out * weights).sum())

        for param in (a, b, w, bias):
            assert np.allclose(
                param.grad, numerical_gradient(loss, param.data), atol=1e-5
            )

    def test_rejects_mismatched_weight(self):
        from repro.exceptions import ModelError

        with pytest.raises(ModelError):
            F.pair_linear(
                Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))),
                Tensor(np.ones((5, 4))),
            )


class TestRegroupPadding:
    """Sentinel (-1) slots of the regroup used for padded path grids."""

    # Four rows into a 2x2 grid: row 1 has no slot, slot (0, 1) is padding.
    INDEX = np.array([[0, -1], [3, 2]])
    INVERSE = np.array([0, -1, 3, 2])

    def test_padding_slots_are_zero(self):
        x = Tensor(np.arange(12, dtype=float).reshape(4, 3) + 1.0)
        out = F.regroup(x, self.INDEX, self.INVERSE)
        assert np.allclose(out.data[0, 0], x.data[0])
        assert np.allclose(out.data[0, 1], 0.0)
        assert np.allclose(out.data[1, 0], x.data[3])

    def test_no_gradient_into_padding(self):
        x = Parameter(np.ones((4, 3)))
        F.regroup(x, self.INDEX, self.INVERSE).sum().backward()
        expected = np.ones((4, 3))
        expected[1] = 0.0  # row 1 sits in no slot
        assert np.array_equal(x.grad, expected)

    def test_batched_matches_numeric(self):
        rng = np.random.default_rng(22)
        x = Parameter(rng.normal(size=(2, 4, 3)))
        weights = rng.normal(size=(2, 2, 2, 3))
        (F.regroup(x, self.INDEX, self.INVERSE) * Tensor(weights)).sum().backward()

        def loss():
            safe = np.where(self.INDEX < 0, 0, self.INDEX)
            gathered = x.data[:, safe]
            gathered[:, self.INDEX < 0] = 0.0
            return float((gathered * weights).sum())

        assert np.allclose(x.grad, numerical_gradient(loss, x.data), atol=1e-5)

    def test_rejects_wrong_inverse_size(self):
        from repro.exceptions import ModelError

        with pytest.raises(ModelError):
            F.regroup(Tensor(np.ones((4, 3))), self.INDEX, self.INVERSE[:3])


def _layouts(pathset):
    """Both regroup directions on a padded path set: (rows, index, inverse)."""
    grid, slots = pathset.demand_path_ids, pathset.path_grid_index
    return {
        "to_grid": (pathset.num_paths, grid, slots),
        "to_paths": (grid.size, slots, grid),
    }


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lead", [(), (1,), (3,)], ids=["P,F", "1,P,F", "3,P,F"])
@pytest.mark.parametrize("direction", ["to_grid", "to_paths"])
class TestRegroup:
    """``F.regroup`` on B4's path <-> grid layouts (two padding slots)."""

    FEATURES = 5

    @pytest.fixture
    def case(self, b4_pathset, direction, lead, dtype):
        assert not b4_pathset.path_mask.all()  # the layout has padding
        rows, index, inverse = _layouts(b4_pathset)[direction]
        rng = np.random.default_rng(len(lead) + rows)
        x = rng.normal(size=lead + (rows, self.FEATURES)).astype(dtype)
        grad = rng.normal(size=lead + index.shape + (self.FEATURES,)).astype(dtype)
        return x, grad, index, inverse

    def test_forward_is_fancy_indexing_with_zeroed_padding(self, case):
        x, _, index, inverse = case
        expected = x[..., np.where(index < 0, 0, index), :]
        expected[..., index < 0, :] = 0.0
        out = F.regroup(Tensor(x), index, inverse).data
        assert out.dtype == x.dtype
        assert np.array_equal(out, expected)

    def test_backward_is_the_scatter_add(self, case):
        x, grad, index, inverse = case
        param = Parameter(x)
        (F.regroup(param, index, inverse) * Tensor(grad)).sum().backward()
        expected = scatter_add_rows(grad, index, x.shape[-2])
        assert param.grad.dtype == x.dtype
        assert np.array_equal(param.grad, expected)

    def test_adjoint_identity(self, case):
        x, grad, index, inverse = case
        forward = F.regroup(Tensor(x), index, inverse).data
        slots = grad.reshape(x.shape[:-2] + (index.size, self.FEATURES))
        back = F.regroup(Tensor(slots), inverse, index).data.reshape(x.shape)
        rtol = 1e-5 if x.dtype == np.float32 else 1e-12
        assert np.isclose(
            np.vdot(forward, grad), np.vdot(x, back), rtol=rtol, atol=0.0
        )


class TestBatchedSoftmaxMask:
    def test_shared_mask_broadcasts_over_batch(self):
        rng = np.random.default_rng(12)
        logits = Tensor(rng.normal(size=(3, 2, 4)))
        mask = np.array([[True, True, False, False], [True, False, False, False]])
        out = F.softmax(logits, axis=-1, mask=mask)
        assert out.shape == (3, 2, 4)
        assert np.allclose(out.data.sum(axis=-1), 1.0)
        assert np.allclose(out.data[:, 0, 2:], 0.0)
        assert np.allclose(out.data[:, 1, 1:], 0.0)
