"""Tests for NN layers, module system, and optimizers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.nn import Adam, Linear, Parameter, ReLU, Sequential, Tensor, mlp
from repro.nn.init import kaiming_uniform, xavier_uniform


class TestLayers:
    def test_linear_shapes(self):
        layer = Linear(3, 5)
        out = layer(Tensor(np.ones((2, 3))))
        assert out.shape == (2, 5)

    def test_linear_no_bias(self):
        layer = Linear(3, 5, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_parameters_recursive(self):
        net = Sequential(Linear(2, 4), ReLU(), Linear(4, 1))
        assert len(net.parameters()) == 4  # two weights + two biases

    def test_num_parameters(self):
        net = Linear(3, 5)
        assert net.num_parameters() == 3 * 5 + 5

    def test_state_dict_roundtrip(self):
        rng = np.random.default_rng(0)
        a = mlp([3, 8, 2], rng=rng)
        b = mlp([3, 8, 2], rng=np.random.default_rng(99))
        state = a.state_dict()
        b.load_state_dict(state)
        x = np.ones((1, 3))
        assert np.allclose(a(Tensor(x)).data, b(Tensor(x)).data)

    def test_load_state_dict_mismatch(self):
        a = mlp([3, 8, 2])
        b = mlp([3, 4, 2])
        with pytest.raises(ModelError):
            b.load_state_dict(a.state_dict())

    def test_mlp_validation(self):
        with pytest.raises(ModelError):
            mlp([3])

    def test_mlp_final_activation(self):
        net = mlp([2, 3, 1], final_activation=True)
        out = net(Tensor(-np.ones((1, 2))))
        assert out.data.min() >= 0  # ReLU after final layer

    def test_zero_grad(self):
        net = Linear(2, 2)
        out = net(Tensor(np.ones((1, 2)))).sum()
        out.backward()
        assert net.weight.grad is not None
        net.zero_grad()
        assert net.weight.grad is None


class TestInit:
    def test_xavier_bounds(self):
        rng = np.random.default_rng(0)
        w = xavier_uniform(100, 50, rng)
        bound = np.sqrt(6.0 / 150)
        assert np.all(np.abs(w) <= bound)

    def test_kaiming_bounds(self):
        rng = np.random.default_rng(0)
        w = kaiming_uniform(100, 50, rng)
        assert np.all(np.abs(w) <= np.sqrt(6.0 / 100))

    def test_invalid_fans(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ModelError):
            xavier_uniform(0, 5, rng)
        with pytest.raises(ModelError):
            kaiming_uniform(5, 0, rng)


class TestOptimizers:
    def _quadratic_problem(self):
        target = np.array([1.0, -2.0, 3.0])
        param = Parameter(np.zeros(3))
        return param, target

    def test_adam_converges(self):
        param, target = self._quadratic_problem()
        opt = Adam([param], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            diff = param - Tensor(target)
            (diff * diff).sum().backward()
            opt.step()
        assert np.allclose(param.data, target, atol=1e-2)

    def test_adam_skips_gradless_params(self):
        a = Parameter(np.zeros(2))
        b = Parameter(np.ones(2))
        opt = Adam([a, b], lr=0.1)
        (a.sum()).backward()
        opt.step()
        assert np.allclose(b.data, np.ones(2))  # untouched

    def test_optimizer_validation(self):
        with pytest.raises(ModelError):
            Adam([])
        with pytest.raises(ModelError):
            Adam([Parameter(np.ones(1))], lr=0.0)

    def test_mlp_regression_end_to_end(self):
        rng = np.random.default_rng(7)
        net = mlp([3, 16, 1], rng=rng)
        opt = Adam(net.parameters(), lr=1e-2)
        x = rng.normal(size=(64, 3))
        y = x.sum(axis=1, keepdims=True)
        loss_value = np.inf
        for _ in range(300):
            opt.zero_grad()
            err = net(Tensor(x)) - Tensor(y)
            loss = (err * err).mean()
            loss.backward()
            opt.step()
            loss_value = loss.item()
        assert loss_value < 0.05
