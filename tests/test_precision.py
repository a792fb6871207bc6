"""Tests of the dtype-polymorphic compute substrate (repro.nn.precision).

Three contracts are pinned here:

1. **Dtype preservation** — float32 payloads stay float32 through the
   tensor substrate, models cast cleanly with ``astype``, and every
   component's outputs carry the requested storage dtype.
2. **Fused == naive, bit for bit, at fixed dtype** — the fused
   inference kernels (preallocated buffers + ufunc ``out=``) compute
   exactly the elementwise chains of the Tensor path, at float64 *and*
   float32.
3. **float32 == float64 at the documented tolerance** — end-to-end
   allocations (forward + ADMM + acceptance) agree on delivered
   flow and MLU within 1e-4 relative across schemes and topologies.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.config import AdmmConfig, TrainingConfig
from repro.core import AdmmFineTuner, TealModel, TealScheme
from repro.core.batching import (
    SegmentOps,
    Workspace,
    csr_matmul_into,
    linear_into,
    masked_softmax_into,
    pair_linear_into,
    relu_,
    tanh_,
)
from repro.exceptions import ReproError
from repro.nn import functional as F
from repro.nn.layers import Linear
from repro.nn.precision import (
    DEFAULT_INFERENCE_PRECISION,
    FLOAT32,
    FLOAT64,
    Precision,
    resolve_precision,
)
from repro.nn.tensor import Parameter, Tensor
from repro.paths import PathSet
from repro.simulation.evaluator import evaluate_allocations_batch
from repro.topology import get_topology
from repro.traffic import TrafficTrace

#: Documented float32-vs-float64 relative tolerance on allocation
#: quality (delivered flow, MLU) — see README "Precision & performance".
PARITY_RTOL = 1e-4


# ----------------------------------------------------------------------
# The Precision policy object
# ----------------------------------------------------------------------
class TestPrecisionPolicy:
    def test_dtypes(self):
        assert FLOAT32.dtype == np.float32
        assert FLOAT64.dtype == np.float64
        assert FLOAT32.accumulate_dtype == np.float64
        assert FLOAT32.itemsize == 4 and FLOAT64.itemsize == 8

    def test_resolve(self):
        assert resolve_precision(None) is FLOAT64
        assert resolve_precision(None, default="float32") == FLOAT32
        assert resolve_precision("float32") == FLOAT32
        assert resolve_precision(FLOAT32) is FLOAT32
        assert resolve_precision(np.float32) == FLOAT32
        assert resolve_precision(np.dtype(np.float64)) == FLOAT64

    def test_unknown_precision_rejected(self):
        with pytest.raises(ReproError):
            Precision("float16")
        with pytest.raises(ReproError):
            resolve_precision("bfloat16")

    def test_hashable_for_cache_keys(self):
        assert hash(Precision("float32")) == hash(FLOAT32)
        assert len({FLOAT32, FLOAT64, Precision("float32")}) == 2

    def test_inference_default_is_float32(self):
        assert DEFAULT_INFERENCE_PRECISION == FLOAT32


# ----------------------------------------------------------------------
# Dtype preservation in the tensor substrate
# ----------------------------------------------------------------------
class TestTensorDtype:
    def test_payload_dtype_preserved(self):
        assert Tensor(np.ones(3, dtype=np.float32)).data.dtype == np.float32
        assert Tensor(np.ones(3, dtype=np.float64)).data.dtype == np.float64
        # Non-float payloads still convert to the float64 default.
        assert Tensor([1, 2, 3]).data.dtype == np.float64
        assert Tensor(np.arange(3)).data.dtype == np.float64

    def test_ops_preserve_float32(self):
        x = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        y = F.tanh(x * 2.0 + 1.0)
        assert y.data.dtype == np.float32
        z = F.softmax(y, axis=-1)
        assert z.data.dtype == np.float32

    def test_numpy_scalars_stay_strong(self):
        """Only *Python* scalars are weak: a float64 numpy scalar (which
        subclasses float) must promote a float32 tensor, not be rounded
        into it (NEP 50 semantics)."""
        x = Tensor(np.ones(3, dtype=np.float32))
        y = x * np.float64(1e40)
        assert y.data.dtype == np.float64
        assert np.all(np.isfinite(y.data))
        z = x * np.float32(2.0)
        assert z.data.dtype == np.float32

    def test_backward_grad_dtype_follows_data(self):
        x = Parameter(np.ones((2, 3), dtype=np.float32))
        loss = (F.relu(x * 3.0)).sum()
        loss.backward()
        assert x.grad is not None
        assert x.grad.dtype == np.float32

    def test_module_astype_roundtrip(self):
        layer = Linear(4, 2)
        layer.astype(np.float32)
        assert layer.weight.data.dtype == np.float32
        assert layer.dtype == np.float32
        out = layer(Tensor(np.ones((5, 4), dtype=np.float32)))
        assert out.data.dtype == np.float32
        layer.astype(np.float64)
        assert layer.dtype == np.float64


# ----------------------------------------------------------------------
# Fused kernels == naive elementwise chains (bit-for-bit, fixed dtype)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
class TestFusedKernels:
    def test_pair_linear_into_matches_functional(self, dtype):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 7, 4)).astype(dtype)
        b = rng.normal(size=(3, 7, 5)).astype(dtype)
        w = rng.normal(size=(9, 6)).astype(dtype)
        bias = rng.normal(size=6).astype(dtype)
        out = np.empty((3, 7, 6), dtype=dtype)
        scratch = np.empty_like(out)
        pair_linear_into(a, b, w, bias, out, scratch)
        reference = F.pair_linear(Tensor(a), Tensor(b), Tensor(w), Tensor(bias))
        assert out.dtype == dtype
        assert np.array_equal(out, reference.numpy())

    def test_masked_softmax_into_matches_functional(self, dtype):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(5, 4)).astype(dtype)
        mask = rng.random(size=(5, 4)) > 0.3
        mask[:, 0] = True  # no all-masked rows
        out = logits.copy()
        reduce_buf = np.empty((5, 1), dtype=dtype)
        masked_softmax_into(logits.copy(), ~mask, out, reduce_buf)
        reference = F.softmax(Tensor(logits), axis=-1, mask=mask)
        assert out.dtype == dtype
        assert np.array_equal(out, reference.numpy())

    def test_csr_matmul_into_matches_product(self, dtype):
        rng = np.random.default_rng(2)
        dense_full = (rng.random((6, 8)) < 0.4) * rng.normal(size=(6, 8))
        csr = sp.csr_matrix(dense_full.astype(dtype))
        x = rng.normal(size=(8, 3)).astype(dtype)
        out = np.empty((6, 3), dtype=dtype)
        csr_matmul_into(csr, x, out)
        assert np.array_equal(out, csr @ x)
        # Batched operand: one call per batch row, still bit-identical.
        xb = rng.normal(size=(4, 8, 3)).astype(dtype)
        outb = np.empty((4, 6, 3), dtype=dtype)
        csr_matmul_into(csr, xb, outb)
        expected = np.stack([csr @ xb[i] for i in range(4)])
        assert np.array_equal(outb, expected)

    def test_kernels_match_inline_numpy(self, dtype):
        """Each kernel runs the numpy calls its docstring names, in order."""
        rng = np.random.default_rng(7)
        x = rng.standard_normal((5, 8)).astype(dtype)
        w = rng.standard_normal((8, 6)).astype(dtype)
        b = rng.standard_normal(6).astype(dtype)

        out = np.empty((5, 6), dtype=dtype)
        linear_into(x, w, b, out)
        expected = np.matmul(x, w)
        np.add(expected, b, out=expected)
        assert np.array_equal(out, expected)

        y = rng.standard_normal((5, 6)).astype(dtype)
        w2 = rng.standard_normal((8 + 6, 7)).astype(dtype)
        b2 = rng.standard_normal(7).astype(dtype)
        pair_out = np.empty((5, 7), dtype=dtype)
        scratch = np.empty((5, 7), dtype=dtype)
        pair_linear_into(x, y, w2, b2, pair_out, scratch)
        ref2 = np.matmul(x, w2[:8])
        ref2 += np.matmul(y, w2[8:])
        ref2 += b2
        assert np.array_equal(pair_out, ref2)

        t = x.copy()
        tanh_(t)
        assert np.array_equal(t, np.tanh(x))
        r = x.copy()
        relu_(r)
        assert np.array_equal(r, np.maximum(x, 0.0))

        logits = rng.standard_normal((3, 5, 4)).astype(dtype)
        mask = rng.random((5, 4)) < 0.3
        soft = np.empty_like(logits)
        reduce_buf = np.empty((3, 5, 1), dtype=dtype)
        masked_softmax_into(logits, mask, soft, reduce_buf)
        ref = logits.copy()
        ref[..., mask] = dtype(-1e30)
        ref = ref - ref.max(axis=-1, keepdims=True)
        ref = np.exp(ref)
        ref[..., mask] = 0.0
        denom = np.maximum(ref.sum(axis=-1, keepdims=True), 1e-30)
        assert np.array_equal(soft, ref / denom)

    def test_model_fused_equals_naive(self, dtype, b4_pathset, b4_trace):
        model = TealModel(b4_pathset, seed=3).astype(dtype)
        demands = np.stack(
            [b4_pathset.demand_volumes(m.values) for m in b4_trace[:4]]
        )
        naive = model.split_ratios_batch(demands, fused=False)
        fused = model.split_ratios_batch(demands, fused=True)
        assert fused.dtype == dtype
        assert np.array_equal(naive, fused)
        one_naive = model.split_ratios(demands[2], fused=False)
        one_fused = model.split_ratios(demands[2], fused=True)
        assert np.array_equal(one_naive, one_fused)

    def test_fused_forward_reuses_buffers(self, dtype, b4_pathset, b4_trace):
        model = TealModel(b4_pathset, seed=0).astype(dtype)
        demands = np.stack(
            [b4_pathset.demand_volumes(m.values) for m in b4_trace[:3]]
        )
        first = model.split_ratios_batch(demands)
        count = model.flow_gnn.workspace.num_buffers
        again = model.split_ratios_batch(demands)
        assert model.flow_gnn.workspace.num_buffers == count
        # Reused buffers must not alias the returned allocations.
        assert np.array_equal(first, again)
        assert first is not again


class TestWorkspace:
    def test_buffer_identity_and_rekeying(self):
        ws = Workspace()
        a = ws.buffer("x", (3, 2), np.float64)
        assert ws.buffer("x", (3, 2), np.float64) is a
        b = ws.buffer("x", (3, 2), np.float32)  # dtype switch reallocates
        assert b is not a and b.dtype == np.float32
        ws.clear()
        assert ws.num_buffers == 0

    def test_total_bytes(self):
        ws = Workspace()
        ws.buffer("x", (4,), np.float32)
        assert ws.total_bytes == 16


class TestWorkspaceGrowthBacking:
    """Cell-batched sweeps resize buffers per chunk without reallocating."""

    def test_same_shape_rerequest_is_identity(self):
        ws = Workspace()
        a = ws.buffer("scratch", (3, 5), np.float64)
        assert ws.buffer("scratch", (3, 5), np.float64) is a

    def test_shrink_reuses_backing(self):
        """A ragged tail chunk must not reallocate the big chunk's buffer."""
        ws = Workspace()
        big = ws.buffer("scratch", (6, 8), np.float64)
        small = ws.buffer("scratch", (2, 8), np.float64)
        assert small.shape == (2, 8)
        assert np.shares_memory(big, small)
        bytes_after_shrink = ws.total_bytes
        # Growing back within capacity reuses the same backing too.
        again = ws.buffer("scratch", (6, 8), np.float64)
        assert np.shares_memory(big, again)
        assert ws.total_bytes == bytes_after_shrink

    def test_growth_reallocates(self):
        ws = Workspace()
        small = ws.buffer("scratch", (2, 8), np.float64)
        before = ws.total_bytes
        big = ws.buffer("scratch", (6, 8), np.float64)
        assert big.shape == (6, 8)
        assert not np.shares_memory(small, big)
        assert ws.total_bytes > before

    def test_dtype_switch_reallocates(self):
        ws = Workspace()
        f64 = ws.buffer("scratch", (4, 4), np.float64)
        f32 = ws.buffer("scratch", (4, 4), np.float32)
        assert f32.dtype == np.float32
        assert not np.shares_memory(f64, f32)

    def test_total_bytes_tracks_backing_capacity(self):
        ws = Workspace()
        ws.buffer("scratch", (6, 8), np.float64)
        assert ws.total_bytes == 6 * 8 * 8
        ws.buffer("scratch", (2, 8), np.float64)  # shrink: capacity kept
        assert ws.total_bytes == 6 * 8 * 8
        ws.clear()
        assert ws.total_bytes == 0

    def test_sanitizer_poisons_every_shape_transition(self, monkeypatch):
        """Unwritten scratch must trip NaN checks even on a reused backing."""
        from repro.core import batching

        monkeypatch.setattr(batching, "_SANITIZE", True)
        ws = Workspace()
        big = ws.buffer("scratch", (6, 8), np.float64)
        assert np.isnan(big).all()
        big[...] = 1.0
        # Shrinking serves a view of the written backing: without
        # re-poisoning, stale finite values would mask missing writes.
        small = ws.buffer("scratch", (2, 8), np.float64)
        assert np.isnan(small).all()
        small[...] = 2.0
        # Same shape and dtype: the served buffer is returned as-is so
        # chunk loops keep their contents between kernel calls.
        assert not np.isnan(ws.buffer("scratch", (2, 8), np.float64)).any()


def _small_case(name: str):
    scale = {"B4": 1.0, "SWAN": 0.2, "UsCarrier": 0.12}[name]
    topology = get_topology(name, scale=scale, seed=1)
    pathset = PathSet.from_topology(topology, max_pairs=60, seed=5)
    trace = TrafficTrace.generate(topology.num_nodes, 3, seed=11)
    demands = np.stack([pathset.demand_volumes(m.values) for m in trace])
    return pathset, demands


@pytest.mark.parametrize("name", ["B4", "SWAN", "UsCarrier"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fused_bit_identical_to_tensor_path_end_to_end(name, dtype):
    """The fused forward equals the tape-building Tensor forward, bit for
    bit, batched and single-matrix, across topologies and precisions."""
    pathset, demands = _small_case(name)
    model = TealModel(pathset, seed=3).astype(dtype)
    fused = model.split_ratios_batch(demands, fused=True)
    assert fused.dtype == dtype
    assert np.array_equal(fused, model.split_ratios_batch(demands, fused=False))
    one = model.split_ratios(demands[0], fused=True)
    assert np.array_equal(one, model.split_ratios(demands[0], fused=False))


class TestSegmentOpsDtype:
    def test_sum_storage_dtype(self):
        ops = SegmentOps(np.array([0, 1, 0, 2]), 3)
        weights = np.array([[1.0, 2.0, 3.0, 4.0]], dtype=np.float32)
        default = ops.sum(weights)
        assert default.dtype == np.float64  # historic behaviour
        stored = ops.sum(weights, dtype=np.float32)
        assert stored.dtype == np.float32
        assert np.array_equal(stored.astype(np.float64), default)

    def test_max_dtype_follows_values(self):
        ops = SegmentOps(np.array([0, 0, 1]), 2)
        values = np.array([[1.0, 5.0, 2.0]], dtype=np.float32)
        assert ops.max(values).dtype == np.float32
        assert ops.max(values, dtype=np.float64).dtype == np.float64


# ----------------------------------------------------------------------
# ADMM precision
# ----------------------------------------------------------------------
class TestAdmmPrecision:
    def test_single_tm_delegates_to_batch(self, b4_pathset, b4_demands):
        model = TealModel(b4_pathset, seed=1)
        ratios = model.split_ratios(b4_demands)
        tuner = AdmmFineTuner(b4_pathset, AdmmConfig(iterations=6))
        single = tuner.fine_tune(ratios, b4_demands)
        batch = tuner.fine_tune_batch(ratios[None], b4_demands[None])
        assert np.array_equal(single, batch[0])

    def test_float32_output_dtype(self, b4_pathset, b4_demands):
        model = TealModel(b4_pathset, seed=1)
        ratios = model.split_ratios(b4_demands)
        tuner = AdmmFineTuner(
            b4_pathset, AdmmConfig(iterations=6), precision="float32"
        )
        out = tuner.fine_tune(ratios, b4_demands)
        assert out.dtype == np.float32

    def test_float32_quality_parity(self, b4_pathset, b4_trace):
        model = TealModel(b4_pathset, seed=2)
        demands = np.stack(
            [b4_pathset.demand_volumes(m.values) for m in b4_trace[:4]]
        )
        ratios = model.split_ratios_batch(demands)
        caps = b4_pathset.topology.capacities
        t64 = AdmmFineTuner(b4_pathset, AdmmConfig(iterations=12))
        t32 = AdmmFineTuner(
            b4_pathset, AdmmConfig(iterations=12), precision="float32"
        )
        r64 = evaluate_allocations_batch(
            b4_pathset, t64.fine_tune_batch(ratios, demands), demands, caps
        )
        r32 = evaluate_allocations_batch(
            b4_pathset,
            t32.fine_tune_batch(ratios, demands).astype(float),
            demands,
            caps,
        )
        np.testing.assert_allclose(
            r32.delivered_total, r64.delivered_total, rtol=PARITY_RTOL
        )
        np.testing.assert_allclose(
            r32.max_link_utilization,
            r64.max_link_utilization,
            rtol=PARITY_RTOL,
        )


# ----------------------------------------------------------------------
# Scheme-level float32 vs float64 parity (forward + ADMM + acceptance)
# ----------------------------------------------------------------------
_LITE = TrainingConfig(steps=4, warm_start_steps=40, log_every=20)


def _parity_case(pathset, trace, objective, use_admm):
    """Train float64 and float32 twins and compare allocation quality."""
    matrices = list(trace[:8])
    demands = np.stack(
        [pathset.demand_volumes(m.values) for m in trace[8:12]]
    )
    schemes = {}
    for precision in ("float64", "float32"):
        scheme = TealScheme(
            pathset,
            objective=objective,
            admm=AdmmConfig(iterations=8),
            seed=0,
            use_admm=use_admm,
            precision=precision,
        )
        scheme.train(matrices, config=_LITE)
        schemes[precision] = scheme
    caps = pathset.topology.capacities
    reports = {}
    for precision, scheme in schemes.items():
        allocations = scheme.allocate_batch(pathset, demands)
        ratios = np.stack([a.split_ratios for a in allocations]).astype(float)
        reports[precision] = evaluate_allocations_batch(
            pathset, ratios, demands, caps
        )
    return reports["float64"], reports["float32"]


@pytest.fixture(scope="module")
def uscarrier_pathset() -> PathSet:
    """UsCarrier at benchmark scale, the largest topology of the parity check."""
    from repro.harness import build_scenario

    return build_scenario(
        "UsCarrier", train=8, validation=2, test=4, seed=0
    ).pathset


class TestSchemePrecisionParity:
    @pytest.mark.parametrize(
        "objective_name,use_admm,fixture",
        [
            ("total_flow", True, "b4_pathset"),
            ("min_mlu", False, "b4_pathset"),
            ("total_flow", True, "small_swan_pathset"),
            ("min_mlu", False, "small_swan_pathset"),
            # The deployment path only: the min-MLU twin adds ~3 s.
            ("total_flow", True, "uscarrier_pathset"),
        ],
    )
    def test_float32_matches_float64(
        self, request, fixture, objective_name, use_admm
    ):
        """Schemes x topologies: quality parity at the documented rtol."""
        from repro.lp.objectives import get_objective
        from repro.traffic import TrafficTrace

        pathset = request.getfixturevalue(fixture)
        trace = TrafficTrace.generate(
            pathset.topology.num_nodes, 12, seed=17
        )
        r64, r32 = _parity_case(
            pathset, trace, get_objective(objective_name), use_admm
        )
        np.testing.assert_allclose(
            r32.delivered_total, r64.delivered_total, rtol=PARITY_RTOL
        )
        np.testing.assert_allclose(
            r32.max_link_utilization,
            r64.max_link_utilization,
            rtol=PARITY_RTOL,
        )

    def test_training_stays_float64_cast_is_lazy(self, b4_pathset, b4_trace):
        scheme = TealScheme(b4_pathset, seed=0, precision="float32")
        scheme.train(
            list(b4_trace[:4]),
            config=TrainingConfig(steps=2, warm_start_steps=4, log_every=10),
        )
        # Post-training the weights are still full precision (this is
        # what the harness' on-disk checkpoints store)...
        assert scheme.model.dtype == np.float64
        demands = b4_pathset.demand_volumes(b4_trace[5].values)
        allocation = scheme.allocate(b4_pathset, demands)
        # ...and the first inference call casts to the scheme precision.
        assert scheme.model.dtype == np.float32
        assert allocation.split_ratios.dtype == np.float32

    def test_precision_round_trip_is_lossless(self, b4_pathset, b4_demands):
        """float64 -> float32 -> float64 restores the exact weights and
        aggregation matrices (the float64 masters are stashed), so an
        inference cast never perturbs later training."""
        model = TealModel(b4_pathset, seed=4)
        reference_params = [p.data.copy() for p in model.parameters()]
        reference_scale = model.flow_gnn.edge_scale.copy()
        reference_out = model.split_ratios(b4_demands)

        model.astype(np.float32).astype(np.float64)
        for p, ref in zip(model.parameters(), reference_params):
            assert p.data.dtype == np.float64
            assert np.array_equal(p.data, ref)
        assert np.array_equal(model.flow_gnn.edge_scale, reference_scale)
        assert np.array_equal(model.split_ratios(b4_demands), reference_out)

    def test_transfer_weights_preserves_target_dtype(self, b4_pathset):
        """A float32-cast donor must not turn a float64 target into a
        mixed-precision model (regression for the astype early-return)."""
        from repro.core import transfer_weights

        donor = TealModel(b4_pathset, seed=0).astype(np.float32)
        target = TealModel(b4_pathset, seed=1)
        transfer_weights(donor, target)
        assert all(p.data.dtype == np.float64 for p in target.parameters())
        assert target.dtype == np.float64
        assert target.flow_gnn.edge_agg.dtype == np.float64
        # And astype still repairs a model cast out-of-band.
        for p in target.parameters():
            p.data = p.data.astype(np.float32)
        target.astype(np.float64)
        assert all(p.data.dtype == np.float64 for p in target.parameters())

    def test_allocate_batch_matches_allocate_at_float32(self):
        """Shared (E,) and stacked (T, E) capacities match the loop exactly.

        The provisioned B4 capacities are non-uniform, so a strided
        per-row capacity mean (1 ulp off the pairwise sum of the per-TM
        path) would show up here as a different float32 scale.
        """
        from repro.harness import build_scenario

        scenario = build_scenario("B4")
        pathset, caps = scenario.pathset, scenario.capacities
        scheme = TealScheme(
            pathset, seed=0, precision="float32",
            admm=AdmmConfig(iterations=4),
        )
        demands = np.stack([scenario.demands(m) for m in scenario.split.test[:2]])
        for batch_caps in (caps, np.repeat(caps[None], 2, axis=0)):
            batched = scheme.allocate_batch(pathset, demands, batch_caps)
            for t in range(2):
                single = scheme.allocate(pathset, demands[t], caps)
                assert np.array_equal(
                    batched[t].split_ratios, single.split_ratios
                )


# ----------------------------------------------------------------------
# Parity at Kdl-class scale (where the (T, I) ADMM arrays dominate)
# ----------------------------------------------------------------------
class TestKdlScaleParity:
    """float32 vs float64 on a Kdl-class carrier backbone.

    The small-topology parity cases above leave the fused kernels'
    accumulation behaviour mostly untested at the sizes where the win
    matters: on a Kdl-class instance the (T, I) ADMM iterates (I ≈
    thousands of path variables) dominate the compute, and rounding
    error compounds across far more segment-sum terms than on B4. This
    pins the documented 1e-4 relative tolerance at that scale, through
    the full float32 inference chain (fused forward + single-precision
    ADMM with float64-accumulated segment sums).
    """

    @pytest.fixture(scope="class")
    def kdl_case(self):
        from repro.harness import BENCH_SCALES
        from repro.paths import PathSet
        from repro.topology.generators import kdl
        from repro.traffic import TrafficTrace

        topology = kdl(scale=BENCH_SCALES["Kdl"], seed=2)
        pathset = PathSet.from_topology(topology, max_pairs=300, seed=5)
        trace = TrafficTrace.generate(topology.num_nodes, 4, seed=11)
        demands = np.stack(
            [pathset.demand_volumes(m.values) for m in trace]
        )
        return pathset, demands

    def test_instance_is_kdl_class(self, kdl_case):
        """The case really is beyond the small parity topologies."""
        pathset, _ = kdl_case
        assert pathset.topology.num_nodes >= 60
        assert pathset.num_paths >= 1000  # the ADMM I axis

    def test_fused_forward_parity_at_scale(self, kdl_case):
        pathset, demands = kdl_case
        model64 = TealModel(pathset, seed=3)
        model32 = TealModel(pathset, seed=3).astype(np.float32)
        ratios64 = model64.split_ratios_batch(demands)
        ratios32 = model32.split_ratios_batch(demands).astype(np.float64)
        caps = pathset.topology.capacities
        r64 = evaluate_allocations_batch(pathset, ratios64, demands, caps)
        r32 = evaluate_allocations_batch(pathset, ratios32, demands, caps)
        np.testing.assert_allclose(
            r32.delivered_total, r64.delivered_total, rtol=PARITY_RTOL
        )
        np.testing.assert_allclose(
            r32.max_link_utilization,
            r64.max_link_utilization,
            rtol=PARITY_RTOL,
        )

    def test_forward_plus_admm_parity_at_scale(self, kdl_case):
        """The full inference chain (forward + ADMM repair) at each
        precision agrees on delivered flow and MLU within tolerance."""
        pathset, demands = kdl_case
        config = AdmmConfig(iterations=12)
        caps = pathset.topology.capacities

        model64 = TealModel(pathset, seed=3)
        tuned64 = AdmmFineTuner(pathset, config).fine_tune_batch(
            model64.split_ratios_batch(demands), demands
        )
        model32 = TealModel(pathset, seed=3).astype(np.float32)
        tuned32 = AdmmFineTuner(
            pathset, config, precision="float32"
        ).fine_tune_batch(model32.split_ratios_batch(demands), demands)
        assert tuned32.dtype == np.float32

        r64 = evaluate_allocations_batch(pathset, tuned64, demands, caps)
        r32 = evaluate_allocations_batch(
            pathset, tuned32.astype(np.float64), demands, caps
        )
        np.testing.assert_allclose(
            r32.delivered_total, r64.delivered_total, rtol=PARITY_RTOL
        )
        np.testing.assert_allclose(
            r32.max_link_utilization,
            r64.max_link_utilization,
            rtol=PARITY_RTOL,
        )


# ----------------------------------------------------------------------
# Precision through the sweep grid spec
# ----------------------------------------------------------------------
class TestSuitePrecision:
    def test_default_and_roundtrip(self):
        from repro.sweep import ScenarioSuite

        suite = ScenarioSuite(topologies=("B4",))
        assert suite.precision == "float32"
        explicit = ScenarioSuite(topologies=("B4",), precision="float64")
        assert ScenarioSuite.from_dict(explicit.to_dict()) == explicit

    def test_invalid_precision_rejected(self):
        from repro.sweep import ScenarioSuite

        with pytest.raises(ReproError):
            ScenarioSuite(topologies=("B4",), precision="float16")
