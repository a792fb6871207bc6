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
    DEFAULT_PRECISION,
    EVALUATION_DTYPE,
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
# The precision policy: a validated numpy dtype
# ----------------------------------------------------------------------
class TestPrecisionPolicy:
    def test_dtypes(self):
        for spec in ("float32", np.float32, np.dtype(np.float32)):
            resolved = resolve_precision(spec)
            assert isinstance(resolved, np.dtype)
            assert resolved == np.float32 and resolved.itemsize == 4
        assert resolve_precision("float64").itemsize == 8
        # Reductions and the ADMM F-solve accumulate in float64.
        assert EVALUATION_DTYPE == np.float64

    def test_resolve(self):
        assert resolve_precision(None) == DEFAULT_PRECISION == np.float64
        assert resolve_precision(None, default="float32") == np.float32
        assert resolve_precision("float32") == np.float32
        assert resolve_precision(np.float64) == np.float64
        assert resolve_precision(np.dtype(np.float64)) == np.float64

    def test_unknown_precision_rejected(self):
        for spec in ("float16", "bfloat16", np.float16, "int32", "double-ish"):
            with pytest.raises(ReproError):
                resolve_precision(spec)

    def test_hashable_for_cache_keys(self):
        """trained_teal keys on the resolved dtype's name: every spelling
        of one precision gives the same key."""
        names = {
            resolve_precision(spec).name
            for spec in ("float32", np.float32, np.dtype(np.float32))
        }
        assert names == {"float32"}
        assert len({resolve_precision(s) for s in ("float32", np.float64)}) == 2

    def test_inference_default_is_float32(self):
        assert DEFAULT_INFERENCE_PRECISION == np.float32


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
        """A node-major (N, B, F) stack equals the Tensor op on its
        (B, N, F) per-matrix view."""
        rng = np.random.default_rng(0)
        a = rng.normal(size=(70, 3, 4)).astype(dtype)
        b = rng.normal(size=(70, 3, 5)).astype(dtype)
        w = rng.normal(size=(9, 6)).astype(dtype)
        bias = rng.normal(size=6).astype(dtype)
        out = np.empty((70, 3, 6), dtype=dtype)
        scratch = np.empty_like(out)
        pair_linear_into(a, b, w, bias, out, scratch)
        reference = F.pair_linear(
            Tensor(a.transpose(1, 0, 2)), Tensor(b.transpose(1, 0, 2)),
            Tensor(w), Tensor(bias),
        )
        assert out.dtype == dtype
        assert np.array_equal(out, reference.numpy().transpose(1, 0, 2))

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
        # A node-major (N, B, F) stack folded to (N, B * F): one call for
        # the whole batch, each matrix's block bit-identical to its own
        # product.
        xb = rng.normal(size=(8, 4, 3)).astype(dtype)
        outb = np.empty((6, 4, 3), dtype=dtype)
        csr_matmul_into(csr, xb.reshape(8, -1), outb.reshape(6, -1))
        for b in range(4):
            assert np.array_equal(outb[:, b], csr @ xb[:, b])

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
        capacities = b4_pathset.topology.capacities
        naive = model.forward_batch(demands, capacities).numpy()
        fused = model.split_ratios_batch(demands)
        assert fused.dtype == dtype
        assert np.array_equal(naive, fused)
        one_naive = model.forward(demands[2], capacities).numpy()
        one_fused = model.split_ratios(demands[2])
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


# ----------------------------------------------------------------------
# The node-major fused forward: bit-identity and structural call counts
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def stress_stack(b4_pathset):
    """(64, D) demands with one all-zero row and (64, E) per-row
    capacities with dead links."""
    rng = np.random.default_rng(3)
    demands = rng.exponential(5.0, size=(64, b4_pathset.num_demands))
    demands[4] = 0.0
    capacities = np.tile(b4_pathset.topology.capacities, (64, 1))
    capacities[rng.random(capacities.shape) < 0.1] = 0.0
    return demands, capacities


class TestNodeMajorForward:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 2, 5, 64])
    def test_equals_tensor_forward(self, b4_pathset, stress_stack, dtype, batch):
        demands, capacities = stress_stack
        demands, capacities = demands[:batch], capacities[:batch]
        model = TealModel(b4_pathset, seed=3).astype(dtype)
        fused = model.split_ratios_batch(demands, capacities)
        naive = model.forward_batch(demands, capacities).numpy()
        assert fused.dtype == naive.dtype == dtype
        assert fused.flags.c_contiguous
        assert np.array_equal(fused, naive)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rows_equal_batches_of_one(self, b4_pathset, stress_stack, dtype):
        demands, capacities = stress_stack
        model = TealModel(b4_pathset, seed=3).astype(dtype)
        batched = model.split_ratios_batch(demands[:9], capacities[:9])
        for t in range(9):
            one = model.split_ratios_batch(demands[t : t + 1], capacities[t])
            assert np.array_equal(batched[t], one[0])

    @pytest.mark.parametrize("batch", [1, 5, 64])
    def test_two_sparse_kernel_calls_per_layer(
        self, b4_pathset, stress_stack, monkeypatch, batch
    ):
        """One scipy kernel call per aggregation, whatever the batch."""
        from repro.core import batching

        calls = []
        for name in ("_CSR_MATVEC", "_CSR_MATVECS"):
            kernel = getattr(batching, name)

            def counted(*args, _kernel=kernel):
                calls.append(args[0])
                return _kernel(*args)

            monkeypatch.setattr(batching, name, counted)
        demands, capacities = stress_stack
        model = TealModel(b4_pathset, seed=0).astype(np.float32)
        model.split_ratios_batch(demands[:batch], capacities[:batch])
        assert len(calls) == 2 * model.flow_gnn.num_layers


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
    capacities = pathset.topology.capacities
    fused = model.split_ratios_batch(demands)
    assert fused.dtype == dtype
    assert np.array_equal(fused, model.forward_batch(demands, capacities).numpy())
    one = model.split_ratios(demands[0])
    assert np.array_equal(one, model.forward(demands[0], capacities).numpy())


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
        # Post-training the weights are full precision (this is what the
        # harness' on-disk checkpoints store)...
        assert scheme.model.dtype == np.float64
        demands = b4_pathset.demand_volumes(b4_trace[5].values)
        allocation = scheme.allocate(b4_pathset, demands)
        # ...and inference runs a float32 copy, leaving the model alone.
        assert scheme.model.dtype == np.float64
        assert all(p.data.dtype == np.float64 for p in scheme.model.parameters())
        assert allocation.split_ratios.dtype == np.float32

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
# One float64 model; float32 inference runs a cast copy
# ----------------------------------------------------------------------
class TestFloat32InferenceCopy:
    @pytest.mark.parametrize("update", ["load_model", "transfer_weights", "train"])
    def test_weight_updates_after_float32_allocate(
        self, update, b4_pathset, b4_trace, tmp_path
    ):
        """Every way of replacing the float64 weights after a float32
        allocate reaches the next allocate, bit for bit as a fresh
        float32 scheme loaded with the same weights."""
        from repro.core import load_model, save_model, transfer_weights

        scheme = TealScheme(b4_pathset, seed=0, precision="float32")
        demands = b4_pathset.demand_volumes(b4_trace[5].values)
        before = scheme.allocate(b4_pathset, demands).split_ratios
        if update == "load_model":
            donor = save_model(TealModel(b4_pathset, seed=7), tmp_path / "donor")
            load_model(scheme.model, donor)
        elif update == "transfer_weights":
            transfer_weights(TealModel(b4_pathset, seed=7), scheme.model)
        else:
            scheme.train(
                list(b4_trace[:4]),
                config=TrainingConfig(steps=2, warm_start_steps=4, log_every=10),
            )
        after = scheme.allocate(b4_pathset, demands).split_ratios

        fresh = TealScheme(b4_pathset, seed=1, precision="float32")
        load_model(fresh.model, save_model(scheme.model, tmp_path / "same"))
        expected = fresh.allocate(b4_pathset, demands).split_ratios
        assert after.dtype == expected.dtype == np.float32
        assert np.array_equal(after, expected)
        assert not np.array_equal(after, before)

    def test_model_outputs_stay_float64(self, b4_pathset, b4_demands):
        scheme = TealScheme(b4_pathset, seed=0, precision="float32")
        before = scheme.model.split_ratios(b4_demands)
        scheme.allocate(b4_pathset, b4_demands)
        after = scheme.model.split_ratios(b4_demands)
        assert before.dtype == after.dtype == np.float64
        assert np.array_equal(before, after)
        assert scheme.model.flow_embeddings(b4_demands).dtype == np.float64

    def test_deleted_scheme_frees_its_copy_without_gc(self, b4_pathset, b4_demands):
        """No reference cycle holds a used float32 copy (and its
        workspace) alive until the cyclic collector runs."""
        import gc
        import weakref

        scheme = TealScheme(b4_pathset, seed=0, precision="float32")
        scheme.allocate_batch(b4_pathset, np.stack([b4_demands] * 3))
        copy = weakref.ref(scheme._inference_model())
        enabled = gc.isenabled()
        gc.disable()
        try:
            del scheme
            assert copy() is None
        finally:
            if enabled:
                gc.enable()

    def test_copy_is_reused_until_weights_change(self, b4_pathset, b4_demands):
        from repro.core import transfer_weights

        scheme = TealScheme(b4_pathset, seed=0, precision="float32")
        first = scheme._inference_model()
        assert first is not scheme.model and first.dtype == np.float32
        scheme.allocate(b4_pathset, b4_demands)
        assert scheme._inference_model() is first
        transfer_weights(TealModel(b4_pathset, seed=7), scheme.model)
        assert scheme._inference_model() is not first
        # float64 schemes run the model itself.
        f64 = TealScheme(b4_pathset, seed=0, precision="float64")
        assert f64._inference_model() is f64.model


# ----------------------------------------------------------------------
# Parity at Kdl-class scale
# ----------------------------------------------------------------------
class TestKdlScaleParity:
    """float32 vs float64 on a Kdl-class carrier backbone.

    The small-topology parity cases above leave the fused kernels'
    accumulation behaviour mostly untested at the sizes where the win
    matters: on a Kdl-class instance the forward's sparse aggregations
    sum over thousands of path variables, and rounding error compounds
    across far more terms than on B4. The ADMM iterates are O(P + E)
    per matrix and always float64, so a float32 chain differs from a
    float64 one only through its forward pass and the returned ratios'
    dtype. This pins the documented 1e-4 relative tolerance at that
    scale, through the full float32 inference chain (fused forward +
    ADMM + float32 ratios).
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
        assert pathset.num_paths >= 1000  # the ADMM P axis

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
# The precision field of the sweep grid spec
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
        with pytest.raises(ReproError):
            ScenarioSuite(topologies=("B4",), precision="bfloat16")

    def test_dtype_spec_stored_as_name(self):
        """The suite validates through resolve_precision and keeps the
        field a name, so to_dict stays JSON."""
        from repro.sweep import ScenarioSuite

        suite = ScenarioSuite(topologies=("B4",), precision=np.float64)
        assert suite.precision == "float64"
        assert suite == ScenarioSuite(topologies=("B4",), precision="float64")
