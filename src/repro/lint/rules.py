"""Rule registry for ``repro.lint``: IDs, docs, and path scoping.

Every rule has a stable ID (``RL001``..``RL004``), a one-line title, and
a rationale paragraph tying it to the invariant it protects. The
*scoping* helpers below decide which repo modules a rule applies to —
they work on repo-relative posix paths so the same rules run identically
in CI, locally, and over test fixtures laid out under a temp dir.

The four rules and the invariants they guard:

- **RL001 dtype-policy** — the float32/float64 precision policy
  (:mod:`repro.nn.precision`) makes the compute dtype an explicit,
  threaded decision. A ``dtype=float`` / ``dtype=np.float64`` literal or
  an ``astype(float)`` inside the precision-threaded modules silently
  re-hardcodes float64 and breaks the policy's one-point control. Route
  through a dtype returned by ``resolve_precision``,
  ``EVALUATION_DTYPE``, or a variable derived from them.
- **RL002 kernel-aliasing** — the fused ``*_into`` kernels in
  :mod:`repro.core.batching` declare, per kernel, which arguments they
  clobber and which pairs may alias (``KERNEL_CONTRACTS``). Passing the
  same expression as an input and as ``out``/``scratch`` where the
  contract forbids it corrupts operands mid-kernel. This rule checks
  call sites *syntactically*; the runtime sanitizer
  (:mod:`repro.lint.sanitize`) checks the same contracts dynamically
  with ``np.shares_memory``.
- **RL003 determinism** — parallel == serial and cache hit == rebuild
  are bit-for-bit guarantees. Unseeded global RNG (``np.random.*``
  module-level calls), iteration over ``set``s feeding reductions or
  serialization, and wall-clock reads outside the timing-designated
  modules all introduce run-to-run variance that those guarantees
  cannot survive.
- **RL004 dispatch-seam** — hot-path matrix products and scratch
  allocations live in the fused kernels of :mod:`repro.core.batching`,
  whose docstrings pin the op order the bit-identity tests rely on, and
  whose :class:`~repro.core.batching.Workspace` reuses buffers across
  calls. A direct ``np.matmul`` / ``np.einsum`` / ``@`` — or a raw
  ``np.empty``/``np.zeros`` allocation — elsewhere in a hot-path module
  is an unpinned product or a per-call allocation the kernels were
  built to remove.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Finding:
    """One lint finding, locatable and baseline-fingerprintable.

    The baseline fingerprint is ``(rule, path, line_text)`` — line
    *text*, not line number, so baselined findings survive unrelated
    edits above them.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    line_text: str

    @property
    def fingerprint(self) -> tuple[str, str, str]:
        return (self.rule, self.path, self.line_text)

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "line_text": self.line_text,
        }


@dataclass(frozen=True)
class Rule:
    """A registered rule: stable ID plus human documentation."""

    id: str
    title: str
    rationale: str
    scope: str


RULES: dict[str, Rule] = {
    rule.id: rule
    for rule in (
        Rule(
            id="RL001",
            title="dtype literals must route through the precision policy",
            rationale=(
                "dtype=float / dtype=np.float64 / astype(float) literals "
                "inside precision-threaded modules re-hardcode a dtype the "
                "precision policy is supposed to control; use a "
                "resolve_precision dtype, EVALUATION_DTYPE, or a derived "
                "variable."
            ),
            scope="src/repro/{nn,core,simulation}/ (except nn/precision.py)",
        ),
        Rule(
            id="RL002",
            title="*_into kernel call sites must honor aliasing contracts",
            rationale=(
                "out/scratch arguments that syntactically repeat an input "
                "expression violate the kernel's KERNEL_CONTRACTS entry and "
                "corrupt operands mid-kernel (unless the contract lists the "
                "pair as may_alias)."
            ),
            scope="all scanned files",
        ),
        Rule(
            id="RL003",
            title="no unseeded RNG, set-order dependence, or stray wall-clock",
            rationale=(
                "np.random.* global-RNG calls, iteration over sets feeding "
                "reductions/serialization, and time.* wall-clock reads "
                "outside the timing-designated modules break the bit-for-bit "
                "parallel==serial and cache-hit==rebuild guarantees."
            ),
            scope="all scanned files; time.* allowed in timing modules",
        ),
        Rule(
            id="RL004",
            title="hot-path tensor ops must go through core/batching.py",
            rationale=(
                "direct np.matmul/np.einsum/@/.dot calls and raw "
                "np.empty/np.zeros allocations in hot-path modules bypass "
                "the fused kernels and Workspace of repro.core.batching; "
                "route products through a core/batching kernel and "
                "scratch through Workspace.buffer."
            ),
            scope="hot-path modules (see HOT_PATH_MODULES)",
        ),
    )
}


# ----------------------------------------------------------------------
# Path scoping
# ----------------------------------------------------------------------
#: Modules threaded with the precision policy: RL001 applies here.
PRECISION_SCOPES = ("/repro/nn/", "/repro/core/", "/repro/simulation/")

#: The policy definition itself is exempt from RL001 (it is the one
#: place dtype literals are *supposed* to live).
PRECISION_POLICY_MODULE = "/repro/nn/precision.py"

#: Modules designated to read wall clocks (RL003): the sweep timer, the
#: NCFlow merge timer, the streaming decision-latency clock, and the
#: benchmark scripts. Every other timing site must be baselined with a
#: justification or routed through one of these.
TIMING_MODULES = (
    "/repro/sweep/grid.py",
    "/repro/baselines/ncflow.py",
    "/repro/simulation/streaming.py",
    "/benchmarks/",
)

#: Hot-path modules (RL004): the inference/ADMM pipeline plus the
#: autodiff reference path that the fused kernels mirror.
HOT_PATH_MODULES = (
    "/repro/core/flowgnn.py",
    "/repro/core/model.py",
    "/repro/core/admm.py",
    "/repro/core/teal.py",
    "/repro/nn/functional.py",
    "/repro/nn/layers.py",
    "/repro/nn/tensor.py",
    "/repro/simulation/evaluator.py",
    "/repro/simulation/streaming.py",
)

#: The fused kernels themselves: the one module where hot-path products
#: and raw scratch allocations are *supposed* to live (exempt from RL004).
DISPATCH_SEAM_MODULE = "/repro/core/batching.py"


def _norm(path: str) -> str:
    """Posix-normalize with a leading slash so suffix matching is exact."""
    return "/" + path.replace("\\", "/").lstrip("/")


def in_precision_scope(path: str) -> bool:
    p = _norm(path)
    if p.endswith(PRECISION_POLICY_MODULE):
        return False
    return any(scope in p for scope in PRECISION_SCOPES)


def in_timing_scope(path: str) -> bool:
    """True when the module is *allowed* to read wall clocks."""
    p = _norm(path)
    return any(p.endswith(m) or m in p for m in TIMING_MODULES)


def in_hot_path(path: str) -> bool:
    p = _norm(path)
    if p.endswith(DISPATCH_SEAM_MODULE):
        return False
    return any(p.endswith(m) for m in HOT_PATH_MODULES)
