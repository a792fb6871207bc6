"""Runtime sanitizers for the fused-kernel substrate (``REPRO_SANITIZE=1``).

The static RL002 rule checks kernel-aliasing contracts *syntactically*;
this module checks the same ``KERNEL_CONTRACTS`` dynamically. With
``REPRO_SANITIZE=1`` in the environment, :mod:`repro.core.batching`
(at import) rebinds every contracted kernel to a checking wrapper and
arms :class:`~repro.core.batching.Workspace` buffer poisoning:

- **Aliasing tripwires** — before the kernel runs, every clobbered
  argument (``writes``/``inout``/``scratch``) is checked against every
  other array argument with ``np.shares_memory``; overlap raises
  :class:`SanitizerError` unless the contract lists the pair in
  ``may_alias`` *and* the arrays are the exact same view (identical
  base pointer, shape, strides — elementwise-safe aliasing; partial
  overlap is never allowed).
- **NaN/Inf tripwires** — after the kernel runs, ``writes`` and
  ``inout`` arguments must be finite. Combined with workspace
  poisoning (fresh :meth:`Workspace.buffer` allocations are filled
  with NaN instead of garbage), a kernel that reads a buffer before
  fully overwriting it trips here instead of silently consuming stale
  scratch.

The wrappers are opt-in because the checks cost real time
(``np.isfinite`` over every kernel output); CI runs the tier-1 suite
once with the sanitizer armed.
"""

from __future__ import annotations

import os

import numpy as np

from ..exceptions import ReproError

_ENV_VAR = "REPRO_SANITIZE"


class SanitizerError(ReproError):
    """A runtime kernel-contract violation (aliasing or non-finite)."""


def sanitize_enabled(environ=os.environ) -> bool:
    """Whether ``REPRO_SANITIZE`` requests the sanitizer layer."""
    return environ.get(_ENV_VAR, "") not in ("", "0")


def _exact_alias(a: np.ndarray, b: np.ndarray) -> bool:
    """True when ``a`` and ``b`` address the identical memory layout."""
    return a is b or (
        a.__array_interface__["data"] == b.__array_interface__["data"]
        and a.shape == b.shape
        and a.strides == b.strides
        and a.dtype == b.dtype
    )


def wrap_kernel(func, contract):
    """A checking wrapper around ``func`` enforcing ``contract``.

    ``contract`` is a :class:`repro.core.batching.KernelContract`. The
    wrapper binds positional/keyword arguments to the contract's
    parameter names, runs the aliasing pre-checks and finiteness
    post-checks described in the module docstring, and otherwise
    delegates verbatim (same return value).
    """
    kernel_name = func.__name__
    clobbered = contract.writes + contract.inout + contract.scratch
    checked = contract.writes + contract.inout
    allowed = frozenset(frozenset(pair) for pair in contract.may_alias)

    def wrapper(*args, **kwargs):
        bound = dict(zip(contract.params, args))
        bound.update(kwargs)
        arrays = {
            param: value
            for param, value in bound.items()
            if isinstance(value, np.ndarray)
        }
        for target in clobbered:
            target_arr = arrays.get(target)
            if target_arr is None:
                continue
            for other, other_arr in arrays.items():
                if other == target:
                    continue
                # Bounds-overlap check (cheap, slightly over-approximate;
                # exact shares_memory can be exponential on strided views).
                if not np.may_share_memory(target_arr, other_arr):
                    continue
                if frozenset((target, other)) in allowed and _exact_alias(
                    target_arr, other_arr
                ):
                    continue
                raise SanitizerError(
                    f"{kernel_name}: clobbered argument '{target}' shares "
                    f"memory with '{other}' — the kernel contract forbids "
                    "this aliasing (KERNEL_CONTRACTS in repro.core."
                    "batching); pass a distinct buffer"
                )
        result = func(*args, **kwargs)
        for target in checked:
            target_arr = arrays.get(target)
            if target_arr is not None and not np.isfinite(target_arr).all():
                raise SanitizerError(
                    f"{kernel_name}: non-finite values in '{target}' after "
                    "the kernel ran — NaN/Inf escaped into a kernel "
                    "output (or the kernel read poisoned scratch)"
                )
        return result

    wrapper.__name__ = func.__name__
    wrapper.__qualname__ = getattr(func, "__qualname__", func.__name__)
    wrapper.__doc__ = func.__doc__
    wrapper.__wrapped__ = func
    wrapper.__repro_sanitized__ = True
    return wrapper


def install_sanitizers(namespace: dict) -> None:
    """Arm the sanitizer layer inside :mod:`repro.core.batching`.

    Called by ``batching`` itself at import time when
    :func:`sanitize_enabled`. ``namespace`` is the batching module's
    globals: every function named in its ``KERNEL_CONTRACTS`` is
    rebound to a checking wrapper, and ``_SANITIZE`` is set so
    ``Workspace.buffer`` NaN-poisons fresh allocations.
    """
    for kernel_name, contract in namespace["KERNEL_CONTRACTS"].items():
        namespace[kernel_name] = wrap_kernel(namespace[kernel_name], contract)
    namespace["_SANITIZE"] = True
