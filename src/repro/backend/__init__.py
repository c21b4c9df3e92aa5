"""Pluggable array backends for the hot reduction kernels.

The decision kernels (:mod:`repro.teg.network`) funnel their remaining
segmented reductions through one entry point,
:func:`segmented_pairwise_sum`, and this package decides *what executes
it*:

* ``"numpy"`` (default) — the vectorised level-wise pairwise tree of
  :mod:`repro.backend._pairwise`.
* ``"numba"`` — a jitted per-segment twin (optional dependency).
* ``"cupy"`` — the same tree on a CUDA device (optional dependency).

Every backend is held to the same contract the scalar-vs-batched kernels
already live under: **bit-identical** to contiguous-slice
``ndarray.sum``.  The registry enforces it mechanically — before a
backend is ever handed out it must pass a one-time parity probe over a
fuzz layout of empty, tiny, 8-lane, power-of-two and recursion-depth
segment lengths (with ``-0.0`` sprinkled in, the classic reassociation
tell).  A backend that cannot import, compile or match is *unavailable*,
reported with its reason, and explicit requests for it raise
:class:`BackendUnavailableError`; it is never silently substituted.

Selection: pass ``backend=`` explicitly, or set the ``REPRO_BACKEND``
environment variable (the decision-layer ``kernel="batched:numba"``
spelling routes through here too).  Unset means NumPy.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

import numpy as np

from repro.backend._pairwise import PAIRWISE_BLOCKSIZE, segmented_pairwise_sum_xp
from repro.backend._partition import (
    lift_cuts_np,
    next_cut_map_np,
    prefix_table_np,
)
from repro.errors import ConfigurationError

__all__ = [
    "BACKEND_ENV_VAR",
    "BACKEND_NAMES",
    "BackendUnavailableError",
    "NumpyBackend",
    "PAIRWISE_BLOCKSIZE",
    "available_backends",
    "backend_unavailable_reason",
    "default_backend_name",
    "get_backend",
    "lift_cuts",
    "next_cut_map",
    "prefix_table",
    "segmented_pairwise_sum",
]

#: Environment variable naming the default backend (unset -> ``"numpy"``).
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: Registered backend names, in preference order.
BACKEND_NAMES = ("numpy", "numba", "cupy")

#: Segment lengths the parity probe covers: empty, sub-lane, lane
#: boundaries, the 128-element leaf boundary and multi-level recursion.
_PROBE_LENGTHS = (
    0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 63, 64,
    127, 128, 129, 136, 137, 255, 256, 300, 511, 512, 1000,
)


class BackendUnavailableError(ConfigurationError):
    """An explicitly requested backend cannot run on this host."""


class NumpyBackend:
    """The reference backend: vectorised pairwise tree in NumPy."""

    name = "numpy"

    def segmented_pairwise_sum(
        self, values: np.ndarray, offsets: np.ndarray
    ) -> np.ndarray:
        return segmented_pairwise_sum_xp(
            np.asarray(values, dtype=np.float64), offsets, np
        )

    # Partition-build entry points (the PartitionStack pipeline of
    # repro.teg.network): the NumPy forms *are* the bit-identity
    # reference — see repro.backend._partition.
    def prefix_table(self, rows: np.ndarray) -> np.ndarray:
        return prefix_table_np(rows)

    def next_cut_map(
        self,
        prefix_rows: np.ndarray,
        row_of: np.ndarray,
        ideals: np.ndarray,
        flat_rows: np.ndarray,
    ) -> np.ndarray:
        return next_cut_map_np(prefix_rows, row_of, ideals, flat_rows)

    def lift_cuts(
        self, next_map: np.ndarray, counts: np.ndarray, n_lift: int
    ) -> np.ndarray:
        return lift_cuts_np(next_map, counts, n_lift)


def _make_numba():
    from repro.backend.numba_backend import NumbaBackend

    return NumbaBackend()


def _make_cupy():
    from repro.backend.cupy_backend import CupyBackend

    return CupyBackend()


_FACTORIES = {
    "numpy": NumpyBackend,
    "numba": _make_numba,
    "cupy": _make_cupy,
}

_instances: Dict[str, object] = {}
_failures: Dict[str, str] = {}


def _parity_probe(backend) -> Optional[str]:
    """Bitwise self-test against ``ndarray.sum``; ``None`` on success."""
    offsets = np.concatenate(
        ([0], np.cumsum(np.asarray(_PROBE_LENGTHS, dtype=np.int64)))
    )
    total = int(offsets[-1])
    rng = np.random.default_rng(20180807)
    values = rng.normal(size=total) * np.exp(rng.uniform(-6.0, 6.0, total))
    values[rng.uniform(size=total) < 0.05] = -0.0
    stacked = np.stack((values, values[::-1].copy()))
    for vals in (values, stacked):
        want = np.stack(
            [
                vals[..., lo:hi].sum(axis=-1)
                for lo, hi in zip(offsets, offsets[1:])
            ],
            axis=-1,
        )
        try:
            got = backend.segmented_pairwise_sum(vals, offsets)
        except Exception as exc:  # pragma: no cover - defect path
            return f"parity probe raised {exc!r}"
        got = np.asarray(got)
        if got.shape != want.shape or got.tobytes() != want.tobytes():
            return "parity probe mismatch against ndarray.sum"
    return _partition_probe(backend)


def _partition_probe(backend) -> Optional[str]:
    """Bitwise self-test of the partition-build entry points.

    Probes ``prefix_table`` / ``next_cut_map`` / ``lift_cuts`` against
    the NumPy reference over a fixture covering the map's edge shapes:
    a generic positive row, a row with an interior zero-current flat
    run, and a fully flat row (all prefix values tied), each with
    several group-count lanes, listed in an unsorted lane order.
    ``None`` on success.
    """
    rng = np.random.default_rng(20180808)
    n_modules = 37
    rows = np.abs(rng.normal(size=(3, n_modules))) * np.exp(
        rng.uniform(-3.0, 3.0, (3, n_modules))
    )
    rows[1, 5:14] = 0.0
    rows[2] = 0.0
    flat_rows = rows.min(axis=1) == 0.0
    counts = np.array([5, 4, 1, 13, 7, 2, 3, 6, 8, 1, 2], dtype=np.int64)
    row_of = np.array([0, 1, 2, 0, 2, 1, 0, 1, 0, 0, 0], dtype=np.int64)
    n_lift = int(counts.max())
    prefix_want = prefix_table_np(rows)
    ideals = rows.sum(axis=1)[row_of] / counts
    next_want = next_cut_map_np(prefix_want, row_of, ideals, flat_rows)
    cuts_want = lift_cuts_np(next_want, counts, n_lift)
    try:
        prefix_got = np.asarray(backend.prefix_table(rows))
        next_got = np.asarray(
            backend.next_cut_map(prefix_want, row_of, ideals, flat_rows)
        )
        cuts_got = np.asarray(backend.lift_cuts(next_want, counts, n_lift))
    except Exception as exc:  # pragma: no cover - defect path
        return f"partition probe raised {exc!r}"
    for got, want, label in (
        (prefix_got, prefix_want, "prefix_table"),
        (next_got, next_want, "next_cut_map"),
        (cuts_got, cuts_want, "lift_cuts"),
    ):
        if got.shape != want.shape or got.tobytes() != want.tobytes():
            return f"partition probe mismatch in {label}"
    return None


def backend_unavailable_reason(name: str) -> Optional[str]:
    """Why ``name`` cannot be used here, or ``None`` if it can.

    Construction (import + compile) and the parity probe run once per
    process; the verdict is cached either way.
    """
    if name not in _FACTORIES:
        raise ConfigurationError(
            f"unknown backend {name!r} (known: {', '.join(BACKEND_NAMES)})"
        )
    if name in _instances:
        return None
    if name in _failures:
        return _failures[name]
    try:
        backend = _FACTORIES[name]()
    except Exception as exc:
        _failures[name] = f"{type(exc).__name__}: {exc}"
        return _failures[name]
    reason = _parity_probe(backend)
    if reason is not None:
        _failures[name] = reason
        return reason
    _instances[name] = backend
    return None


def available_backends() -> Tuple[str, ...]:
    """Names of every backend that imports, compiles and passes parity."""
    return tuple(
        name for name in BACKEND_NAMES if backend_unavailable_reason(name) is None
    )


def default_backend_name() -> str:
    """The session default: ``$REPRO_BACKEND`` or ``"numpy"``."""
    return os.environ.get(BACKEND_ENV_VAR, "").strip() or "numpy"


def get_backend(name: Optional[str] = None):
    """Resolve a backend instance by name (``None`` -> session default).

    Raises
    ------
    ConfigurationError
        For names outside :data:`BACKEND_NAMES`.
    BackendUnavailableError
        For known backends that cannot run here (missing wheel, no
        device, failed parity probe) — requests never degrade silently.
    """
    if name is None:
        name = default_backend_name()
    reason = backend_unavailable_reason(name)
    if reason is not None:
        raise BackendUnavailableError(
            f"backend {name!r} is unavailable on this host: {reason}"
        )
    return _instances[name]


def segmented_pairwise_sum(
    values: np.ndarray,
    offsets: np.ndarray,
    backend: Optional[str] = None,
) -> np.ndarray:
    """Sum every ``values[..., lo:hi]`` segment, bitwise like ``ndarray.sum``.

    ``offsets`` is an ``(S + 1,)`` non-decreasing boundary vector into
    the last axis of ``values``; the result has shape ``(..., S)``.
    ``backend`` picks the executing implementation (default: the
    ``REPRO_BACKEND`` environment variable, else NumPy) — all backends
    are bit-identical, so the choice is speed, never results.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets.ndim != 1 or offsets.size == 0:
        raise ConfigurationError(
            f"offsets must be a non-empty 1-D vector, got shape {offsets.shape}"
        )
    length = np.asarray(values).shape[-1] if np.asarray(values).ndim else 0
    if (
        offsets[0] < 0
        or offsets[-1] > length
        or np.any(offsets[1:] < offsets[:-1])
    ):
        raise ConfigurationError(
            f"offsets must be non-decreasing within [0, {length}], got "
            f"{offsets.tolist()[:8]}..."
        )
    return get_backend(backend).segmented_pairwise_sum(values, offsets)


def prefix_table(
    rows: np.ndarray, backend: Optional[str] = None
) -> np.ndarray:
    """Zero-led per-row cumulative prefix table of a ``(C, N)`` matrix.

    First stage of the ``PartitionStack`` build: ``prefix[c, j] =
    sum(rows[c, :j])``, so any contiguous group sum is a prefix
    difference.  ``backend`` picks the executing implementation — all
    backends are bit-identical to the NumPy ``np.cumsum`` form, so the
    choice is speed, never results.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ConfigurationError(
            f"rows must be a (C, N) matrix, got shape {rows.shape}"
        )
    return get_backend(backend).prefix_table(rows)


def next_cut_map(
    prefix_rows: np.ndarray,
    row_of: np.ndarray,
    ideals: np.ndarray,
    flat_rows: np.ndarray,
    backend: Optional[str] = None,
) -> np.ndarray:
    """Greedy next-cut map over a prefix table, one row per lane.

    Second stage of the ``PartitionStack`` build: for every lane ``k``
    (searching case row ``row_of[k]`` with per-group ideal
    ``ideals[k]``) and every start position, the bracketing
    ``searchsorted`` bound with the walk's tie rule, floor/saturation
    clamps and the flat-run extension for rows flagged in
    ``flat_rows``.  Integer-exact apart from the tie comparison, which
    every backend evaluates on the identical doubles.
    """
    prefix_rows = np.ascontiguousarray(prefix_rows, dtype=np.float64)
    row_of = np.asarray(row_of, dtype=np.int64)
    ideals = np.asarray(ideals, dtype=np.float64)
    flat_rows = np.asarray(flat_rows, dtype=bool)
    if prefix_rows.ndim != 2 or row_of.shape != ideals.shape:
        raise ConfigurationError(
            f"next_cut_map needs a (C, N+1) prefix table and matching "
            f"(K,) lane vectors, got {prefix_rows.shape} / "
            f"{row_of.shape} / {ideals.shape}"
        )
    return get_backend(backend).next_cut_map(
        prefix_rows, row_of, ideals, flat_rows
    )


def lift_cuts(
    next_map: np.ndarray,
    counts: np.ndarray,
    n_lift: int,
    backend: Optional[str] = None,
) -> np.ndarray:
    """All ``n_lift`` walk iterates of a per-lane next-cut map.

    Third stage of the ``PartitionStack`` build: ``cuts[k, j] =
    nxt_k^j(0)`` (binary lifting in the NumPy form, direct iteration in
    the scalar twins — identical integers either way), tail-clamped so
    every remaining group keeps at least one module.
    """
    next_map = np.ascontiguousarray(next_map, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if next_map.ndim != 2 or counts.shape != (next_map.shape[0],):
        raise ConfigurationError(
            f"lift_cuts needs a (K, N+1) next-cut map and a (K,) count "
            f"vector, got {next_map.shape} / {counts.shape}"
        )
    n_lift = int(n_lift)
    if n_lift < 1:
        raise ConfigurationError(f"n_lift must be >= 1, got {n_lift}")
    return get_backend(backend).lift_cuts(next_map, counts, n_lift)
