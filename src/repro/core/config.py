"""The array-configuration value type.

The paper encodes a configuration as ``C(g_1, ..., g_n)`` — the serial
number of each group's first module (1-indexed).
:class:`ArrayConfiguration` is the 0-indexed, validated, hashable
equivalent used across the library; modules inside a group are wired
in parallel and the groups in series (see
:mod:`repro.teg.network` for the electrical semantics).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.teg.network import validate_starts
from repro.teg.switches import SWITCHES_PER_JUNCTION_FLIP


@dataclass(frozen=True)
class ArrayConfiguration:
    """Ordered partition of the module chain into contiguous groups.

    Attributes
    ----------
    starts:
        0-based index of each group's first module; always begins at 0
        and strictly increases.
    n_modules:
        Chain length the partition covers.
    """

    starts: Tuple[int, ...]
    n_modules: int
    _sizes: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        starts = self.starts
        if (
            isinstance(starts, tuple)
            and starts
            and all(type(s) is int for s in starts)
        ):
            # Canonical plain-int tuple: validate with scalar ops — this
            # runs once per policy decision, and the numpy round-trip
            # below costs more than the whole greedy partition build.
            if self.n_modules <= 0:
                raise ConfigurationError(
                    f"n_modules must be positive, got {self.n_modules}"
                )
            if starts[0] != 0:
                raise ConfigurationError(
                    f"first group must start at module 0, got {starts[0]}"
                )
            previous = 0
            for start in starts[1:]:
                if start <= previous:
                    raise ConfigurationError(
                        f"starts must be strictly increasing, got {list(starts)}"
                    )
                previous = start
            if previous >= self.n_modules:
                raise ConfigurationError(
                    f"last group start {previous} out of range for "
                    f"{self.n_modules} modules"
                )
        else:
            idx = validate_starts(starts, self.n_modules)
            starts = tuple(int(s) for s in idx)
            object.__setattr__(self, "starts", starts)
        bounds = starts + (self.n_modules,)
        object.__setattr__(
            self,
            "_sizes",
            tuple(hi - lo for lo, hi in zip(bounds, bounds[1:])),
        )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def uniform(cls, n_modules: int, n_groups: int) -> "ArrayConfiguration":
        """Equal-size groups (up to remainder spread over the first ones).

        ``uniform(100, 10)`` is the paper's static 10 x 10 baseline.
        """
        if n_groups < 1 or n_groups > n_modules:
            raise ConfigurationError(
                f"n_groups must lie in [1, {n_modules}], got {n_groups}"
            )
        base, extra = divmod(n_modules, n_groups)
        starts = []
        pos = 0
        for g in range(n_groups):
            starts.append(pos)
            pos += base + (1 if g < extra else 0)
        return cls(starts=tuple(starts), n_modules=n_modules)

    @classmethod
    def all_series(cls, n_modules: int) -> "ArrayConfiguration":
        """Every module its own group — the all-series chain."""
        return cls(starts=tuple(range(n_modules)), n_modules=n_modules)

    @classmethod
    def all_parallel(cls, n_modules: int) -> "ArrayConfiguration":
        """One group containing every module."""
        return cls(starts=(0,), n_modules=n_modules)

    @classmethod
    def from_group_sizes(cls, sizes: Sequence[int]) -> "ArrayConfiguration":
        """Build from group sizes, e.g. ``(3, 2, 5)``."""
        if len(sizes) == 0 or any(int(s) < 1 for s in sizes):
            raise ConfigurationError(f"sizes must be positive, got {sizes!r}")
        starts = [0]
        for s in list(sizes)[:-1]:
            starts.append(starts[-1] + int(s))
        return cls(starts=tuple(starts), n_modules=int(sum(int(s) for s in sizes)))

    @classmethod
    def from_paper_form(
        cls, g_values: Sequence[int], n_modules: int
    ) -> "ArrayConfiguration":
        """Build from the paper's 1-indexed ``(g_1, ..., g_n)`` encoding."""
        return cls(
            starts=tuple(int(g) - 1 for g in g_values), n_modules=n_modules
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def n_groups(self) -> int:
        """Number of series-connected groups."""
        return len(self.starts)

    @property
    def group_sizes(self) -> Tuple[int, ...]:
        """Module count of each group, chain order."""
        return self._sizes

    def group_slices(self) -> Iterator[slice]:
        """Iterate ``slice`` objects selecting each group's modules."""
        bounds = list(self.starts) + [self.n_modules]
        for lo, hi in zip(bounds, bounds[1:]):
            yield slice(lo, hi)

    def paper_form(self) -> Tuple[int, ...]:
        """The paper's 1-indexed ``(g_1, ..., g_n)`` encoding."""
        return tuple(s + 1 for s in self.starts)

    def group_of_module(self, module_index: int) -> int:
        """Group index (0-based) containing a module."""
        if not 0 <= module_index < self.n_modules:
            raise ConfigurationError(
                f"module_index {module_index} out of range for {self.n_modules}"
            )
        return int(np.searchsorted(np.asarray(self.starts), module_index, "right")) - 1

    # ------------------------------------------------------------------
    # Comparisons
    # ------------------------------------------------------------------
    def junction_flips_to(self, other: "ArrayConfiguration") -> int:
        """Junctions changing state when switching to ``other``."""
        self._check_compatible(other)
        # Both starts were validated at construction: count the group
        # boundaries that differ (count_junction_flips without checks).
        return len(set(self.starts[1:]).symmetric_difference(other.starts[1:]))

    def switch_toggles_to(self, other: "ArrayConfiguration") -> int:
        """Individual switch toggles when switching to ``other``."""
        return SWITCHES_PER_JUNCTION_FLIP * self.junction_flips_to(other)

    def _check_compatible(self, other: "ArrayConfiguration") -> None:
        if self.n_modules != other.n_modules:
            raise ConfigurationError(
                f"configurations cover different chains: "
                f"{self.n_modules} vs {other.n_modules} modules"
            )

    def __str__(self) -> str:
        sizes = "x".join(str(s) for s in self.group_sizes[:8])
        if self.n_groups > 8:
            sizes += "..."
        return f"Config(n={self.n_modules}, groups={self.n_groups}: {sizes})"
