"""Tests for repro.core.config."""

import numpy as np
import pytest

from repro.core.config import ArrayConfiguration
from repro.errors import ConfigurationError
from repro.teg.switches import count_junction_flips, count_switch_toggles


class TestConstruction:
    def test_basic(self):
        config = ArrayConfiguration(starts=(0, 3, 7), n_modules=10)
        assert config.n_groups == 3
        assert config.group_sizes == (3, 4, 3)

    def test_rejects_bad_starts(self):
        with pytest.raises(ConfigurationError):
            ArrayConfiguration(starts=(1, 3), n_modules=10)
        with pytest.raises(ConfigurationError):
            ArrayConfiguration(starts=(0, 3, 3), n_modules=10)
        with pytest.raises(ConfigurationError):
            ArrayConfiguration(starts=(0, 12), n_modules=10)

    def test_hashable_and_equal(self):
        a = ArrayConfiguration(starts=(0, 5), n_modules=10)
        b = ArrayConfiguration(starts=(0, 5), n_modules=10)
        assert a == b
        assert hash(a) == hash(b)

    def test_numpy_starts_normalised(self):
        import numpy as np

        config = ArrayConfiguration(starts=tuple(np.array([0, 4])), n_modules=8)
        assert all(isinstance(s, int) for s in config.starts)

    def test_ndarray_starts_canonicalised_to_tuple(self):
        """Regression: a raw ndarray ``starts`` (as the greedy partition
        builder returns) must canonicalise to a plain-int tuple, so
        ``config_a.starts == config_b.starts`` stays a *scalar* truth
        value — an ndarray surviving construction would make it an
        elementwise array and break every ``if`` built on it (DNOR's
        keep-path among them)."""
        import numpy as np

        from_array = ArrayConfiguration(
            starts=np.array([0, 3, 6], dtype=np.int64), n_modules=9
        )
        from_tuple = ArrayConfiguration(starts=(0, 3, 6), n_modules=9)
        assert isinstance(from_array.starts, tuple)
        assert all(type(s) is int for s in from_array.starts)
        # The comparison the decision layer relies on: scalar, usable in if.
        comparison = from_array.starts == from_tuple.starts
        assert comparison is True
        assert from_array == from_tuple
        assert hash(from_array) == hash(from_tuple)


class TestConstructors:
    def test_uniform_divides_evenly(self):
        config = ArrayConfiguration.uniform(100, 10)
        assert config.group_sizes == (10,) * 10

    def test_uniform_spreads_remainder(self):
        config = ArrayConfiguration.uniform(11, 3)
        assert config.group_sizes == (4, 4, 3)
        assert sum(config.group_sizes) == 11

    def test_uniform_rejects_too_many_groups(self):
        with pytest.raises(ConfigurationError):
            ArrayConfiguration.uniform(5, 6)

    def test_all_series(self):
        config = ArrayConfiguration.all_series(4)
        assert config.n_groups == 4
        assert config.group_sizes == (1, 1, 1, 1)

    def test_all_parallel(self):
        config = ArrayConfiguration.all_parallel(4)
        assert config.n_groups == 1
        assert config.group_sizes == (4,)

    def test_from_group_sizes(self):
        config = ArrayConfiguration.from_group_sizes((3, 2, 5))
        assert config.starts == (0, 3, 5)
        assert config.n_modules == 10

    def test_from_group_sizes_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            ArrayConfiguration.from_group_sizes((3, 0, 5))

    def test_paper_form_roundtrip(self):
        config = ArrayConfiguration(starts=(0, 3, 7), n_modules=10)
        assert config.paper_form() == (1, 4, 8)
        again = ArrayConfiguration.from_paper_form(config.paper_form(), 10)
        assert again == config


class TestViews:
    def test_group_slices(self):
        config = ArrayConfiguration(starts=(0, 3, 7), n_modules=10)
        slices = list(config.group_slices())
        assert slices == [slice(0, 3), slice(3, 7), slice(7, 10)]

    def test_group_of_module(self):
        config = ArrayConfiguration(starts=(0, 3, 7), n_modules=10)
        assert config.group_of_module(0) == 0
        assert config.group_of_module(2) == 0
        assert config.group_of_module(3) == 1
        assert config.group_of_module(9) == 2

    def test_group_of_module_out_of_range(self):
        config = ArrayConfiguration(starts=(0, 3), n_modules=10)
        with pytest.raises(ConfigurationError):
            config.group_of_module(10)

    def test_str_compact(self):
        config = ArrayConfiguration.uniform(100, 10)
        assert "groups=10" in str(config)


class TestComparisons:
    def test_junction_flips(self):
        a = ArrayConfiguration(starts=(0, 3), n_modules=6)
        b = ArrayConfiguration(starts=(0, 4), n_modules=6)
        assert a.junction_flips_to(b) == 2
        assert a.switch_toggles_to(b) == 6

    def test_identity_zero_flips(self):
        a = ArrayConfiguration(starts=(0, 3), n_modules=6)
        assert a.junction_flips_to(a) == 0

    def test_incompatible_sizes_raise(self):
        a = ArrayConfiguration(starts=(0,), n_modules=4)
        b = ArrayConfiguration(starts=(0,), n_modules=5)
        with pytest.raises(ConfigurationError):
            a.junction_flips_to(b)

    def test_matches_switch_fabric_counts(self):
        rng = np.random.default_rng(7)

        def draw(n):
            cuts = rng.choice(np.arange(1, n), int(rng.integers(0, n)), replace=False)
            return ArrayConfiguration(starts=(0, *sorted(cuts.tolist())), n_modules=n)

        for _ in range(200):
            n = int(rng.integers(1, 40))
            a, b = draw(n), draw(n)
            assert a.junction_flips_to(b) == count_junction_flips(
                a.starts, b.starts, n
            )
            assert a.switch_toggles_to(b) == count_switch_toggles(
                a.starts, b.starts, n
            )
