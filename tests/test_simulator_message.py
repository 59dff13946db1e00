"""Tests for CONGEST bit accounting (repro.simulator.message)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.simulator.message import estimate_bits


class TestScalars:
    def test_none_costs_one_bit(self):
        assert estimate_bits(None) == 1

    def test_booleans_cost_one_bit(self):
        assert estimate_bits(True) == 1
        assert estimate_bits(False) == 1

    def test_zero_costs_one_bit(self):
        assert estimate_bits(0) == 1

    def test_small_int(self):
        assert estimate_bits(1) == 1
        assert estimate_bits(7) == 3

    def test_negative_int_charges_sign_bit(self):
        assert estimate_bits(-7) == estimate_bits(7) + 1

    def test_large_int_is_logarithmic(self):
        assert estimate_bits(2**20) == 21

    def test_float_is_fixed_width(self):
        assert estimate_bits(3.14) == 64

    def test_string_costs_per_char(self):
        assert estimate_bits("in") == 16

    def test_empty_string_still_positive(self):
        assert estimate_bits("") >= 1


class TestComposites:
    def test_tuple_sums_elements(self):
        assert estimate_bits((1, 1)) == 2 * (2 + 1)

    def test_dict_charges_keys_and_values(self):
        single = estimate_bits({1: 1})
        assert single == 2 + 1 + 1

    def test_nested_structures(self):
        nested = estimate_bits(("tag", (1, 2)))
        assert nested > estimate_bits("tag")

    def test_set_equals_sorted_list_cost(self):
        assert estimate_bits({1, 2, 3}) == estimate_bits([1, 2, 3])

    @given(st.integers(min_value=1))
    def test_positive_ints_match_bit_length(self, value):
        assert estimate_bits(value) == value.bit_length()

    @given(st.lists(st.integers(min_value=0, max_value=2**30)))
    def test_lists_are_monotone_in_length(self, values):
        longer = estimate_bits(values + [0])
        assert longer > estimate_bits(values) or not values

    def test_int_and_str_subclasses_cost_like_their_values(self):
        import enum

        class Level(enum.IntEnum):
            HIGH = 5

        class Tag(str):
            pass

        assert estimate_bits(Level.HIGH) == estimate_bits(5) == 3
        assert estimate_bits(Tag("in")) == estimate_bits("in") == 16
        assert estimate_bits(-(2**70)) == 72

    def test_unknown_objects_fall_back_to_repr(self):
        class Strange:
            def __repr__(self):
                return "xx"

        assert estimate_bits(Strange()) == 16


class TestModelBudgets:
    def test_congest_budget_scales_with_log_n(self):
        from repro.simulator.models import CONGEST

        assert CONGEST.bandwidth_bits(1) == 32
        assert CONGEST.bandwidth_bits(1000) == 32 * 10

    def test_local_has_no_budget(self):
        from repro.simulator.models import LOCAL

        assert LOCAL.bandwidth_bits(10**6) is None
        assert LOCAL.allows(10**9, 2)

    def test_congest_allows_within_budget(self):
        from repro.simulator.models import CONGEST

        assert CONGEST.allows(40, 1000)
        assert not CONGEST.allows(10**6, 1000)

    def test_strict_congest_flag(self):
        from repro.simulator.models import strict_congest

        model = strict_congest(4)
        assert model.strict
        assert model.bandwidth_bits(15) == 16
