import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conicflow.marked_sphere import (
    Divisor,
    StabilityClass,
    alpha_invariant,
    classify_stability,
    enumerate_partitions,
    euler_characteristic,
    predict_limit_divisor,
)


def D(*weights, positions=None):
    return Divisor(list(weights), positions)


class TestDivisor:
    def test_weights_sorted_ascending(self):
        d = D(0.8, 0.1, 0.2)
        assert d.weights == (0.1, 0.2, 0.8)
        assert d.beta_max == 0.8

    def test_positions_follow_weights(self):
        d = Divisor([0.8, 0.1], [[0, 0, 1], [1, 0, 0]])
        assert np.allclose(d.positions[0], [1, 0, 0])  # weight 0.1
        assert np.allclose(d.positions[1], [0, 0, 1])  # weight 0.8

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_weight_outside_open_interval(self, bad):
        with pytest.raises(ValueError):
            D(bad)

    def test_rejects_coincident_points(self):
        with pytest.raises(ValueError, match="coincide"):
            Divisor([0.3, 0.4], [[0, 0, 1], [0, 0, 1]])

    def test_json_round_trip_with_rationals(self):
        d = Divisor([Fraction(3, 10), Fraction(3, 5)], [[0, 0, 1], [1, 0, 0]])
        d2 = Divisor.from_json(json.dumps(d.to_dict()))
        assert d2.weights == d.weights
        assert d2.exact
        assert np.allclose(d2.positions, d.positions)

    def test_json_accepts_fraction_strings(self):
        d = Divisor.from_json('{"weights": ["1/2", 0.25]}')
        assert d.weights[1] == Fraction(1, 2)

    def test_json_rejects_garbage(self):
        with pytest.raises(ValueError):
            Divisor.from_json('[1, 2, 3]')

    def test_default_positions_on_equator(self):
        d = D(0.3, 0.4, 0.5)
        assert np.allclose(np.linalg.norm(d.positions, axis=1), 1.0)
        assert np.allclose(d.positions[:, 2], 0.0)


class TestEulerCharacteristic:
    def test_empty_divisor(self):
        assert euler_characteristic(Divisor([])) == 2.0

    def test_half_weights(self):
        assert euler_characteristic(D(0.5, 0.5, 0.5)) == pytest.approx(0.5)

    def test_mixed(self):
        assert euler_characteristic(D(0.1, 0.2, 0.8)) == pytest.approx(0.9)

    def test_exact_with_fractions(self):
        d = D(Fraction(1, 3), Fraction(1, 3))
        assert euler_characteristic(d) == Fraction(4, 3)


class TestClassification:
    def test_stable(self):
        assert classify_stability(D(0.5, 0.5, 0.5)) is StabilityClass.STABLE

    def test_semistable(self):
        assert classify_stability(D(0.3, 0.3, 0.6)) is StabilityClass.SEMI_STABLE

    def test_unstable(self):
        assert classify_stability(D(0.1, 0.2, 0.8)) is StabilityClass.UNSTABLE

    def test_total_at_least_two_is_stable(self):
        assert classify_stability(D(0.9, 0.9, 0.9)) is StabilityClass.STABLE

    def test_exact_rational_equality(self):
        d = D(Fraction(1, 7), Fraction(2, 7), Fraction(3, 7))
        assert classify_stability(d) is StabilityClass.SEMI_STABLE

    def test_float_tolerance_on_equality(self):
        # 0.3 + 0.3 == 0.6 only up to float round-off
        assert classify_stability(D(0.3, 0.3, 0.6)) is StabilityClass.SEMI_STABLE

    def test_empty_divisor_rejected(self):
        with pytest.raises(ValueError):
            classify_stability(Divisor([]))

    @given(
        st.lists(st.integers(min_value=1, max_value=99), min_size=3, max_size=6)
    )
    @settings(max_examples=200, deadline=None)
    def test_trichotomy_exhaustive_exclusive(self, nums):
        weights = [Fraction(n, 100) for n in nums]
        d = Divisor(weights)
        total, bmax = d.total(), d.beta_max
        cls = classify_stability(d)
        if total >= 2 or 2 * bmax < total:
            assert cls is StabilityClass.STABLE
        elif 2 * bmax == total:
            assert cls is StabilityClass.SEMI_STABLE
        else:
            assert cls is StabilityClass.UNSTABLE

    @given(st.permutations([0.2, 0.35, 0.55, 0.15]))
    @settings(max_examples=24, deadline=None)
    def test_permutation_invariance(self, perm):
        assert classify_stability(Divisor(list(perm))) is classify_stability(
            Divisor([0.2, 0.35, 0.55, 0.15])
        )


class TestAlphaInvariant:
    def test_half_weights(self):
        assert alpha_invariant(D(0.5, 0.5, 0.5)) == pytest.approx(1.0)

    def test_small_weights(self):
        assert alpha_invariant(D(0.1, 0.2, 0.3)) == pytest.approx(0.5)

    def test_semistable_value(self):
        assert alpha_invariant(D(0.3, 0.3, 0.6)) == pytest.approx(0.5)

    def test_requires_subcritical_total(self):
        with pytest.raises(ValueError):
            alpha_invariant(D(0.9, 0.9, 0.9))

    def test_alpha_above_half_iff_stable(self):
        # dense rational sweep: the Lemma 3.1 closed form against the
        # trichotomy hypothesis alpha > 1/2
        for a in range(1, 20):
            for b in range(a, 20):
                for c in range(b, 20):
                    w = [Fraction(a, 20), Fraction(b, 20), Fraction(c, 20)]
                    if any(x >= 1 for x in w) or sum(w) >= 2:
                        continue
                    d = Divisor(w)
                    alpha = alpha_invariant(d)
                    stable = classify_stability(d) is StabilityClass.STABLE
                    assert (alpha > Fraction(1, 2)) == stable


class TestPartitions:
    def test_example_unstable(self):
        parts = enumerate_partitions(D(0.1, 0.2, 0.8))
        pairs = {(round(p.beta_p, 10), round(p.beta_q, 10)): p.valid for p in parts}
        assert pairs == {
            (0.8, 0.3): True,
            (0.9, 0.2): True,
            (1.0, 0.1): False,
            (1.1, 0.0): False,
        }

    def test_single_point(self):
        parts = enumerate_partitions(D(0.4))
        assert len(parts) == 1
        assert (parts[0].beta_p, parts[0].beta_q) == (0.4, 0.0)

    def test_two_points(self):
        parts = enumerate_partitions(D(0.3, 0.3))
        got = sorted((p.beta_p, p.beta_q) for p in parts)
        assert got == [(0.3, 0.3), (0.6, 0.0)]

    @given(st.lists(st.floats(0.05, 0.45), min_size=1, max_size=7))
    @settings(max_examples=60, deadline=None)
    def test_count_and_side_sums(self, weights):
        d = Divisor(weights)
        parts = enumerate_partitions(d)
        assert len(parts) == 2 ** (d.k - 1)
        total = float(d.weights_float().sum())
        for p in parts:
            assert p.beta_p + p.beta_q == pytest.approx(total, abs=1e-12)
            assert p.beta_p >= p.beta_q


class TestPredictLimit:
    def test_semistable(self):
        ld = predict_limit_divisor(D(0.3, 0.3, 0.6))
        assert (ld.beta_p, ld.beta_q) == (0.6, 0.6)
        assert not ld.conditional

    def test_unstable_is_conditional(self):
        ld = predict_limit_divisor(D(0.1, 0.2, 0.8))
        assert (ld.beta_p, ld.beta_q) == pytest.approx((0.8, 0.3))
        assert ld.conditional
        assert ld.partition == frozenset({2})

    def test_stable_rejected(self):
        with pytest.raises(ValueError, match="stable"):
            predict_limit_divisor(D(0.5, 0.5, 0.5))
