"""Tests for provisioning a fleet against a planned load profile.

:func:`provision` drives the fleet controllers over a profile with quiet
fault signals; the live loop is covered by ``test_autoscaler_loop``.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.service.autoscaler import (
    AutoscalerPolicy,
    _servers_needed,
    compare_strategies,
    provision,
)

POLICY = AutoscalerPolicy(capacity_per_server=100.0, headroom=1.5,
                          scale_down_cooldown=1)

FLAT = np.full(24, 250.0)
DIURNAL = np.array([50.0] * 8 + [200.0] * 8 + [800.0] * 8)


class TestPolicyValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            AutoscalerPolicy(capacity_per_server=0.0)
        with pytest.raises(ValueError):
            AutoscalerPolicy(capacity_per_server=1.0, headroom=0.9)
        with pytest.raises(ValueError):
            AutoscalerPolicy(capacity_per_server=1.0, scale_down_cooldown=-1)
        with pytest.raises(ValueError):
            AutoscalerPolicy(capacity_per_server=1.0, min_servers=0)
        # NaN passes every ordered range check, and an infinite capacity
        # would size a 1-server fleet for any load.
        for bad in (
            {"capacity_per_server": math.nan},
            {"capacity_per_server": math.inf},
            {"capacity_per_server": 1.0, "headroom": math.nan},
            {"capacity_per_server": 1.0, "headroom": math.inf},
            {"capacity_per_server": 1.0, "boost_factor": math.nan},
            {"capacity_per_server": 1.0, "forecast_guardrail": math.nan},
            {"capacity_per_server": 1.0, "forecast_guardrail": math.inf},
        ):
            with pytest.raises(ValueError, match="must be finite"):
                AutoscalerPolicy(**bad)


class TestProfileValidation:
    @pytest.mark.parametrize("profile, message", [
        (np.ones((2, 3)), "must be 1-D"),
        (np.array([1.0, math.nan]), "non-finite"),
        (np.array([1.0, math.inf]), "non-finite"),
        (np.array([1.0, -1.0]), "negative"),
    ], ids=["2d", "nan", "inf", "negative"])
    def test_rejects_malformed_profiles(self, profile, message):
        with pytest.raises(ValueError, match=message):
            provision(profile, POLICY, "reactive")


class TestStatic:
    def test_peak_sized_fleet(self):
        outcome = provision(DIURNAL, POLICY, "static")
        assert outcome.server_hours == 8 * 24  # ceil(800/100) * 24 hours
        assert outcome.underprovisioned_hours == 0

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            provision(np.array([]), POLICY, "static")


class TestOracle:
    def test_exact_fit_every_hour(self):
        outcome = provision(DIURNAL, POLICY, "oracle")
        expected = 8 * (1 + 2 + 8)
        assert outcome.server_hours == expected
        assert outcome.underprovisioned_hours == 0

    def test_oracle_never_costlier_than_static(self):
        static = provision(DIURNAL, POLICY, "static")
        oracle = provision(DIURNAL, POLICY, "oracle")
        assert oracle.server_hours <= static.server_hours


class TestReactive:
    def test_flat_profile_no_violations(self):
        outcome = provision(FLAT, POLICY, "reactive")
        assert outcome.underprovisioned_hours == 0
        assert outcome.violation_rate == 0.0

    def test_lags_a_step_increase(self):
        profile = np.array([100.0] * 4 + [1000.0] * 4)
        outcome = provision(profile, POLICY, "reactive")
        # The hour of the jump is under-provisioned (reactive lag).
        assert outcome.underprovisioned_hours >= 1

    def test_cooldown_delays_scale_down(self):
        profile = np.array([1000.0, 100.0, 100.0, 100.0, 100.0])
        eager = provision(
            profile,
            AutoscalerPolicy(capacity_per_server=100.0, headroom=1.0,
                             scale_down_cooldown=0),
            "reactive",
        )
        patient = provision(
            profile,
            AutoscalerPolicy(capacity_per_server=100.0, headroom=1.0,
                             scale_down_cooldown=3),
            "reactive",
        )
        assert patient.server_hours > eager.server_hours

    def test_costs_between_oracle_and_static_on_diurnal(self):
        outcomes = compare_strategies(DIURNAL, POLICY)
        assert (
            outcomes["oracle"].server_hours
            <= outcomes["reactive"].server_hours
            <= outcomes["static"].server_hours
        )

    def test_savings_over(self):
        outcomes = compare_strategies(DIURNAL, POLICY)
        saving = outcomes["reactive"].savings_over(outcomes["static"])
        assert 0.0 < saving < 1.0

    def test_min_servers_floor(self):
        policy = AutoscalerPolicy(capacity_per_server=100.0, min_servers=5)
        outcome = provision(np.full(10, 1.0), policy, "reactive")
        assert outcome.server_hours == 50


class TestReactiveBootstrap:
    """Hour 0 must be sized like every later hour: from the first
    *observation* with headroom, not an oracle peek at the raw load."""

    def test_hour_zero_gets_headroom(self):
        policy = AutoscalerPolicy(capacity_per_server=100.0, headroom=1.3)
        outcome = provision(np.array([1000.0]), policy, "reactive")
        # ceil(1000 * 1.3 / 100) = 13 servers, not the peeked ceil(10).
        assert outcome.server_hours == 13
        assert outcome.underprovisioned_hours == 0

    def test_flat_profile_hour_zero_matches_steady_state(self):
        policy = AutoscalerPolicy(capacity_per_server=100.0, headroom=1.3)
        outcome = provision(np.full(5, 1000.0), policy, "reactive")
        # Steady state is 13 servers/hour; hour 0 must agree exactly.
        assert outcome.server_hours == 13 * 5


class TestEpsilonCeiling:
    """Satellite regression: float division landing a hair above an
    integer must not buy a phantom server (math.ceil(2.1/0.7) == 4)."""

    def test_raw_float_ceiling_is_the_trap(self):
        import math
        # The bug being guarded against: 2.1/0.7 = 3.0000000000000004.
        assert math.ceil(2.1 / 0.7) == 4

    def test_int_ceil_absorbs_the_representation_error(self):
        from repro.service.autoscaler import _int_ceil
        assert _int_ceil(2.1 / 0.7) == 3
        assert _int_ceil(3.0) == 3
        assert _int_ceil(3.2) == 4
        assert _int_ceil(0.0) == 0

    @pytest.mark.parametrize("strategy", ["static", "reactive", "oracle"])
    def test_2_1_over_0_7_across_all_three_strategies(self, strategy):
        policy = AutoscalerPolicy(capacity_per_server=0.7, headroom=1.0,
                                  scale_down_cooldown=0)
        outcome = provision(np.full(4, 2.1), policy, strategy)
        # Exactly 3 servers per hour, never the off-by-one 4.
        assert outcome.server_hours == 3 * 4
        assert outcome.underprovisioned_hours == 0
        assert set(outcome.trajectory) == {3}


class TestCooldownPlateauSemantics:
    """Satellite regression: plateau hours (target == fleet) count toward
    the scale-down streak but never themselves shrink the fleet."""

    def test_plateau_counts_toward_the_streak(self):
        # Decline to a plateau at the current fleet, then strictly below.
        # cooldown=2: the two plateau hours must satisfy the streak, so
        # the first strictly-below hour fires the scale-down.
        policy = AutoscalerPolicy(capacity_per_server=100.0, headroom=1.0,
                                  scale_down_cooldown=2)
        profile = np.array([300.0, 300.0, 300.0, 100.0, 100.0])
        outcome = provision(profile, policy, "reactive")
        # Hours 1-2 target 3 == fleet (streak 1, 2), hour 3 target 3
        # (follows load[2]=300; streak 3), hour 4 target 1 < fleet with
        # streak > cooldown -> scale down fires at hour 4.
        assert outcome.trajectory == (3, 3, 3, 3, 1)

    def test_plateau_reset_would_postpone_scale_down(self):
        # The old buggy semantics (reset on plateau) would keep the fleet
        # at 3 forever on this profile; the fixed streak fires exactly
        # one cooldown after the decline becomes visible.
        policy = AutoscalerPolicy(capacity_per_server=100.0, headroom=1.0,
                                  scale_down_cooldown=1)
        profile = np.array([300.0, 250.0, 280.0, 250.0, 280.0, 100.0, 100.0])
        outcome = provision(profile, policy, "reactive")
        # Targets from hour 1: 3, 3, 3, 3, 3, 1 -- all plateaus until the
        # last; streak grows through the plateaus, so the strictly-below
        # hour 6 scales down immediately.
        assert outcome.trajectory[-1] == 1

    def test_plateau_never_shrinks_the_fleet(self):
        policy = AutoscalerPolicy(capacity_per_server=100.0, headroom=1.0,
                                  scale_down_cooldown=0)
        outcome = provision(np.full(6, 300.0), policy, "reactive")
        assert set(outcome.trajectory) == {3}


class TestPredictiveClosedForm:
    def test_degenerates_to_reactive_before_one_cycle(self):
        policy = AutoscalerPolicy(capacity_per_server=100.0, headroom=1.0,
                                  scale_down_cooldown=0, period=24)
        profile = np.array([100.0, 400.0, 200.0])
        predictive = provision(profile, policy, "predictive")
        reactive = provision(profile, policy, "reactive")
        # With < one period of history the forecast is the last
        # observation -- identical to the reactive follower (and no
        # cooldown on either side here).
        assert predictive.trajectory == reactive.trajectory

    def test_anticipates_the_second_day_ramp(self):
        policy = AutoscalerPolicy(capacity_per_server=100.0, headroom=1.0,
                                  scale_down_cooldown=0, period=4)
        day = [100.0, 800.0, 800.0, 100.0]
        profile = np.array(day * 3)
        predictive = provision(profile, policy, "predictive")
        reactive = provision(profile, policy, "reactive")
        # Reactive under-provisions every ramp hour; predictive only the
        # first day's (after that the seasonal forecast sees it coming).
        assert predictive.underprovisioned_hours < reactive.underprovisioned_hours

    def test_guardrail_falls_back_on_noisy_history(self):
        policy = AutoscalerPolicy(capacity_per_server=100.0, headroom=1.0,
                                  scale_down_cooldown=0, period=2,
                                  forecast_guardrail=0.05)
        # Anti-periodic profile: the period-2 forecast is maximally wrong,
        # so the guardrail must clamp the basis to >= last observation.
        profile = np.array([100.0, 900.0] * 4)
        outcome = provision(profile, policy, "predictive")
        reactive = provision(profile, policy, "reactive")
        assert outcome.server_hours >= reactive.server_hours

    def test_compare_strategies_has_all_four(self):
        outcomes = compare_strategies(DIURNAL, POLICY)
        assert set(outcomes) == {"static", "reactive", "predictive", "oracle"}
        assert outcomes["predictive"].strategy == "predictive"


class TestProvisioningProperties:
    """Hypothesis invariants over arbitrary profiles and policies."""

    loads = st.floats(0.0, 10_000.0, allow_nan=False, allow_infinity=False)
    profiles = st.lists(loads, min_size=1, max_size=48)
    policies = st.builds(
        AutoscalerPolicy,
        capacity_per_server=st.floats(0.5, 500.0),
        headroom=st.floats(1.0, 3.0),
        scale_down_cooldown=st.integers(0, 4),
        min_servers=st.integers(1, 4),
        max_servers=st.integers(4, 25_000),
        period=st.integers(1, 8),
        forecast_guardrail=st.floats(0.0, 2.0),
    )

    @given(profile=profiles, policy=policies)
    @settings(max_examples=60, deadline=None)
    def test_static_never_underprovisions(self, profile, policy):
        # Exactly the hours whose load needs more servers than the
        # ceiling allows -- none whenever the peak fits under it.
        outcome = provision(np.array(profile), policy, "static")
        over_ceiling = sum(
            _servers_needed(load, policy.capacity_per_server)
            > policy.max_servers
            for load in profile
        )
        assert outcome.underprovisioned_hours == over_ceiling

    @given(profile=profiles, policy=policies)
    @settings(max_examples=60, deadline=None)
    def test_oracle_bounds_any_violation_free_reactive(self, profile, policy):
        reactive = provision(np.array(profile), policy, "reactive")
        assume(reactive.underprovisioned_hours == 0)
        oracle = provision(np.array(profile), policy, "oracle")
        assert oracle.server_hours <= reactive.server_hours

    @given(profile=profiles, policy=policies)
    @settings(max_examples=60, deadline=None)
    def test_trajectory_respects_floor_and_cooldown(self, profile, policy):
        outcome = provision(np.array(profile), policy, "reactive")
        trajectory = outcome.trajectory
        assert len(trajectory) == len(profile)
        assert all(
            policy.min_servers <= fleet <= policy.max_servers
            for fleet in trajectory
        )
        # Scale-downs can fire at most once per cooldown+1 hours: the
        # below-streak resets on every fire (and on every scale-up).
        decreases = [
            i for i in range(1, len(trajectory))
            if trajectory[i] < trajectory[i - 1]
        ]
        for first, second in zip(decreases, decreases[1:]):
            assert second - first > policy.scale_down_cooldown

    @given(profile=profiles, policy=policies)
    @settings(max_examples=30, deadline=None)
    def test_closed_form_strategies_are_pure(self, profile, policy):
        once = compare_strategies(np.array(profile), policy)
        again = compare_strategies(np.array(profile), policy)
        for name in once:
            assert once[name].trajectory == again[name].trajectory
            assert once[name].server_hours == again[name].server_hours

    @pytest.mark.parametrize(
        "strategy", ["reactive", "predictive", "fault-aware"]
    )
    @given(
        pairs=st.lists(st.tuples(loads, loads), min_size=2, max_size=48),
        policy=policies,
    )
    @settings(max_examples=60, deadline=None)
    def test_decisions_never_read_the_load_they_serve(
        self, strategy, pairs, policy
    ):
        # Hour h's fleet is decided before hour h is observed, so
        # rewriting loads[h:] must leave trajectory[:h+1] alone.  (Hour 0
        # bootstraps from the advertised first load, hence h >= 1.)
        profile = [first for first, _ in pairs]
        other = [second for _, second in pairs]
        base = provision(np.array(profile), policy, strategy).trajectory
        for h in range(1, len(profile)):
            spliced = np.array(profile[:h] + other[h:])
            trajectory = provision(spliced, policy, strategy).trajectory
            assert trajectory[: h + 1] == base[: h + 1]
