"""Unit tests for scheduling policies."""

import dataclasses

import pytest

from repro.core.matching.greedy import GreedyMatcher
from repro.core.matching.react import ReactMatcher
from repro.core.matching.uniform import UniformMatcher
from repro.core.weights import AccuracyWeight, ConstantWeight
from repro.platform.policies import (
    SchedulingPolicy,
    greedy_policy,
    metropolis_policy,
    react_policy,
    traditional_policy,
)


class TestPresets:
    def test_react_preset_matches_paper(self):
        policy = react_policy()
        assert policy.matcher_name == "react"
        assert policy.cycles == 1000
        assert policy.use_probabilistic_model
        assert policy.edge_probability_bound == 0.1
        assert policy.reassign_threshold == 0.1
        assert policy.min_history == 3
        assert policy.batch_threshold == 10
        assert not policy.assign_expired
        assert policy.expire_running_tasks

    def test_greedy_preset(self):
        policy = greedy_policy()
        assert policy.matcher_name == "greedy"
        assert policy.use_probabilistic_model  # paper: greedy also uses Eq. 2
        assert policy.charge_region_graph
        assert policy.batch_threshold == 1  # "triggered for each unassigned task"

    def test_traditional_preset(self):
        policy = traditional_policy()
        assert policy.matcher_name == "uniform"
        assert not policy.use_probabilistic_model
        assert policy.assign_expired
        assert not policy.expire_running_tasks  # "does not react to delays"

    def test_metropolis_preset(self):
        assert metropolis_policy(cycles=500).cycles == 500


class TestFactories:
    def test_build_matcher_types(self):
        assert isinstance(react_policy().build_matcher(), ReactMatcher)
        assert isinstance(greedy_policy().build_matcher(), GreedyMatcher)
        assert isinstance(traditional_policy().build_matcher(), UniformMatcher)

    def test_matcher_parameters_flow_through(self):
        matcher = react_policy(cycles=77).build_matcher()
        assert matcher.params.cycles == 77

    def test_build_weight_function(self):
        assert isinstance(react_policy().build_weight_function(), AccuracyWeight)
        assert isinstance(traditional_policy().build_weight_function(), ConstantWeight)

    def test_replace_derives_a_new_policy(self):
        base = react_policy()
        derived = dataclasses.replace(base, reassign_threshold=0.3)
        assert derived.reassign_threshold == 0.3
        assert base.reassign_threshold == 0.1
        assert derived.name == base.name


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(batch_threshold=0),
            dict(batch_period=0.0),
            dict(edge_probability_bound=1.5),
            dict(reassign_threshold=-0.1),
            dict(duration_model="gamma"),
            dict(min_history=-1),
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SchedulingPolicy(name="bad", **kwargs)
