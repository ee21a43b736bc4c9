"""Property tests on the deadline estimator across all duration families."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.deadline import DeadlineEstimator
from repro.stats.duration_models import make_family

histories = st.lists(
    st.floats(min_value=0.5, max_value=200.0, allow_nan=False),
    min_size=3,
    max_size=25,
)
family_names = st.sampled_from(["power-law", "empirical", "lognormal"])


class TestEquation3Laws:
    @given(times=histories, family=family_names, ttd=st.floats(0.1, 500.0))
    @settings(max_examples=80, deadline=None)
    def test_probability_in_unit_interval(self, times, family, ttd):
        estimator = DeadlineEstimator(min_history=3, family=make_family(family))
        est = estimator.completion_probability(times, ttd)
        assert 0.0 <= est.probability <= 1.0
        assert est.trained

    @given(
        times=histories,
        family=family_names,
        a=st.floats(0.1, 400.0),
        b=st.floats(0.1, 400.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_longer_deadline_never_hurts(self, times, family, a, b):
        """Eq. 3 must be monotone in the deadline for every family."""
        assume(a < b)
        estimator = DeadlineEstimator(min_history=3, family=make_family(family))
        history = times
        short = estimator.completion_probability(history, a).probability
        long = estimator.completion_probability(history, b).probability
        assert long >= short - 1e-9


class TestEquation2Laws:
    @given(
        times=histories,
        family=family_names,
        ttd=st.floats(5.0, 400.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_window_monotone_in_elapsed(self, times, family, ttd):
        """Eq. 2 can only shrink as time passes, for every family."""
        estimator = DeadlineEstimator(min_history=3, family=make_family(family))
        history = times
        probs = [
            estimator.window_probability(history, t, ttd).probability
            for t in np.linspace(0.0, ttd * 0.99, 6)
        ]
        for earlier, later in zip(probs, probs[1:]):
            assert later <= earlier + 1e-9

    @given(times=histories, family=family_names)
    @settings(max_examples=60, deadline=None)
    def test_reassignment_fires_before_deadline_if_ever(self, times, family):
        """A pull (trained and Eq. 2 below threshold) can only happen strictly
        before the deadline; at/after it Eq. 2 is untrained zero (paper §V-C)."""
        estimator = DeadlineEstimator(min_history=3, family=make_family(family))
        history = times
        ttd = 100.0
        for elapsed in (ttd, ttd + 10):
            est = estimator.window_probability(history, elapsed, ttd)
            assert not est.trained
            assert est.probability == 0.0

    @given(times=histories, family=family_names)
    @settings(max_examples=40, deadline=None)
    def test_threshold_monotonicity(self, times, family):
        """A higher threshold can only make reassignment more eager."""
        estimator = DeadlineEstimator(min_history=3, family=make_family(family))
        history = times
        elapsed, ttd = 50.0, 90.0
        est = estimator.window_probability(history, elapsed, ttd)
        fired = [est.trained and est.probability < thr for thr in (0.0, 0.1, 0.5, 1.0)]
        # once it fires at some threshold it fires at every higher one
        assert fired == sorted(fired)
