"""DelayModel / TimedParams: validation, merging, and identity."""

from __future__ import annotations

import pytest

from repro.runner.spec import encode_key
from repro.timed.params import DelayModel, TimedParams


class TestDelayModelValidation:
    def test_defaults_are_synchronous_unit_delay(self):
        model = DelayModel()
        assert model.base == 1
        assert model.bounded
        assert model.max_total == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base": 0},
            {"base": -1},
            {"jitter": -1},
            {"gst": -1},
            {"post_jitter": -2},
            {"growth": 1},
            {"growth": -2},
        ],
    )
    def test_invalid_knobs_raise(self, kwargs):
        with pytest.raises(ValueError):
            DelayModel(**kwargs)

    def test_max_total_covers_both_jitter_regimes(self):
        # The bound must hold before *and* after gst.
        assert DelayModel(base=2, jitter=3).max_total == 5
        assert DelayModel(base=1, jitter=1, gst=5, post_jitter=4).max_total == 5

    def test_unbounded_model_has_no_max_total(self):
        model = DelayModel(growth=2)
        assert not model.bounded
        with pytest.raises(ValueError, match="unbounded"):
            model.max_total


class TestDelayDraws:
    def test_pure_function_of_seed_index_now(self):
        model = DelayModel(base=1, jitter=3)
        draws = [model.delay_of(7, k, 0) for k in range(50)]
        assert draws == [model.delay_of(7, k, 0) for k in range(50)]
        assert all(1 <= d <= 4 for d in draws)
        assert len(set(draws)) > 1  # jitter actually varies

    def test_zero_jitter_is_constant(self):
        model = DelayModel(base=2)
        assert {model.delay_of(3, k, 0) for k in range(20)} == {2}

    def test_gst_switches_jitter_regime(self):
        model = DelayModel(base=1, jitter=5, gst=10, post_jitter=0)
        before = [model.delay_of(7, k, 9) for k in range(50)]
        after = [model.delay_of(7, k, 10) for k in range(50)]
        assert max(before) > 1  # pre-gst jitter is live
        assert set(after) == {1}  # post-gst the channel is synchronous

    def test_growth_adds_exact_powers(self):
        model = DelayModel(base=1, growth=3)
        assert [model.delay_of(7, k, 0) for k in range(5)] == [
            1 + 3**k for k in range(5)
        ]

    def test_identity_names_every_knob(self):
        # The derived key encoding spells out every field, defaults
        # included, so a model never shares a key with a different one.
        assert encode_key(DelayModel()) == {
            "base": 1,
            "jitter": 0,
            "gst": 0,
            "post_jitter": None,
            "growth": 0,
        }
        assert encode_key(
            DelayModel(base=2, jitter=1, gst=5, post_jitter=0)
        ) == {"base": 2, "jitter": 1, "gst": 5, "post_jitter": 0, "growth": 0}
        assert encode_key(DelayModel(growth=2)) == {
            "base": 1,
            "jitter": 0,
            "gst": 0,
            "post_jitter": None,
            "growth": 2,
        }


class TestTimedParamsValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"heartbeat_period": 0},
            {"timeout": 0},
            {"query_period": -1},
            {"lease": 0},
            {"timeout_bump": -1},
        ],
    )
    def test_invalid_knobs_raise(self, kwargs):
        with pytest.raises(ValueError):
            TimedParams(**kwargs)

    def test_delay_must_be_a_model(self):
        with pytest.raises(TypeError, match="DelayModel"):
            TimedParams(delay={"base": 2})


class TestCoerce:
    def test_none_gives_defaults(self):
        assert TimedParams.coerce(None) == TimedParams()

    def test_instance_passes_through(self):
        params = TimedParams(timeout=9)
        assert TimedParams.coerce(params) is params

    def test_mapping_merges_over_defaults(self):
        params = TimedParams.coerce({"timeout": 4, "delay": {"jitter": 2}})
        assert params.timeout == 4
        assert params.delay.jitter == 2
        assert params.heartbeat_period == TimedParams().heartbeat_period

    def test_other_types_raise(self):
        with pytest.raises(TypeError, match="TimedParams"):
            TimedParams.coerce(7)


class TestMerged:
    def test_unknown_keys_raise_naming_the_valid_ones(self):
        with pytest.raises(ValueError, match="timout.*valid keys"):
            TimedParams().merged({"timout": 3})

    def test_unknown_delay_keys_raise(self):
        with pytest.raises(ValueError, match="jiter"):
            TimedParams().merged({"delay": {"jiter": 3}})

    def test_delay_mapping_merges_over_current_delay(self):
        base = TimedParams(delay=DelayModel(base=2, jitter=1))
        merged = base.merged({"delay": {"jitter": 3}})
        assert merged.delay == DelayModel(base=2, jitter=3)

    def test_delay_instance_replaces_wholesale(self):
        base = TimedParams(delay=DelayModel(base=2, jitter=1))
        merged = base.merged({"delay": DelayModel(jitter=3)})
        assert merged.delay == DelayModel(base=1, jitter=3)

    def test_delay_of_wrong_type_raises(self):
        with pytest.raises(TypeError, match="delay"):
            TimedParams().merged({"delay": 3})

    def test_merged_validates_like_the_constructor(self):
        with pytest.raises(ValueError):
            TimedParams().merged({"timeout": 0})


class TestSummary:
    """The params' key summary is their derived encoding (encode_key)."""

    def test_every_field_appears(self):
        summary = encode_key(TimedParams())
        assert set(summary) == {
            "heartbeat_period",
            "timeout",
            "timeout_bump",
            "query_period",
            "lease",
            "delay",
        }

    def test_summary_tracks_every_knob(self):
        # Timed runs are *defined* by their timing assumptions; the
        # summary is their cache identity, so no knob may alias.
        a = encode_key(TimedParams())
        for override in (
            {"heartbeat_period": 5},
            {"timeout": 9},
            {"timeout_bump": 0},
            {"query_period": 7},
            {"lease": 3},
            {"delay": {"jitter": 2}},
        ):
            assert encode_key(TimedParams().merged(override)) != a
