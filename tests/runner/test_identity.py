"""The derived spec identity: key roles, the encoder, the digest, and
cacheability.

Every spec key is derived from ``dataclasses.fields`` through one
encoder (``encode_key``); each ExperimentSpec field declares its key
role once, in its metadata.  These tests pin the roles, show that a new
field joins the keys by default, that ``spec_digest`` hashes the run
identity canonically, and that values the encoder can only name by
``id`` keep a spec out of the result cache.
"""

from __future__ import annotations

import dataclasses
import functools

import pytest

from repro.algorithms.consensus_omega import omega_consensus_algorithm
from repro.cache.store import cacheable
from repro.detectors.registry import resolve_detector
from repro.faults.plan import ChannelFaults, CrashRule, FaultPlan
from repro.runner.spec import (
    ENGINE,
    INSTRUMENTATION,
    RUN,
    ExperimentSpec,
    canonical_json,
    digest,
    encode_key,
    spec_digest,
)
from repro.system.fault_pattern import FaultPattern
from repro.timed.params import DelayModel, TimedParams

LOCS = (0, 1, 2)


def consensus_spec(**overrides):
    base = dict(
        algorithm=omega_consensus_algorithm,
        detector="omega",
        locations=LOCS,
        crashes={0: 10},
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def roles(cls):
    return {
        f.name: f.metadata["key"]
        for f in dataclasses.fields(cls)
        if "key" in f.metadata
    }


class TestRoles:
    def test_exactly_these_spec_fields_carry_a_role(self):
        assert roles(ExperimentSpec) == {
            "instrument": INSTRUMENTATION,
            "profile": INSTRUMENTATION,
            "compiled": ENGINE,
            "seed": RUN,
            "policy": RUN,
            "max_steps": RUN,
            "crashes": RUN,
            "f": RUN,
            "min_live_outputs": RUN,
            "label": RUN,
        }

    def test_nested_dataclass_fields_carry_no_role(self):
        for cls in (
            FaultPlan,
            ChannelFaults,
            CrashRule,
            TimedParams,
            DelayModel,
            FaultPattern,
        ):
            assert roles(cls) == {}, cls

    def test_meta_keys_are_the_identity_fields(self):
        identity = [
            f.name
            for f in dataclasses.fields(ExperimentSpec)
            if f.metadata.get("key") not in (INSTRUMENTATION, ENGINE)
        ]
        assert list(consensus_spec().meta()) == identity
        system = [name for name in identity if name not in roles(ExperimentSpec)]
        assert list(consensus_spec().system_key()) == system

    def test_a_new_field_joins_both_keys_by_default(self):
        @dataclasses.dataclass
        class Extended(ExperimentSpec):
            knob: int = 0

        spec = Extended(
            algorithm=omega_consensus_algorithm, detector="omega", locations=LOCS
        )
        assert spec.meta()["knob"] == 0
        assert spec.system_key()["knob"] == 0
        assert spec_digest(spec) != spec_digest(dataclasses.replace(spec, knob=1))


class TestEncoding:
    def test_dataclasses_mappings_and_sequences(self):
        plan = FaultPlan(
            seed=3,
            per_channel={(0, 1): ChannelFaults(drop_sends=(2,))},
            crash_rules=[CrashRule("on-first-decision")],
        )
        encoded = encode_key(plan)
        assert encoded["seed"] == 3
        assert encoded["per_channel"] == [[[0, 1], encode_key(ChannelFaults(drop_sends=(2,)))]]
        assert encoded["crash_rules"] == [
            {"trigger": "on-first-decision", "location": None, "param": None, "delay": 1}
        ]
        assert encode_key(FaultPattern({2: 6}, LOCS)) == {
            "crashes": {"2": 6},
            "locations": [0, 1, 2],
        }

    def test_classes_and_module_level_functions_by_qualified_name(self):
        assert encode_key(omega_consensus_algorithm) == (
            "repro.algorithms.consensus_omega.omega_consensus_algorithm"
        )
        assert encode_key(DelayModel) == "repro.timed.params.DelayModel"

    def test_opaque_values_are_named_by_type_and_id(self):
        afd = resolve_detector("omega", LOCS)
        found = []
        tag = encode_key(afd, found)
        assert tag == f"{type(afd).__module__}.{type(afd).__qualname__}@{id(afd):x}"
        assert found == [tag]

    def test_the_bound_fault_plan_is_keyed(self):
        spec = consensus_spec(fault_plan=FaultPlan.uniform(drop_p=0.1))
        assert spec.meta()["fault_plan"] == encode_key(spec.resolve_fault_plan())
        assert spec.meta()["fault_plan"]["seed"] is not None

    def test_timed_mapping_and_params_share_a_key(self):
        def timed(value):
            return ExperimentSpec(
                detector="heartbeat",
                locations=LOCS,
                problem="timed-detector",
                timed=value,
            )

        by_mapping = timed({"timeout": 4, "delay": {"jitter": 2}})
        by_params = timed(TimedParams(timeout=4, delay=DelayModel(jitter=2)))
        assert by_mapping.timed == by_params.timed
        assert spec_digest(by_mapping) == spec_digest(by_params)
        assert spec_digest(timed(None)) == spec_digest(timed(TimedParams()))


class TestDigests:
    def test_canonical_json_is_order_free(self):
        assert canonical_json({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}'
        assert digest({"a": 1, "b": 2}) == digest({"b": 2, "a": 1})

    def test_digest_prefix_and_stability(self):
        d = digest({"x": 1})
        assert d.startswith("sha256:") and len(d) == 7 + 64
        assert d == digest({"x": 1})
        assert d != digest({"x": 2})

    def test_canonical_json_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})


class TestSpecFingerprint:
    def test_equal_specs_share_an_address(self):
        assert spec_digest(consensus_spec()) == spec_digest(consensus_spec())

    def test_instrumentation_flags_do_not_change_the_address(self):
        plain = spec_digest(consensus_spec())
        assert plain == spec_digest(consensus_spec(instrument=True))
        assert plain == spec_digest(consensus_spec(profile=True))

    def test_behavior_fields_change_the_address(self):
        plain = spec_digest(consensus_spec(seed=7))
        assert plain != spec_digest(consensus_spec(seed=8))
        assert plain != spec_digest(consensus_spec(seed=7, crashes={1: 10}))

    def test_fingerprint_is_json_canonicalizable(self):
        fp = consensus_spec(seed=7).meta()
        canonical_json(fp)  # must not raise
        assert fp["algorithm"]
        assert fp["seed"] == 7


class TestCacheable:
    def test_plain_spec_is_cacheable(self):
        assert cacheable(consensus_spec())
        assert consensus_spec().opaque_values() == []

    def test_a_spec_holding_an_instance_is_not(self):
        for spec in (
            consensus_spec(detector=resolve_detector("omega", LOCS)),
            consensus_spec(algorithm=omega_consensus_algorithm(LOCS)),
            consensus_spec(detector_kwargs={"hint": object()}),
        ):
            assert spec.opaque_values()
            assert not cacheable(spec)

    def test_lambdas_closures_and_partials_are_opaque(self):
        def closure(locations, **kwargs):
            return omega_consensus_algorithm(locations, **kwargs)

        for factory in (
            lambda locations, **kw: omega_consensus_algorithm(locations, **kw),
            closure,
            functools.partial(omega_consensus_algorithm),
        ):
            assert not cacheable(consensus_spec(algorithm=factory)), factory

    def test_partials_do_not_share_a_key(self):
        a = consensus_spec(algorithm=functools.partial(omega_consensus_algorithm))
        b = consensus_spec(algorithm=functools.partial(omega_consensus_algorithm))
        assert spec_digest(a) != spec_digest(b)
