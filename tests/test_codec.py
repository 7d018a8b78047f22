"""The typed JSON codec: strict decoding with paths, and exact round trips."""

import json
import math
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional, Tuple

import pytest
from hypothesis import given, strategies as st

from repro.clock.temperature import (
    ConstantTemperature,
    DiurnalTemperature,
    RampTemperature,
    TemperatureProfile,
)
from repro.codec import decode, encode
from repro.core.config import HintThresholds, MntpConfig
from repro.faults.schedule import DIRECTIONS, FaultEpisode, FaultKind, FaultSchedule
from repro.ntp.sntp_client import HardeningPolicy
from repro.obs.health import SloSpec
from repro.testbed.specs import TopologySpec


class Colour(Enum):
    RED = "red"
    BLUE = "blue"


@dataclass
class Inner:
    flag: bool
    count: int = 1


@dataclass
class Outer:
    when: float = field(metadata={"json": "t"})
    inner: Inner
    label: Optional[str] = None
    colour: Colour = Colour.RED
    sizes: Tuple[int, ...] = ()
    items: List[Inner] = field(default_factory=list)
    weights: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.when < 0:
            raise ValueError("when must be >= 0")


def outer(**overrides):
    data = {"t": 1.0, "inner": {"flag": True}}
    data.update(overrides)
    return data


def rejects(data, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        decode(Outer, data, "doc")


def test_decode_builds_nested_values():
    value = decode(Outer, outer(label="x", colour="blue", sizes=[1, 2],
                                items=[{"flag": False, "count": 3}],
                                weights={"a": 2}), "doc")
    assert value == Outer(1.0, Inner(True), "x", Colour.BLUE, (1, 2),
                          [Inner(False, 3)], {"a": 2.0})
    assert isinstance(value.weights["a"], float)


def test_metadata_key_is_the_json_key():
    assert encode(Outer(2.5, Inner(False)))["t"] == 2.5
    assert "when" not in encode(Outer(2.5, Inner(False)))
    rejects(outer(when=2.5), "doc: unknown keys ['when']")


def test_unknown_keys_are_rejected_at_every_level():
    rejects(outer(extra=1), "doc: unknown keys ['extra']; known keys are")
    rejects(outer(inner={"flag": True, "cnt": 2}),
            "doc.inner: unknown keys ['cnt']")


def test_missing_required_keys_are_named():
    rejects({"inner": {"flag": True}}, "doc: missing keys ['t']")
    rejects(outer(inner={}), "doc.inner: missing keys ['flag']")


@pytest.mark.parametrize("data,message", [
    (outer(inner={"flag": 0}), "doc.inner.flag must be a boolean, got 0"),
    (outer(inner={"flag": "false"}),
     "doc.inner.flag must be a boolean, got 'false'"),
    (outer(inner={"flag": True, "count": True}),
     "doc.inner.count must be an integer, got True"),
    (outer(inner={"flag": True, "count": 10.5}),
     "doc.inner.count must be an integer, got 10.5"),
    (outer(t=True), "doc.t must be a finite number, got True"),
    (outer(t="2"), "doc.t must be a finite number, got '2'"),
    (outer(t=math.nan), "doc.t must be a finite number, got nan"),
    (outer(t=10 ** 400), "doc.t must be a finite number"),
    (outer(label=5), "doc.label must be a string, got 5"),
    (outer(colour="green"), "doc.colour must be one of ['blue', 'red']"),
    (outer(sizes=[1, "2"]), "doc.sizes[1] must be an integer, got '2'"),
    (outer(sizes="12"), "doc.sizes: must be a list, got str"),
    (outer(items=[5]), "doc.items[0]: must be a JSON object, got int"),
    (outer(weights={"a": None}),
     "doc.weights['a'] must be a finite number, got None"),
    ([1], "doc: must be a JSON object, got list"),
])
def test_wrong_types_are_rejected_with_their_path(data, message):
    rejects(data, message)


def test_an_int_becomes_a_float_and_a_bool_stays_a_bool():
    value = decode(Outer, outer(t=3), "doc")
    assert value.when == 3.0 and isinstance(value.when, float)
    assert decode(Outer, outer(), "doc").inner.flag is True


def test_optional_takes_null_or_the_inner_type():
    assert decode(Outer, outer(label=None), "doc").label is None
    assert decode(Optional[Inner], None, "x") is None
    assert decode(Optional[Inner], {"flag": False}, "x") == Inner(False)
    with pytest.raises(ValueError, match=re.escape("x: must be a JSON object")):
        decode(Optional[Inner], 3, "x")


def test_a_fixed_tuple_takes_exactly_its_items():
    assert decode(Tuple[float, int], [1, 2], "x") == (1.0, 2)
    with pytest.raises(ValueError, match=re.escape("x: must have 2 items, got 3")):
        decode(Tuple[float, int], [1, 2, 3], "x")
    with pytest.raises(ValueError, match=re.escape("x[1] must be an integer")):
        decode(Tuple[float, int], [1, 2.5], "x")


def test_any_takes_every_json_value_as_is():
    payload = {"k": [1, None]}
    assert decode(Any, payload, "x") is payload
    assert decode(Dict[str, Any], {"a": payload}, "x") == {"a": payload}


def test_post_init_errors_carry_the_path():
    rejects(outer(t=-1.0), "doc: when must be >= 0")


def test_tagged_union_round_trips_and_rejects_an_unknown_tag():
    profile = DiurnalTemperature(mean_c=26.0, amplitude_c=8.0)
    data = encode(profile)
    assert data["profile"] == "diurnal"
    assert decode(TemperatureProfile, data, "t") == profile
    with pytest.raises(ValueError, match=re.escape(
            "t.profile must be one of ['constant', 'diurnal', 'ramp'], "
            "got 'volcanic'")):
        decode(TemperatureProfile, {"profile": "volcanic"}, "t")
    with pytest.raises(ValueError, match=re.escape("t.profile must be one of")):
        decode(TemperatureProfile, {"celsius_c": 20.0}, "t")
    with pytest.raises(ValueError, match=re.escape("t: unknown keys ['mean_c']")):
        decode(TemperatureProfile, {"profile": "constant", "mean_c": 1.0}, "t")


def test_a_type_without_a_rule_is_a_programming_error():
    with pytest.raises(TypeError, match="no rule"):
        decode(bytes, b"x", "x")


# -- round trip over the real file formats --------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-6, max_value=1e9)
fraction = st.floats(min_value=0.0, max_value=0.99)
names = st.text(min_size=1, max_size=12)

temperatures = st.one_of(
    st.none(),
    st.builds(ConstantTemperature, finite),
    st.builds(DiurnalTemperature, finite, finite, positive, finite),
    st.builds(RampTemperature, finite, finite, positive),
)

topologies = st.builds(
    TopologySpec,
    wireless=st.booleans(),
    ntp_correction=st.booleans(),
    monitor_active=st.booleans(),
    pool_size=st.integers(1, 64),
    include_falseticker=st.booleans(),
    initial_clock_offset_s=finite,
    wired_base_delay_s=positive,
    temperature=temperatures,
)

mntp_configs = st.builds(
    MntpConfig,
    warmup_period=positive,
    warmup_wait_time=positive,
    regular_wait_time=positive,
    reset_period=positive,
    thresholds=st.builds(HintThresholds, finite, finite, finite),
    min_warmup_samples=st.integers(2, 100),
    filter_gate_floor=st.floats(min_value=0.0, max_value=1e3),
    max_consecutive_rejections=st.integers(1, 1000),
    max_drift_correction_ppm=finite,
    hint_poll_interval=finite,
    query_timeout=finite,
    enable_hint_gate=st.booleans(),
    enable_filter=st.booleans(),
    enable_drift_correction=st.booleans(),
    enable_clock_correction=st.booleans(),
    reestimate_every_sample=st.booleans(),
    two_sided_rejection=st.booleans(),
    enable_step_recovery=st.booleans(),
    step_recovery_rejections=st.integers(2, 100),
    step_recovery_min_residual=positive,
    warmup_pools=st.lists(names, min_size=1, max_size=4).map(tuple),
    regular_source=names,
)

hardening_policies = st.builds(
    HardeningPolicy,
    backoff_base=positive,
    backoff_factor=st.floats(min_value=1.0, max_value=10.0),
    backoff_max=positive,
    jitter_frac=fraction,
    failover=st.booleans(),
    health_decay=fraction,
)

schedules = st.builds(
    FaultSchedule,
    episodes=st.lists(st.builds(
        FaultEpisode,
        kind=st.sampled_from(FaultKind),
        start=st.floats(min_value=0.0, max_value=1e6),
        duration=positive,
        target=names,
        direction=st.sampled_from(DIRECTIONS),
        params=st.dictionaries(names, finite, max_size=3),
    ), max_size=4),
    name=names,
)


@st.composite
def slo_specs(draw):
    """SloSpecs whose warn/violate pairs are ordered as the spec requires."""
    def pair():
        return sorted(draw(st.floats(min_value=0.0, max_value=1e4))
                      for _ in range(2))

    p99, drop, starvation, rate = pair(), pair(), pair(), pair()
    return SloSpec(
        window_s=draw(positive),
        eval_interval_s=draw(positive),
        min_samples=draw(st.integers(1, 100)),
        p99_abs_error_warn_ms=p99[0],
        p99_abs_error_violate_ms=p99[1],
        drop_rate_warn_ratio=drop[0],
        drop_rate_violate_ratio=drop[1],
        starvation_warn_s=starvation[0],
        starvation_violate_s=starvation[1],
        exchange_rate_warn_per_s=rate[1],
        exchange_rate_violate_per_s=rate[0],
        fault_grace_s=draw(st.floats(min_value=0.0, max_value=1e4)),
    )


@pytest.mark.parametrize("strategy", [
    topologies, mntp_configs, hardening_policies, schedules, slo_specs(),
], ids=["TopologySpec", "MntpConfig", "HardeningPolicy", "FaultSchedule",
        "SloSpec"])
@given(data=st.data())
def test_decode_inverts_encode_with_stable_bytes(strategy, data):
    value = data.draw(strategy)
    text = json.dumps(encode(value), sort_keys=True)
    again = decode(type(value), json.loads(text), "x")
    assert again == value
    assert json.dumps(encode(again), sort_keys=True) == text
