"""UNIT001/UNIT002/UNIT003: suffix units and NTP fixed-point mixing."""

from repro.analysis.engine import check_source

MODULE = "repro.core.filter"


def rules_for(src):
    return sorted({f.rule for f in check_source(src, module=MODULE)})


# -- UNIT001: mixed-unit arithmetic -------------------------------------

def test_adding_seconds_to_milliseconds_flagged():
    assert rules_for("total = delay_s + jitter_ms\n") == ["UNIT001"]


def test_subtracting_microseconds_from_nanoseconds_flagged():
    assert rules_for("gap = t1_ns - t0_us\n") == ["UNIT001"]


def test_same_unit_arithmetic_clean():
    assert rules_for("total_s = delay_s + jitter_s\n") == []


def test_multiplication_and_division_exempt_as_conversions():
    assert rules_for("delay_ms = delay_s * 1000.0\nrate = x_ms / span_s\n") == []


def test_augmented_assignment_mixing_units_flagged():
    assert rules_for("acc_s += step_ms\n") == ["UNIT001"]


def test_attribute_suffixes_participate():
    assert rules_for("d = cfg.warmup_s - sample.age_ms\n") == ["UNIT001"]


def test_unsuffixed_names_do_not_participate():
    assert rules_for("total = duration + jitter_ms\n") == []


# -- UNIT002: mixed-unit comparisons ------------------------------------

def test_comparing_seconds_to_milliseconds_flagged():
    assert rules_for("ok = timeout_s > limit_ms\n") == ["UNIT002"]


def test_chained_comparison_checked_pairwise():
    assert rules_for("ok = lo_s < x_s < hi_ms\n") == ["UNIT002"]


def test_same_unit_comparison_clean():
    assert rules_for("ok = timeout_ms > limit_ms\n") == []


# -- UNIT003: NTP fixed-point vs float ----------------------------------

def test_wire_bytes_compared_to_float_flagged():
    src = "bad = encode_timestamp(t) == deadline_s\n"
    assert "UNIT003" in rules_for(src)


def test_wire_bytes_plus_numeric_literal_flagged():
    assert rules_for("bad = encode_short(d) == 5\n") == ["UNIT003"]


def test_decode_seconds_compared_to_milliseconds_flagged():
    src = "bad = decode_timestamp(data) > wait_ms\n"
    assert "UNIT003" in rules_for(src)


def test_decode_seconds_compared_to_seconds_clean():
    assert rules_for("ok = decode_timestamp(data) > wait_s\n") == []


def test_wire_bytes_compared_to_wire_bytes_clean():
    assert rules_for("ok = encode_timestamp(a) == encode_timestamp(b)\n") == []


def test_wire_bytes_compared_to_plain_name_clean():
    # A bare name with no unit suffix may legitimately hold bytes.
    assert rules_for("ok = encode_timestamp(a) == reference\n") == []
