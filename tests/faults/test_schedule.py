"""FaultSchedule / FaultEpisode semantics and JSON round-tripping."""

import json

import pytest

from repro.faults.schedule import (
    DIRECTIONS,
    FaultEpisode,
    FaultKind,
    FaultSchedule,
    NETWORK_KINDS,
    SERVER_KINDS,
)


def test_episode_active_window_is_half_open():
    ep = FaultEpisode(FaultKind.BLACKOUT, start=10.0, duration=5.0)
    assert ep.end == 15.0
    assert not ep.active(9.999)
    assert ep.active(10.0)
    assert ep.active(14.999)
    assert not ep.active(15.0)


def test_episode_validation():
    with pytest.raises(ValueError):
        FaultEpisode(FaultKind.BLACKOUT, start=-1.0, duration=5.0)
    with pytest.raises(ValueError):
        FaultEpisode(FaultKind.BLACKOUT, start=0.0, duration=0.0)
    with pytest.raises(ValueError):
        FaultEpisode(FaultKind.BLACKOUT, start=0.0, duration=5.0,
                     direction="sideways")
    with pytest.raises(ValueError):
        FaultEpisode(FaultKind.DELAY_SURGE, start=0.0, duration=5.0,
                     params={"delay_s": "much"})


def test_target_matching_covers_pool_members():
    wild = FaultEpisode(FaultKind.BLACKOUT, start=0.0, duration=1.0)
    assert wild.matches("0.pool.ntp.org#2")
    pinned = FaultEpisode(FaultKind.SERVER_STEP, start=0.0, duration=1.0,
                          target="0.pool.ntp.org")
    assert pinned.matches("0.pool.ntp.org")
    assert pinned.matches("0.pool.ntp.org#3")
    assert not pinned.matches("1.pool.ntp.org#0")
    assert not pinned.matches("0.pool.ntp.organ")


def test_direction_filter():
    down_only = FaultEpisode(FaultKind.DELAY_SURGE, start=0.0, duration=1.0,
                             direction="down")
    assert down_only.affects_direction("down")
    assert not down_only.affects_direction("up")
    both = FaultEpisode(FaultKind.DELAY_SURGE, start=0.0, duration=1.0)
    assert all(both.affects_direction(d) for d in ("up", "down"))
    assert set(DIRECTIONS) == {"up", "down", "both"}


def test_kind_families_partition():
    assert NETWORK_KINDS.isdisjoint(SERVER_KINDS)
    assert FaultKind.SUSPEND not in NETWORK_KINDS | SERVER_KINDS


def test_schedule_active_and_horizon():
    schedule = FaultSchedule(episodes=[
        FaultEpisode(FaultKind.BLACKOUT, start=0.0, duration=10.0),
        FaultEpisode(FaultKind.SERVER_STEP, start=5.0, duration=10.0),
    ])
    assert len(schedule.active(7.0)) == 2
    assert [e.kind for e in schedule.active(12.0)] == [FaultKind.SERVER_STEP]
    assert schedule.active(7.0, kinds=NETWORK_KINDS)[0].kind is FaultKind.BLACKOUT
    assert schedule.horizon() == 15.0


def test_json_round_trip_is_lossless_and_stable():
    schedule = FaultSchedule(
        name="rt",
        episodes=[
            FaultEpisode(FaultKind.DELAY_SURGE, start=1.0, duration=2.0,
                         target="x", direction="down",
                         params={"delay_s": 0.25, "a": 1.0}),
            FaultEpisode(FaultKind.SUSPEND, start=3.0, duration=4.0,
                         target="tn"),
        ],
    )
    text = json.dumps(schedule.to_dict(), sort_keys=True)
    again = FaultSchedule.from_dict(json.loads(text))
    assert again == schedule
    assert json.dumps(again.to_dict(), sort_keys=True) == text  # byte-stable
    with pytest.raises(ValueError):
        FaultSchedule.from_dict({"episodes": [{"kind": "nope", "start": 0, "duration": 1}]})


@pytest.mark.parametrize("data,message", [
    ([], r"^faults: must be a JSON object, got list"),
    ({"name": "x", "epsiodes": []}, r"^faults: unknown keys \['epsiodes'\]"),
    ({"episodes": {}}, r"^faults.episodes: must be a list, got dict"),
    ({"episodes": [5]}, r"^faults.episodes\[0\]: must be a JSON object, got int"),
    ({"episodes": [{"kind": "blackout", "start": 0, "duration": 1, "strt": 1}]},
     r"^faults.episodes\[0\]: unknown keys \['strt'\]"),
    ({"episodes": [{"kind": "blackout", "duration": 1}]},
     r"^faults.episodes\[0\]: missing keys \['start'\]"),
    ({"episodes": [{"kind": "blackout", "start": None, "duration": 1}]},
     r"^faults.episodes\[0\].start must be a finite number, got None"),
    ({"episodes": [{"kind": "blackout", "start": 0, "duration": 1, "params": [1]}]},
     r"^faults.episodes\[0\].params: must be a JSON object, got list"),
])
def test_from_dict_is_strict_and_names_the_path(data, message):
    with pytest.raises(ValueError, match=message):
        FaultSchedule.from_dict(data)
