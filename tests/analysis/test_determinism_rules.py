"""DET001/DET002/DET003: wall clock, stdlib random, numpy global RNG."""

from repro.analysis.engine import check_source


def rules_for(src, module):
    return sorted({f.rule for f in check_source(src, module=module)})


# -- DET001: wall-clock reads in simulation packages ---------------------

def test_time_time_flagged_in_simcore():
    src = "import time\n\n\ndef f():\n    return time.time()\n"
    assert rules_for(src, "repro.simcore.simulator") == ["DET001"]


def test_time_sleep_flagged_via_from_import():
    src = "from time import sleep\n\n\ndef f():\n    sleep(0.1)\n"
    assert rules_for(src, "repro.ntp.sntp_client") == ["DET001"]


def test_aliased_monotonic_flagged():
    src = "import time as t\n\n\ndef f():\n    return t.monotonic()\n"
    assert rules_for(src, "repro.clock.oscillator") == ["DET001"]


def test_datetime_now_flagged():
    src = (
        "from datetime import datetime\n\n\ndef f():\n"
        "    return datetime.now()\n"
    )
    assert rules_for(src, "repro.wireless.channel") == ["DET001"]


def test_wall_clock_allowed_outside_simulation_packages():
    src = "import time\n\n\ndef f():\n    return time.time()\n"
    assert rules_for(src, "repro.testbed.wallclock") == []
    assert rules_for(src, "scratch") == []


def test_virtual_time_is_clean():
    src = "def f(sim):\n    return sim.now + 5.0\n"
    assert rules_for(src, "repro.simcore.simulator") == []


# -- DET002: stdlib random ----------------------------------------------

def test_stdlib_random_call_flagged_everywhere():
    src = "import random\n\n\ndef f():\n    return random.gauss(0.0, 1.0)\n"
    assert rules_for(src, "repro.tuner.search") == ["DET002"]
    assert rules_for(src, "repro.simcore.simulator") == ["DET002"]


def test_stdlib_random_from_import_flagged():
    src = "from random import choice\n\n\ndef f(xs):\n    return choice(xs)\n"
    assert rules_for(src, "repro.logs.generator") == ["DET002"]


def test_rng_registry_module_exempt_from_random_rules():
    src = "import random\n\n\ndef f():\n    return random.random()\n"
    assert rules_for(src, "repro.simcore.random") == []


def test_generator_method_named_random_is_clean():
    src = "def f(rng):\n    return rng.random()\n"
    assert rules_for(src, "repro.wireless.channel") == []


# -- DET003: numpy global RNG -------------------------------------------

def test_unseeded_default_rng_flagged():
    src = (
        "import numpy as np\n\n\ndef f():\n"
        "    return np.random.default_rng()\n"
    )
    assert rules_for(src, "repro.metrics.stats") == ["DET003"]


def test_seeded_default_rng_allowed():
    src = (
        "import numpy as np\n\n\ndef f(seed):\n"
        "    return np.random.default_rng(seed)\n"
    )
    assert rules_for(src, "repro.metrics.stats") == []


def test_numpy_global_state_calls_flagged():
    src = "import numpy as np\n\n\ndef f():\n    np.random.seed(0)\n"
    assert rules_for(src, "repro.tuner.search") == ["DET003"]
    src = "import numpy\n\n\ndef f():\n    return numpy.random.normal()\n"
    assert rules_for(src, "repro.tuner.search") == ["DET003"]


def test_generator_instance_normal_is_clean():
    src = "def f(rng):\n    return rng.normal(0.0, 1.0)\n"
    assert rules_for(src, "repro.wireless.channel") == []
