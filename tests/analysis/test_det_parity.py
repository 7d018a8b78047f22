"""DET001-DET004 output pinned over every position a call can sit in.

One fixture module puts wall-clock and global-RNG calls in every place
Python evaluates an expression: bodies, defaults, decorators,
annotations, class bases and keywords, class bodies, lambdas and
comprehensions, reached through aliased imports.  It is analysed in
the four scopes the rules tell apart (a simulation package, a
non-simulation package, the tests tree and ``RngRegistry``'s own
module), and the exact ``(path, rule, line, col, message)`` tuples are
pinned.  A second tree pins how ``noqa[DET001]``, ``noqa[DET004]``
and a bare ``noqa`` on an effect line act on the direct rules and on
DET004 chains through it.
"""

from pathlib import Path

from repro.analysis.engine import Engine

POSITIONS = '''\
"""Effect calls in every position the DET rules reach."""
import time
import random
import numpy as np
import numpy.random as npr
from time import perf_counter as pc
from numpy.random import default_rng
from datetime import datetime


def deco(arg):
    return lambda fn: fn


@deco(time.time())
def top(a=time.monotonic(), *, b=random.random(), c: pc() = npr.rand()) -> pc():
    return a + time.sleep(0)


def nested_host():
    @deco(time.time_ns())
    def inner(x=pc(), y: npr.seed(1) = 2) -> time.sleep(0):
        return datetime.now()

    fn = lambda z=random.randint(0, 9): z + npr.randn()
    vals = [time.perf_counter_ns() for _ in range(3)]
    table = {k: npr.random() for k in range(2)}

    class Local(np.random.sample()):
        when = time.process_time_ns()

    return inner, fn, vals, table, Local


class Base:
    pass


@deco(random.seed(0))
class Model(Base if time.time() else object, flag=npr.randint(3)):
    stamp = time.monotonic_ns()
    rate: float = npr.uniform()
    hint: pc() = 1.0

    @deco(time.process_time())
    def method(self, d=np.random.normal(), e=default_rng(), f=default_rng(7)):
        return npr.choice([1, 2])


def suppressed():
    a = time.time()  # repro: noqa[DET001] pinned host stamp
    b = random.random()  # repro: noqa[DET004] chains only
    c = npr.rand()  # repro: noqa
    return a, b, c


VAL = np.random.default_rng()
SEEDED = np.random.default_rng(seed=3)
WHEN = datetime.utcnow()
'''

SCOPES = (
    "repro/simcore/positions.py",
    "repro/tuner/positions.py",
    "tests/test_positions.py",
    "repro/simcore/random.py",
)


def _pinned(tmp_path, files, rules):
    for relpath, text in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
    result = Engine(select=rules).check_paths(
        [tmp_path], reference_roots=[]
    )
    assert result.errors == []
    return [
        (Path(f.path).relative_to(tmp_path).as_posix(), f.rule, f.line,
         f.col, f.message)
        for f in result.findings
    ]


def _wall(path, line, col, dotted, where):
    return (path, "DET001", line, col,
            f"wall-clock call {dotted}() inside {where}; "
            "use the simulator's virtual time")


def _stdlib(path, line, col, dotted):
    return (path, "DET002", line, col,
            f"stdlib random call {dotted}() uses hidden global state; "
            "use RngRegistry.stream(name) instead")


def _numpy(path, line, col, dotted):
    return (path, "DET003", line, col,
            f"numpy global-state RNG call {dotted}(); "
            "use a Generator from RngRegistry.stream(name)")


def _unseeded(path, line, col):
    return (path, "DET003", line, col,
            "unseeded numpy.random.default_rng() draws OS entropy; "
            "seed it from an RngRegistry stream")


def _wall_sites(path, where):
    return [
        _wall(path, line, col, dotted, where)
        for line, col, dotted in (
            (15, 7, "time.time"),
            (16, 11, "time.monotonic"),
            (16, 54, "time.perf_counter"),
            (16, 76, "time.perf_counter"),
            (17, 16, "time.sleep"),
            (21, 11, "time.time_ns"),
            (22, 17, "time.perf_counter"),
            (22, 46, "time.sleep"),
            (23, 16, "datetime.datetime.now"),
            (26, 13, "time.perf_counter_ns"),
            (30, 16, "time.process_time_ns"),
            (40, 21, "time.time"),
            (41, 13, "time.monotonic_ns"),
            (43, 11, "time.perf_counter"),
            (45, 11, "time.process_time"),
            (59, 8, "datetime.datetime.utcnow"),
        )
    ]


def _rng_sites(path):
    return [
        _stdlib(path, 16, 34, "random.random"),
        _numpy(path, 16, 61, "numpy.random.rand"),
        _numpy(path, 22, 26, "numpy.random.seed"),
        _stdlib(path, 25, 19, "random.randint"),
        _numpy(path, 25, 45, "numpy.random.randn"),
        _numpy(path, 27, 17, "numpy.random.random"),
        _numpy(path, 29, 17, "numpy.random.sample"),
        _stdlib(path, 39, 7, "random.seed"),
        _numpy(path, 40, 51, "numpy.random.randint"),
        _numpy(path, 42, 19, "numpy.random.uniform"),
        _numpy(path, 46, 24, "numpy.random.normal"),
        _unseeded(path, 46, 46),
        _numpy(path, 47, 16, "numpy.random.choice"),
        _stdlib(path, 52, 9, "random.random"),
        _unseeded(path, 57, 7),
    ]


def _by_anchor(rows):
    return sorted(rows, key=lambda r: (r[0], r[2], r[3], r[1]))


def test_det001_to_det003_in_every_position_and_scope(tmp_path):
    sim, host, tests, home = SCOPES
    found = _pinned(
        tmp_path, {path: POSITIONS for path in SCOPES},
        ["DET001", "DET002", "DET003"],
    )
    expected = (
        _wall_sites(sim, "simulation package 'simcore'")
        + _rng_sites(sim)
        + _rng_sites(host)
        + _wall_sites(tests, "the tests tree")
        + _rng_sites(tests)
        + _wall_sites(home, "simulation package 'simcore'")
    )
    assert found == _by_anchor(expected)


CHAINS = {
    "repro/reporting/stamps.py": (
        "import random\n"
        "import time\n"
        "\n"
        "\n"
        "def pinned():\n"
        "    return time.time()  # repro: noqa[DET001] host stamp\n"
        "\n"
        "\n"
        "def chain_only():\n"
        "    return random.random()  # repro: noqa[DET004] chains only\n"
        "\n"
        "\n"
        "def bare():\n"
        "    return time.monotonic()  # repro: noqa\n"
        "\n"
        "\n"
        "def loud():\n"
        "    return time.perf_counter()\n"
    ),
    "repro/simcore/chains.py": (
        "import time\n"
        "\n"
        "from repro.reporting.stamps import bare, chain_only, loud, pinned\n"
        "\n"
        "\n"
        "def local():\n"
        "    return time.time()  # repro: noqa[DET004] direct still reports\n"
        "\n"
        "\n"
        "def step():\n"
        "    return pinned(), chain_only(), bare(), loud(), local()\n"
    ),
}


def test_noqa_on_an_effect_line_splits_direct_and_chain_reports(tmp_path):
    found = _pinned(
        tmp_path, CHAINS, ["DET001", "DET002", "DET003", "DET004"]
    )
    assert found == [
        _stdlib("repro/reporting/stamps.py", 10, 12, "random.random"),
        _wall("repro/simcore/chains.py", 7, 12, "time.time",
              "simulation package 'simcore'"),
        ("repro/simcore/chains.py", "DET004", 11, 44,
         "'repro.simcore.chains.step' transitively reaches wall-clock "
         "call time.perf_counter() via repro.reporting.stamps.loud; "
         "simulated code must stay deterministic"),
    ]
