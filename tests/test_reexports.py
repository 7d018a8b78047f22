"""Lazy package re-exports keep the public surface whole.

``repro``, ``repro.core``, ``repro.metrics``, ``repro.obs``,
``repro.testbed``, ``repro.tuner`` and ``repro.wireless`` resolve their re-exports on
first use (PEP 562).  Every name in ``__all__`` must still be the
object its home module defines, be listed by ``dir()``, survive a star
import, and an unknown name must still raise ``AttributeError``.  The
eagerly re-exporting packages export exactly the names that have
callers.
"""

import importlib

import pytest

LAZY_PACKAGES = (
    "repro", "repro.core", "repro.metrics", "repro.obs", "repro.testbed",
    "repro.tuner", "repro.wireless",
)

#: ``__all__`` of the eagerly re-exporting packages: only names that a
#: figure, bench, example, CLI command or other module uses.
EAGER_EXPORTS = {
    "repro.ntp": [
        "LeapIndicator", "Mode", "NTP_PORT", "NTP_UNIX_EPOCH_DELTA",
        "ntp_to_unix", "unix_to_ntp", "encode_timestamp", "decode_timestamp",
        "encode_short", "decode_short", "NtpPacket", "compute_offset_delay",
        "OffsetSample", "NtpServer", "ServerPersona", "SntpClient",
        "SntpResult", "ClockFilter", "FilterSample", "intersection",
        "SelectInterval", "cluster_survivors", "ClockDiscipline",
        "DisciplineParams", "PoolDns",
    ],
    "repro.simcore": [
        "Event", "Simulator", "RngRegistry", "TraceRecord", "TraceLog",
    ],
    "repro.cellular": [
        "RadioAccessNetwork", "RanParams", "RrcState", "CellularExperiment",
        "CellularOptions", "GpsTimeSync",
    ],
    "repro.logs": [
        "Provider", "PROVIDERS", "top_providers", "AsnDatabase", "AsnRecord",
        "ServerDescriptor", "TABLE1_SERVERS", "TraceGenerator",
        "GeneratorOptions", "parse_trace", "ClientObservation",
        "filter_synchronized_clients", "classify_provider_kind",
        "classify_protocol_share", "LogStudy", "ServerSummary",
        "ProviderLatency",
    ],
}


def _package(name):
    return importlib.import_module(name)


def _lazy_names(pkg):
    return [name for names in pkg._HOMES.values() for name in names]


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_table_covers_all_exactly(name):
    pkg = _package(name)
    lazy = _lazy_names(pkg)
    assert len(lazy) == len(set(lazy))
    eager = {"__version__"} if name == "repro" else set()
    assert set(lazy) | eager == set(pkg.__all__)


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_every_export_is_its_home_modules_object(name):
    pkg = _package(name)
    for home, names in pkg._HOMES.items():
        module = importlib.import_module(home)
        for export in names:
            value = getattr(pkg, export)
            assert value is getattr(module, export), f"{name}.{export}"
            # Classes and functions must be defined there, not re-exported.
            assert getattr(value, "__module__", home) == home, f"{name}.{export}"
            # First use caches the value: later lookups skip __getattr__.
            assert vars(pkg)[export] is value


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_dir_lists_every_export(name):
    pkg = _package(name)
    missing = set(pkg.__all__) - set(dir(pkg))
    assert not missing


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_star_import_binds_every_export(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    pkg = _package(name)
    for export in pkg.__all__:
        assert namespace[export] is getattr(pkg, export)


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_unknown_name_raises_attribute_error(name):
    pkg = _package(name)
    with pytest.raises(AttributeError, match="no_such_export"):
        getattr(pkg, "no_such_export")
    assert not hasattr(pkg, "no_such_export")


def test_submodule_import_through_the_package_still_works():
    from repro.testbed import matrix
    from repro.testbed.matrix import run_matrix

    assert matrix.run_matrix is run_matrix


def test_scenario_listing_keeps_its_spec_module_names():
    from repro.testbed import catalog, specs

    assert specs.scenario_names is catalog.scenario_names
    assert specs.iter_spec_files is catalog.iter_spec_files
    assert specs.SCENARIO_DIR == catalog.SCENARIO_DIR


@pytest.mark.parametrize("name", sorted(EAGER_EXPORTS))
def test_eager_package_exports_exactly_the_live_names(name):
    pkg = _package(name)
    assert pkg.__all__ == EAGER_EXPORTS[name]
    for export in pkg.__all__:
        assert hasattr(pkg, export), f"{name}.{export}"
