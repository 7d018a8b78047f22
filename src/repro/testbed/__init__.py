"""Laboratory testbed simulation (§3.2 of the paper).

Recreates the three-node testbed: a programmable wireless access point
(WAP), a target node (TN) running the time-sync clients, and a monitor
node (MN) that degrades the channel via cross-traffic and tx-power
commands, closing the loop on ping statistics reported by the TN.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Testbed",
    "TestbedOptions",
    "MonitorNode",
    "MonitorParams",
    "PingTool",
    "PingStats",
    "ExperimentRunner",
    "ExperimentResult",
    "OffsetPoint",
    "run_scenario",
    "scenario_names",
    "ScenarioSpec",
    "TopologySpec",
    "load_spec",
    "load_spec_dir",
    "run_spec",
    "save_spec",
    "MatrixOptions",
    "run_matrix",
    "CalibrationReport",
    "run_calibration",
    "load_result",
    "save_result",
]

# Re-exports resolve on first use: a scenario run never imports the
# matrix runner, the calibration check or the archive format.
_HOMES = {
    "repro.testbed.nodes": ("Testbed", "TestbedOptions"),
    "repro.testbed.monitor": ("MonitorNode", "MonitorParams"),
    "repro.testbed.pingtool": ("PingTool", "PingStats"),
    "repro.testbed.experiment": (
        "ExperimentRunner", "ExperimentResult", "OffsetPoint",
    ),
    "repro.testbed.specs": (
        "ScenarioSpec",
        "TopologySpec",
        "load_spec",
        "load_spec_dir",
        "run_scenario",
        "run_spec",
        "save_spec",
    ),
    "repro.testbed.catalog": ("scenario_names",),
    "repro.testbed.matrix": ("MatrixOptions", "run_matrix"),
    "repro.testbed.calibration": ("CalibrationReport", "run_calibration"),
    "repro.testbed.persistence": ("load_result", "save_result"),
}

__getattr__, __dir__ = lazy_exports(globals(), _HOMES)
