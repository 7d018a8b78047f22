"""Laboratory testbed simulation (§3.2 of the paper).

Recreates the three-node testbed: a programmable wireless access point
(WAP), a target node (TN) running the time-sync clients, and a monitor
node (MN) that degrades the channel via cross-traffic and tx-power
commands, closing the loop on ping statistics reported by the TN.
"""

from repro.testbed.nodes import Testbed, TestbedOptions
from repro.testbed.monitor import MonitorNode, MonitorParams
from repro.testbed.pingtool import PingTool, PingStats
from repro.testbed.experiment import ExperimentRunner, ExperimentResult, OffsetPoint
from repro.testbed.specs import (
    ScenarioSpec,
    TopologySpec,
    load_spec,
    load_spec_dir,
    run_scenario,
    run_spec,
    save_spec,
    scenario_names,
)
from repro.testbed.matrix import MatrixOptions, run_matrix
from repro.testbed.calibration import CalibrationReport, run_calibration
from repro.testbed.persistence import load_result, save_result

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
