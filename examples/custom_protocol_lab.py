#!/usr/bin/env python3
"""Build-your-own experiment: wiring the pieces by hand.

Shows the library's lower-level API — constructing the simulator,
testbed, MNTP instance, and a custom measurement loop directly instead
of loading a scenario spec from ``scenarios/``.  The scenario here is
an MNTP variant with tightened hint thresholds and a
false-ticker-contaminated pool, demonstrating both the channel gate
and the warm-up rejection.

Usage::

    python examples/custom_protocol_lab.py [seed]
"""

import sys

from repro.clock.discipline_api import ClockCorrector
from repro.core.config import HintThresholds, MntpConfig
from repro.core.protocol import Mntp
from repro.core.events import MntpEventKind
from repro.simcore.simulator import Simulator
from repro.testbed.nodes import Testbed, TestbedOptions


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    sim = Simulator(seed=seed)
    testbed = Testbed(
        sim,
        TestbedOptions(
            wireless=True,
            ntp_correction=False,     # free-running laptop clock
            include_falseticker=True,  # one liar in every pool
        ),
    )

    config = MntpConfig(
        warmup_period=600.0,          # 10 min warm-up
        warmup_wait_time=10.0,
        regular_wait_time=60.0,
        reset_period=7200.0,
        thresholds=HintThresholds(    # stricter than the paper's gate
            min_rssi_dbm=-70.0,
            max_noise_dbm=-75.0,
            min_snr_margin_db=25.0,
        ),
    )
    mntp = Mntp(
        sim=sim,
        client=testbed.mntp_app,
        hints=testbed.hints,
        corrector=ClockCorrector(testbed.tn_clock),
        config=config,
    )

    testbed.start_background()
    mntp.start()
    print("Simulating 2 hours of MNTP with a strict gate and lying servers...")
    sim.run_until(7200.0)
    mntp.stop()
    testbed.stop_background()

    accepted = mntp.accepted_offsets()
    rejected = mntp.rejected_offsets()
    false_tickers = sim.trace.select(component="mntp",
                                     kind=MntpEventKind.FALSE_TICKER.value)
    deferred = sim.trace.select(component="mntp",
                                kind=MntpEventKind.DEFERRED.value)
    corrected = sim.trace.select(component="mntp",
                                 kind=MntpEventKind.CLOCK_CORRECTED.value)

    print()
    print(f"accepted offsets      : {len(accepted)}")
    print(f"filter rejections     : {len(rejected)}")
    print(f"false-ticker verdicts : {len(false_tickers)} "
          f"(sources: {sorted({r.data['source'] for r in false_tickers})})")
    print(f"gate deferrals        : {len(deferred)}")
    print(f"clock corrections     : {len(corrected)}")
    print(f"drift estimate        : "
          f"{(mntp.drift_estimate or 0) * 1e6:+.1f} ppm (offset slope)")
    print(f"final clock offset    : "
          f"{testbed.tn_clock.true_offset() * 1000:+.1f} ms "
          f"(free-running clock, MNTP-corrected)")


if __name__ == "__main__":
    main()
