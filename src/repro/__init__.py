"""repro — a reproduction of "MNTP: Enhancing Time Synchronization for
Mobile Devices" (Mani, Durairajan, Barford, Sommers — IMC 2016).

The package implements the paper's contribution (the MNTP protocol) and
every substrate it depends on — a discrete-event simulator, clock and
oscillator models, a wireless channel, the NTP/SNTP wire protocol with
the full reference filtering pipeline, the laboratory testbed, a 4G
substrate, a pcap-based NTP server log study, and the MNTP tuner.

Quickstart::

    from repro.testbed.specs import run_scenario

    result = run_scenario("mntp_wireless_corrected", seed=1)
    print(result.sntp_error_stats())   # unmodified SNTP
    print(result.mntp_error_stats())   # MNTP
    print(f"{result.improvement_factor():.1f}x better")

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

__version__ = "1.0.0"
