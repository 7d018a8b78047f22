#!/usr/bin/env python3
"""The §3.1 NTP-server log study, end to end.

Generates synthetic one-day pcap traces for three of the paper's 19 NTP
servers (AG1, JW2, SU1 — the three shown in Figure 1), runs the
dissect -> filter -> classify pipeline on the raw bytes, and prints:

* the Table-1-style per-server summary,
* per-category median min-OWDs (Figure 1's headline),
* SNTP/NTP shares per server and the pooled mobile share (Figure 2).

Usage::

    python examples/log_study.py [seed]
"""

import sys

from repro.logs.analysis import LogStudy
from repro.logs.generator import GeneratorOptions
from repro.logs.servers import server_by_id
from repro.reporting.tables import render_table


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    servers = [server_by_id(s) for s in ("AG1", "JW2", "SU1")]
    study = LogStudy(
        seed=seed,
        options=GeneratorOptions(scale=3e-4, min_clients=150, max_clients=400),
        servers=servers,
    )
    study.run()

    rows = []
    for r in study.table1():
        rows.append([
            r.server_id, r.stratum, r.ip_versions,
            f"{r.published_clients:,}", r.generated_clients,
            r.generated_measurements, r.synchronized_clients,
            f"{r.sntp_share * 100:.0f}%",
        ])
    print("Per-server summary (generated subsample beside published):")
    print(render_table(
        ["server", "stratum", "ipv", "published clients", "gen clients",
         "gen meas", "synced", "SNTP share"],
        rows,
    ))

    print("\nMedian min-OWD per provider category (paper: cloud ~40 ms, "
          "ISP ~50 ms, broadband ~250 ms, mobile ~550 ms):")
    for server in ("AG1", "JW2", "SU1"):
        medians = study.category_medians(server)
        line = "  ".join(
            f"{cat}={medians.get(cat, 0) * 1000:5.0f}ms"
            for cat in ("cloud", "isp", "broadband", "mobile")
        )
        print(f"  {server}: {line}")

    print("\nSNTP vs NTP clients per server (paper Fig. 2):")
    for server, (sntp, ntp) in study.figure2_per_server().items():
        total = sntp + ntp
        print(f"  {server}: {sntp / total * 100:5.1f}% SNTP "
              f"({sntp}/{total} clients)")
    print(f"\nMobile-provider SNTP share at SU1: "
          f"{study.mobile_sntp_share('SU1') * 100:.1f}% (paper: >95%)")


if __name__ == "__main__":
    main()
