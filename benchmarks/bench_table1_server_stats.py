"""Table 1 — summary of client statistics seen in the NTP logs.

Regenerates the per-server client statistics from synthetic pcap traces
(subsampled populations; published counts shown beside generated).
"""

from repro.logs.analysis import LogStudy
from repro.logs.generator import GeneratorOptions
from repro.reporting.tables import render_table

SEED = 11
#: Subsampling keeps the full 19-server study to a few seconds.
OPTIONS = GeneratorOptions(scale=1e-4, min_clients=40, max_clients=300,
                           max_requests_per_client=30)


def bench_table1_server_stats(once, report):
    def run():
        study = LogStudy(seed=SEED, options=OPTIONS)
        study.run()
        return study

    study = once(run)
    rows = study.table1()

    table = render_table(
        ["Server", "Stratum", "IP", "Published clients", "Published meas",
         "Gen clients", "Gen meas", "Synced", "SNTP clients", "NTP clients"],
        [
            [r.server_id, r.stratum, r.ip_versions,
             f"{r.published_clients:,}", f"{r.published_measurements:,}",
             r.generated_clients, r.generated_measurements,
             r.synchronized_clients, r.sntp_clients, r.ntp_clients]
            for r in rows
        ],
    )
    report("TABLE 1 — per-server client statistics (generated vs published)\n"
           + table)

    assert len(rows) == 19
    total_published = sum(r.published_measurements for r in rows)
    assert total_published == 209_447_922
    for r in rows:
        assert r.generated_clients > 0
        assert r.generated_measurements >= r.generated_clients
        assert 0 < r.synchronized_clients <= r.generated_clients
    # ISP-specific servers are NTP-dominated; public ones SNTP-dominated.
    by_id = {r.server_id: r for r in rows}
    assert by_id["CI1"].sntp_share < 0.3
    assert by_id["AG1"].sntp_share > 0.5
