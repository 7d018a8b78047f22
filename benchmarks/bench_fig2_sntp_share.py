"""Figure 2 — % of clients using SNTP vs NTP.

Left panel: per-server shares across all 19 servers.  Right panel:
per-provider shares at SU1 for the top 25 providers.  Headline: >95 %
of mobile-provider clients use SNTP; the ISP-internal servers (CI1-4,
EN1-2) are the NTP-dominated exceptions.
"""

from repro.logs.analysis import LogStudy
from repro.logs.generator import GeneratorOptions
from repro.reporting.tables import render_table

SEED = 13
OPTIONS = GeneratorOptions(scale=2.5e-4, min_clients=120, max_clients=500,
                           max_requests_per_client=25)


def bench_fig2_sntp_share(once, report):
    def run():
        study = LogStudy(seed=SEED, options=OPTIONS)
        study.run()
        return study

    study = once(run)

    per_server = study.figure2_per_server()
    server_rows = []
    for server_id, (sntp, ntp) in per_server.items():
        total = sntp + ntp
        server_rows.append(
            [server_id, total, f"{sntp / total * 100:.1f}",
             f"{ntp / total * 100:.1f}"]
        )
    left = render_table(["server", "clients", "% SNTP", "% NTP"], server_rows)

    per_provider = study.figure2_per_provider("SU1")
    provider_rows = []
    for name, (sntp, ntp) in sorted(per_provider.items()):
        total = sntp + ntp
        provider_rows.append(
            [name, total, f"{sntp / total * 100:.1f}", f"{ntp / total * 100:.1f}"]
        )
    right = render_table(["provider (SU1)", "clients", "% SNTP", "% NTP"],
                         provider_rows)
    mobile_share = study.mobile_sntp_share("SU1")
    # The per-server sample is small at this subsampling scale; pool the
    # mobile share over the largest public servers for a tight estimate
    # of the >95% headline.
    pooled_sntp = pooled_total = 0
    for server_id in ("AG1", "MW2", "MW3", "MW4", "MI1", "SU1"):
        for name, (sntp, ntp) in study.figure2_per_provider(server_id).items():
            if "mobile" in name.lower() or "wireless" in name.lower()                     or "cell" in name.lower():
                pooled_sntp += sntp
                pooled_total += sntp + ntp
    pooled_share = pooled_sntp / pooled_total
    report(
        "FIGURE 2 — SNTP vs NTP protocol shares\n\n"
        "-- left: per server --\n" + left + "\n\n"
        "-- right: per provider at SU1 --\n" + right + "\n\n"
        f"mobile-provider SNTP share at SU1: {mobile_share * 100:.1f}%; "
        f"pooled over six large servers: {pooled_share * 100:.1f}% "
        "(paper: >95%)"
    )

    # Shape assertions.
    isp_specific = {"CI1", "CI2", "CI3", "CI4", "EN1", "EN2"}
    for server_id, (sntp, ntp) in per_server.items():
        share = sntp / (sntp + ntp)
        if server_id in isp_specific:
            assert share < 0.5, f"{server_id} should be NTP-dominated"
        else:
            assert share > 0.5, f"{server_id} should be SNTP-dominated"
    assert mobile_share > 0.88  # single-server sample is small
    assert pooled_share > 0.95  # the paper's headline, on the pooled sample
