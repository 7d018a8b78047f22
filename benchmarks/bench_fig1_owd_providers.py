"""Figure 1 — minimum OWDs per service provider (box + CDF panels).

Regenerates the per-provider min-OWD distributions for the three
servers the paper plots (AG1, JW2, SU1): medians and IQRs per SP rank
(left panels) and CDF quantiles per category (right panels).
"""

from repro.logs.analysis import LogStudy
from repro.logs.generator import GeneratorOptions
from repro.logs.servers import server_by_id
from repro.reporting.series import render_cdf
from repro.reporting.tables import render_table

SEED = 11
OPTIONS = GeneratorOptions(scale=4e-4, min_clients=250, max_clients=600,
                           max_requests_per_client=25)
SHOWN_SERVERS = ("AG1", "JW2", "SU1")
#: Paper's Figure-1 category medians (seconds).
PAPER_MEDIANS = {"cloud": 0.040, "isp": 0.050, "broadband": 0.250, "mobile": 0.550}


def bench_fig1_owd_providers(once, report):
    def run():
        study = LogStudy(
            seed=SEED, options=OPTIONS,
            servers=[server_by_id(s) for s in SHOWN_SERVERS],
        )
        study.run()
        return study

    study = once(run)
    blocks = []
    for server in SHOWN_SERVERS:
        latencies = study.figure1(server)
        rows = [
            [f"SP {pl.provider.sp_id}", pl.category, pl.client_count,
             f"{pl.median * 1000:.0f}", f"{pl.interquartile_range * 1000:.0f}"]
            for pl in latencies
        ]
        blocks.append(
            f"-- {server} (left panel): min-OWD per provider --\n"
            + render_table(["provider", "category", "clients",
                            "median (ms)", "IQR (ms)"], rows)
        )
        pooled = {}
        for pl in latencies:
            pooled.setdefault(pl.category, []).extend(pl.min_owds)
        cdfs = [
            render_cdf(values, label=f"{server}/{category}")
            for category, values in sorted(pooled.items())
        ]
        blocks.append(f"-- {server} (right panel): min-OWD CDFs --\n"
                      + "\n".join(cdfs))
    report("FIGURE 1 — minimum OWDs of clients per service provider\n\n"
           + "\n\n".join(blocks))

    # Shape assertions: category ordering and rough medians at each server.
    for server in SHOWN_SERVERS:
        medians = study.category_medians(server)
        assert (
            medians["cloud"] < medians["isp"]
            < medians["broadband"] < medians["mobile"]
        )
        for category, paper_value in PAPER_MEDIANS.items():
            assert 0.4 * paper_value < medians[category] < 2.5 * paper_value
        # Paper: 50% of mobile clients above 400 ms.
        latencies = {pl.provider.sp_id: pl for pl in study.figure1(server)}
        import numpy as np

        mobile = [
            owd for pl in latencies.values() if pl.category == "mobile"
            for owd in pl.min_owds
        ]
        assert float(np.median(mobile)) > 0.4
