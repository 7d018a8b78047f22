"""Cluster algorithm."""

from repro.ntp.cluster import ClusterCandidate, cluster_survivors


def _c(name, offset, jitter=0.001, rootdist=0.01):
    return ClusterCandidate(
        source=name, offset=offset, jitter=jitter, root_distance=rootdist
    )


def test_cluster_keeps_minimum_survivors():
    candidates = [_c("a", 0.0), _c("b", 0.001), _c("c", 0.002)]
    survivors = cluster_survivors(candidates, min_survivors=3)
    assert len(survivors) == 3


def test_cluster_prunes_outlier():
    candidates = [
        _c("a", 0.000),
        _c("b", 0.001),
        _c("c", 0.0005),
        _c("d", 0.002),
        _c("outlier", 0.5),
    ]
    survivors = cluster_survivors(candidates, min_survivors=3)
    assert "outlier" not in {s.source for s in survivors}


def test_cluster_sorted_by_root_distance():
    candidates = [
        _c("far", 0.0, rootdist=0.10),
        _c("near", 0.0, rootdist=0.01),
        _c("mid", 0.0, rootdist=0.05),
    ]
    survivors = cluster_survivors(candidates, min_survivors=3)
    assert [s.source for s in survivors] == ["near", "mid", "far"]


def test_cluster_single_candidate():
    survivors = cluster_survivors([_c("only", 0.01)])
    assert len(survivors) == 1


def test_cluster_stops_when_tight():
    # All offsets equal: selection jitter is 0 <= own jitter, no pruning.
    candidates = [_c(f"s{i}", 0.005, jitter=0.002) for i in range(6)]
    survivors = cluster_survivors(candidates, min_survivors=3)
    assert len(survivors) == 6

