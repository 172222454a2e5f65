"""Pinned visit totals: a change to any walk that moves a visit count fails here.

Each row is one seeded 600-op ``run_bench`` workload, recorded as
``(backend, pair, dims, seed, init_visits, mean visits per update, mean
visits per query)``.  The means are exact quotients of integer totals, so
they are compared with ``==``.  A change that alters visit counts on
purpose re-records this table and says so.
"""

import pytest

from uqtrees.workloads import WorkloadConfig, run_bench

PINNED = [
    ("nd-special", "plus-plus", (9, 8, 7), 3, 3587, 258.11743772241994, 256.05015673981194),
    ("nd-special", "max-max", (13, 11), 5, 550, 70.71186440677967, 85.8),
    ("nd-special", "plus-plus", (37,), 2, 73, 14.911764705882353, 14.96951219512195),
    ("grid2d-general", "plus-min", (16, 16), 1, 992, 277.8181818181818, 37.12420382165605),
    ("grid2d-general", "plus-max", (11, 19), 4, 798, 245.7269624573379, 36.4299674267101),
    ("quadtree", "plus-min", (16, 16), 2, 341, 53.61952861952862, 57.06600660066007),
    ("seg1d", "plus-min", (257,), 7, 513, 25.32515337423313, 25.182481751824817),
    ("seg1d", "plus-plus", (33,), 9, 65, 13.631944444444445, 13.794871794871796),
    ("oracle", "plus-min", (6, 5), 0, 0, 7.315436241610739, 7.7052980132450335),
]


@pytest.mark.parametrize("backend,pair,dims,seed,init,per_update,per_query", PINNED)
def test_visit_totals_are_pinned(backend, pair, dims, seed, init, per_update, per_query):
    row = run_bench(WorkloadConfig(backend, pair, dims, ops=600, seed=seed))
    assert (row.init_visits, row.mean_visits_per_update, row.mean_visits_per_query) == (
        init, per_update, per_query)
