"""Figure 1(c)/(d): messages and data volume on the painting-titles corpus.

Long multi-word strings are where the q-gram strategies pay off (Section
6: "the costs of the string approach increase linear in the number of
peers and finally it is outperformed by both q-gram methods ... clearly
fortified by the results on the titles data").

Expected shapes (asserted): as in the bible panels, plus the qualitative
title-specific claim that ``qsamples`` beats the naive strategy by a wide
margin at the largest peer count.
"""

from repro.core.config import SimilarityStrategy
from evaluation.report import format_panel, shape_check


def test_fig1c_titles_messages(titles_sweep):
    """Panel (c): total messages per workload vs. number of peers."""
    print()
    print(format_panel("fig1c", titles_sweep))
    assert shape_check(titles_sweep) == []
    qsample = titles_sweep.message_series(SimilarityStrategy.QSAMPLE)
    naive = titles_sweep.message_series(SimilarityStrategy.NAIVE)
    assert naive[-1] > 3 * qsample[-1]


def test_fig1d_titles_volume(titles_sweep):
    """Panel (d): total data volume (MB) per workload vs. number of peers."""
    print()
    print(format_panel("fig1d", titles_sweep))
    naive = titles_sweep.megabyte_series(SimilarityStrategy.NAIVE)
    qsample = titles_sweep.megabyte_series(SimilarityStrategy.QSAMPLE)
    assert naive[-1] > qsample[-1]
