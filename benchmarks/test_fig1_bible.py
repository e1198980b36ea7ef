"""Figure 1(a)/(b): messages and data volume on the bible-words corpus.

Regenerates the paper's two bible-words panels: the same 6-query mix
(top-N N=5/10/15 with d<=5, anchored self sim-joins d=1/2/3), swept over
peer counts, once per strategy.  The panel series are printed for
inspection.

Expected shapes (asserted):
* naive ``strings`` grows faster with the peer count than ``qgrams``;
* ``strings`` is the most expensive strategy at the largest peer count;
* ``qsamples`` costs at most ``qgrams`` at the largest peer count.
"""

from repro.core.config import SimilarityStrategy
from evaluation.report import format_panel, shape_check


def test_fig1a_bible_messages(bible_sweep):
    """Panel (a): total messages per workload vs. number of peers."""
    print()
    print(format_panel("fig1a", bible_sweep))
    assert shape_check(bible_sweep) == []


def test_fig1b_bible_volume(bible_sweep):
    """Panel (b): total data volume (MB) per workload vs. number of peers."""
    print()
    print(format_panel("fig1b", bible_sweep))
    naive = bible_sweep.megabyte_series(SimilarityStrategy.NAIVE)
    # Naive data volume grows with N (it ships the query to every region
    # peer and compares everything locally).
    assert naive[-1] > naive[0]
