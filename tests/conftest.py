import hypothesis
import numpy as np

from fixedb.harness import _corr_statistic_rows

# numpy-heavy properties routinely blow the default 200 ms deadline on
# cold caches; determinism comes from the fixed seeds, not the clock.
hypothesis.settings.register_profile(
    "fixedb", deadline=None, max_examples=60, print_blob=False
)
hypothesis.settings.load_profile("fixedb")


def corr_statistic_batch(data, perms):
    """The harness's correlation statistic of one (x, y) pair for each
    row of perms: permutation_test's one-test hook form of the
    row-aligned scorer the harness passes to the test kernel."""
    return _corr_statistic_rows(np.asarray(data, dtype=float)[None], np.zeros(len(perms), dtype=np.intp), perms)
