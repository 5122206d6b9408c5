"""Sabotage of the spinor-parameter relations, scoped to a ``with`` block.

The kernel has no switch for it: ``commuting_parameters`` patches the sign of
the '-','+' product in both parameter tables, so the two parameters of a
family (wrongly) commute.  The eta table is built from the lambda table at
import, so both are patched.  The monomial-product cache is cleared on
entry and on exit, so no product of the real table is reused inside the
block and no sabotaged product outlives it.
"""

import contextlib

import pytest

from gradedsg import algebra as al


@contextlib.contextmanager
def commuting_parameters():
    with pytest.MonkeyPatch.context() as mp:
        for table in (al._LAMBDA_TABLE, al._ETA_TABLE):
            sign, kind, vshift = table[("-", "+")]
            mp.setitem(table, ("-", "+"), (-sign, kind, vshift))
        al._mul_keys_cached.cache_clear()
        try:
            yield
        finally:
            mp.undo()
            al._mul_keys_cached.cache_clear()
