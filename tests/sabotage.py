"""Sabotaged systems for the controls' tests, built without a switch in the
package.

``commuting_parameters`` patches the sign of the '-','+' product in both
parameter tables, scoped to a ``with`` block, so the two parameters of a
family (wrongly) commute.  The eta table is built from the lambda table at
import, so both are patched.  The monomial-product cache is cleared on
entry and on exit, so no product of the real table is reused inside the
block and no sabotaged product outlives it.  That clearing does not reach
the sine/cosine expansion that ``trig_of`` stores on an expression built
before the block, so a control builds its system inside the block.

``flipped_relation`` returns a Backlund system whose one relation carries
the wrong sign, which is no auto-Backlund transformation.
"""

import contextlib

import pytest

from gradedsg import algebra as al
from gradedsg import backlund as bt


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


def flipped_relation(orientation: str, which: int) -> bt.BTSystem:
    """A fresh system whose relation ``which`` (1 or 2) has its sine
    coefficient negated.

    The negated coefficient is stored in the cached-property slot before
    anything reads it, so the relation term and every hand-derived chain
    formula that reads the coefficient see the flipped sign.
    """
    name = f"sine_coef{which}"
    sys = bt.BTSystem(orientation=orientation)
    sys.__dict__[name] = -getattr(bt.BTSystem(orientation=orientation), name)
    return sys
