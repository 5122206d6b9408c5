"""Reference for on-shell reduction: the fixed-point loop.

``JetRewriter.reduce`` makes one ``substitute_jets`` pass with the memoized
normal forms of its rules.  This is the loop it must agree with: passes of
the plain prolongations ``rewriter.rule``, repeated until nothing changes,
with a cap of 64 passes.
"""

import functools

from gradedsg import algebra as al
from gradedsg.errors import NonTermination


def reduce_to_fixed_point(rewriter, e):
    """Apply ``substitute_jets`` with the plain rules until nothing changes."""
    rule = functools.cache(rewriter.rule)  # one prolongation per jet and call
    for _ in range(64):
        new = al.substitute_jets(e, rule, rewriter.floor)
        if new is e or (new.den == e.den and new.terms == e.terms):
            return new
        e = new
    raise NonTermination("jet rewriting did not reach a fixed point")
