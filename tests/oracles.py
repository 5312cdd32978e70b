"""Test-side oracles from plain set operations: no masks, no kernel names."""

from fractions import Fraction
from itertools import combinations


def avoiding(ann, x):
    """The lines of ``ann`` disjoint from the cards ``x``, in the announcement's order."""
    return [line for line in ann.lines if set(x).isdisjoint(line)]


def deal_space_posterior(proto, ann, observer):
    """Joint-space posterior oracle: accumulate weights deal by deal, then normalise.

    Walks every concrete deal (announcer hand, receiver hand, observer hand),
    keeps those whose observer hand is ``observer`` (any, when it is empty),
    and weighs each by the protocol table entry times ``proto.hand_weight``.
    """
    deck = set(range(proto.params.v))
    observer = tuple(sorted(observer))
    joint = {line: Fraction(0) for line in ann.lines}
    for alice in combinations(range(proto.params.v), proto.params.a):
        produced = dict(proto.table.get(alice, ()))
        if ann not in produced:
            continue
        for bob in combinations(sorted(deck - set(alice)), proto.params.b):
            cathy = tuple(sorted(deck - set(alice) - set(bob)))
            if observer and cathy != observer:
                continue
            weight = produced[ann] * proto.hand_weight(alice)
            if alice in joint:
                joint[alice] += weight
    total = sum(joint.values(), Fraction(0))
    assert total > 0
    return {line: weight / total for line, weight in joint.items()}
