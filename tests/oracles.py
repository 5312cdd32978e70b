"""Test-side oracles from plain set operations: no masks, no kernel names."""


def avoiding(ann, x):
    """The lines of ``ann`` disjoint from the cards ``x``, in the announcement's order."""
    return [line for line in ann.lines if set(x).isdisjoint(line)]
