"""Property suite for the gen/kill sweep behind the dataflow passes.

The passes fold ``out = gen | (in & ~kill)`` once along the IR's node
chain from a boundary fact (:func:`repro.check.passes._sweep`). This
suite pins what the hand-written passes silently assume, on random
chains in both directions with both kinds of boundary — empty (the
may-analyses' entry fact) and full (the must-analyses'), plus arbitrary
masks:

- **monotonicity** — growing a node's gen set can only grow the facts,
  never shrink them (the property that makes "add a DEF, lose a
  reaching fact" impossible);
- **fixpoint equations** — the returned facts satisfy ``in = out of the
  neighbour upstream`` (the boundary at the first node swept) and
  ``out = gen | (in & ~kill)`` at every node, so one sweep is the
  fixpoint of a chain.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.check.passes import _sweep  # noqa: E402

BITS = 6  # universe width; small enough to shrink well, wide enough to mix
UNIVERSE = (1 << BITS) - 1


@st.composite
def chains(draw):
    """A random (transfers, boundary, forward) chain problem."""
    masks = st.integers(0, UNIVERSE)
    transfers = draw(
        st.lists(st.tuples(masks, masks), min_size=1, max_size=8)
    )
    boundary = draw(st.one_of(st.sampled_from([0, UNIVERSE]), masks))
    forward = draw(st.booleans())
    return transfers, boundary, forward


def _apply(transfer, fact):
    gen, kill = transfer
    return gen | (fact & ~kill)


@settings(max_examples=150, deadline=None)
@given(chains(), st.integers(0, 7), st.integers(0, UNIVERSE))
def test_growing_gen_grows_the_solution(case, node_pick, extra_gen):
    """Adding gen bits at any node yields a pointwise-superset solution:
    a new DEF can never remove a previously-reaching fact."""
    transfers, boundary, forward = case
    node = node_pick % len(transfers)
    base = _sweep(transfers, boundary, forward)
    grown = list(transfers)
    gen, kill = grown[node]
    grown[node] = (gen | extra_gen, kill)
    bigger = _sweep(grown, boundary, forward)
    for i in range(len(transfers)):
        for name, small, large in (
            ("before", base.before[i], bigger.before[i]),
            ("after", base.after[i], bigger.after[i]),
        ):
            assert small & ~large == 0, (
                f"node {i} {name}: fact {small:#x} shrank to {large:#x}"
            )


@settings(max_examples=150, deadline=None)
@given(chains())
def test_solution_satisfies_the_fixpoint_equations(case):
    transfers, boundary, forward = case
    facts = _sweep(transfers, boundary, forward)
    n = len(transfers)
    assert len(facts.before) == len(facts.after) == n
    # Program-order facts: the transfer input is `before` forward and
    # `after` backward; its source is the neighbour upstream.
    fact_in = facts.before if forward else facts.after
    fact_out = facts.after if forward else facts.before
    for i in range(n):
        upstream = i - 1 if forward else i + 1
        expected = fact_out[upstream] if 0 <= upstream < n else boundary
        assert fact_in[i] == expected, f"join equation fails at node {i}"
        assert fact_out[i] == _apply(transfers[i], fact_in[i]), (
            f"transfer equation fails at node {i}"
        )
