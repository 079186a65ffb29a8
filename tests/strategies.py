"""Hypothesis strategies for drawn preorders and the rings built on them."""

from hypothesis import strategies as st

from serrespec import allow_large, enumerate_serre_ideals, quotient_ring

from ladder import incidence


@st.composite
def preorders(draw, max_points=12):
    """Closure masks of a reflexive, transitive relation on at most
    max_points points: the reflexive-transitive closure of a few drawn
    pairs."""
    n = draw(st.integers(0, max_points))
    closures = [1 << g for g in range(n)]
    if n:
        point = st.integers(0, n - 1)
        for g, h in draw(st.lists(st.tuples(point, point), max_size=2 * n)):
            closures[g] |= 1 << h
    for k in range(n):  # Warshall: close through each point k in turn
        for g in range(n):
            if closures[g] >> k & 1:
                closures[g] |= closures[k]
    return closures


@st.composite
def incidence_quotients(draw, max_points=5):
    """The incidence ring of a drawn preorder on 1..max_points points, or
    its quotient by a drawn nonzero proper ideal."""
    ring = incidence(draw(preorders(max_points).filter(len)))
    with allow_large():
        ideals = enumerate_serre_ideals(ring)
    ideal = draw(st.sampled_from(ideals[:-1]))
    return quotient_ring(ring, ideal) if ideal else ring
