"""Hypothesis strategies for the r-values of one operand's q^n rows.

Each strategy draws a strategy for r, once per operand, so that all rows of
an operand share its shape: rows with gaps in r (every third or every fifth
r), rows that lie wholly at negative r, or rows in short blocks 1000 apart.
The packed product loops cut each row into runs at gaps of more than two
r-slots and pack each run from its least r, so these shapes reach rows cut
into runs, runs whose packing starts far below r = 0, and output rows whose
run products lie apart.
"""

from hypothesis import strategies as st

sparse_rows = st.sampled_from(
    [
        st.integers(-4, 4).map(lambda k: 3 * k + 1),
        st.integers(-2, 2).map(lambda k: 5 * k),
        st.integers(-12, -1),
        st.tuples(st.sampled_from([-1000, 0, 1000]), st.integers(-2, 2)).map(sum),
    ]
)


def window(r_max: int):
    """Every r in -r_max..r_max, as a one-shape strategy."""
    return st.just(st.integers(-r_max, r_max))
