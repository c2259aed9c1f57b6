"""Hand-typed reference values for the correctness gate.

Nothing here is computed by partcat: the sequences are typed in from their
standard tables, and the membership rules below are written out again from
the block rules of the four classical categories.  A wrong answer from the
program therefore cannot also make the reference wrong.
"""

# C_0 .. C_10, B_0 .. B_10, M_0 .. M_9, I_0 .. I_9
CATALAN = (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796)
BELL = (1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975)
MOTZKIN = (1, 1, 2, 4, 9, 21, 51, 127, 323, 835)
INVOLUTIONS = (1, 1, 2, 4, 10, 26, 76, 232, 764, 2620)

# m_1 .. m_9 of each counted category: the number of its members on k points
# in one row.  Pair categories vanish at odd k; at k = 2j they give Catalan
# C_j (O+), b_j = binom(3j+1, j)/(j+1) (B#+), (2j-1)!! (O) and j! (O*).
MOMENTS = {
    "O+": (0, 1, 0, 2, 0, 5, 0, 14, 0),
    "S+": (1, 2, 5, 14, 42, 132, 429, 1430, 4862),
    "B+": (1, 2, 4, 9, 21, 51, 127, 323, 835),
    "B#+": (0, 2, 0, 7, 0, 30, 0, 143, 0),
    "O": (0, 1, 0, 3, 0, 15, 0, 105, 0),
    "B": (1, 2, 4, 10, 26, 76, 232, 764, 2620),
    "S": (1, 2, 5, 15, 52, 203, 877, 4140, 21147),
    "O*": (0, 1, 0, 2, 0, 6, 0, 24, 0),
}

# Moment-cumulant sums: shifted semicircle and shifted real Gaussian give the
# Motzkin and involution numbers, the shifted circle the b-formula.
CUMULANT_MOMENTS = {
    "shifted-semicircle": (1, 2, 4, 9, 21, 51, 127, 323, 835),
    "shifted-circle": (2, 7, 30, 143, 728),
    "shifted-real-gaussian": (1, 2, 4, 10, 26, 76, 232, 764, 2620),
}

FREE = ("O+", "H+", "S'+", "S+", "B#+", "B'+", "B+")
CLASSICAL = ("O", "H", "S'", "S", "B'", "B")
HALF_LIBERATED = ("O*", "H*", "B#*")
ALL_NAMED = FREE + CLASSICAL + HALF_LIBERATED

WORLD = {
    **{name: "Free7" for name in FREE},
    **{name: "Classical6" for name in CLASSICAL},
    **{name: "HalfLib" for name in HALF_LIBERATED},
}


def block_sizes(p):
    return [len(block) for block in p.blocks]


# Membership in the four categories of the intertwiner dictionary, from the
# block sizes alone: every partition (S), even blocks (H), blocks of at most
# two points (B), pairs only (O).
MEMBER = {
    "S": lambda p: True,
    "H": lambda p: all(s % 2 == 0 for s in block_sizes(p)),
    "B": lambda p: all(s <= 2 for s in block_sizes(p)),
    "O": lambda p: all(s == 2 for s in block_sizes(p)),
}
