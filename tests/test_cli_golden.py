"""Golden output of the CLI verbs: the full stdout, exit code and stderr.

Short outputs are pinned verbatim; long ones by line count and the SHA-256
of stdout.  Any change of representation inside the package must leave all
of these byte-identical.
"""

import hashlib

import pytest

from partcat.cli import main

TWO_ROW = "P(2,3): u1,l3; u2,l1; l2"
ONE_ROW = "P(0,5): l1,l3; l2,l5; l4"
HALF_LIB = "P(3,3): u1,l3; u2,l2; u3,l1"
FOUR_BLOCK = "P(0,4): l1,l2,l3,l4"
H3 = "P(0,6): l1,l3,l5; l2,l4,l6"
CROSSING = "P(2,2): u1,l2; u2,l1"
SINGLETON = "P(0,1): l1"

CYCLE_ERROR = "error: cyclic rotation needs a one-row partition\n"

# two-digit indices: from 10 on, text order is not numeric order
TWO_DIGIT = "P(11,10): u11,l10; u1,u10; l1,l2; u2,l3,l4; u3; u4,u5,u6,u7,u8,u9,l5,l6,l7,l8,l9"

VERBATIM = [
    (
        ("classify", "--gen", FOUR_BLOCK),
        "world: Free7\n"
        "name: H+\n"
        "evidence: P(0,4): l1,l2,l3,l4 :: satisfies H+, S'+, S+\n",
        0,
        "",
    ),
    (
        ("classify", "--gen", HALF_LIB, "--gen", FOUR_BLOCK, "--gen", H3),
        "world: Series\n"
        "name: H^(3)\n"
        "series-parameter: 3\n"
        "budgets: 8/16\n"
        # the lower bound: the closure confirms H^(3)'s generators; the
        # upper bound: every generator satisfies H^(3)
        "evidence: P(3,3): u1,l3; u2,l2; u3,l1 :: Confirmed\n"
        "evidence: P(0,4): l1,l2,l3,l4 :: Confirmed\n"
        "evidence: P(0,6): l1,l3,l5; l2,l4,l6 :: Confirmed\n"
        "evidence: P(3,3): u1,l3; u2,l2; u3,l1 :: satisfies H^(3)\n"
        "evidence: P(0,4): l1,l2,l3,l4 :: satisfies H^(3)\n"
        "evidence: P(0,6): l1,l3,l5; l2,l4,l6 :: satisfies H^(3)\n",
        0,
        "",
    ),
    (
        ("op", "tensor", "P(2,1): u1,l1; u2", "P(1,2): u1,l2; l1"),
        "P(3,3): u1,l1; u2; u3,l3; l2\n",
        0,
        "",
    ),
    (
        ("op", "compose", "P(2,3): u1,l3; u2; l1,l2", "P(3,2): u1,u2; u3,l1; l2"),
        "P(2,2): u1,l1; u2; l2\nloops=1\n",
        0,
        "",
    ),
    (("op", "involute", TWO_ROW), "P(3,2): u1,l2; u2; u3,l1\n", 0, ""),
    (("op", "rotate", TWO_ROW, "down-left"), "P(1,4): u1,l2; l1,l4; l3\n", 0, ""),
    (("op", "rotate", TWO_ROW, "up-left"), "P(3,2): u1,u3; u2,l2; l1\n", 0, ""),
    (("op", "rotate", TWO_ROW, "down-right"), "P(1,4): u1,l3; l1,l4; l2\n", 0, ""),
    (("op", "rotate", TWO_ROW, "up-right"), "P(3,2): u1,u3; u2,l1; l2\n", 0, ""),
    (("op", "rotate", TWO_ROW, "cycle-left"), "", 2, CYCLE_ERROR),
    (("op", "rotate", TWO_ROW, "cycle-right"), "", 2, CYCLE_ERROR),
    (("op", "rotate", ONE_ROW, "cycle-left"), "P(0,5): l1,l4; l2,l5; l3\n", 0, ""),
    (("op", "rotate", ONE_ROW, "cycle-right"), "P(0,5): l1,l3; l2,l4; l5\n", 0, ""),
    (
        ("parse", TWO_DIGIT),
        "P(11,10): u1,u10; u2,l3,l4; u3; u4,u5,u6,u7,u8,u9,l5,l6,l7,l8,l9; u11,l10; l1,l2\n",
        0,
        "",
    ),
    (
        ("moments", "--law", "semicircle", "--kmax", "9"),
        "1,0\n2,1\n3,0\n4,2\n5,0\n6,5\n7,0\n8,14\n9,0\n",
        0,
        "",
    ),
    (
        ("moments", "--law", "shifted-semicircle", "--kmax", "9"),
        "1,1\n2,2\n3,4\n4,9\n5,21\n6,51\n7,127\n8,323\n9,835\n",
        0,
        "",
    ),
    (
        ("moments", "--law", "real-gaussian", "--kmax", "9"),
        "1,0\n2,1\n3,0\n4,3\n5,0\n6,15\n7,0\n8,105\n9,0\n",
        0,
        "",
    ),
    (
        ("moments", "--law", "shifted-real-gaussian", "--kmax", "9"),
        "1,1\n2,2\n3,4\n4,10\n5,26\n6,76\n7,232\n8,764\n9,2620\n",
        0,
        "",
    ),
    (
        ("moments", "--law", "shifted-circle", "--kmax", "4"),
        "1,2\n2,7\n3,30\n4,143\n",
        0,
        "",
    ),
    (
        ("moments", "--law", "shifted-complex-gaussian", "--kmax", "4"),
        "1,2\n2,7\n3,34\n4,209\n",
        0,
        "",
    ),
]

DIGESTS = [
    (
        ("closure", "--gen", "P(0,1): l1", "--budget", "6", "--ibudget", "12"),
        89,
        "9c2e77984711080ae364f0a2ba7659f3a8f1820c0ed966d9a208ebc5ffa275ea",
        "# elements=89 saturated=True stop_reason=saturated\n",
    ),
    (
        ("enumerate", "--category", "B'+", "--points", "6"),
        51,
        "888d4c8d90e0e3466a4fe736c7aa65aaa99b78b10fdf0d381c2d7a5a4675cdec",
        "",
    ),
    (
        ("verify-tp", "--rep", "hyperoctahedral", "--n", "3", "--points", "4"),
        104,
        "8eed3ed957b88bc16ecdf6bb36dbad409c09af7ff829b53218ff9c172b9daa90",
        "",
    ),
    # B_3 and O_3, checked by their Lie generators and one group element each
    (
        ("verify-tp", "--rep", "bistochastic", "--n", "3", "--points", "4"),
        104,
        "d5d3bc72d647e56a8e58c8039b5471b004820bc77c54075fc92e1491fcc01655",
        "",
    ),
    (
        ("verify-tp", "--rep", "orthogonal-sample", "--n", "3", "--points", "4"),
        104,
        "b959bb478a83fbc3a3b91491bedf321912ab5805a5939dfee5a5ac87ca6ad98a",
        "",
    ),
    (
        ("enumerate", "--category", "O+", "--points", "10"),
        42,
        "e3cc62a3ba073773df2d536a8e35a598a5c6634e5c9c1396d5a820cea70eab2c",
        "",
    ),
    # S's catalog generators at 7/14, appended last so that the cases above
    # keep their ids: Bell(0) + ... + Bell(7) words
    (
        (
            "closure", "--gen", SINGLETON, "--gen", FOUR_BLOCK, "--gen", CROSSING,
            "--budget", "7", "--ibudget", "14",
        ),
        1156,
        "cf28f4ca3522f8b416928988b931c9b1887026889acccf24da7acff692ff8b32",
        "# elements=1156 saturated=True stop_reason=saturated\n",
    ),
]


# `count --kmax 9` of every category with a block rule: m_1..m_9
COUNTS = {
    "O+": (0, 1, 0, 2, 0, 5, 0, 14, 0),
    "H+": (0, 1, 0, 3, 0, 12, 0, 55, 0),
    "S'+": (0, 2, 0, 14, 0, 132, 0, 1430, 0),
    "S+": (1, 2, 5, 14, 42, 132, 429, 1430, 4862),
    "B#+": (0, 2, 0, 7, 0, 30, 0, 143, 0),
    "B'+": (0, 2, 0, 9, 0, 51, 0, 323, 0),
    "B+": (1, 2, 4, 9, 21, 51, 127, 323, 835),
    "O": (0, 1, 0, 3, 0, 15, 0, 105, 0),
    "H": (0, 1, 0, 4, 0, 31, 0, 379, 0),
    "S'": (0, 2, 0, 15, 0, 203, 0, 4140, 0),
    "S": (1, 2, 5, 15, 52, 203, 877, 4140, 21147),
    "B'": (0, 2, 0, 10, 0, 76, 0, 764, 0),
    "B": (1, 2, 4, 10, 26, 76, 232, 764, 2620),
    "O*": (0, 1, 0, 2, 0, 6, 0, 24, 0),
    "H*": (0, 1, 0, 3, 0, 16, 0, 131, 0),
    "B#*": (0, 2, 0, 7, 0, 34, 0, 209, 0),
}
VERBATIM += [
    (
        ("count", "--category", name, "--kmax", "9"),
        "category,k,m_k\n" + "".join(f"{name},{k},{m}\n" for k, m in enumerate(counts, start=1)),
        0,
        "",
    )
    for name, counts in COUNTS.items()
]
# the classical path, appended last so that the cases above keep their ids:
# the crossing is the stop target, and the one generator satisfies O
VERBATIM.append(
    (
        ("classify", "--gen", CROSSING),
        "world: Classical6\n"
        "name: O\n"
        "budgets: 8/16\n"
        "evidence: P(2,2): u1,l2; u2,l1 :: Confirmed\n"
        "evidence: P(2,2): u1,l2; u2,l1 :: satisfies O, H, S', S, B', B\n",
        0,
        "",
    )
)


def _ids(cases):
    return [f"{i}-{'-'.join(case[0][:2])}" for i, case in enumerate(cases)]


@pytest.mark.parametrize("argv,stdout,code,stderr", VERBATIM, ids=_ids(VERBATIM))
def test_cli_output_verbatim(capsys, argv, stdout, code, stderr):
    assert main(list(argv)) == code
    captured = capsys.readouterr()
    assert captured.out == stdout
    assert captured.err == stderr


@pytest.mark.parametrize("argv,lines,sha256,stderr", DIGESTS, ids=_ids(DIGESTS))
def test_cli_output_digest(capsys, argv, lines, sha256, stderr):
    assert main(list(argv)) == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == lines
    assert hashlib.sha256(captured.out.encode()).hexdigest() == sha256
    assert captured.err == stderr

