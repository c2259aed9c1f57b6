import pytest

import partcat.cli as cli
import partcat.ops as ops
from partcat.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


def test_parse_echoes_canonical_form(capsys):
    code, out, _ = run(capsys, "parse", "P( 0,4):l3;  l2,l4; l1")
    assert code == 0
    assert out == ["P(0,4): l1; l2,l4; l3"]


def test_parse_error_exits_nonzero(capsys):
    code, _, err = run(capsys, "parse", "P(0,2): l1,x2")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("text", ["P(\u0663,0): u1,u2,u3", "P(0,3): l1,l2,l\uff13"])
def test_parse_refuses_digits_of_other_scripts(capsys, text):
    code, out, err = run(capsys, "parse", text)
    assert (code, out) == (2, [])
    assert err.startswith("error:")


def test_parse_uncovered_points_error_is_short(capsys):
    code, _, err = run(capsys, "parse", "P(100000,0):")
    assert code == 2
    assert err.startswith("error:")
    assert len(err) < 120


def test_parse_huge_uncovered_shape_exits_with_error(capsys):
    code, out, err = run(capsys, "parse", "P(1000000000,0): u1")
    assert (code, out) == (2, [])
    assert err.startswith("error: points not covered: u2, u3,")
    assert err.endswith("(999999999 in all)\n")


def test_op_compose_prints_result_and_loops(capsys):
    code, out, _ = run(capsys, "op", "compose", "P(0,2): l1,l2", "P(2,0): u1,u2")
    assert code == 0
    assert out == ["P(0,0):", "loops=1"]


def test_op_tensor_and_involute_and_rotate(capsys):
    code, out, _ = run(capsys, "op", "tensor", "P(0,1): l1", "P(0,1): l1")
    assert (code, out) == (0, ["P(0,2): l1; l2"])
    code, out, _ = run(capsys, "op", "involute", "P(0,2): l1,l2")
    assert (code, out) == (0, ["P(2,0): u1,u2"])
    code, out, _ = run(capsys, "op", "rotate", "P(0,4): l1; l2,l4; l3", "cycle-left")
    assert (code, out) == (0, ["P(0,4): l1,l3; l2; l4"])


def test_op_usage_errors(capsys):
    assert run(capsys, "op", "tensor", "P(0,1): l1")[0] == 2
    assert run(capsys, "op", "rotate", "P(0,1): l1", "sideways")[0] == 2
    code, _, err = run(capsys, "op", "compose", "P(0,2): l1,l2", "P(1,1): u1,l1")
    assert code == 2 and "error:" in err


def test_closure_streams_sorted_elements(capsys):
    code, out, err = run(capsys, "closure", "--gen", "P(0,1): l1", "--budget", "4", "--ibudget", "8")
    assert code == 0
    assert out == sorted(out)
    assert "P(0,4): l1; l2,l4; l3" in out  # the positioner is generated
    assert "saturated=True" in err


def test_closure_stops_at_the_fusion_cap(capsys, monkeypatch):
    # the S+ generators saturate at 6/12 after 15,738 fusions; at 12/24 they
    # run for seconds even under the default cap
    monkeypatch.setattr(cli, "DEFAULT_MAX_FUSION_OPS", 1000)
    gens = ["--gen", "P(0,1): l1", "--gen", "P(0,4): l1,l2,l3,l4"]
    for budget, ibudget in (("6", "12"), ("12", "24")):
        code, out, err = run(capsys, "closure", *gens, "--budget", budget, "--ibudget", ibudget)
        assert code == 0
        assert out and out == sorted(out)
        assert err.endswith(" saturated=False\n"), budget


def test_closure_budget_error_exit_code(capsys):
    code, _, err = run(capsys, "closure", "--gen", "P(0,1): l1", "--budget", "8", "--ibudget", "4")
    assert code == 2
    assert err.startswith("budget:")


@pytest.mark.parametrize(
    "gen", ["P(0,4): l1,l2,l3,l4", "P(2,2): u1,l2; u2,l1"], ids=["noncrossing", "crossing"]
)
@pytest.mark.parametrize(
    "budgets", [("1", "16"), ("8", "4")], ids=["point-budget-1", "ibudget-below-budget"]
)
def test_classify_budget_error_exit_code(capsys, gen, budgets):
    budget, ibudget = budgets
    code, out, err = run(capsys, "classify", "--gen", gen, "--budget", budget, "--ibudget", ibudget)
    assert (code, out) == (2, [])
    assert err.startswith("budget:")


def test_classify_record(capsys):
    code, out, _ = run(capsys, "classify", "--gen", "P(0,4): l1,l2,l3,l4")
    assert code == 0
    assert out[0] == "world: Free7"
    assert out[1] == "name: H+"


def test_enumerate_category(capsys):
    code, out, _ = run(capsys, "enumerate", "--category", "O+", "--points", "4")
    assert code == 0
    assert out == ["P(0,4): l1,l2; l3,l4", "P(0,4): l1,l4; l2,l3"]


def test_enumerate_negative_points_is_an_error(capsys):
    code, out, err = run(capsys, "enumerate", "--category", "S", "--points", "-1")
    assert (code, out) == (2, [])
    assert err == "error: row sizes must be nonnegative\n"


def test_enumerate_no_predicate_is_an_error(capsys):
    code, _, err = run(capsys, "enumerate", "--category", "H^(3)", "--points", "4")
    assert code == 2 and "error:" in err


def test_count_series_name_below_the_range_is_an_error(capsys):
    code, out, err = run(capsys, "count", "--category", "H^(2)", "--kmax", "3")
    assert (code, out) == (2, [])
    assert err == "error: series parameter must be >= 3, got 2\n"


@pytest.mark.parametrize(
    "category,kmax,message",
    [
        ("X+", "13", "error: unknown category 'X+'\n"),
        ("X+", "0", "error: unknown category 'X+'\n"),
        ("fatcross", "13", "error: category 'fatcross' has no membership predicate\n"),
    ],
)
def test_count_checks_the_name_before_kmax(capsys, category, kmax, message):
    code, out, err = run(capsys, "count", "--category", category, "--kmax", kmax)
    assert (code, out, err) == (2, [], message)


@pytest.mark.parametrize(
    "argv,message",
    [
        (("count", "--category", "S", "--kmax", "-1"), "error: k_max must be >= 0, got -1\n"),
        (("moments", "--law", "semicircle", "--kmax", "-2"), "error: k_max must be >= 0, got -2\n"),
    ],
)
def test_negative_kmax_is_an_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, [], message)


def test_count_emits_csv(capsys):
    code, out, _ = run(capsys, "count", "--category", "B#+", "--kmax", "8")
    assert code == 0
    assert out[0] == "category,k,m_k"
    assert out[1] == "B#+,1,0"
    assert out[2] == "B#+,2,2"
    assert out[8] == "B#+,8,143"


def test_count_over_the_cap_exits_before_enumerating(capsys):
    code, out, err = run(capsys, "count", "--category", "S", "--kmax", "13")
    assert (code, out) == (2, [])
    assert err == "budget: 13 points exceeds the enumeration cap 12\n"


def test_moments_over_the_cap_is_a_budget_error(capsys):
    code, out, err = run(capsys, "moments", "--law", "shifted-circle", "--kmax", "7")
    assert (code, out) == (2, [])
    assert err == "budget: 14 points exceeds the enumeration cap 12\n"


def test_moments_law(capsys):
    code, out, _ = run(capsys, "moments", "--law", "shifted-circle", "--kmax", "3")
    assert code == 0
    assert out == ["1,2", "2,7", "3,30"]


def test_verify_tp_lines(capsys):
    code, out, _ = run(
        capsys, "verify-tp", "--rep", "symmetric-group", "--n", "3", "--points", "2"
    )
    assert code == 0
    # every partition with <= 2 points intertwines the permutation matrices
    assert len(out) == 9 and all(line.startswith("pass") for line in out)


def test_verify_tp_deterministic_under_seed(capsys):
    args = ("--seed", "3", "verify-tp", "--rep", "orthogonal-sample", "--n", "3",
            "--points", "3", "--samples", "5")
    code_a, out_a, _ = run(capsys, *args)
    code_b, out_b, _ = run(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b
    failing = [line for line in out_a if line.startswith("fail")]
    assert any("P(0,1): l1" in line for line in failing)


@pytest.mark.parametrize("rep, n", [("orthogonal-sample", "2"), ("bistochastic", "3")])
def test_verify_tp_negative_seed_is_an_error(capsys, rep, n):
    args = ("--seed", "-1", "verify-tp", "--rep", rep, "--n", n, "--points", "2")
    code, out, err = run(capsys, *args)
    assert (code, out) == (2, [])
    assert err == "error: seed must be >= 0, got -1\n"


def test_unknown_verb_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_verify_tp_refuses_no_samples(capsys):
    for count in ("0", "-3"):
        code, out, err = run(
            capsys, "verify-tp", "--rep", "orthogonal-sample", "--n", "3", "--points", "1",
            "--samples", count,
        )
        assert (code, out) == (2, [])
        assert err.startswith("error:")


def test_verify_tp_over_the_byte_cap_exits_before_enumerating(capsys, monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("enumerated partitions before checking the cap")

    monkeypatch.setattr(cli, "enumerate_upto", no_enumeration)
    for argv in (
        ("--n", "10", "--points", "8"),  # one vector of 8 * 10^8 bytes
        ("--n", "50000", "--points", "1"),  # 20 samples of 50000 x 50000
    ):
        code, out, err = run(capsys, "verify-tp", "--rep", "orthogonal-sample", *argv)
        assert (code, out) == (2, [])
        assert err.startswith("budget:")


def test_verify_tp_over_the_listing_cap_exits_before_enumerating(capsys, monkeypatch):
    # the check lives in enumerate_upto, so the shapes' enumeration is patched
    def no_enumeration(*args):
        raise AssertionError("enumerated partitions before checking the cap")

    monkeypatch.setattr(ops, "enumerate_all", no_enumeration)
    for points, prefix in (("11", "budget:"), ("12", "budget:"), ("-1", "error:")):
        code, out, err = run(
            capsys, "verify-tp", "--rep", "symmetric-group", "--n", "2", "--points", points
        )
        assert (code, out) == (2, [])
        assert err.startswith(prefix), err


def test_verify_tp_group_too_large_is_a_budget_error(capsys, monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("enumerated partitions before building the group")

    monkeypatch.setattr(cli, "enumerate_upto", no_enumeration)
    for rep, n in (("symmetric-group", "7"), ("hyperoctahedral", "5")):
        code, out, err = run(capsys, "verify-tp", "--rep", rep, "--n", n, "--points", "2")
        assert (code, out) == (2, [])
        assert err.startswith("budget:"), err
    code, out, err = run(
        capsys, "verify-tp", "--rep", "symmetric-group", "--n", "1", "--points", "2"
    )
    assert (code, out) == (2, [])
    assert err.startswith("error:"), err
