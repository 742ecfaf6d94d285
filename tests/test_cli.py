"""End-to-end command line tests pinned to golden output files."""

import hashlib
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import graphgenus
from graphgenus import cli, genus, graph_algebra
from graphgenus.wheeling import WheelingReport
from conftest import run_cli

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
GOLDEN = HERE / "golden"

# Each case: golden file name -> argv.  Input paths are resolved under
# tests/data so the suite is independent of the working directory.
CASES = {
    "normalize_theta":   ["normalize", str(DATA / "theta_permuted.txt")],
    "normalize_claw":    ["normalize", str(DATA / "claw.txt")],
    "reduce_k4":         ["reduce", "--k", "2", str(DATA / "k4_vector.txt")],
    "dim_k2":            ["dim", "--k", "2"],
    "wheeling_k1":       ["wheeling", "--k", "1"],
    "wheeling_k2":       ["wheeling", "--k", "2"],
    "omega_k2":          ["omega", "--k", "2"],
    "ihx_emit_k2":       ["ihx", "emit", "--k", "2"],
    "genus_sqrt_k2":     ["genus", "--series", "sqrt-ahat", "--k", "2"],
    "genus_ahat_k1":     ["genus", "--series", "ahat", "--k", "1"],
    "genus_todd_k0":     ["genus", "--series", "todd", "--k", "0"],
    "analyze_k3":        ["analyze", "--k", "1", "--vol", "1", "--c2", "24"],
    "analyze_828":       ["analyze", "--k", "2", "--vol", "1",
                          "--c2sq", "828", "--c4", "324"],
    "analyze_float":     ["analyze", "--k", "1", "--vol", "1", "--c2", "24",
                          "--float"],
    "analyze_k3_cube":   ["analyze", "--k", "3", "--vol", "7/3", "--c2cube", "36800",
                          "--c2c4", "14720", "--c6", "3200"],
    "analyze_reducible": ["analyze", "--k", "1", "--vol", "1", "--c2", "24",
                          "--reducible"],
    "oracle_gl2_theta":  ["oracle", "--algebra", "gl2",
                          str(DATA / "theta_vector.txt")],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    code, out, err = run_cli(CASES[name])
    assert code == 0
    assert err == ""
    assert out == (GOLDEN / f"{name}.txt").read_text()


# sha256 of the stdout of `omega --k K` (K = 0..6, GRAPHGENUS_MAX_K=6) and of
# `genus --series S --k K` (K = 0..8); with the odd classes set to zero, ahat
# and todd print the same text
AHAT_DIGESTS = [
    "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "37379b95571982b6400147dcccab1042b0b6d5ca11c43682874f553d18fba505",
    "a27562bea8aa0cfd3082d6cecd58f3d748ac2efa2f3c1f4037036df0de9286d5",
    "5c893abf49f8cdbf3d0a2bc57498cd9d608aa1409c622023d6e84366ac206eb5",
    "6fa80421567d4ccc5bebe70bffe7804b3749828f1d1b0432689241502a013732",
    "ff554ccd7df7ec538ba058bd339918503dfd2255ef351b8dfa89e59ee1755a36",
    "4b2ea02c229317c3cfff599402f6a159c4e9674c9abde713c13524ab26074a72",
    "e7d5107c57ace6cec918d86caec84ed4d61959e8ad8c2c9711f42c03b71e4166",
    "06cce070d8adbf621ac2764279aa338a0d6d6c63216e5ee957be65e7a026fe29",
]
TEXT_DIGESTS = {
    "omega": [
        "86debbcda70d5eb517679ed3978f7611542dfdaaba4d24e8fb0503e4b51e2f62",
        "5bdc8db724c05bf733cdbe02fc0ef5f03e483ff8c2fdcc20db990862c0f43754",
        "3c7a72e22daae319031d8c1232b127beba3c40ad804f590c14e5981654ce764e",
        "f3c5aa62f787e96d58117f9c7f37f8a0146788f6f61b79a19eae0f1913851585",
        "15442083f893402c1f398a3c36a2943acd1deda85d62b1b5ba927a4aa62d525c",
        "db0a9f8d13494afad2298c99c7bc136dcb5979c95e8dca8b2d3ccec52430af51",
        "c9c353ea4063d267b2290a845b514e7c6305c93cf6f32bbbd54bd6f866da0a74",
    ],
    "ahat": AHAT_DIGESTS,
    "todd": AHAT_DIGESTS,
    "sqrt-ahat": [
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
        "fb0fa53881640e6337a019dfe5611dfe8968c583f9b62bcf64467bcb69be3a0c",
        "c21754ebf3d18cee865336ce69c7a12865f9181a1ca465c7300ed41ef16c97ac",
        "6e7609a34b11ae1ed30ce2fe1eba85e02a99490c410fa40944dc5824f55b5f27",
        "3ba7aaf8714504b104eb1364f78de1bde010f42711d14339dc10358d3979652c",
        "17ab96963cdc46f66e9d250ee74b4a871e400cf04946d759a84adb22c7a237d6",
        "9ff9f6dc203c3967ea06e8024437072ff0783d644881ad0c5d2221751e435604",
        "235176a0bcf4a6431823c110ee744b3679eee5450c1d28fb48dfffd9246d2df6",
        "1bab6a613148963dc421c68560df82d3142389a941aec45893a1e0315c699d9d",
    ],
}


@pytest.mark.parametrize("command", sorted(TEXT_DIGESTS))
def test_omega_and_genus_text_digests(monkeypatch, command):
    monkeypatch.setenv("GRAPHGENUS_MAX_K", "6")
    head = ["omega"] if command == "omega" else ["genus", "--series", command]
    for k, digest in enumerate(TEXT_DIGESTS[command]):
        code, out, err = run_cli(head + ["--k", str(k)])
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (command, k)


def test_dim_small_degrees():
    for k, expect in [(0, "1\n"), (1, "1\n"), (3, "3\n")]:
        code, out, err = run_cli(["dim", "--k", str(k)])
        assert (code, out, err) == (0, expect, "")


def test_ihx_emit_single_index_matches_full_stream():
    # degree 2 has exactly one relation, so index 0 reproduces the stream
    code, out, _ = run_cli(["ihx", "emit", "--k", "2", "--index", "0"])
    assert code == 0
    assert out == (GOLDEN / "ihx_emit_k2.txt").read_text()


def test_emitted_relations_vanish_under_every_oracle(tmp_path):
    code, out, _ = run_cli(["ihx", "emit", "--k", "2"])
    assert code == 0
    stream = tmp_path / "relation.txt"
    stream.write_text(out)
    for algebra in ["sl2", "gl2", "gl3", "abelian(2)"]:
        code, out, err = run_cli(["oracle", "--algebra", algebra, str(stream)])
        assert (code, out, err) == (0, "0\n", "")


def test_analyze_boundary_fails_with_exit_1():
    code, out, err = run_cli(["analyze", "--k", "2", "--vol", "1",
                              "--c2sq", "1728", "--c4", "3024"])
    assert code == 1
    assert err == ""
    lines = out.splitlines()
    assert "sqrt_ahat 0" in lines
    assert "c_theta none" in lines
    assert "norm_R_sq none" in lines
    assert "verdicts.sqrt_ahat_positive fail" in lines
    assert "verdicts.euler_below_3024 fail" in lines
    # informational verdicts never drive the exit code on their own
    assert "verdicts.beauville_euler_at_most_324 info-no" in lines


def test_failed_wheeling_check_exits_1_with_its_residual(monkeypatch):
    residual = graph_algebra.theta_vector() * Fraction(-1, 24)
    monkeypatch.setattr(cli, "wheeling_check",
                        lambda k: WheelingReport(k, False, False, residual))
    code, out, err = run_cli(["wheeling", "--k", "2"])
    assert (code, err) == (1, "")
    assert out == "FAIL residual=\n" + graph_algebra.format_vector(residual) + "\n"
    assert out.splitlines()[1].startswith("coeff -1/24 graph {")


def test_byte_order_mark_is_skipped(tmp_path):
    plain = DATA / "theta_permuted.txt"
    marked = tmp_path / "theta_bom.txt"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    for head in (["normalize"], ["oracle", "--algebra", "gl2"]):
        expected = run_cli(head + [str(plain)])
        assert expected[0] == 0
        assert run_cli(head + [str(marked)]) == expected


def test_parse_error_reports_line_number():
    code, out, err = run_cli(["normalize", str(DATA / "selfloop.txt")])
    assert code == 2
    assert out == ""
    assert err == "SelfLoop at line 3\n"


def test_missing_chern_monomial():
    code, _, err = run_cli(["analyze", "--k", "2", "--vol", "1",
                            "--c2sq", "828"])
    assert code == 2
    assert err == "MissingMonomial: missing value for monomial (4,)\n"


def test_degree_bound_enforced():
    code, _, err = run_cli(["dim", "--k", "9"])
    assert code == 2
    assert err == "BoundExceeded: degree 9 exceeds the configured bound 3\n"


@pytest.mark.parametrize("argv, flag, degree", [
    (["--k", "1", "--c2", "24", "--c4", "5", "--c2cube", "7"], "c4", 2),
    (["--k", "1", "--c2", "24", "--c6", "7"], "c6", 3),
    (["--k", "2", "--c2sq", "828", "--c4", "324", "--c2", "24"], "c2", 1),
    (["--k", "2", "--c2sq", "828", "--c4", "324", "--c2c4", "1"], "c2c4", 3),
    (["--k", "3", "--c2cube", "1", "--c2c4", "1", "--c6", "1", "--c2sq", "1"], "c2sq", 2),
    (["--k", "3", "--c4", "1"], "c4", 2),
])
def test_chern_flag_of_another_degree_exits_2(argv, flag, degree):
    k = argv[1]
    code, out, err = run_cli(["analyze", "--vol", "1"] + argv)
    assert (code, out) == (2, "")
    assert err == f"DegreeMismatch: --{flag} is a degree-{degree} Chern number, but --k is {k}\n"


def test_bad_volume_string():
    code, _, err = run_cli(["analyze", "--k", "1", "--vol", "banana",
                            "--c2", "24"])
    assert code == 2
    assert err.startswith("ValueError:")


@pytest.mark.parametrize("flag, literal, message", [
    ("--vol", "*pi^2", "no coefficient in the scalar '*pi^2'"),
    ("--vol", "", "no coefficient in the scalar ''"),
    ("--vol", "1*pi^2*pi^2",
     "bad factor 'pi^2*pi^2' in the scalar '1*pi^2*pi^2': expected pi^<even power>"),
    ("--normRsq", "2*pi", "bad factor 'pi' in the scalar '2*pi': expected pi^<even power>"),
    ("--normRsq", "2*pi^²", "bad factor 'pi^²' in the scalar '2*pi^²': expected pi^<even power>"),
    ("--normRsq", "2*pi^3",
     "the power of pi in '2*pi^3' is odd"),
    ("--vol", "1*pi^" + "2" * 5000,
     "the power of pi in '1*pi^2222222...2222222222222' has more than 4300 digits"),
    ("--vol", "abc*pi^2", "bad rational 'abc': expected an integer, p/q or a decimal"),
    ("--c2", "abc", "bad rational 'abc': expected an integer, p/q or a decimal"),
    ("--c2", "", "bad rational '': expected an integer, p/q or a decimal"),
], ids=["no-coefficient", "empty", "two-factors", "no-power", "superscript-power",
         "odd-power", "5000-digit-power", "bad-coefficient", "bad-rational",
         "empty-rational"])
def test_malformed_scalars_have_their_own_message(flag, literal, message):
    code, out, err = run_cli(K1_REPORT + [flag, literal])  # the last --vol or --c2 wins
    assert (code, out, err) == (2, "", f"ValueError: {message}\n")


def test_nonpositive_volume():
    code, _, err = run_cli(["analyze", "--k", "1", "--vol", "-2",
                            "--c2", "24"])
    assert code == 2
    assert err == "ValueError: volume must be positive\n"


@pytest.mark.parametrize("vol", ["1e-400", "1e400"])
def test_volume_beyond_float_range(vol):
    code, out, err = run_cli(["analyze", "--k", "1", "--vol", vol, "--c2", "24"])
    assert (code, err) == (0, "")
    assert out.startswith("sqrt_ahat 1\n")


@pytest.mark.parametrize("vol, c_theta", [("1e-400", "8.37463703957e+202"),
                                           ("1e400", "8.37463703957e-198")])
def test_inexact_norm_over_volume_beyond_float_range(vol, c_theta):
    # at k = 2 the norm is a float root; dividing it by an exact volume
    # outside the double range must not round the volume to 0 or inf
    code, out, err = run_cli(["analyze", "--k", "2", "--vol", vol,
                              "--c2sq", "828", "--c4", "324"])
    assert (code, err) == (0, "")
    assert f"c_theta {c_theta}" in out.splitlines()


def test_chern_number_beyond_float_range():
    code, out, err = run_cli(["analyze", "--k", "2", "--vol", "1",
                              "--c2sq", "1e400", "--c4", "0"])
    assert (code, err) == (1, "")
    assert "verdicts.a1_squared_below_12 fail" in out


K1_REPORT = ["analyze", "--k", "1", "--vol", "1", "--c2", "24"]
DEGREE2 = ["--c2sq", "828", "--c4", "324"]
DEGREE3 = ["--c2cube", "30208", "--c2c4", "6784", "--c6", "1548"]


@pytest.mark.parametrize("argv", [
    # a zero denominator in any typed number
    ["analyze", "--k", "1", "--vol", "1/0", "--c2", "24"],
    ["analyze", "--k", "1", "--vol", "1", "--c2", "1/0"],
    K1_REPORT + ["--normRsq", "1/0"],
    # a negative measured norm
    K1_REPORT + ["--normRsq", "-5"],
    # exact values whose double would be 0 or inf
    ["analyze", "--k", "1", "--vol", "1e-400", "--c2", "24", "--float"],
    ["analyze", "--k", "1", "--vol", "1e400", "--c2", "24", "--float"],
    ["analyze", "--k", "2", "--vol", "1", "--c2sq", "1e400", "--c4", "0", "--float"],
    ["analyze", "--k", "2", "--vol", "1", "--normRsq", "1e500"] + DEGREE2 + ["--float"],
    ["analyze", "--k", "3", "--vol", "1e-400", "--normRsq", "5"] + DEGREE3 + ["--float"],
    # a Root (the norm, or c_theta) whose double leaves the double range
    ["analyze", "--k", "2", "--vol", "1e-620"] + DEGREE2,
    ["analyze", "--k", "2", "--vol", "1e-700"] + DEGREE2,
], ids=" ".join)
def test_values_beyond_the_exact_boundary_exit_2(argv):
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert re.fullmatch(r"ValueError: [^\n]+\n", err)


@pytest.mark.parametrize("argv", [
    ["analyze", "--k", "2", "--vol", "1e1000000"] + DEGREE2,
    ["analyze", "--k", "2", "--vol", "1e-100000"] + DEGREE2,
    ["analyze", "--k", "1", "--vol", "1", "--c2", "24e99999999"],
    K1_REPORT + ["--normRsq", "5e100000*pi^2"],
], ids=" ".join)
def test_literals_beyond_the_digit_bound_exit_2(argv):
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert re.fullmatch(r"ValueError: [^\n]+ more than 4300 digits\n", err)


def test_vector_coefficient_beyond_the_digit_bound(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("coeff 1e99999999 graph { vertices 2 ; edge 0 1 ; edge 0 1 ; edge 0 1 ; }\n")
    code, out, err = run_cli(["oracle", "--algebra", "gl2", str(path)])
    assert (code, out, err) == (2, "", "bad rational '1e99999999' at line 1\n")


def test_float_report_when_only_the_coefficient_leaves_the_double_range():
    # c_theta is a 402-digit integer times pi^-798, about 1.8e5: a double
    # although neither factor alone is
    argv = ["analyze", "--k", "1", "--vol", "1e-400*pi^800", "--c2", "24"]
    code, exact, err = run_cli(argv)
    assert (code, err) == (0, "")
    code, rounded, err = run_cli(argv + ["--float"])
    assert (code, err) == (0, "")
    exact_lines = dict(line.split(" ") for line in exact.splitlines())
    float_lines = dict(line.split(" ") for line in rounded.splitlines())
    assert exact_lines.keys() == float_lines.keys()
    coef, power = exact_lines["c_theta"].split("*pi^")
    assert int(power) == -798
    # the double pi to the 798th power is within 1e-13 of the real one
    reference = float(Fraction(coef) * Fraction(math.pi) ** int(power))
    assert 1.8e5 < reference < 1.81e5
    assert float(float_lines["c_theta"]) == pytest.approx(reference, rel=1e-11)
    for key in ("sqrt_ahat", "ahat", "euler", "b_theta_k"):
        assert float(float_lines[key]) == float(Fraction(exact_lines[key]))


def test_every_exported_exception_is_a_value_error():
    # cli.main turns ValueError into exit 2, so this is the whole contract
    exported = [obj for obj in vars(graphgenus).values()
                if isinstance(obj, type) and issubclass(obj, BaseException)]
    assert len(exported) > 20
    assert all(issubclass(cls, ValueError) for cls in exported)


def test_one_degree_mismatch_class():
    assert genus.DegreeMismatch is graph_algebra.DegreeMismatch


def test_no_two_public_names_share_an_object():
    names: dict[int, list[str]] = {}
    for name, obj in vars(graphgenus).items():
        if not name.startswith("_"):
            names.setdefault(id(obj), []).append(name)
    assert [group for group in names.values() if len(group) > 1] == []


@pytest.mark.parametrize("argv", [["normalize"], ["reduce", "--k", "1"]], ids=" ".join)
def test_truncated_input_names_its_last_line(tmp_path, argv):
    path = tmp_path / "cut.txt"
    path.write_text("graph {\nvertices 2")
    code, out, err = run_cli(argv + [str(path)])
    assert (code, out, err) == (2, "", "unexpected end of input at line 2\n")


@pytest.mark.parametrize("digits, code", [(4300, 0), (4301, 2)])
def test_integer_coefficient_at_the_digit_bound(tmp_path, digits, code):
    # no exponent: Python's own int<->str bound of 4,300 digits applies
    literal = "7" * digits
    path = tmp_path / "v.txt"
    path.write_text(f"coeff {literal} graph {{ vertices 2 ; edge 0 1 ; edge 0 1 ; edge 0 1 ; }}\n")
    got, out, err = run_cli(["reduce", "--k", "1", str(path)])
    if code:
        assert (got, out, err) == (2, "", f"bad rational {literal!r} at line 1\n")
    else:
        assert (got, err) == (0, "") and literal in out


def test_zero_denominator_coefficient(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("coeff 1/0 graph { vertices 2 ; edge 0 1 ; edge 0 1 ; edge 0 1 ; }\n")
    code, out, err = run_cli(["reduce", "--k", "1", str(path)])
    assert (code, out, err) == (2, "", "bad rational '1/0' at line 1\n")


@pytest.mark.parametrize("text, message", [
    ("graph { vertices -1 ; }",
     "vertex count -1 outside 0..0 (two ends per edge) at line 1"),
    ("graph {\n vertices 99999999999 ;\n edge 0 1 ; }",
     "vertex count 99999999999 outside 0..2 (two ends per edge) at line 2"),
    ("graph { vertices 2 ;\n valence 0 1 ; valence 1 1 ;\n valence 7 3 ;\n edge 0 1 ; }",
     "valence names missing vertex 7 at line 3"),
])
def test_graph_file_defects_exit_2(tmp_path, text, message):
    path = tmp_path / "g.txt"
    path.write_text(text + "\n")
    code, out, err = run_cli(["normalize", str(path)])
    assert (code, out, err) == (2, "", message + "\n")


@pytest.mark.parametrize("argv, prefix", [
    (["normalize"], ""),
    (["reduce", "--k", "3"], "coeff 1 "),  # canonical_form through parse_vector
], ids=["normalize", "reduce"])
def test_graph_beyond_the_recursion_limit_exits_2(tmp_path, argv, prefix):
    # theta^500 has 1,000 vertices; the canonical search recurses once per vertex
    edges = " ".join(f"edge {2 * i} {2 * i + 1} ;" for i in range(500) for _ in range(3))
    path = tmp_path / "theta500.txt"
    path.write_text(f"{prefix}graph {{ vertices 1000 ; {edges} }}\n")
    src = Path(graphgenus.__file__).resolve().parent.parent
    result = subprocess.run([sys.executable, "-m", "graphgenus.cli", *argv, str(path)],
                            capture_output=True, text=True, timeout=60,
                            env={**os.environ, "PYTHONPATH": str(src)})
    assert (result.returncode, result.stdout) == (2, "")
    assert re.fullmatch(r"RecursionError: the graph is too large for the canonical "
                        r"search, which recurses once per vertex; Python's "
                        r"recursion limit is \d+\n", result.stderr)


def test_negative_genus_degree():
    code, out, err = run_cli(["genus", "--series", "ahat", "--k", "-1"])
    assert (code, out, err) == (2, "", "DegreeMismatch: degree -1 is negative\n")


def test_a_genus_is_rendered_once_per_process(monkeypatch):
    rendered = []
    render = genus.ChernPolynomial.render
    monkeypatch.setattr(genus.ChernPolynomial, "render",
                        lambda p: rendered.append(p) or render(p))
    cli._genus_text.cache_clear()
    argv = ["genus", "--series", "todd", "--k", "2"]
    first = run_cli(argv)
    assert first[0] == 0 and run_cli(argv) == first
    assert len(rendered) == 1


def test_unknown_algebra():
    theta_vector = str(DATA / "theta_vector.txt")
    for name in ("e8", "gl²", "abelian(¹)", "gl(" + "9" * 5000 + ")"):
        code, out, err = run_cli(["oracle", "--algebra", name, theta_vector])
        assert (code, out) == (2, "")
        assert err == f"UnknownName: no built-in algebra named {name!r}\n"
    # decimal digits of any script name a rank
    assert run_cli(["oracle", "--algebra", "gl(٣)", theta_vector]) == (0, "48\n", "")


def test_weight_beyond_the_print_limit_is_a_typed_error():
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(["oracle", "--algebra", "gl(" + "9" * 1500 + ")",
                              str(DATA / "theta_vector.txt")])
    assert (code, out) == (2, "")
    assert err == (f"WeightTooLarge: the weight has more than {limit} digits, "
                   "Python's limit for printing an integer\n")
    assert sys.get_int_max_str_digits() == limit


def test_relation_index_out_of_range():
    code, _, err = run_cli(["ihx", "emit", "--k", "2", "--index", "5"])
    assert code == 2
    assert err == "AlgebraError: relation index 5 out of range 0..0\n"


def test_relation_index_in_degree_without_relations():
    code, out, err = run_cli(["ihx", "emit", "--k", "1", "--index", "0"])
    assert code == 2
    assert out == ""
    assert err == "AlgebraError: degree 1 has no relations\n"


def test_missing_input_file():
    code, _, err = run_cli(["normalize", str(DATA / "nonexistent.txt")])
    assert code == 2
    assert err.startswith("FileNotFoundError:")


@pytest.mark.parametrize("argv", [
    [],
    ["frobnicate"],
    ["genus", "--series", "chern", "--k", "1"],
    ["analyze", "--k", "4"],
])
def test_usage_errors_exit_2(argv):
    code, _, err = run_cli(argv)
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv", [[], ["frobnicate"], ["--k", "2", "dim"]], ids=repr)
def test_no_command_prints_the_top_level_usage(argv):
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: graphgenus [-h]") and "graphgenus: error:" in err


@pytest.mark.parametrize("argv, usage", [
    (["dim", "--k", "two"], "graphgenus dim"),
    (["dim", "--k", "2", "extra"], "graphgenus dim"),
    (["dim"], "graphgenus dim"),
    (["genus", "--series", "chern", "--k", "1"], "graphgenus genus"),
    (["analyze", "--k", "4", "--vol", "1"], "graphgenus analyze"),
    (["ihx"], "graphgenus ihx"),
    (["ihx", "emit", "--k", "3", "--index", "x"], "graphgenus ihx emit"),
], ids=" ".join)
def test_usage_error_after_a_command_prints_its_usage(argv, usage):
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: {usage} [-h]")
    assert f"{usage}: error:" in err


def test_console_entry_reads_sys_argv():
    src = Path(graphgenus.__file__).resolve().parent.parent
    result = subprocess.run([sys.executable, "-m", "graphgenus.cli", "dim", "--k", "2"],
                            capture_output=True, text=True, timeout=60,
                            env={**os.environ, "PYTHONPATH": str(src)})
    assert (result.returncode, result.stdout, result.stderr) == (0, "2\n", "")


def test_one_parser_serves_successive_calls():
    assert cli.build_parser() is cli.build_parser()
    relations = [graph_algebra.format_vector(r) + "\n"
                 for r in graph_algebra.ihx_relations(3).relations]
    assert len(relations) > 1
    assert run_cli(["ihx", "emit", "--k", "3", "--index", "0"]) == (0, relations[0], "")
    code, out, err = run_cli(["ihx", "emit", "--k", "three"])
    assert (code, out) == (2, "")
    assert err.startswith("usage: graphgenus ihx emit") and "error:" in err
    # no option of an earlier call leaks into a later one
    assert run_cli(["ihx", "emit", "--k", "3"]) == (0, "".join(relations), "")


def test_cli_import_leaves_dataclasses_and_inspect_out():
    src = Path(graphgenus.__file__).resolve().parent.parent
    probe = ("import sys, graphgenus.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            text=True, timeout=60, check=True,
                            env={**os.environ, "PYTHONPATH": str(src)})
    assert result.stdout == "[]\n"
