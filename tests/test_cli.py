import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from weightedres import MultiOrder, mord_compare, parse_ideal
from weightedres.blowup import principalize
from weightedres.cli import main
from weightedres.errors import ParseError
from weightedres.lattice import LT
from weightedres.textio import (
    parse_center,
    parse_multiorder,
    parse_polynomial,
    trace_json,
)


# numerals past the interpreter's int/str digit limit (4300 digits by
# default), and one whose square is
LONG = "9" * 5000
SEVENS = "7" * 3000


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_mord_verb(capsys):
    code, out = run(capsys, "mord", "x^5+x^3*y^3+y^7")
    assert code == 0
    assert json.loads(out) == {"mord": ["5", "7"]}


def test_round_verb(capsys):
    code, out = run(capsys, "round", "[x^5, y^(15/2)]")
    assert code == 0
    assert json.loads(out)["generators"] == [
        "x^5",
        "x^4*y^2",
        "x^3*y^3",
        "x^2*y^5",
        "x*y^6",
        "y^8",
    ]


def test_mord_of_a_unit(capsys):
    code, out = run(capsys, "mord", "1")
    assert code == 0
    assert json.loads(out) == {"mord": ["0"]}


def test_center_verb(capsys):
    code, out = run(capsys, "center", "x^5+x^3*y^3+y^8")
    payload = json.loads(out)
    assert code == 0
    assert payload["mord"] == ["5", "15/2"]
    assert payload["center"]["t"][1] == {"coord": "y", "exp": "15/2"}


def test_principalize_verb(capsys):
    code, out = run(capsys, "principalize", "x^2")
    payload = json.loads(out)
    assert code == 0
    assert payload["status"] == "principalized"
    assert len(payload["steps"]) == 1


def test_embed_resolve_verb(capsys):
    code, out = run(capsys, "embed-resolve", "x^2 - y^3", "--codim", "1")
    payload = json.loads(out)
    assert code == 0
    assert payload["status"] == "resolved"


def test_tube_and_rees_verbs(capsys):
    code, out = run(capsys, "tube", "(5,7)")
    assert code == 0
    assert json.loads(out)["rank"] == 23
    code, out = run(capsys, "rees", "[x^2]", "--root", "2")
    assert code == 0
    assert json.loads(out) == {"0": ["1"], "1": ["x"], "2": ["x^2"]}


def test_tschirnhaus_verb(capsys):
    code, out = run(capsys, "tschirnhaus", "x^5+x^3*y^3+y^7", "[x^5, y^7]")
    assert code == 0
    cert = json.loads(out)["certificate"]
    assert cert is not None
    assert [w["c_vector"] for w in cert["witnesses"]] == [[5], [0, 7]]


def test_staircase_text(capsys):
    code, out = run(capsys, "staircase", "(5,7)", "--format", "text")
    assert code == 0
    assert "staircase of (5, 7)" in out
    # the six staircase corners are marked (last line is the legend)
    grid = out.splitlines()[1:-1]
    assert sum(line.count("G") for line in grid) == 6


def test_staircase_text_marks_overlay_only_members(capsys):
    code, out = run(capsys, "staircase", "(3,3)", "--overlay", "(2,3)", "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "staircase of (3, 3) / overlay (2, 3)"
    # rows run down from a_1 = 5; (2, 0) is the one point only the overlay holds
    grid = [line.split()[1:] for line in lines[1:-2]]
    marked = [(5 - i, j) for i, row in enumerate(grid) for j, c in enumerate(row) if c == "o"]
    assert marked == [(2, 0)]


def test_staircase_overlay_svg(capsys):
    code, out = run(capsys, "staircase", "(14/5, 7/2)", "--overlay", "(3,3)", "--format", "svg")
    assert code == 0
    assert out.startswith("<svg") and "stroke-dasharray" in out and "</svg>" in out


def test_degenerate_staircase(capsys):
    code, out = run(capsys, "staircase", "(1,1)", "--format", "text")
    assert code == 0


def test_domain_error_exit_code(capsys):
    code, out = run(capsys, "tschirnhaus", "y", "[y^2]")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "inadmissible"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["mord", "0"], "the zero ideal has no multiorder"),
        (["principalize", "0"], "cannot principalize the zero ideal"),
        (["tschirnhaus", "0", "[x^2]"], "the zero ideal has no canonical center"),
        (["tschirnhaus", "0", "[x^2]", "--make"], "the zero ideal has no canonical center"),
    ],
)
def test_the_zero_ideal_is_a_domain_error(capsys, argv, message):
    code, out = run(capsys, *argv)
    assert code == 1
    assert json.loads(out)["error"] == {"code": "domain-error", "message": message}


@pytest.mark.parametrize("make", [(), ("--make",)])
@pytest.mark.parametrize(
    "ideal, center, witnesses",
    [
        ("(1+t)*x^2, y^3", "[(x+0*t)^2, y^3]", ["x^2 + x^2*t", "y^3"]),
        ("3*y + 3*x^2*y", "[(y+0*x)]", ["y + y*x^2"]),
    ],
)
def test_a_unit_coefficient_certifies(capsys, ideal, center, witnesses, make):
    code, out = run(capsys, "tschirnhaus", ideal, center, *make)
    assert code == 0
    cert = json.loads(out)["certificate"]
    assert [w["witness"] for w in cert["witnesses"]] == witnesses
    assert cert["substitutions"] == []


def test_make_names_a_coefficient_that_is_a_unit_but_not_constant(capsys):
    # the second center is refused by the tie-block shear
    for ideal, center in (
        ("(x^2 - 2)*y^2*t^5", "[(t+0*x)^7, y^7]"),
        ("x*y^4 + x^3*y^2*z^3", "[(y+0*z)^5, x^5]"),
    ):
        code, out = run(capsys, "tschirnhaus", ideal, center, "--make")
        assert code == 1
        error = json.loads(out)["error"]
        assert error["code"] == "fails-to-certify"
        assert "needs a constant coefficient" in error["message"]


def test_parse_error_exit_code(capsys):
    code, out = run(capsys, "mord", "x^5 +++ y")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "parse-error"


def test_zero_denominators_are_parse_errors(capsys):
    for argv in (("mord", "1/0*x"), ("round", "[x^(1/0)]")):
        code, out = run(capsys, *argv)
        assert code == 2
        assert json.loads(out)["error"]["code"] == "parse-error"


def test_zero_root_order_is_a_domain_error(capsys):
    code, out = run(capsys, "rees", "[x^2,y^3]", "--root", "0")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "domain-error"


@pytest.mark.parametrize(
    "argv",
    [["rees", "[x^2,y^3]", "--root", "-1"], ["embed-resolve", "x^2", "--codim", "0"]],
)
def test_a_signed_integer_option_out_of_range_is_a_domain_error(capsys, argv):
    # the ASCII grammar keeps the minus sign, so the domain refuses these
    code, out = run(capsys, *argv)
    assert code == 1
    assert json.loads(out)["error"]["code"] == "domain-error"


def test_batch_mode(tmp_path, capsys):
    script = tmp_path / "commands.txt"
    script.write_text(
        "# a comment line\n"
        'mord "x^5+x^3*y^3+y^7"\n'
        'round "[x^2]"\n'
    )
    code, out = run(capsys, "batch", str(script))
    assert code == 0
    assert '"5"' in out and '"x^2"' in out


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out = run(capsys, "mord", "x^2", "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text()) == {"mord": ["2"]}


def test_degree_cap_from_environment(monkeypatch, capsys):
    monkeypatch.setenv("WEIGHTEDRES_DEGREE_CAP", "8")
    code, out = run(capsys, "mord", "x^9 + y^10")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "resource-cap"
    monkeypatch.delenv("WEIGHTEDRES_DEGREE_CAP")
    code, _ = run(capsys, "mord", "x^9 + y^10")
    assert code == 0


def test_degree_cap_of_a_call_is_gone_when_it_returns(capsys):
    from weightedres import multiorder
    from weightedres.errors import degree_cap

    before = degree_cap()
    code, _ = run(capsys, "--degree-cap", "5", "mord", "x^2")
    assert code == 0
    assert degree_cap() == before
    assert multiorder(parse_ideal("x^9+y^10")).mord == MultiOrder((9, 10))



@pytest.mark.parametrize(
    "argv, cap",
    [
        (["rees", "[x^2, y^3]", "--root", "6000000000000"], None),
        (["staircase", "(20000,20001)"], None),
        (["rees", "[x^7, y^11]", "--root", "77"], "77"),
        (["staircase", "(65,66)"], "66"),
    ],
)
def test_rees_and_staircase_sizes_meet_the_degree_cap(capsys, argv, cap):
    # the largest Rees degree listed and each staircase entry are degrees the
    # output needs, so the cap refuses them before anything is built, naming
    # the refused degree (the root order, or the first entry), not a product
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    if argv[0] == "rees":
        message = f"Rees degree {argv[3]} exceeds cap 64"
    else:
        message = f"staircase entry degree {argv[1][1:].split(',')[0]} exceeds cap 64"
    assert json.loads(captured.out)["error"] == {"code": "resource-cap", "message": message}
    if cap is not None:
        code, out = run(capsys, "--degree-cap", cap, *argv)
        assert code == 0 and out


def test_a_rounding_past_the_cap_names_the_degree_of_its_generator(capsys):
    # [x^100, y^3] is [y^3, x^100] in exponent order; its generator y*x^67
    # is the first of degree above 64
    code, out = run(capsys, "round", "[x^100, y^3]")
    assert code == 2
    error = json.loads(out)["error"]
    assert error == {"code": "resource-cap", "message": "product degree 68 exceeds cap 64"}


# -- usage errors and unwritable files -------------------------------------------


def parse_error(capsys, argv):
    """Run argv; it must exit 2 with exactly one JSON `parse-error` document
    on stdout and nothing on stderr.  Returns the message."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    payload = json.loads(captured.out)
    assert set(payload) == {"error"}
    assert payload["error"]["code"] == "parse-error"
    return payload["error"]["message"]


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["mord"],
        ["mord", "-x^2+y^3"],  # read as an option without `--`
        ["mord", "x^2", "--degree-cap", "3"],  # a top-level option after the verb
        # every number an option reads is written in ASCII digits
        ["--degree-cap", "٦٤", "mord", "x^2"],
        ["rees", "[x^5, y^7]", "--root", "3_5"],
        ["rees", "[x^5, y^7]", "--root", "5", "--degree", "3_5"],
        ["principalize", "x^2", "--max-steps", " 2 "],
        ["embed-resolve", "x^2 - y^3", "--codim", "١"],
    ],
)
def test_usage_errors_are_parse_error_documents(capsys, argv):
    parse_error(capsys, argv)


@pytest.mark.parametrize("argv", [["mord", "x^2+"], ["mord", "x^"], ["mord", "--", "-"]])
def test_input_that_ends_early_says_so(capsys, argv):
    assert parse_error(capsys, argv) == "unexpected end of input"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["mord", "x^2,,y^3"], "generator 2 of 3 is empty"),
        (["mord", ","], "generator 1 of 2 is empty"),
        (["mord", ""], "generator 1 of 1 is empty"),
        (["round", "[x^2,,y^3]"], "entry 2 of 3 is empty"),
        (["round", "[s, | x^2]"], "entry 2 of 2 is empty"),
        (["tube", "(2,)"], "entry 2 of 2 is empty"),
        (["staircase", "(5,,7)"], "entry 2 of 3 is empty"),
        (["tube", "(2,"], "bad rational '(2'"),  # entries are read in order
        (["tube", "(1e1, 20)"], "bad rational '1e1'"),
        (["tube", "(5_0, 70)"], "bad rational '5_0'"),
        (["tube", "(2.5, 5)"], "bad rational '2.5'"),
        (["tube", "(+2, 3)"], "bad rational '+2'"),
        (["staircase", "(5, 7/0)"], "bad rational '7/0'"),
        (["round", "[x^-5]"], "bad exponent in center entry"),
        (["round", "[x^5/2]"], "fractional exponents must be parenthesized"),
        (["mord", "x^٣ + y^５"], "unexpected character '٣' at position 2"),
    ],
)
def test_an_empty_list_entry_is_a_parse_error(capsys, argv, message):
    assert parse_error(capsys, argv) == message


def test_empty_width_and_wrapped_ideal_still_parse():
    assert parse_multiorder("()") == MultiOrder(())
    assert parse_ideal("(x^2, y^3)") == parse_ideal("x^2, y^3")
    assert len(parse_ideal("(x^2 + y^3)").generators) == 1


@pytest.mark.parametrize("steps", ["-1", "0"])
@pytest.mark.parametrize(
    "command", [["principalize", "x^2"], ["embed-resolve", "x^2", "--codim", "1"]]
)
def test_max_steps_must_be_positive(capsys, command, steps):
    assert "--max-steps" in parse_error(capsys, [*command, "--max-steps", steps])


@pytest.mark.parametrize(
    "command", [["mord", "x^2"], ["principalize", "x^2"], ["tube", "(2,3)"]]
)
def test_only_staircase_takes_svg(capsys, command):
    assert "--format" in parse_error(capsys, [*command, "--format", "svg"])


@pytest.mark.parametrize("target", ["missing/f.json", "."])
def test_unwritable_output_is_a_parse_error(tmp_path, capsys, target):
    parse_error(capsys, ["mord", "x^2", "--output", str(tmp_path / target)])


def test_batch_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    script = tmp_path / "commands.txt"
    script.write_bytes(b"mord \xff\n")
    assert "UTF-8" in parse_error(capsys, ["batch", str(script)])


def test_shipped_entry_point():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "weightedres.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )

    done = cli("mord", "x^2")
    assert done.returncode == 0
    assert json.loads(done.stdout) == {"mord": ["2"]}
    done = cli("mord")
    assert done.returncode == 2
    assert json.loads(done.stdout)["error"]["code"] == "parse-error"
    assert done.stderr == ""
    done = cli("-h")
    assert done.returncode == 0
    assert done.stdout.startswith("usage:")


def test_a_closed_pipe_ends_the_run_without_a_traceback():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the child writes
    try:
        done = subprocess.run(
            [sys.executable, "-m", "weightedres.cli", "principalize", "x^5 + x^3*y^3 + y^7"],
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr


# -- round trips -------------------------------------------------------------------


def test_value_round_trips():
    for text in ("x^5 + x^3*y^3 + y^7", "1/2*x - y^4"):
        f = parse_polynomial(text, ("x", "y"))
        assert parse_polynomial(str(f), ("x", "y")) == f
    for text in ("(5, 7)", "(4, 16/3, 32/5)", "(0)"):
        d = parse_multiorder(text)
        assert parse_multiorder(str(d)) == d
    for text in ("[x^5, y^7]", "[x^5, y^(15/2)]", "[s1, s2 | x^5, y^7]"):
        J = parse_center(text)
        again = parse_center(str(J), J.ambient)
        assert again == J


def test_center_round_trip_through_a_coordinate_change():
    J = parse_center("[(x + y^2)^5, y^11]", variables=("x", "y"))
    again = parse_center(str(J), J.ambient)
    assert again == J


def test_center_round_trip_with_coefficients_and_shared_variables():
    # aligned variables are chosen without collisions and coefficients are
    # preserved, so constructed presentations reparse exactly
    J = parse_center("[(1/3*x + 2/3*y)^3, (x - y)^3]", variables=("x", "y"))
    assert parse_center(str(J), J.ambient) == J
    polys = [str(p) for p in J.coordinate_polynomials()]
    assert polys == ["1/3*x + 2/3*y", "x - y"]


def test_tube_rejects_widths_with_unit_entries(capsys):
    code, out = run(capsys, "tube", "(1, 2)")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "domain-error"


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (
            ["embed-resolve", "x + x^2 + y^3", "--codim", "2"],
            "contact-alignment",
            "embedded driver hit a non-alignable divisor point",
        ),
        (["tube", "[x^2, y^(5/2)]"], "non-integral", "[x^2, y^(5/2)] is not integral"),
        # ROADMAP item 6: a contact that cannot be aligned after step 1 still
        # ends the run with an error, and the step already made is lost; a
        # typed driver status for it changes this case on purpose
        (
            ["principalize", "(x^2 - 2*y^2)*(x - y)^2 + y^9"],
            "contact-alignment",
            "no polynomially alignable contact in ",
        ),
        # a center coordinate is a local coordinate at the origin; the
        # entry (1+x)^2 is the coordinate 1 + x squared
        *(
            (argv, "parse-error", "center coordinate 1 + x does not vanish at the origin")
            for argv in (
                ["round", "[(1+x)^2, y^3]"],
                ["tube", "[(1+x)^2, y^3]"],
                ["rees", "[(1+x)^2, y^3]", "--root", "6"],
            )
        ),
        # an exponent applies to one variable or one parenthesized group, so
        # a sum or a product before a caret is refused, not read as a power
        # of the whole entry
        *(
            (argv, "parse-error", f"center entry {entry}: an exponent applies to one")
            for argv, entry in (
                (["round", "[x + y^2, z^3]"], "x+y^2"),
                (["tube", "[x + y^2, z^3]"], "x+y^2"),
                (["round", "[2*x^3, y^5]"], "2*x^3"),
                (["round", "[1+x^2, y^3]"], "1+x^2"),
            )
        ),
        # an input numeral past the digit limit is a parse error, and a
        # coefficient too long to print is a resource cap, not a traceback
        *(
            (argv, "parse-error", "a numeral of 5000 digits exceeds the limit of ")
            for argv in (
                ["mord", f"{LONG}*x"],
                ["mord", f"x^{LONG}"],
                ["tube", f"(5,{LONG})"],
                ["staircase", f"(5,{LONG})"],
            )
        ),
        *(
            (argv, "resource-cap", "a coefficient of 6000 digits is too long to print")
            for argv in (
                ["round", f"[(x + {SEVENS}*y^2)^2, y^5]"],
                ["principalize", f"(x + {SEVENS}*y^2)^2 + y^5"],
            )
        ),
    ],
    ids=[
        "embedded-divisor-point",
        "fractional-tube",
        "contact-after-step-1",
        "round-off-origin",
        "tube-off-origin",
        "rees-off-origin",
        "round-sum-before-caret",
        "tube-sum-before-caret",
        "round-product-before-caret",
        "round-unit-sum-before-caret",
        "mord-long-coefficient",
        "mord-long-exponent",
        "tube-long-width",
        "staircase-long-width",
        "round-unprintable-coefficient",
        "principalize-unprintable-coefficient",
    ],
)
def test_refusals_that_no_other_case_reaches(capsys, argv, code, message):
    exit_code, out = run(capsys, *argv)
    error = json.loads(out)["error"]
    assert exit_code == (2 if code in ("parse-error", "resource-cap") else 1)
    assert error["code"] == code
    assert error["message"].startswith(message)
    assert "steps" not in out


def test_a_constant_power_past_the_digit_limit_is_refused_before_it_is_computed(capsys):
    # 3^10000000 has 4.8 million digits: computing it took seconds
    start = time.perf_counter()
    code, out = run(capsys, "mord", "3^10000000*x")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert json.loads(out)["error"]["code"] == "resource-cap"
    for text in ("3^1000*x", "1^1000000000*x", "(-1)^1000000001*x"):
        code, out = run(capsys, "mord", text)
        assert (code, json.loads(out)) == (0, {"mord": ["1"]}), text


def test_a_long_root_search_coefficient_caps_the_driver_like_a_short_one(capsys):
    # the fiber's root search refuses coefficients above 10^12, and the
    # driver reports that refusal as its status; a coefficient too long to
    # print in the refusal's message ends the run the same way
    for c in ("77777777777777", SEVENS):
        code, out = run(capsys, "principalize", f"(x - {c}*y)*(x + y)")
        assert code == 0
        assert json.loads(out) == {"status": "resource-capped", "mode": "principalize", "steps": []}


def test_a_center_that_needs_a_shear_prints_no_certificate(capsys):
    # the center verb's own output, [y^5, x^5], is not certified as given
    _, out = run(capsys, "center", "x*y^4 + x^3*y^2*z^3", "--format", "text")
    assert out.startswith("mord (5, 5)  center [y^5, x^5]")
    code, out = run(capsys, "tschirnhaus", "x*y^4 + x^3*y^2*z^3", "[y^5, x^5]")
    assert code == 0 and json.loads(out) == {"certificate": None}


def test_a_negative_weight_parses_and_is_refused_by_the_domain(capsys):
    code, out = run(capsys, "tube", "(-2, 3)")
    assert code == 1
    assert json.loads(out)["error"]["message"] == "entries must be positive, got -2"


def test_trace_json_replays_the_drop_verdict():
    trace = principalize(parse_ideal("x^5 + x^3*y^3 + y^7"))
    payload = trace_json(trace)
    # replay: every tracked invariant must lexicographically precede its step
    for step in payload["steps"]:
        before = MultiOrder([Fraction(e) for e in step["mord"]])
        for chart in step["charts"]:
            for pt in chart["tracked_points"]:
                after = MultiOrder([Fraction(e) for e in pt["mord_after"]])
                assert mord_compare(after, before) == LT


# -- batch files -------------------------------------------------------------------


def run_batch(tmp_path, capsys, text, *outer):
    """Run a batch file; returns the exit code and the printed lines."""
    script = tmp_path / "commands.txt"
    script.write_text(text.replace("SELF", str(script)))
    code, out = run(capsys, *outer, "batch", str(script))
    return code, out.splitlines()


def test_batch_lines_inherit_the_outer_degree_cap(tmp_path, capsys):
    code, lines = run_batch(
        tmp_path, capsys, 'mord "x^40*y + y^41"\n', "--degree-cap", "5"
    )
    assert code == 2
    assert json.loads(lines[0])["error"]["code"] == "resource-cap"


def test_batch_file_naming_itself_is_a_parse_error(tmp_path, capsys):
    code, lines = run_batch(tmp_path, capsys, 'batch "SELF"\nmord x^2 --format text\n')
    assert code == 2
    assert json.loads(lines[0])["error"]["code"] == "parse-error"
    assert lines[1:] == ["(2)"]


def test_batch_unknown_verb_does_not_stop_the_run(tmp_path, capsys):
    bad = ['frobnicate "x"', "mord -h", "--degree-cap 0 mord x"]
    text = "\n".join(bad + ['round "[x^2]" --format text']) + "\n"
    code, lines = run_batch(tmp_path, capsys, text)
    assert code == 2
    assert [json.loads(line)["error"]["code"] for line in lines[:3]] == ["parse-error"] * 3
    assert lines[3:] == ["(x^2)"]


def test_batch_unbalanced_quote_is_a_parse_error(tmp_path, capsys):
    code, lines = run_batch(tmp_path, capsys, 'mord "x^2\nmord x^3 --format text\n')
    assert code == 2
    assert json.loads(lines[0])["error"]["code"] == "parse-error"
    assert lines[1:] == ["(3)"]


def test_huge_constant_is_refused_by_the_root_search_bound(capsys):
    import time

    start = time.perf_counter()
    code, out = run(capsys, "principalize", "x^3 - 100000000000000000039*y^3")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "resource-capped"
    assert doc["steps"] == []


# -- unknown variables and malformed settings -----------------------------------


def test_a_tschirnhaus_ideal_may_name_variables_the_center_does_not(capsys):
    # the output of `center` feeds back: the free variable z joins the ambient
    code, out = run(capsys, "center", "x^2 + y^3 + x^2*z", "--format", "text")
    assert code == 0 and out.strip() == "mord (2, 3)  center [x^2, y^3]"
    code, out = run(capsys, "tschirnhaus", "x^2 + y^3 + x^2*z", "[x^2, y^3]")
    assert code == 0 and json.loads(out)["certificate"] is not None
    code, out = run(capsys, "tschirnhaus", "x + z", "[x^2]")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "inadmissible"


def test_parsers_with_an_explicit_ambient_reject_unknown_variables():
    for parse, text in ((parse_ideal, "x + z"), (parse_center, "[z^2]")):
        with pytest.raises(ParseError, match="'z'"):
            parse(text, ("x",))


@pytest.mark.parametrize("raw", ["abc", "2.5", "0", "-3", "", "٦٤"])
def test_malformed_degree_cap_in_the_environment_is_a_parse_error(monkeypatch, capsys, raw):
    monkeypatch.setenv("WEIGHTEDRES_DEGREE_CAP", raw)
    code, out = run(capsys, "mord", "x^2")
    assert code == 2
    error = json.loads(out)["error"]
    assert error["code"] == "parse-error"
    assert "WEIGHTEDRES_DEGREE_CAP" in error["message"]


def test_a_degree_cap_past_the_digit_limit_in_the_environment_is_a_parse_error(monkeypatch, capsys):
    digits = sys.get_int_max_str_digits() + 1
    monkeypatch.setenv("WEIGHTEDRES_DEGREE_CAP", "9" * digits)
    code, out = run(capsys, "mord", "x")
    assert code == 2
    error = json.loads(out)["error"]
    assert error["code"] == "parse-error"
    assert f"WEIGHTEDRES_DEGREE_CAP has {digits} digits" in error["message"]


# -- fuzz over the input grammar ---------------------------------------------------

FUZZ_VARS = ("x", "y", "z")
digit = st.integers(1, 9)


@st.composite
def rationals(draw, zero_denominator=True):
    p = str(draw(digit))
    if draw(st.booleans()):
        return p
    return f"{p}/{draw(st.integers(0 if zero_denominator else 1, 9))}"


@st.composite
def ideal_texts(draw):
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        text = ""
        for k in range(draw(st.integers(1, 3))):
            factors = [
                v if e == 1 else f"{v}^{e}"
                for v in FUZZ_VARS
                if (e := draw(st.integers(0, 6)))
            ]
            coeff = draw(st.one_of(st.just(""), rationals()))
            mono = "*".join(([coeff] if coeff else []) + factors) or "1"
            sign = draw(st.sampled_from(("+", "-") if k else ("", "-")))
            text += f" {sign} {mono}" if k else f"{sign}{mono}"
        gens.append(text)
    return ", ".join(gens)


@st.composite
def center_texts(draw):
    block = draw(st.lists(st.sampled_from(FUZZ_VARS), max_size=2))
    entries = []
    for _ in range(draw(st.integers(1, 3))):
        v = draw(st.sampled_from(FUZZ_VARS))
        e = draw(st.one_of(digit.map(str), rationals().map(lambda r: f"({r})")))
        entries.append(f"{v}^{e}")
    head = ", ".join(block) + " | " if block else ""
    return "[" + head + ", ".join(entries) + "]"


@st.composite
def width_texts(draw):
    return "(" + ", ".join(draw(st.lists(rationals(), min_size=1, max_size=3))) + ")"


def _command(verb, *positionals, options=()):
    return verb, positionals, options


commands = st.one_of(
    ideal_texts().map(lambda I: _command("mord", I)),
    ideal_texts().map(lambda I: _command("center", I)),
    center_texts().map(lambda J: _command("round", J)),
    st.tuples(ideal_texts(), center_texts(), st.booleans()).map(
        lambda t: _command("tschirnhaus", t[0], t[1], options=("--make",) * t[2])
    ),
    ideal_texts().map(lambda I: _command("principalize", I, options=("--max-steps", "3"))),
    st.tuples(ideal_texts(), st.integers(1, 2)).map(
        lambda t: _command(
            "embed-resolve", t[0], options=("--codim", str(t[1]), "--max-steps", "3")
        )
    ),
    st.one_of(center_texts(), width_texts()).map(lambda A: _command("tube", A)),
    st.tuples(center_texts(), st.integers(0, 12)).map(
        lambda t: _command("rees", t[0], options=("--root", str(t[1])))
    ),
    st.tuples(width_texts(), st.one_of(st.none(), width_texts())).map(
        lambda t: _command("staircase", t[0], options=("--overlay", t[1]) if t[1] else ())
    ),
)


def _argv(command, dashdash):
    # without `--` a positional with a leading minus reads as an option,
    # which must end in a parse-error document too
    verb, positionals, options = command
    return ["--degree-cap", "16", verb, *options, *("--",) * dashdash, *positionals]


cli_inputs = st.tuples(commands, st.booleans()).map(lambda t: _argv(*t))


@settings(max_examples=200, deadline=None)
@given(cli_inputs)
def test_every_cli_input_exits_cleanly_with_a_json_error_on_failure(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert err.getvalue() == ""
    if code:
        assert set(json.loads(out.getvalue())) == {"error"}
