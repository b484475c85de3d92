import contextlib
import io
import json
import multiprocessing
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sagbikit import matchings, relations
from sagbikit.cli import main


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_relations_a233(capsys):
    code, out, _ = _run(capsys, ["relations", "--matrix", "3x3", "--minors", "2",
                                 "--order", "diag"])
    assert code == 0
    assert "#SAGBI\t11" in out
    assert "#rel\t0" in out


def test_relations_g24(capsys):
    code, out, _ = _run(capsys, ["relations", "--matrix", "2x4", "--minors", "2",
                                 "--order", "diag"])
    assert code == 0
    assert "#SAGBI\t6" in out and "#rel\t1" in out
    assert "rel\tY1*Y6 - Y2*Y5 + Y3*Y4" in out


def test_sagbi_inline_generators(capsys):
    code, out, _ = _run(capsys, ["sagbi", "--vars", "x,y", "--gen", "x+y",
                                 "--gen", "y", "--order", "lex"])
    assert code == 0
    assert "#SAGBI\t2" in out


def test_parse_error_exit_code(capsys):
    code, _, err = _run(capsys, ["sagbi", "--vars", "x,y", "--gen", "x + + y",
                                 "--order", "lex"])
    assert code == 2
    assert "line 1" in err


def test_missing_generators_is_usage_error(capsys):
    code, _, err = _run(capsys, ["sagbi", "--vars", "x,y", "--order", "lex"])
    assert code == 2
    assert "generator source" in err


def test_matchings_tsv_3x3(capsys):
    code, out, _ = _run(capsys, ["matchings", "--matrix", "3x3", "--minors", "2",
                                 "--workers", "1"])
    assert code == 0
    lines = out.splitlines()
    rows = [l for l in lines if l and not l.startswith(("#", "canonical"))]
    assert len(rows) == 5
    assert "# total\t102" in out


def test_matchings_json_deterministic(capsys):
    argv = ["matchings", "--matrix", "3x3", "--minors", "2",
            "--format", "json", "--workers", "1"]
    code1, out1, _ = _run(capsys, argv)
    code2, out2, _ = _run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["total"] == 102 and payload["orbits"] == 5
    assert sum(1 for r in payload["rows"] if r["full_support"]) == 1


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_matchings_report_does_not_depend_on_workers(capsys, monkeypatch, fmt):
    # the walk is serial: starting a process pool fails the test
    def no_pool(*args, **kwargs):
        raise AssertionError("matchings started a process pool")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    argv = ["matchings", "--matrix", "3x3", "--minors", "2", "--format", fmt]
    serial = _run(capsys, argv)
    assert serial[0] == 0
    for workers in ("1", "2", "4"):
        assert _run(capsys, argv + ["--workers", workers]) == serial


def test_matchings_random_requires_seed(capsys):
    code, _, err = _run(capsys, ["matchings", "--matrix", "3x3", "--minors", "2",
                                 "--mode", "random"])
    assert code == 2 and "seed" in err


@pytest.mark.parametrize("tall, wide, t", [("4x3", "3x4", "3"), ("4x2", "2x4", "2")])
def test_matchings_maximal_minors_of_a_tall_matrix_get_the_full_reference(capsys, tall, wide, t):
    # the transpose has the same maximal-minor algebra, so the same
    # reference, to --kmax in both shapes
    lines = []
    for shape in (tall, wide):
        code, out, _ = _run(capsys, ["matchings", "--matrix", shape, "--minors", t,
                                     "--kmax", "5"])
        assert code == 0
        lines.append(next(l for l in out.splitlines() if l.startswith("# reference")))
    assert lines[0] == lines[1]
    assert len(json.loads(lines[0].split("\t")[1])) == 6


def test_verify_a233_cli(capsys):
    code, out, _ = _run(capsys, ["verify", "--case", "A233"])
    assert code == 0
    assert "PASS" in out


def test_verify_g37_cli_requires_seed(capsys):
    code, _, err = _run(capsys, ["verify", "--case", "G37_sampled"])
    assert code == 2 and "seed" in err


def test_verify_g37_cli_small(capsys):
    code, out, _ = _run(capsys, ["verify", "--case", "G37_sampled",
                                 "--count", "5", "--seed", "7"])
    assert code == 0
    assert "PASS" in out


def test_hilbert_semigroup(capsys):
    code, out, _ = _run(capsys, ["hilbert", "--matrix", "3x6", "--minors", "3",
                                 "--order", "diag", "--kind", "semigroup",
                                 "--kmax", "4"])
    assert code == 0
    assert "4\t4116" in out and "dim\t10" in out


def test_hilbert_and_matchings_print_h_vectors_alike(capsys):
    for gens, h_vector in ((["x+y"], "(1)"), (["x^2", "x*y", "y^2"], "(1,1)")):
        argv = ["hilbert", "--vars", "x,y", "--kind", "semigroup", "--kmax", "4"]
        code, out, _ = _run(capsys, argv + [a for g in gens for a in ("--gen", g)])
        assert code == 0
        assert out.endswith(f"\nh_vector\t{h_vector}\n")
    code, out, _ = _run(capsys, ["matchings", "--matrix", "3x3", "--minors", "2",
                                 "--workers", "1"])
    assert code == 0
    assert "\t(1,3,3,1)\t" in out


def test_config_does_not_override_explicit_default_valued_flag(capsys, tmp_path):
    # --order degrevlex equals the default but is explicit, so it wins
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"order": "lex", "round-bound": 3}))
    code, out, _ = _run(capsys, ["sagbi", "--vars", "x,y", "--gen", "x+y",
                                 "--gen", "y", "--order", "degrevlex",
                                 "--config", str(cfg)])
    assert code == 0
    assert '"order": "degrevlex"' in out
    assert '"round_bound": 3' in out
    code, out, _ = _run(capsys, ["sagbi", "--vars", "x,y", "--gen", "x+y",
                                 "--gen", "y", "--config", str(cfg)])
    assert code == 0
    assert '"order": "lex"' in out


def test_config_gen_list_yields_to_explicit_gen(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gen": ["x", "y", "x*y"]}))
    code, out, _ = _run(capsys, ["sagbi", "--vars", "x,y", "--gen", "x+y",
                                 "--order", "lex", "--config", str(cfg)])
    assert code == 0
    assert "#SAGBI\t1" in out
    code, out, _ = _run(capsys, ["sagbi", "--vars", "x,y", "--order", "lex",
                                 "--config", str(cfg)])
    assert code == 0
    assert "#SAGBI\t3" in out


def test_same_config_at_two_paths_prints_one_report(capsys, tmp_path):
    # the job line lists the values a config supplies, not the file's path
    outs = []
    for name in ("a.json", "b.json"):
        cfg = tmp_path / name
        cfg.write_text(json.dumps({"kmax": 3}))
        code, out, _ = _run(capsys, ["matchings", "--matrix", "2x3", "--minors", "2",
                                     "--config", str(cfg)])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert '"kmax": 3' in outs[0] and "config" not in outs[0]


@pytest.mark.parametrize("command, text, needle", [
    ("matchings", json.dumps({"kmax": "x"}), "config key 'kmax'"),
    ("matchings", "{kmax: 3", "not JSON"),
    ("matchings", json.dumps({"mode": "bogus", "seed": 1}), "config key 'mode'"),
    ("sagbi", json.dumps({"gen": "x+y"}), "config key 'gen'"),
    ("sagbi", json.dumps({"round-bound": -1}), "--round-bound must be nonnegative"),
    ("relations", json.dumps({"degree-bound": -2}), "--degree-bound must be nonnegative"),
    ("matchings", json.dumps({"var-degrees": "1,1,1,1,1,1,1,1,1"}),
     "--var-degrees applies only to a --vars ring"),
], ids=["non-integer-kmax", "not-json", "unknown-choice", "gen-not-a-list",
        "sagbi-negative-round-bound", "relations-negative-degree-bound",
        "var-degrees-with-matrix"])
def test_bad_config_is_one_line_usage_error(capsys, tmp_path, command, text, needle):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    ring = ["--matrix", "3x3", "--minors", "2"] if command == "matchings" else \
        ["--vars", "x,y"]
    code, out, err = _run(capsys, [command, *ring, "--config", str(cfg)])
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:") and needle in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("names", ["2x,y", "x^2,y", "a b,y"])
def test_config_vars_must_be_identifiers(capsys, tmp_path, names):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"vars": names}))
    code, out, err = _run(capsys, ["sagbi", "--gen", "y", "--config", str(cfg)])
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: --vars:") and "is not a variable name" in err
    assert err.count("\n") == 1


def test_config_values_are_read_as_command_line_text(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kmax": "2", "mode": "exhaustive", "seed": None}))
    code, out, _ = _run(capsys, ["matchings", "--matrix", "3x3", "--minors", "2",
                                 "--format", "json", "--config", str(cfg)])
    assert code == 0
    assert len(json.loads(out)["reference"]) == 3


@pytest.mark.parametrize("flag, needle", [("--gens-file", "not UTF-8"),
                                          ("--config", "not JSON ('utf-8' codec")])
def test_non_utf8_file_is_one_line_usage_error(capsys, tmp_path, flag, needle):
    path = tmp_path / "input"
    path.write_bytes(b"\xff\xfex+y\n")
    argv = ["sagbi", "--vars", "x,y", flag, str(path)]
    if flag == "--config":
        argv += ["--gen", "x"]
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:") and needle in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, needle", [
    (["hilbert", "--matrix", "3x3", "--minors", "2", "--kind", "semigroup",
      "--kmax", "-1"], "--kmax"),
    (["matchings", "--matrix", "3x7", "--minors", "3", "--workers", "1"],
     "exceeds --cap"),
    (["sagbi", "--matrix", "3x3", "--minors", "5"], "--minors 5"),
    (["hilbert", "--vars", "x,y", "--gen", "x", "--gen", "1",
      "--kind", "semigroup"], "generator 2 is constant"),
    (["sagbi", "--vars", "x,y", "--gen", "x", "--order", "weight:-1,1"],
     "nonnegative"),
    (["hilbert", "--matrix", "0x3", "--minors", "1"], "must be positive"),
    (["hilbert", "--vars", "x,y", "--var-degrees", "0,1", "--gen", "x"],
     "must be >= 1"),
    (["hilbert", "--vars", "x,y", "--gen", "x", "--order", "lex:a,b"],
     "comma-separated integers"),
    (["hilbert", "--vars", "x,y", "--gen", "x", "--order", "lex:1,1"],
     "permutation of 1..2"),
    (["hilbert", "--vars", "x,y", "--gen", "x", "--order", "weight:1,z"],
     "comma-separated integers"),
    (["hilbert", "--vars", "x,y", "--gen", "x", "--char", "4"], "0 or prime"),
    (["relations", "--vars", "x,y", "--gen", "x+y", "--gen", "x*y",
      "--variant", "degree"], "--variant degree needs --degree-bound"),
    (["sagbi", "--vars", "x,y", "--gen", "x+y^2", "--gen", "x*y",
      "--variant", "deg", "--degree-bound", "4"], "needs homogeneous generators"),
    (["relations", "--vars", "x,y", "--gen", "x+y^2", "--gen", "x*y",
      "--variant", "degree", "--degree-bound", "4"], "needs homogeneous generators"),
    (["relations", "--vars", "x,y", "--gen", "1/2*x+y", "--gen", "x*y", "--char", "2"],
     "denominator 2 is not invertible mod 2"),
    (["hilbert", "--vars", "x,y", "--gen", "x+y^2", "--kind", "subalgebra"],
     "--kind subalgebra needs homogeneous generators"),
    (["matchings", "--matrix", "2x2", "--gen", "X21-1", "--workers", "1"],
     "matchings needs homogeneous generators"),
    (["verify", "--case", "G37_sampled", "--count", "-2", "--seed", "3"],
     "--count must be nonnegative"),
    (["matchings", "--matrix", "3x3", "--minors", "2", "--mode", "random",
      "--seed", "1", "--trials", "-5"], "--trials must be positive"),
    (["matchings", "--matrix", "3x3", "--minors", "2", "--mode", "random",
      "--seed", "1", "--stall", "0"], "--stall must be positive"),
    # whole-group orbit sizes would count 4 matchings; the exact total is 2
    (["matchings", "--matrix", "2x2", "--gen", "X11+X12", "--mode", "random",
      "--seed", "1"], "random mode needs generators whose supports"),
    (["matchings", "--matrix", "3x3", "--minors", "2", "--workers", "0"],
     "--workers must be positive"),
    (["matchings", "--matrix", "3x3", "--minors", "2", "--workers", "-3"],
     "--workers must be positive"),
    (["relations", "--matrix", "2x3", "--minors", "2", "--order", "submax"],
     "order 'submax' needs a square matrix ring"),
    (["hilbert", "--matrix", "2x3", "--minors", "2", "--order", "submax"],
     "order 'submax' needs a square matrix ring"),
    (["sagbi", "--vars", "x,y", "--gen", "x^40000", "--gen", "x^40000*y",
      "--gen", "y^40000"], "exponent out of range 0..32767"),
    (["sagbi", "--matrix", "2x2", "--minors", "2", "--order", "diag",
      "--round-bound", "-1"], "--round-bound must be nonnegative"),
    (["sagbi", "--vars", "x,y", "--gen", "x+y", "--gen", "x*y", "--gen", "x*y^2",
      "--order", "lex", "--degree-bound", "-2"], "--degree-bound must be nonnegative"),
    (["relations", "--matrix", "2x2", "--minors", "2", "--order", "diag",
      "--round-bound", "-1"], "--round-bound must be nonnegative"),
    (["relations", "--vars", "x,y", "--gen", "x+y", "--gen", "x*y",
      "--variant", "degree", "--degree-bound", "-2"], "--degree-bound must be nonnegative"),
    # superscript digits are digits to str.isdigit but not to int()
    (["sagbi", "--vars", "x,y", "--gen", "x*\u00b2", "--gen", "y"],
     "unexpected character"),
    (["sagbi", "--vars", "x,y", "--gen", "2\u00b2", "--gen", "y"], "unexpected character"),
    (["sagbi", "--vars", "x,y", "--gen", "x^\u00b2", "--gen", "y"], "unexpected character"),
    (["sagbi", "--matrix", "2x2", "--minors", "1", "--var-degrees", "5"],
     "--var-degrees applies only to a --vars ring"),
    (["sagbi", "--vars", "x,y", "--var-degrees", "", "--gen", "x"],
     "--var-degrees expects comma-separated integers"),
    # names the polynomial grammar cannot read as one identifier
    (["sagbi", "--vars", "2x,y", "--gen", "y"], "--vars: '2x' is not a variable name"),
    (["relations", "--vars", "x^2,y", "--gen", "y"], "--vars: 'x^2' is not a variable name"),
    (["hilbert", "--vars", "a b,y", "--gen", "y"], "--vars: 'a b' is not a variable name"),
], ids=["negative-kmax", "cap-exceeded", "minors-too-large", "constant-generator",
        "negative-weight", "empty-matrix", "zero-var-degree", "non-integer-perm",
        "repeated-perm", "non-integer-weight", "composite-char",
        "degree-without-bound", "inhomogeneous-deg", "inhomogeneous-degree",
        "denominator-divisible-by-char", "inhomogeneous-subalgebra",
        "inhomogeneous-matchings", "negative-count", "negative-trials", "zero-stall",
        "random-unpermuted-family", "zero-workers", "negative-workers",
        "submax-non-square-relations", "submax-non-square-hilbert",
        "packed-exponent-overflow", "sagbi-negative-round-bound",
        "sagbi-negative-degree-bound", "relations-negative-round-bound",
        "relations-negative-degree-bound", "superscript-factor", "superscript-number",
        "superscript-exponent", "var-degrees-with-matrix", "empty-var-degrees",
        "vars-leading-digit", "vars-power", "vars-space"])
def test_bad_input_is_one_line_usage_error(capsys, argv, needle):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:") and needle in err
    assert err.count("\n") == 1


def test_only_the_random_mode_precondition_becomes_a_usage_error(monkeypatch):
    # another ValueError from sampling is a library fault, not a usage error
    def faulty(*args, **kwargs):
        raise ValueError("selected exponent not in the generator's support")
    monkeypatch.setattr(matchings, "enumerate_vertices_random", faulty)
    with pytest.raises(ValueError, match="selected exponent not in"):
        main(["matchings", "--matrix", "2x2", "--gen", "X11+X12", "--mode", "random",
              "--seed", "1"])


def test_only_the_selection_space_cap_becomes_a_usage_error(monkeypatch):
    # the cap is checked once, by the walk; another ValueError from it is
    # a library fault and propagates
    def faulty(*args, **kwargs):
        raise ValueError("selected exponent not in the generator's support")
    monkeypatch.setattr(matchings, "enumerate_vertices_exhaustive", faulty)
    with pytest.raises(ValueError, match="selected exponent not in"):
        main(["matchings", "--matrix", "2x2", "--gen", "X11+X12"])


# one job per subcommand that is valid but for the floor under test;
# "matchings-no-ring" has a second fault, which the floor is reported before
_FLOOR_JOBS = {
    "sagbi": ["sagbi", "--vars", "x,y", "--gen", "x+y", "--gen", "x*y"],
    "relations": ["relations", "--vars", "x,y", "--gen", "x+y", "--gen", "x*y"],
    "matchings": ["matchings", "--matrix", "3x3", "--minors", "2", "--mode", "exhaustive"],
    "matchings-random": ["matchings", "--matrix", "3x3", "--minors", "2",
                         "--mode", "random", "--seed", "1"],
    "matchings-no-ring": ["matchings", "--vars", "x,y", "--gen", "x"],
    "hilbert": ["hilbert", "--matrix", "3x3", "--minors", "2"],
    "verify": ["verify", "--case", "G37_sampled", "--seed", "3"],
}


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("job, option, value, word", [
    ("matchings", "kmax", -1, "nonnegative"),
    ("hilbert", "kmax", -1, "nonnegative"),
    ("sagbi", "round-bound", -1, "nonnegative"),
    ("sagbi", "degree-bound", -1, "nonnegative"),
    ("relations", "round-bound", -1, "nonnegative"),
    ("relations", "degree-bound", -1, "nonnegative"),
    ("verify", "count", -1, "nonnegative"),
    ("matchings", "workers", 0, "positive"),
    ("matchings", "trials", 0, "positive"),
    ("matchings", "stall", 0, "positive"),
    ("matchings-random", "trials", 0, "positive"),
    ("matchings-random", "stall", 0, "positive"),
    ("matchings-no-ring", "kmax", -1, "nonnegative"),
])
def test_integer_option_below_its_floor_is_refused(capsys, tmp_path, job, option,
                                                   value, word, via):
    argv = list(_FLOOR_JOBS[job])
    if via == "flag":
        argv += [f"--{option}", str(value)]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({option: value}))
        argv += ["--config", str(cfg)]
    code, out, err = _run(capsys, argv)
    assert (code, out, err) == (2, "", f"usage error: --{option} must be {word}, "
                                       f"got {value}\n")


@pytest.mark.parametrize("text, message", [
    ("x^", "line 1, column 3: expected a number, found end of text"),
    ("x^y", "line 1, column 3: expected a number, found 'y'"),
    ("x+", "line 1, column 3: expected coefficient or variable, found end of text"),
    ("", "line 1, column 1: expected coefficient or variable, found end of text"),
    (" ", "line 1, column 2: expected coefficient or variable, found end of text"),
], ids=["after-caret", "variable-exponent", "after-plus", "empty", "blank"])
def test_parse_error_names_what_it_found(capsys, text, message):
    """The end of the text is named in words, not as a token's value."""
    code, out, err = _run(capsys, ["sagbi", "--vars", "x,y", "--gen", text])
    assert (code, out) == (2, "")
    assert err == f"usage error: generator 1: {message}\n"


@pytest.mark.parametrize("command, variant", [("sagbi", "deg"), ("relations", "degree")])
def test_degree_variant_honours_round_bound(capsys, command, variant):
    code, out, _ = _run(capsys, [command, "--vars", "x,y", "--gen", "x+y",
                                 "--gen", "x*y", "--gen", "x*y^2", "--order", "lex",
                                 "--variant", variant, "--degree-bound", "6",
                                 "--round-bound", "1"])
    assert code == 0
    assert "# status: truncated; rounds: 1\n" in out


def test_relations_over_gf2_reduce_coefficients_mod_2(capsys):
    code, out, _ = _run(capsys, ["relations", "--vars", "x,y", "--gen", "x+y",
                                 "--gen", "x*y", "--gen", "x*y^2", "--order", "lex",
                                 "--char", "2", "--round-bound", "3"])
    assert code == 0
    body = out.split("#rel")[1]
    assert "rel\tY1*Y2*Y3 + Y2^3 + Y3^2\n" in body
    # over GF(2) every coefficient is 1, printed as no coefficient at all
    assert not re.search(r"[\t ]\d+\*", body) and " - " not in body


def test_relations_checks_the_retract_images(capsys, monkeypatch):
    computed = relations.sagbi_with_relations

    def corrupted(*args, **kwargs):
        result, retract, rels = computed(*args, **kwargs)
        retract.images[-1] = retract.images[-1].scale(2)
        return result, retract, rels

    monkeypatch.setattr(relations, "sagbi_with_relations", corrupted)
    code, out, _ = _run(capsys, ["relations", "--matrix", "3x3", "--minors", "2",
                                 "--order", "diag"])
    assert code == 1
    assert out.startswith("FAIL retract image of Y11 does not reproduce it: ")
    assert out.count("\n") == 1


# Under the default degrevlex order the loop ends without bounds on every
# family of up to three of these (under lex, x*y, x^2+y^2, x+y^2 does not);
# the pool holds inhomogeneous and constant members.
_POOL = ("x", "y", "x+y", "x*y", "x^2+y^2", "x^2-x*y", "x+y^2", "x^2+y", "x*y-1", "2")
_BOUND = st.sampled_from([None, -1, 0, 1, 2, 3, 4])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from([("sagbi", "gen"), ("sagbi", "deg"),
                        ("relations", "general"), ("relations", "degree")]),
       _BOUND, _BOUND, st.lists(st.sampled_from(_POOL), min_size=1, max_size=3))
def test_sagbi_options_exit_0_or_2_without_traceback(command, degree_bound,
                                                     round_bound, gens):
    name, variant = command
    argv = [name, "--vars", "x,y", "--variant", variant]
    argv += [a for g in gens for a in ("--gen", g)]
    for flag, value in (("--degree-bound", degree_bound), ("--round-bound", round_bound)):
        if value is not None:
            argv += [flag, str(value)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("usage error:")
        assert err.getvalue().count("\n") == 1
    else:
        assert code == 0 and err.getvalue() == ""
        assert "\n# status: " in out.getvalue()


_MATRIX_POOL = ("X11", "X11+X12", "X11*X22-X12*X21", "X11*X22+X13", "X12^2", "X21-1", "3")


def _flag(draw, flag, values):
    value = draw(st.sampled_from((None,) + values))
    return [] if value is None else [flag, str(value)]


@st.composite
def _hilbert_argv(draw):
    if draw(st.booleans()):
        argv = ["--vars", "x,y", "--order",
                draw(st.sampled_from(["lex", "degrevlex", "lex:2,1", "weight:1,2"]))]
        argv += [a for g in draw(st.lists(st.sampled_from(_POOL), min_size=1,
                                          max_size=3)) for a in ("--gen", g)]
    else:
        argv = ["--matrix", draw(st.sampled_from(["2x2", "2x3"])),
                "--minors", str(draw(st.integers(0, 3))),
                "--order", draw(st.sampled_from(["diag", "submax"]))]
    argv += _flag(draw, "--kind", ("subalgebra", "semigroup"))
    argv += _flag(draw, "--kmax", (-1, 0, 2, 3))
    argv += _flag(draw, "--grading", ("normalized", "ambient"))
    argv += _flag(draw, "--char", (2, 4))
    return ["hilbert"] + argv


@st.composite
def _matchings_argv(draw):
    argv = ["matchings", "--workers", "1",
            "--matrix", draw(st.sampled_from(["2x2", "2x3", "3x3", "0x2", "2x"]))]
    if draw(st.booleans()):
        argv += ["--minors", str(draw(st.integers(0, 3)))]
    else:
        argv += [a for g in draw(st.lists(st.sampled_from(_MATRIX_POOL), min_size=1,
                                          max_size=3)) for a in ("--gen", g)]
    argv += _flag(draw, "--mode", ("exhaustive", "random"))
    argv += _flag(draw, "--seed", (5,))
    argv += _flag(draw, "--kmax", (-1, 0, 2))
    argv += _flag(draw, "--cap", (4,))
    argv += _flag(draw, "--trials", (0, 20))
    argv += _flag(draw, "--stall", (5,))
    argv += _flag(draw, "--format", ("tsv", "json"))
    argv += _flag(draw, "--grading", ("normalized", "ambient"))
    return argv


@st.composite
def _verify_argv(draw):
    argv = ["verify", "--case", draw(st.sampled_from(["A233", "G37_sampled"]))]
    return argv + _flag(draw, "--count", (-1, 0, 1)) + _flag(draw, "--seed", (3,))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(_hilbert_argv(), _matchings_argv(), _verify_argv()))
def test_hilbert_matchings_verify_exit_0_or_2_without_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("usage error:")
        assert err.getvalue().count("\n") == 1
    else:
        assert code == 0 and err.getvalue() == ""
        assert out.getvalue().startswith(("# sagbikit ", "{"))
