import hashlib
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from symcon.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_pretty(capsys):
    code, out, _ = run_cli(capsys, "expand", "psi", "3", "--format", "pretty")
    assert code == 0
    assert out.splitlines() == [
        "3·(3) + 1·(2,1) + 1·(1,1,1)",
        "verdict: POSITIVE",
    ]


def test_expand_family(capsys):
    code, out, _ = run_cli(capsys, "expand", "family:odd-parts", "2")
    assert code == 0
    assert out.splitlines()[0] == "1·(2) + 1·(1,1)"


def test_expand_w_closed_form(capsys):
    code, out, _ = run_cli(capsys, "expand", "w:2", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    # 3*h2^2 + e2^2
    assert data["mults"] == {"[4]": 3, "[3,1]": 3, "[2,2]": 4, "[2,1,1]": 1, "[1,1,1,1]": 1}
    assert data["verdict"] == "POSITIVE"


def test_expand_parse_failure(capsys):
    code, _, err = run_cli(capsys, "expand", "not-a-module", "3")
    assert code == 2
    assert "error:" in err


def test_table_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "t2", "3", "--format", "csv")
    assert code == 0
    assert out == '[3],2\n"[2,1]",1\n"[1,1,1]",2\n'


def test_table_t1_small(capsys):
    code, out, _ = run_cli(capsys, "table", "t1", "1")
    assert code == 0
    assert out == "(1)  1\n"


def test_table_blocks(capsys):
    code, out, _ = run_cli(capsys, "table", "t3", "4", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "psi-a,[4],3"
    assert any(line.startswith("psi-abar,") for line in lines)


def test_table_range_error(capsys):
    code, _, err = run_cli(capsys, "table", "t1", "25")
    assert code == 2
    assert "error:" in err


def test_verify_counterexamples(capsys):
    code, out, _ = run_cli(capsys, "verify", "counterexamples")
    assert code == 0
    lines = out.splitlines()
    reports = [line for line in lines if line.startswith("REPORT")]
    assert len(reports) == 5
    assert '"-1"' in reports[0] and '"-2"' in reports[1] and '"-4"' in reports[2]


def test_verify_unknown_selector(capsys):
    code, _, err = run_cli(capsys, "verify", "nosuchgroup")
    assert code == 2
    assert "error:" in err


def test_verify_exit_zero_and_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "thm4.5", "--max-n", "6", "--format", "json"
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert all(row["status"] == "PASS" for row in rows)
    assert [row["n"] for row in rows] == [2, 3, 4, 5, 6]


def test_verify_deterministic_across_threads(capsys):
    _, out1, _ = run_cli(capsys, "verify", "prop6.5", "--max-n", "6")
    _, out2, _ = run_cli(
        capsys, "verify", "prop6.5", "--max-n", "6", "--threads", "4"
    )
    assert out1 == out2


def test_verify_repeat_is_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "verify", "tables", "--max-n", "6", "--format", "json")
    _, out2, _ = run_cli(capsys, "verify", "tables", "--max-n", "6", "--format", "json")
    assert out1 == out2


def test_max_n_cap(capsys):
    code, _, err = run_cli(capsys, "verify", "thm4.5", "--max-n", "40")
    assert code == 2
    assert "cap" in err


def test_env_override_warns(capsys, monkeypatch):
    monkeypatch.setenv("SYMCON_MAX_N", "22")
    code, out, err = run_cli(capsys, "expand", "psi", "3")
    assert code == 0
    assert "unsupported" in err


def test_table_honours_the_env_cap(capsys, monkeypatch):
    # as expand does: SYMCON_MAX_N above the hard cap lets --max-n reach the table's degree
    monkeypatch.setenv("SYMCON_MAX_N", "21")
    code, out, err = run_cli(capsys, "table", "t1", "21", "--max-n", "21", "--format", "json")
    assert code == 0, err
    code, expanded, _ = run_cli(capsys, "expand", "psi", "21", "--max-n", "21", "--format", "json")
    assert code == 0
    assert json.loads(out)["blocks"]["psi"] == json.loads(expanded)


@pytest.mark.parametrize("value", ["0", "-3"])
def test_env_max_n_must_be_positive(capsys, monkeypatch, value):
    monkeypatch.setenv("SYMCON_MAX_N", value)
    code, out, err = run_cli(capsys, "verify", "thm4.5")
    assert code == 2
    assert out == ""
    assert "error:" in err and "SYMCON_MAX_N" in err


@pytest.mark.parametrize("value", ["0", "-1", "x"])
def test_threads_still_validated(capsys, value):
    code, _, err = run_cli(capsys, "verify", "prop6.5", "--max-n", "3", "--threads", value)
    assert code == 2
    assert "--threads" in err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys, "expand", "psi", "4", "--format", "json", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    data = json.loads(target.read_text())
    assert data["n"] == 4


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["expand"])  # missing arguments
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "content", [None, "[[2,1],[3", "5", "[5]"], ids=["missing", "truncated", "int", "int-item"]
)
def test_explicit_family_file_errors(capsys, tmp_path, content):
    path = tmp_path / "family.json"
    if content is not None:
        path.write_text(content, encoding="utf-8")
    code, out, err = run_cli(capsys, "expand", f"family:explicit:{path}", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and str(path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_out_file_errors(capsys, tmp_path, where):
    if where == "missing-dir":
        target, argv = tmp_path / "nowhere" / "x", ("expand", "psi", "5")
    else:
        target, argv = tmp_path, ("table", "t1", "3")
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and str(target) in err
    assert "Traceback" not in err


_CATALOG_DIGESTS = {
    "8": (1620, "fe6939fdbd39e20dbd03133451401403ec1f4a970c031f836e90217908039a49"),
    "12": (2051, "c93ace355c72fda08818eafe3c62d4021c70cb49b2d1227749a2d29e23a34f18"),
    "20": (2055, "564b6008f1a47067b8f8f9cd965b2a05e6b9c5518927001438edc092d0d943ef"),
}


def test_catalog_output_pinned(capsys):
    # the bytes of the whole catalog at n <= 8, 12 and 20; any change to a check's result shows here
    for max_n, (lines, digest) in _CATALOG_DIGESTS.items():
        code, out, _ = run_cli(capsys, "verify", "all", "--max-n", max_n, "--format", "json")
        assert code == 0
        assert len(out.splitlines()) == lines
        assert hashlib.sha256(out.encode()).hexdigest() == digest, max_n


_TABLE_DIGESTS = {
    "t1": "8c4bf65aad1ab27e54b157d36b5f63fea622683796ebd0d73b895dbaebca69ac",
    "t2": "f212c94b4497d42e291306897fa1a5f8a8908d36608c605908bbe1ca22f1fb10",
    "t3": "3cbf07bd5a10ec3d32441877282ed8e4455c34093aedf2fca19fac73b12cab14",
    "t4": "8bfc918303493c69e5e35c257bec5b12800222324f88d5da66032d5e09539e57",
}


@pytest.mark.parametrize("kind", sorted(_TABLE_DIGESTS))
def test_table_output_pinned(capsys, kind):
    # the bytes of the dense n = 20 Schur expansions behind each table
    code, out, _ = run_cli(capsys, "table", kind, "20", "--max-n", "20", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _TABLE_DIGESTS[kind]


# the other renderings of the same expansions; both dicts hold the parent's bytes
_RENDER_DIGESTS = {
    ("table", "t1", "csv"): "ac7bbd3b9001eaad67163bddcd3cd19dcc52410ff84168eff815bccf04af039a",
    ("table", "t1", "pretty"): "54322f2a9300ec6e7c6aa2f1da5c6ba767517c3194eacfc4429abd3965f868ed",
    ("table", "t2", "csv"): "dba26c510a92dcf2a903f68009039bd60e0f102e0a19210319d64331d6b26c6d",
    ("table", "t2", "pretty"): "5d758b1ed0dd3597f1d27d937b73639f704b1b5675d19f69479776dba9a4efa8",
    ("table", "t3", "csv"): "120d92eac032a5bae5bf1f9f2962414b31dd0172010ed3e74760a7ed08bb0c6a",
    ("table", "t3", "pretty"): "e8e6237ca723dbf6fb2aee0586e4c618f476f177afe2d635d3e755d544fb52f5",
    ("table", "t4", "csv"): "5edef6292fc9c5a7db94ee4b6da55f550533e71586ce59e23d7c244637b8c7fe",
    ("table", "t4", "pretty"): "163327a800eabe9c78719b5a60afaa268729ce370c9453fdae439471da8708ee",
    ("expand", "psi", "csv"): "ac7bbd3b9001eaad67163bddcd3cd19dcc52410ff84168eff815bccf04af039a",
    ("expand", "psi", "json"): "8cbc7202e32fad095119ac4837680f126ff67f1d3f844dabad7f3a3649072b4f",
    ("expand", "psi", "pretty"): "7f35e0b52bc65b7f82b8bccea2a88ab412a3a048ca00753a35cc066f40768eba",
}


@pytest.mark.parametrize(
    "command,target,fmt", sorted(_RENDER_DIGESTS), ids="-".join
)
def test_render_output_pinned(capsys, command, target, fmt):
    code, out, _ = run_cli(capsys, command, target, "20", "--max-n", "20", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _RENDER_DIGESTS[command, target, fmt]


# ---------------------------------------------------------------------------
# The argument grammar, valid and malformed, run in-process

_JUNK = st.sampled_from(["", "x", "2.5", "-1", "1e3", "[2,1]", "all:", "\u00e9"])
_DEGREES = st.one_of(st.integers(-1, 6).map(str), st.integers(1, 6).map(str), _JUNK)
_MODULES = st.sampled_from([
    "psi", "eps", "psi-a", "psi-abar", "eps-a", "eps-abar", "u-plus", "u-minus",
    "u-do", "alt-induced", "w:2", "w:3", "family:odd-parts", "family:one-or-k:3",
    "family:prime-family:3", "family:lex-from:[2,1]", "family:lex-from:[3,1]",
])
_TARGETS = st.one_of(
    _MODULES,
    _MODULES,
    st.sampled_from([
        "w:1", "w:x", "w:", "family:one-or-k", "family:one-or-k:x", "family:prime-family:4",
        "family:lex-from:x", "family:distinct:2", "family:explicit", "family:bogus",
        "family:", "not-a-module",
    ]),
    _JUNK,
)
_SELECTORS = st.one_of(
    st.sampled_from([
        "all", "identities", "thm4.2", "thm4.2.6", "thm5.9.5:k2", "lem5.5", "cor5.2",
        "prop5.4", "prop3.6", "routes", "dims", "tables", "tables.t3", "counterexamples",
        "conjecture", "coverage", "lemmas", "oracles.maj", "thm9.9", "thm4",
    ]),
    _JUNK,
)


@st.composite
def _argv(draw, out_dir):
    """A command line: mostly well formed, with a malformed piece now and then."""
    command = draw(st.sampled_from(["expand", "verify", "table", "bogus"]))
    if command == "expand":
        argv = [command, draw(_TARGETS), draw(_DEGREES)]
    elif command == "verify":
        argv = [command, draw(_SELECTORS)]
    elif command == "table":
        kinds = st.sampled_from(["t1", "t2", "t3", "t4"])
        argv = [command, draw(st.one_of(kinds, kinds, _JUNK)), draw(_DEGREES)]
    else:
        argv = [command]
    options = {
        "--max-n": _DEGREES,
        "--format": st.sampled_from(["pretty", "json", "csv", "pretty", "json", "csv", "xml"]),
        "--out": st.sampled_from([
            str(out_dir / "out.txt"), str(out_dir / "out.csv"), str(out_dir / "out.json"),
            str(out_dir), str(out_dir / "missing" / "out.txt"),
        ]),
    }
    if command == "verify" or draw(st.integers(0, 7)) == 0:  # other commands reject it
        options["--threads"] = st.sampled_from(["1", "2", "auto", "0", "x"])
    for flag, values in options.items():
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    if draw(st.integers(0, 7)) == 0:  # an argument out of place
        argv.insert(draw(st.integers(0, len(argv))), draw(_JUNK))
    return argv


@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_fuzz_exits_0_1_or_2(capsys, tmp_path, data):
    argv = data.draw(_argv(tmp_path), label="argv")
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv
