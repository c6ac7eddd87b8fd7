import collections
import contextlib
import enum
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest

from hopfgal import abelian, cli, correspondence, nilring
from hopfgal.abelian import GroupSpec

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "golden.json"
# child interpreters import hopfgal from this checkout's src/, as pytest does
SRC = str(Path(__file__).resolve().parent.parent / "src")
CHILD_ENV = {**os.environ,
             "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "hopfgal.cli", *argv],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )


def test_enumerate_klein_four():
    result = run_cli("enumerate", "--p", "2", "--exp", "1,1")
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["structure_count"] == 4
    assert payload["regular_subgroup_count"] == 4
    assert payload["counts_match"] is True


def test_enumerate_c2_cubed_bijection():
    result = run_cli("enumerate", "--p", "2", "--exp", "1,1,1", "--format", "json")
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["structure_count"] == 92
    assert payload["regular_subgroup_count"] == 232
    assert payload["abelian_regular_subgroup_count"] == 92
    assert payload["counts_match"] is True


def test_enumerate_c4_c2_c2_counts_above_the_default_cap():
    # |Hol(C4 x C2 x C2)| = 3072: 3 152 regular subgroups, of which the 352
    # abelian ones match the 352 structures
    result = run_cli("enumerate", "--p", "2", "--exp", "2,1,1", "--cap-hol", "4000")
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["structure_count"] == 352
    assert payload["regular_subgroup_count"] == 3152
    assert payload["abelian_regular_subgroup_count"] == 352
    assert payload["counts_match"] is True


def test_enumerate_z4_contains_fixture_tensor():
    result = run_cli("enumerate", "--p", "2", "--exp", "2")
    payload = json.loads(result.stdout)
    assert payload["structure_count"] == 2
    assert {"spec": {"p": 2, "exponents": [2]}, "constants": [[[2]]]} in payload[
        "structures"
    ]


def test_enumerate_f3_line():
    result = run_cli("enumerate", "--p", "3", "--exp", "1")
    payload = json.loads(result.stdout)
    assert payload["structure_count"] == 1


def test_verify_lattice_all_structures():
    result = run_cli("verify", "lattice", "--p", "2", "--exp", "1,1", "--all-structures")
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["status"] == "pass"
    assert payload["structures_checked"] == 4


def test_verify_primitive():
    result = run_cli("verify", "primitive", "--p", "5", "--n", "4")
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["ideal_count"] == 5
    assert payload["single_chain"] is True


def test_verify_cyclic_all_d():
    result = run_cli("verify", "cyclic", "--p", "3", "--n", "3", "--all-d")
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["d_count"] == 9
    assert all(r["strong_ftgt"] for r in payload["rows"])


def _counted(monkeypatch, owner, name):
    original, seen = getattr(owner, name), []
    monkeypatch.setattr(owner, name, lambda x: seen.append(x) or original(x))
    return seen


def test_verify_cyclic_walks_the_ideals_once_per_structure(monkeypatch):
    # per structure: one validation, the Context's, which the check does not
    # repeat, and the one ideal walk of its lattice report, which is compared
    # with the subgroups
    validations = _counted(monkeypatch, nilring, "validate")
    walks = _counted(monkeypatch, correspondence, "ideals")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "cyclic", "--p", "3", "--n", "3", "--all-d"]) == cli.EXIT_OK
    assert len(walks) == 9
    assert len(validations) == 9


@pytest.mark.parametrize("argv", [
    ("verify", "cyclic", "--p", "3", "--n", "3", "--d", "1"),
    ("verify", "lattice", "--family", "cyclic:1", "--p", "3", "--n", "3"),
    ("report", "--family", "cyclic:1", "--p", "3", "--n", "3"),
])
def test_verify_cyclic_reports_a_structure_that_fails_validation(monkeypatch, argv):
    # the Context's "invalid structure" input error is the check's theorem
    # violation, exit 4, with the structure as its witness: 1 * 1 = 1 on Z/27
    # is not nilpotent
    bad = nilring.RingStructure(GroupSpec(3, (3,)), (((1,),),))
    monkeypatch.setattr(nilring, "cyclic_structure", lambda p, n, d: bad)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    assert code == cli.EXIT_VIOLATION
    message, _, witness = err.getvalue().partition("\n")
    assert message == "verified identity failed: cyclic-family structure failed validation"
    assert json.loads(witness) == {"spec": {"p": 3, "exponents": [3]}, "constants": [[[1]]]}


def test_verify_elementary_validates_once_per_structure(monkeypatch):
    # per structure, one validation: the Context that serves both its circle
    # type and its lattice report; enumerate_structures certifies the nine
    # kept tables in one batch, with no validate call
    validations = _counted(monkeypatch, nilring, "validate")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "elementary", "--p", "3", "--n", "2"]) == cli.EXIT_OK
    assert len(validations) == 9
    assert len(set(validations)) == 9


@pytest.mark.parametrize("argv", [("verify", "conjugation", "--family", "fixture:klein"),
                                  ("report", "--family", "fixture:klein")])
def test_the_klein_fixture_is_validated_once(monkeypatch, argv):
    # the fixture's ring is drawn with no Context, so the loop's Context is its one validation
    validations = _counted(monkeypatch, nilring, "validate")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == cli.EXIT_OK
    assert validations == [correspondence.klein_four_ring()]


def test_the_parser_is_built_once_on_first_use():
    # main reads one parser per process, where each call built its own
    # (about a millisecond); importing the CLI builds none, and a rejected
    # argument list leaves the parser as it was
    probe = "import hopfgal.cli as c; print(c.build_parser.cache_info().currsize)"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=CHILD_ENV)
    assert result.stdout == "0\n", result.stderr
    runs = []
    for argv in (["report", "--family", "fixture:klein"], ["report", "--p", "x"],
                 ["report", "--family", "fixture:klein"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        runs.append((code, out.getvalue(), err.getvalue()))
    assert runs[0] == runs[2] and runs[0][0] == cli.EXIT_OK
    assert runs[1][0] == cli.EXIT_INPUT
    assert cli.build_parser() is cli.build_parser()


def test_verify_cyclic_leaves_args_unchanged():
    args = cli.build_parser().parse_args(["verify", "cyclic", "--p", "3", "--n", "2", "--d", "1"])
    before = dict(vars(args))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.cmd_verify(args) == cli.EXIT_OK
    assert vars(args) == before


def test_verify_conjugation_fixture():
    result = run_cli("verify", "conjugation", "--family", "fixture:klein")
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["rows"][0]["pairs_checked"] == 16


def test_verify_elementary():
    result = run_cli("verify", "elementary", "--p", "3", "--n", "2")
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["structures_scanned"] == 9


def test_verify_conjugation_checks_the_additive_translations_once_per_source(monkeypatch):
    # the 12 structures on C4 x C2 share one spec: each (spec, g) whose table
    # some report read is checked, and once
    checks, read = [], set()
    check, report = cli._check_translation, correspondence.holomorph_conjugation_report

    def reading(ctx):
        out = report(ctx)
        read.update((ctx.spec, g) for g in ctx._alpha_cache)
        return out

    monkeypatch.setattr(cli, "_check_translation", lambda ctx, g: checks.append((ctx.spec, g)) or check(ctx, g))
    monkeypatch.setattr(correspondence, "holomorph_conjugation_report", reading)
    code, out, err = _main(["verify", "conjugation", "--family", "enumerate", "--p", "2", "--exp", "2,1"])
    assert code == cli.EXIT_OK, err
    assert json.loads(out)["structures_checked"] == 12
    assert len(checks) == len(set(checks)) and set(checks) == read


def test_verify_conjugation_keeps_one_spec_per_source(monkeypatch):
    # each cyclic structure is built on its own equal spec, with its own
    # element tables; the memo of checked translations keeps the first alive,
    # and no later one (a memo keyed by (spec, g) kept all 27)
    specs, alive = [], []
    report = correspondence.holomorph_conjugation_report

    def reading(ctx):
        gc.collect()
        alive.append(sum(ref() is not None for ref in specs))
        specs.append(weakref.ref(ctx.spec))
        return report(ctx)

    monkeypatch.setattr(correspondence, "holomorph_conjugation_report", reading)
    code, out, err = _main(["verify", "conjugation", "--family", "cyclic", "--p", "3", "--n", "4", "--all-d"])
    assert code == cli.EXIT_OK, err
    assert alive == [0] + [1] * 26


# stdout digests of commands no benchmark golden covers, recorded before the
# commands shared one loop over structures
_DIGESTS = {
    "report --family primitive --p 5 --n 4":
        "6783589f6e88a287f1cc2dc0f88e3973501b9606bb5655dd6c229844f42e86ec",
    "report --all-structures --p 2 --exp 2,1":
        "8cd42c2d77e16c54b21e39105b38489198b92e7c8c5e5b16772f17efe3c43699",
    "verify lattice --family cyclic --p 3 --n 2 --all-d":
        "07b165ce0a2bea541797a97a2256df959ab17419d11200e230f40e0791dc416d",
    "verify conjugation --all-structures --p 2 --exp 2,1":
        "6cced5a8a76629794cfa890aac09abccfeb25003f5fcf63ce5f7458f43265b6c",
    "verify cyclic --p 3 --n 2 --family enumerate":
        "004c67ec4bd4e9a93bcd65d6872bcc0aead2885d6f12b8f30d1e09cbcb20823a",
    "verify primitive --p 3 --n 2 --format table":
        "ffb28e8c91ce4fbcc39f47742c525f6ffbb4ef0c50a9e56bdb52bc14cf489bdf",
    # recorded before the pointwise check of the translation tables
    "verify conjugation --family primitive --p 5 --n 4":
        "33a8c8444a37d6e88b6bcba593ceedeb1fb1196bbd7d942660881446fafb141d",
}


@pytest.mark.parametrize("command", sorted(_DIGESTS))
def test_stdout_is_byte_identical(command):
    code, out, err = _main(command.split())
    assert code == cli.EXIT_OK, err
    assert hashlib.sha256(out.encode()).hexdigest() == _DIGESTS[command]


def test_report_fixture_table():
    result = run_cli("report", "--family", "fixture:klein", "--format", "table")
    assert result.returncode == 0, result.stderr
    assert "fixture:klein" in result.stdout
    line = next(l for l in result.stdout.splitlines() if l.startswith("fixture:klein"))
    assert " 3" in line and " 5" in line and "False" in line


def test_report_trivial_counts_equal():
    result = run_cli("report", "--family", "trivial", "--p", "3", "--exp", "2")
    payload = json.loads(result.stdout)
    row = payload["rows"][0]
    assert row["subhopf_count"] == row["subfield_count"]
    assert row["strong_ftgt"] is True


def test_report_primitive_uses_formula_at_scale():
    result = run_cli("report", "--family", "primitive", "--p", "5", "--n", "4")
    payload = json.loads(result.stdout)
    row = payload["rows"][0]
    assert row["subhopf_count"] == 5
    assert row["count_method"] == "formula"
    assert row["subfield_count"] == 1 + 156 + 806 + 156 + 1


def test_report_counts_a_non_elementary_circle_group_by_formula():
    # circle type (4, 2, 1, 1): counted in closed form like every other type
    result = run_cli("report", "--family", "primitive", "--p", "2", "--n", "8")
    assert result.returncode == 0, result.stderr
    row = json.loads(result.stdout)["rows"][0]
    assert row["circle_type"] == [4, 2, 1, 1]
    assert row["subfield_count"] == 511
    assert row["count_method"] == "formula"


def test_deterministic_output(tmp_path):
    a = run_cli("verify", "lattice", "--p", "2", "--exp", "2", "--all-structures")
    b = run_cli("verify", "lattice", "--p", "2", "--exp", "2", "--all-structures")
    assert a.stdout == b.stdout
    out = tmp_path / "report.json"
    c = run_cli("report", "--family", "fixture:klein", "--out", str(out))
    assert c.returncode == 0
    assert json.loads(out.read_text())["rows"][0]["subhopf_count"] == 3


def test_input_error_exit_code():
    assert run_cli("enumerate", "--p", "4", "--exp", "1").returncode == 2
    assert run_cli("enumerate", "--p", "2").returncode == 2
    assert run_cli("verify", "cyclic", "--p", "2", "--n", "2", "--all-d").returncode == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--p", "2", "--exp", "1,a"),
        ("enumerate", "--p", "2", "--exp="),
        ("enumerate", "--p", "2", "--exp", "1,,1"),
        ("report", "--family", "cyclic:abc", "--p", "3", "--n", "2"),
        ("verify", "cyclic", "--family", "cyclic:abc", "--p", "3", "--n", "2"),
        ("verify", "lattice", "--family", "primitive", "--n", "2"),
        ("report", "--family", "cyclic:1", "--n", "2"),
        ("verify", "lattice", "--family", "cyclic", "--n", "3", "--all-d"),
        ("verify", "lattice", "--family", "cyclic", "--p", "3", "--n", "0", "--all-d"),
        ("report", "--family", "cyclicfoo", "--p", "3", "--n", "2", "--d", "1"),
        ("verify", "lattice", "--family", "cyclic_typo", "--p", "3", "--n", "2", "--all-d"),
        ("verify", "cyclic", "--family", "cyclicz", "--p", "3", "--n", "2", "--d", "1"),
    ],
)
def test_malformed_input_exit_code(argv):
    result = run_cli(*argv)
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("input error:")
    assert "Traceback" not in result.stderr


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "lattice", "--family", "primitive", "--p", "3", "--n", "2", "--all-structures"),
        ("verify", "primitive", "--p", "3", "--n", "2", "--family", "trivial"),
        ("verify", "primitive", "--p", "3", "--n", "2", "--all-structures"),
    ],
)
def test_conflicting_structure_selections_are_input_errors(argv):
    # --all-structures beside a family, or a --family other than the check's
    code, out, err = _main(list(argv))
    assert code == cli.EXIT_INPUT, err
    assert err.startswith("input error:") and "conflicts" in err and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "elementary", "--p", "3", "--n", "2", "--family", "trivial"),
        ("enumerate", "--p", "2", "--exp", "1,1", "--family", "primitive"),
        ("verify", "lattice", "--family", "trivial", "--p", "3", "--n", "2", "--d", "1"),
        ("verify", "conjugation", "--family", "primitive", "--p", "3", "--n", "2", "--all-d"),
        ("enumerate", "--p", "2", "--exp", "1,1", "--cap-enum", "5"),
        ("verify", "cyclic", "--p", "3", "--n", "2", "--d", "1", "--all-d"),
        ("report", "--family", "cyclic:1", "--p", "3", "--n", "2", "--d", "0"),
        ("report", "--family", "fixture:klein", "--p", "3", "--n", "5"),
        ("verify", "conjugation", "--family", "fixture:klein", "--cap-search", "7"),
        ("verify", "lattice", "--family", "primitive", "--p", "2", "--n", "3", "--cap-search", "5"),
        ("verify", "lattice", "--family", "cyclic:1", "--p", "3", "--n", "2", "--cap-search", "3"),
        # each at its default value: an option counts as given when it is typed
        ("enumerate", "--p", "2", "--exp", "1,1", "--cap-enum", "10000"),
        ("verify", "lattice", "--family", "trivial", "--p", "3", "--n", "2", "--cap-search", "16777216"),
        ("verify", "elementary", "--p", "3", "--n", "2", "--cap-hol", "2000"),
        ("report", "--family", "primitive", "--p", "3", "--n", "2", "--cap-hol", "2000"),
    ],
)
def test_unread_options_are_input_errors(argv):
    # an option the command, or its structure family, does not read
    code, out, err = _main(list(argv))
    assert code == cli.EXIT_INPUT, err
    assert err.startswith("input error:") and "does not read" in err and out == ""


def test_exp_beside_n_is_an_input_error():
    # --exp wins, so --n would go unread
    code, out, err = _main(["enumerate", "--p", "2", "--exp", "1,1", "--n", "2"])
    assert (code, out, err) == (cli.EXIT_INPUT, "", "input error: --exp conflicts with --n\n")


@pytest.mark.parametrize("where", ["missing/x.json", "."])
def test_unwritable_out_is_an_input_error(tmp_path, where):
    # a missing directory, and a directory itself
    out_path = tmp_path / where
    code, out, err = _main(["report", "--family", "trivial", "--p", "2", "--n", "1",
                            "--out", str(out_path)])
    assert code == cli.EXIT_INPUT
    assert err.startswith("input error:") and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("--p", "3", "--n", "2", "--family", "primitive"),
        ("--p", "2", "--n", "2", "--family", "enumerate"),
        ("--p", "2", "--n", "2", "--family", "fixture:klein"),
        ("--p", "3", "--n", "2", "--family", "fixture:klein"),
        ("--p", "2", "--n", "2", "--all-structures"),
    ],
)
def test_verify_cyclic_rejects_inputs_outside_the_theorem(argv):
    # the theorem needs p odd and G = Z/p^n: anything else is an input
    # error, raised before any lattice report is made
    code, out, err = _main(["verify", "cyclic", *argv])
    assert code == cli.EXIT_INPUT, err
    assert err.startswith("input error:") and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("--p", "3", "--n", "2", "--family", "trivial"),
        ("--p", "3", "--n", "2", "--family", "enumerate"),
        ("--p", "3", "--n", "2", "--all-structures"),
        ("--p", "3", "--n", "1", "--family", "primitive"),
    ],
)
def test_verify_cyclic_accepts_every_structure_on_the_cyclic_group(argv):
    code, out, err = _main(["verify", "cyclic", *argv])
    assert code == cli.EXIT_OK, err
    assert json.loads(out)["status"] == "pass"


def test_verify_elementary_parses_its_spec_once(monkeypatch):
    # the spec it checks is the one its structures are enumerated on
    calls = []
    parse = cli._parse_spec
    monkeypatch.setattr(cli, "_parse_spec", lambda *args: calls.append(None) or parse(*args))
    code, out, err = _main(["verify", "elementary", "--p", "3", "--n", "2"])
    assert code == cli.EXIT_OK, err
    assert len(calls) == 1


@pytest.mark.parametrize("argv, message", [
    (("report", "--family", "cyclic:", "--p", "3", "--n", "2"),
     "cyclic family parameter d must be an integer, got ''"),
    (("verify", "cyclic", "--family", "fixture:klein", "--p", "3", "--n", "2"),
     "family fixture:klein does not read --p"),
    (("verify", "lattice", "--family", "cyclicfoo", "--p", "3", "--n", "2", "--d", "1"),
     "cannot resolve structures from family='cyclicfoo'"),
    (("verify", "lattice", "--family", "cyclic:1", "--n", "2"), "cyclic family requires --p and --n"),
    (("verify", "lattice", "--family", "primitive", "--p", "3"), "primitive family requires --p and --n"),
    (("report", "--family", "cyclic:0", "--p", "3", "--n", "0"), "n must be >= 1"),
    (("report", "--family", "cyclic", "--p", "3", "--n", "0", "--d", "0"), "n must be >= 1"),
], ids=["empty-d", "klein-under-verify-cyclic", "unknown-family", "cyclic-without-p", "primitive-without-n",
        "cyclic-n-0", "cyclic-d-n-0"])
def test_structure_source_messages(argv, message):
    # each rule has one gate: an unknown family is refused before its options
    # are read, fixture:klein reads no option under any command, and n >= 1
    # is cyclic_structure's own test
    assert _main(list(argv)) == (cli.EXIT_INPUT, "", f"input error: {message}\n")


_SHARED = (1, (2, [3]))  # one tuple at two depths; it holds a list, so it is unhashable
_PAIR = (4, 5)  # an int tuple, joined at once, at two depths
_SPEC = {"p": 2, "exponents": [3, 2]}  # one dict at two depths, twice at one
_Level = enum.IntEnum("_Level", {"LOW": 0, "HIGH": 7})
_Point = collections.namedtuple("_Point", "x y")


class _Key(str):
    """A str subclass: a dict with such a key is left to json."""


@pytest.mark.parametrize("obj", [
    {}, [], (), {"a": {}, "b": [], "c": ()}, [[], (), {}],
    _SHARED, [_SHARED, [_SHARED]],
    [True, 1, (True,), (1,), {"f": False, "z": 0}],  # (True,) == (1,) in Python
    None, [None, (None,)],
    [-7, 10**39 + 3],
    "\u00e9\u2603\n\"\\\x00", {"\u00e9\u2603\n\"\\\x00": ["\x00"]},
    1.5, [{"x": [0.1, -2.0]}],  # floats: json's own text, indented
    {1: "a", 2: [3]}, [{1: {"b": [4]}}],  # an int key: json's own text, indented
    nilring.primitive_structure(3, 2).to_json(),
    # exact types only: each subclass is left to json, at its depth
    [1, _Level.HIGH, 3], [_Point(1, [2]), [_Point(3, 4)]], collections.OrderedDict([("b", [1]), ("a", 2)]),
    {_Key("b"): [1], "a": 2}, [_PAIR, [_PAIR], {"t": _PAIR}], [[{"xs": list(range(-25, 25))}]],
    [_SPEC, {"spec": _SPEC}, [_SPEC, {"spec": _SPEC}]],
], ids=repr)
def test_json_text_is_what_json_dumps_writes(obj):
    assert cli._json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)


def test_json_text_writes_a_whole_enumerate_payload(monkeypatch):
    payloads = []
    monkeypatch.setattr(cli, "_emit", lambda args, payload, lines: payloads.append(payload))
    assert _main(["enumerate", "--p", "2", "--exp", "2,1"])[0] == cli.EXIT_OK
    [payload] = payloads
    assert payload["structure_count"] == 12
    assert cli._json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)


def test_json_text_writes_an_enumerate_payload_with_shared_rows(monkeypatch):
    # 288 tables on C8 x C4 share 128 row objects, and the payload one spec
    # object, each written once per depth
    payloads = []
    monkeypatch.setattr(cli, "_emit", lambda args, payload, lines: payloads.append(payload))
    assert _main(["enumerate", "--p", "2", "--exp", "3,2", "--cap-hol", "1000"])[0] == cli.EXIT_OK
    [payload] = payloads
    rows = [row for A in payload["structures"] for row in A["constants"]]
    assert (payload["structure_count"], len(rows), len(set(map(id, rows)))) == (288, 576, 128)
    assert {id(A["spec"]) for A in payload["structures"]} == {id(payload["spec"])}
    assert cli._json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)


def test_report_table_widens_a_column_that_a_cell_fills():
    # the spec p=2 exp=1x1x1x1x1 is 17 characters, one more than the column's default
    code, out, _ = _main(["report", "--family", "trivial", "--p", "2", "--n", "5", "--format", "table"])
    assert code == cli.EXIT_OK
    header, _, row = out.splitlines()
    assert "p=2 exp=1x1x1x1x1 [1, 1, 1, 1, 1]" in row
    assert row.index("[") == header.index("circle type")


def test_golden_cli_output():
    # every frozen CLI verdict of the benchmark: exit code and stdout digest
    golden = json.loads(GOLDEN.read_text())["cli"]
    assert len(golden) == 20
    for command, expected in golden.items():
        code, out, _ = _main(command.split())
        assert {"exit": code, "stdout_sha256": hashlib.sha256(out.encode()).hexdigest()} \
            == expected, command


@pytest.mark.parametrize("command", [("verify", "lattice"), ("report",), ("verify", "cyclic"),
                                     ("verify", "conjugation")])
def test_all_d_compares_the_cap_before_building_the_family(command):
    # 3^10 structures on Z/3^11, |G| above --cap-enum: the first one decides
    tracemalloc.start()
    try:
        code, out, err = _main([*command, "--family", "cyclic", "--p", "3", "--n", "11", "--all-d"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_CAP, err
    assert err == "cap exceeded: |G| = 177147 exceeds enumeration cap 10000\n"
    assert peak < 1 << 20


def test_verify_primitive_reads_the_one_cap_and_input_check():
    assert _main(["verify", "primitive", "--p", "5", "--n", "6"]) == (
        cli.EXIT_CAP, "", "cap exceeded: |G| = 15625 exceeds enumeration cap 10000\n")
    assert _main(["verify", "primitive", "--p", "5"]) == (
        cli.EXIT_INPUT, "", "input error: primitive family requires --p and --n\n")


@pytest.mark.parametrize("p, code", [
    ("9223372036854775783", 3),  # the largest prime below 2^63: C_p is too large to search
    (str((2**61 - 1) ** 2), 2),  # |G| = p above 2^63 - 1
])
def test_large_p_is_decided_at_once(p, code):
    result = subprocess.run([sys.executable, "-m", "hopfgal.cli", "enumerate", "--p", p, "--exp", "1"],
                            capture_output=True, text=True, timeout=10, env=CHILD_ENV)
    assert result.returncode == code, result.stderr


@pytest.mark.parametrize("argv", [
    ("enumerate", "--p", "2", "--n", "30"),
    ("enumerate", "--p", "2", "--n", "31"),
    ("verify", "elementary", "--p", "5", "--n", "23"),
    ("verify", "lattice", "--family", "enumerate", "--p", "3", "--n", "26"),
])
def test_search_cap_stops_before_the_search_space_is_printed(argv):
    # search spaces of 4 000 digits and more: no int-to-str limit, no long line
    result = run_cli(*argv)
    assert result.returncode == 3, result.stderr
    assert result.stderr == "cap exceeded: search space exceeds cap 16777216\n"


@pytest.mark.parametrize("argv, what", [
    (("report", "--family", "cyclic:" + "9" * 5000, "--p", "3", "--n", "3"),
     "cyclic family parameter d"),
    (("enumerate", "--p", "2", "--exp", "9" * 5000), "--exp entry"),
])
def test_an_integer_above_the_digit_limit_is_too_long(argv, what):
    # int() raises the same ValueError for a text above Python's digit
    # limit as for a malformed one; the message says which, on one short line
    limit = sys.get_int_max_str_digits()
    assert 0 < limit < 5000
    assert _main(list(argv)) == (cli.EXIT_INPUT, "", (
        f"input error: {what} is too long for an integer of at most {limit} digits, "
        f"got '{'9' * 32}'... (5000 characters)\n"))


def test_a_malformed_integer_is_echoed_short():
    assert _main(["enumerate", "--p", "2", "--exp", "1,x"]) == (
        cli.EXIT_INPUT, "", "input error: --exp entry must be an integer, got 'x'\n")
    assert _main(["enumerate", "--p", "2", "--exp", "x" * 100]) == (
        cli.EXIT_INPUT, "",
        f"input error: --exp entry must be an integer, got '{'x' * 32}'... (100 characters)\n")


@pytest.mark.parametrize("option", ["--p", "--n", "--d", "--cap-enum", "--cap-search", "--cap-hol"])
def test_an_integer_option_is_echoed_short(option):
    # argparse's usage line and exit 2 stay; a text above the digit limit is
    # called too long and echoed cut short (whole, it was 5 361 bytes)
    limit = sys.get_int_max_str_digits()
    result = run_cli("report", "--family", "trivial", "--p", "3", "--n", "3", option, "9" * 5000)
    assert result.returncode == 2
    assert result.stderr.startswith("usage: hopfgal report") and len(result.stderr.encode()) < 1000
    assert result.stderr.endswith(
        f"error: argument {option}: value is too long for an integer of at most {limit} digits, "
        f"got '{'9' * 32}'... (5000 characters)\n")
    result = run_cli("report", "--family", "trivial", "--p", "3", "--n", "3", option, "x")
    assert result.returncode == 2
    assert result.stderr.endswith(f"error: argument {option}: value must be an integer, got 'x'\n")


@pytest.mark.parametrize("argv", [
    ("enumerate", "--p", "2", "--exp", "1", "--cap-search", "-1"),
    ("verify", "lattice", "--family", "trivial", "--p", "2", "--n", "2", "--cap-enum", "-1"),
    ("enumerate", "--p", "2", "--exp", "1", "--cap-hol", "-1"),
])
def test_a_negative_cap_is_an_input_error(argv):
    # the first two exited 3 with "cap exceeded ... cap -1", and --cap-hol -1
    # skipped the Hol(G) cross-check without a word
    assert _main(list(argv)) == (cli.EXIT_INPUT, "", f"input error: {argv[-2]} must be >= 0\n")


def test_cap_hol_zero_skips_the_cross_check():
    code, out, err = _main(["enumerate", "--p", "2", "--exp", "1", "--cap-hol", "0"])
    assert (code, err) == (cli.EXIT_OK, "")
    payload = json.loads(out)
    assert payload["structure_count"] == 1
    assert [payload[key] for key in ("regular_subgroup_count", "abelian_regular_subgroup_count",
                                     "counts_match")] == [None, None, None]


@pytest.mark.parametrize("argv", [
    ("verify", "lattice", "--family", "cyclic", "--p", "3", "--n", "100000000", "--all-d"),
    ("report", "--family", "cyclic:0", "--p", "3", "--n", "100000000"),
])
def test_cyclic_family_checks_the_range_before_p_to_the_n(argv):
    result = subprocess.run([sys.executable, "-m", "hopfgal.cli", *argv],
                            capture_output=True, text=True, timeout=10, env=CHILD_ENV)
    assert result.returncode == 2, result.stderr
    assert result.stderr == "input error: group order exceeds 64-bit range\n"


@pytest.mark.parametrize("command", [
    ("enumerate",), ("verify", "elementary"), ("verify", "lattice", "--family", "trivial"),
    ("verify", "primitive"),
])
def test_n_is_range_checked_before_the_exponents_are_built(command):
    tracemalloc.start()
    try:
        code, out, err = _main([*command, "--p", "2", "--n", "1000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (cli.EXIT_INPUT, "", "input error: group order exceeds 64-bit range\n")
    assert peak < 1 << 20


def test_cap_exceeded_exit_code():
    result = run_cli("enumerate", "--p", "2", "--exp", "1,1", "--cap-search", "2")
    assert result.returncode == 3
    assert "cap" in result.stderr


def _plant_translation(monkeypatch, planted):
    """The kernel the Context tabulates its additive translations by, with
    the images of 0 and 1 swapped in the table of g = planted."""
    original = abelian._translation_perm

    def patched(spec, g):
        table = original(spec, g)
        return (table[1], table[0], *table[2:]) if g == planted else table

    monkeypatch.setattr(abelian, "_translation_perm", patched)


C4C4_TRIVIAL = ["verify", "conjugation", "--family", "trivial", "--p", "2", "--exp", "2,2"]


def test_verify_conjugation_ignores_a_table_no_verdict_reads(monkeypatch):
    # alpha((3, 3)) on C4 x C4 planted wrong: the report reads only the
    # translations its rows need, none of them (3, 3), and the check reads
    # only the tables the report read: a table no verdict reads changes no
    # output, so the run passes with the same stdout
    expected = _main(C4C4_TRIVIAL)
    _plant_translation(monkeypatch, (3, 3))
    assert _main(C4C4_TRIVIAL) == expected
    assert expected[0] == cli.EXIT_OK and expected[2] == ""


@pytest.mark.parametrize("g", [(0, 1), (1, 0)], ids=str)
def test_verify_conjugation_rejects_a_wrong_table_the_report_read(monkeypatch, g):
    # every conjugation row reads the translations by the standard generators
    # in its basis test, so a wrong table of either is named
    _plant_translation(monkeypatch, g)
    code, out, err = _main(C4C4_TRIVIAL)
    message, _, witness = err.partition("\n")
    assert (code, out) == (cli.EXIT_VIOLATION, "")
    assert message == "verified identity failed: additive translation is not x -> g + x"
    assert json.loads(witness) == {"g": list(g)}


# index permutations of the 4 elements (0, 0), (0, 1), (1, 0), (1, 1) of C2 x C2;
# alpha((0, 1)) is _SWAP_01_23, alpha((1, 0)) _SWAP_02_13
_ID, _SWAP_01, _SWAP_12, _CYCLE_012 = (0, 1, 2, 3), (1, 0, 2, 3), (0, 2, 1, 3), (1, 2, 0, 3)
_SWAP_01_23, _SWAP_02_13 = (1, 0, 3, 2), (2, 3, 0, 1)


def _additive_check_on(monkeypatch, alpha_1_0, alpha_0_1):
    """`verify conjugation` on trivial C2 x C2, with the Context's additive
    translations replaced after the report: alpha(0) the identity, the two
    given tables, and alpha(1, 1) = alpha(0, 1) alpha(1, 0), so that the
    tables compose additively whenever the two given ones commute and have
    order 2."""
    report = correspondence.holomorph_conjugation_report

    def patched(ctx):
        out = report(ctx)
        compose = correspondence.perm_compose
        ctx._alpha_cache.clear()
        ctx._alpha_cache.update({(0, 0): _ID, (0, 1): alpha_0_1, (1, 0): alpha_1_0,
                                 (1, 1): compose(alpha_0_1, alpha_1_0)})
        return out

    monkeypatch.setattr(correspondence, "holomorph_conjugation_report", patched)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["verify", "conjugation", "--family", "trivial", "--p", "2", "--exp", "1,1"])
    message, _, witness = err.getvalue().partition("\n")
    return code, message, json.loads(witness)


def test_verify_conjugation_checks_that_the_generators_translations_commute(monkeypatch):
    # two involutions that do not commute: the tables are checked in the
    # order the report read them, and alpha((0, 1)) is the first wrong one
    code, message, witness = _additive_check_on(monkeypatch, _SWAP_01, _SWAP_12)
    assert code == cli.EXIT_VIOLATION
    assert message == "verified identity failed: additive translation is not x -> g + x"
    assert witness == {"g": [0, 1]}


def test_verify_conjugation_checks_the_order_of_each_generators_translation(monkeypatch):
    # alpha(b_0) a 3-cycle, alpha(b_1) the true translation: only alpha(b_0)
    # and alpha(b_0 + b_1) are wrong, and b_0 = (1, 0) comes first
    code, message, witness = _additive_check_on(monkeypatch, _CYCLE_012, _SWAP_01_23)
    assert code == cli.EXIT_VIOLATION
    assert message == "verified identity failed: additive translation is not x -> g + x"
    assert witness == {"g": [1, 0]}


def test_verify_conjugation_rejects_translations_twisted_by_an_automorphism(monkeypatch):
    # alpha(g) the translation by phi(g), phi swapping the two coordinates:
    # the tables compose additively, which the check of alpha(g + b) =
    # alpha(g) alpha(b) passed, but alpha((0, 1)) is not x -> (0, 1) + x
    code, message, witness = _additive_check_on(monkeypatch, _SWAP_01_23, _SWAP_02_13)
    assert code == cli.EXIT_VIOLATION
    assert message == "verified identity failed: additive translation is not x -> g + x"
    assert witness == {"g": [0, 1]}


def test_verify_lattice_checks_a_zero_rings_ideal_count_against_butlers_count(monkeypatch):
    # a walk that drops one subgroup drops it on both sides of the lattice
    # report, which then agree; Butler's count of the subgroups of C3 x C3
    # shares no code with the walk, and the 5 ideals of A^2 = 0 miss its 6
    argv = ["verify", "lattice", "--family", "trivial", "--p", "3", "--n", "2"]
    assert _main(argv)[0] == cli.EXIT_OK
    walk = abelian._walk_subgroups
    monkeypatch.setattr(abelian, "_walk_subgroups", lambda spec, maps: walk(spec, maps)[:1] + walk(spec, maps)[2:])
    code, out, err = _main(argv)
    message, _, witness = err.partition("\n")
    assert (code, out) == (cli.EXIT_VIOLATION, "")
    assert message == "verified identity failed: ideal count of A^2 = 0 differs from the subgroup count"
    assert json.loads(witness) == {"structure": "trivial", "ideal_count": 5, "subgroup_count": 6}
