"""The CLI's exit-code contract on mutated inputs.

Exit 0 or 1 means standard output holds one JSON document; exit 2 means
standard output is empty and standard error holds one ``error:`` line;
no exception escapes ``cli.main``. The inputs are the fixture rules,
dictionaries and groupings with a few random byte edits, plus edited
``--vars`` and ``--stage`` values and ``RULEDICT_MAX_ENUM``, run through
``cli.main`` in this process, some under the "error" warnings filter.
A number of six or more digits can ask for a huge allocation, so the
in-process test skips such inputs, and a second test runs huge count
ranges in a child process with a capped address space. ``select`` runs
on the fixture CSVs with edited cells, rows, headers and encodings, and
every criterion, fold count and seed kind; its stdout must be strict
JSON, with no ``NaN`` or ``Infinity``. A rule that ``dict`` accepts must
be equivalent to itself under ``equiv``.
"""

import contextlib
import io
import json
import os
import re
import sys
import warnings
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ruledict import cli, errors

from test_cli import ROOT, _assert_one_error_line, run_cli


def _fixture(path):
    with open(os.path.join(ROOT, "fixtures", path), "rb") as fh:
        return fh.read()


RULES = [_fixture(f"rules/{name}.rule") for name in (
    "free_selection", "group_pairs", "if_then", "one_or_two_alt", "quad_interaction",
    "sparse_groups", "staged_completion", "strong_heredity",
)] + [b"vars: A, B\nselect {1} of {A} => select {0} of {B}\n"]
JSON_RULES = [_fixture("rules/strong_heredity.rule.json")]
DICTS = [_fixture("dicts/strong_heredity.dict")]
JSON_DICTS = [_fixture("golden/strong_heredity.dict.json")]
GROUPINGS = [_fixture(f"groupings/{name}.groups") for name in ("pairs", "strong_heredity", "weak_heredity")]
JSON_GROUPINGS = [_fixture("golden/synthesize_strong.json")]

#: Inserted by the edits: rule and JSON syntax, names, and bytes that do not decode.
FRAGMENTS = [
    b"select ", b" of ", b"{", b"}", b"{}", b",", b"..", b"0", b"1", b"3", b"99",
    b"->", b"=>", b" and ", b" or ", b"not ", b"(", b")", b"\n", b"vars: ", b"A", b"B1", b"Z",
    b"#", b"\xef\xbb\xbf", b"\xc3\xa9", b"\xff", b"\x00", b'"', b"[", b"]", b":", b"null",
    b"-1", b"1e3", b"true", b'{"op": "not"}',
]
VARS = ["A,B,C,D", "A,B1,B2,AB1,AB2", "A,B", "A,A", "", ",", "A,,B", "1A", "A B"]
STAGES = ["{}", "{A}", "{A,B}", "{A,B,C,D}", "{Z}", "A", "{A,,B}", ""]
MAX_ENUM = [None, "1", "4", "16", "0", "-3", "x", "1048576"]


@st.composite
def edited(draw, bases, fragments=FRAGMENTS):
    """One of ``bases`` with up to four deletions, insertions or replacements."""
    data = draw(st.sampled_from(bases))
    for _ in range(draw(st.integers(0, 4))):
        start = draw(st.integers(0, len(data)))
        end = start + draw(st.integers(0, 8))
        insert = draw(st.sampled_from(fragments + [b""]))
        data = data[:start] + insert + data[end:]
    return data


@st.composite
def invocations(draw):
    """``(argv template, {file name: bytes}, RULEDICT_MAX_ENUM, warnings as errors)``.

    Each ``@name`` in the argv template is a file written with the given bytes.
    """
    json_rule = draw(st.booleans())
    rule = ("r.rule.json", edited(JSON_RULES)) if json_rule else ("r.rule", edited(RULES))
    files = {rule[0]: draw(rule[1])}
    flags = [f"--vars={draw(st.sampled_from(VARS))}"] if draw(st.booleans()) else []
    command = draw(st.sampled_from(["dict", "equiv", "check", "synthesize", "from-dict"]))
    if command == "from-dict":
        name = draw(st.sampled_from(["d.dict", "d.json"]))
        files = {name: draw(edited(DICTS if name == "d.dict" else JSON_DICTS))}
        argv = ["from-dict", "--dict", f"@{name}", f"--vars={draw(st.sampled_from(VARS))}"]
    else:
        argv = [command, "--rule", f"@{rule[0]}", *flags]
    if command == "dict":
        argv += [f"--stage={s}" for s in draw(st.lists(st.sampled_from(STAGES), max_size=2))]
    elif command == "equiv":
        files["r2.rule"] = draw(edited(RULES))
        argv += ["--rule2", "@r2.rule"]
    elif command == "check":
        name = draw(st.sampled_from(["g.groups", "g.json"]))
        files[name] = draw(edited(GROUPINGS if name == "g.groups" else JSON_GROUPINGS))
        argv += ["--grouping", f"@{name}", "--method", draw(st.sampled_from(["log", "ogl"]))]
    return argv, files, draw(st.sampled_from(MAX_ENUM)), draw(st.booleans())


def _has_long_number(argv, files):
    """Whether the arguments or files hold a run of six or more digits."""
    return any(re.search(rb"[0-9]{6}", data) for data in [*(a.encode() for a in argv), *files.values()])


def _write(directory, argv, files):
    """Write ``files`` into ``directory`` and return ``argv`` with their paths filled in."""
    for name, data in files.items():
        with open(os.path.join(directory, name), "wb") as fh:
            fh.write(data)
    return [os.path.join(directory, a[1:]) if a.startswith("@") else a for a in argv]


def _show(message, category, filename, lineno, file=None, line=None):
    """Write a warning to standard error, as the interpreter does outside a test run."""
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def run_main(argv, max_enum, warnings_as_errors):
    """``cli.main(argv)`` in this process: (exit code, stdout bytes, stderr bytes)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), mock.patch.dict(os.environ):
        os.environ.pop("RULEDICT_MAX_ENUM", None)
        if max_enum is not None:
            os.environ["RULEDICT_MAX_ENUM"] = max_enum
        with warnings.catch_warnings():
            warnings.simplefilter("error" if warnings_as_errors else "always")
            warnings.showwarning = _show
            code = cli.main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


def assert_contract(code, stdout, stderr):
    if code == 2:
        assert stdout == b""
        _assert_one_error_line(code, stderr)
    else:
        assert code in (0, 1), (code, stderr.decode())
        json.loads(stdout)  # one document: trailing text is a decode error


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz"))


@settings(max_examples=600)
@given(invocations())
def test_in_process(workdir, case):
    argv, files, max_enum, warnings_as_errors = case
    assume(not _has_long_number(argv, files))
    assert_contract(*run_main(_write(workdir, argv, files), max_enum, warnings_as_errors))


@st.composite
def hungry_invocations(draw):
    """A ``dict`` invocation whose rule holds a count range too large to materialise."""
    lo = draw(st.integers(0, 3) | st.integers(10 ** 7, 10 ** 12))
    hi = draw(st.integers(10 ** 7 + 1, 10 ** 12))
    tail = draw(st.sampled_from([b"", b" and", b" or select {1} of {B}", b"\nselect"]))
    files = {"r.rule": b"vars: A, B\nselect %d..%d of {A}" % (lo, hi) + tail + b"\n"}
    return ["dict", "--rule", "@r.rule"], files, draw(st.sampled_from(MAX_ENUM)), draw(st.booleans())


@settings(max_examples=12)
@given(hungry_invocations())
def test_in_a_child_with_capped_memory(workdir, case):
    argv, files, max_enum, warnings_as_errors = case
    env = {"PYTHONWARNINGS": "error" if warnings_as_errors else ""}
    if max_enum is not None:
        env["RULEDICT_MAX_ENUM"] = max_enum
    proc = run_cli(*_write(workdir, argv, files), env_extra=env, address_space=256 * 2**20, timeout=60)
    assert_contract(proc.returncode, proc.stdout, proc.stderr)


#: (rule file, the CSV whose columns it names).
SELECT_INPUTS = [
    ("rules/one_or_two.rule", "data/linear_abc.csv"),
    ("rules/strong_heredity.rule", "data/interaction_signal.csv"),
    ("rules/strong_heredity.rule.json", "data/interaction_signal.csv"),
]
#: Written over one cell, header cells included: non-finite, huge and empty
#: values, names that duplicate or drop a column, a 200,000-character cell.
CELLS = [
    b"nan", b"inf", b"-inf", b"1e160", b"-1e160", b"1e308", b"-1e308", b"", b" ", b"NA",
    b"x", b"\x00", b"7" * 200_000, b"A", b"Y", b"B1", b"0", b"1e-320",
]
#: Inserted by the byte edits: separators that make ragged or blank rows,
#: quotes, and bytes that do not decode.
CSV_FRAGMENTS = [
    b",", b",,", b"\n", b"\n\n", b"\r\n", b"\n,\n", b'"', b"\x00", b"\xff", b"\xef\xbb\xbf",
    b"1e308", b"nan", b"-",
]
#: What an invocation may get wrong; each draws up to three of them, so
#: many runs reach the fits.
FAULTS = ["cells", "bytes", "encoding", "outcome", "flags", "max_enum"]


@st.composite
def edited_csv(draw, base, faults):
    """``base`` with cells overwritten, byte edits and a re-encoding, as ``faults`` ask."""
    lines = base.split(b"\n")
    for _ in range(draw(st.integers(1, 3)) if "cells" in faults else 0):
        # Often the header or the first rows, which every file has.
        row = draw(st.integers(0, 3) | st.integers(0, len(lines) - 1))
        cells = lines[row].split(b",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(CELLS))
        lines[row] = b",".join(cells)
    data = b"\n".join(lines)
    if "bytes" in faults:
        data = draw(edited([data], CSV_FRAGMENTS))
    if "encoding" in faults:
        encoding = draw(st.sampled_from(["utf-8-sig", "utf-16"]))
        data = data.decode("utf-8", "replace").encode(encoding)
    return data


@st.composite
def select_invocations(draw):
    """A ``select`` invocation, in the form :func:`invocations` gives."""
    rule, data = draw(st.sampled_from(SELECT_INPUTS))
    faults = draw(st.sets(st.sampled_from(FAULTS), max_size=3))
    rule_name = "s.rule.json" if rule.endswith(".json") else "s.rule"
    files = {rule_name: _fixture(rule), "s.csv": draw(edited_csv(_fixture(data), faults))}
    criterion = draw(st.sampled_from(["aic", "bic", "adjr2", "cv"]))
    outcome = draw(st.sampled_from(["A", "Z", "B1"])) if "outcome" in faults else "Y"
    argv = ["select", "--rule", f"@{rule_name}", "--data", "@s.csv", "--outcome", outcome,
            "--criterion", criterion]
    # cv needs --folds; with "flags", either flag may come or go on any criterion.
    if draw(st.booleans()) if "flags" in faults else criterion == "cv":
        argv.append(f"--folds={draw(st.sampled_from([0, 1, 2, 5, 100_000]))}")
    if ("flags" in faults or criterion == "cv") and draw(st.booleans()):
        argv.append(f"--seed={draw(st.sampled_from([-1, 0, 3, 2 ** 70]))}")
    max_enum = draw(st.sampled_from(MAX_ENUM)) if "max_enum" in faults else None
    return argv, files, max_enum, draw(st.booleans())


def _no_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


def _big_outcome(criterion):
    """One of :func:`select_invocations`: an outcome whose sum of squares overflows float64."""
    rows = [f"{i % 3},{i % 2},{i % 5},{(-1) ** i * (1 + i / 10)}e160" for i in range(12)]
    files = {
        "s.rule": _fixture("rules/one_or_two.rule"),
        "s.csv": ("A,B,C,Y\n" + "\n".join(rows) + "\n").encode(),
    }
    argv = ["select", "--rule", "@s.rule", "--data", "@s.csv", "--outcome", "Y", "--criterion", criterion]
    return argv, files, None, False


def _csv_case(*rows):
    """One of :func:`select_invocations`: ``bic`` on a CSV over A, B, C, Y with these data rows."""
    files = {
        "s.rule": _fixture("rules/one_or_two.rule"),
        "s.csv": ("A,B,C,Y\n" + "\n".join(rows) + "\n").encode(),
    }
    argv = ["select", "--rule", "@s.rule", "--data", "@s.csv", "--outcome", "Y", "--criterion", "bic"]
    return argv, files, None, True


@settings(max_examples=300)
@given(select_invocations())
@example(_big_outcome("aic"))
@example(_big_outcome("adjr2"))
@example(_csv_case("1,2,inf,4", "5,abc,7,8", "1,0,1,2"))  # the row-2 error wins
@example(_csv_case("1e308,1e308,1e308,4", "1,2,0,1", "0,1,3,2", "2,0,1,5", "3,1,1,1"))
def test_select_in_process(workdir, case):
    argv, files, max_enum, warnings_as_errors = case
    code, stdout, stderr = run_main(_write(workdir, argv, files), max_enum, warnings_as_errors)
    assert_contract(code, stdout, stderr)
    if code != 2:
        json.loads(stdout, parse_constant=_no_constant)


COMMA_NAMES = json.dumps(
    {"vars": ["a,b", " c"], "rule": {"op": "unit", "counts": [1], "scope": ["a,b", " c"]}}
).encode()


@settings(max_examples=150)
@given(
    st.tuples(st.just("r.rule"), edited(RULES)) | st.tuples(st.just("r.rule.json"), edited(JSON_RULES)),
    st.sampled_from([[]] + [[f"--vars={v}"] for v in VARS]),
)
@example(("r.rule.json", COMMA_NAMES), [])
def test_a_rule_dict_accepts_is_equivalent_to_itself(workdir, rule, flags):
    name, data = rule
    assume(not _has_long_number(flags, {name: data}))
    argv = _write(workdir, ["dict", "--rule", f"@{name}", *flags], {name: data})
    if run_main(argv, None, False)[0] != 0:
        return
    code, stdout, stderr = run_main(["equiv", *argv[1:3], "--rule2", argv[2], *flags], None, False)
    assert code == 0, stderr.decode()
    assert json.loads(stdout)["equivalent"] is True


#: The errors that ``cli.main`` reports as a JSON document and exit 1.
DOMAIN_ERRORS = {
    errors.EmptyDictionary,
    errors.InvalidStageResult,
    errors.IncompatibleGrouping,
    errors.UseClosureInstead,
    errors.RankDeficient,
    errors.Underdetermined,
    errors.SynthesisFailure,
}


def test_exit_1_errors_are_exactly_the_domain_errors():
    defined = {c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.RuledictError)}
    assert {c for c in defined if issubclass(c, errors.DomainError)} == DOMAIN_ERRORS | {errors.DomainError}
    assert not issubclass(errors.MissingStageResult, errors.DomainError)
    for cls in sorted(defined, key=lambda c: c.__name__):
        exc = cls("boom", "not-union-closed") if cls is errors.SynthesisFailure else cls("boom")
        with mock.patch.object(cli, "_cmd_from_dict", side_effect=exc):
            code, stdout, stderr = run_main(["from-dict", "--dict", "x.dict", "--vars", "A"], None, False)
        assert_contract(code, stdout, stderr)
        assert code == (1 if issubclass(cls, errors.DomainError) else 2), cls
