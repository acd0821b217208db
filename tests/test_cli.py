"""End-to-end command checks against the stored golden outputs.

Each golden file is the byte-exact stdout of one command run from the
repository root. The table below reproduces those commands; a meta test
walks the fixture tree and fails if any fixture file stops being
exercised here.
"""

import csv
import json
import os
import random
import resource
import subprocess
import sys
import textwrap
import types

import pytest

from ruledict import (
    GroupingStructure,
    StageResult,
    check_ogl_necessary,
    eval_rule,
    format_rule,
    make_universe,
    parse_rule,
    sequential_nodes,
)
from ruledict.core import Dictionary, parse_braced_names

from oracles import lift

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RULES = "fixtures/rules"
GROUPS = "fixtures/groupings"
DICTS = "fixtures/dicts"
DATA = "fixtures/data"
GOLDEN = "fixtures/golden"


def _env(env_extra=None):
    """This process's environment, with the package under ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    env.update(env_extra or {})
    return env


def run_cli(*argv, env_extra=None, cwd=ROOT, timeout=None, address_space=None):
    """Run the CLI in a child process, its address space capped at ``address_space`` bytes if given."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run(
        [sys.executable, "-m", "ruledict.cli", *argv],
        capture_output=True,
        cwd=cwd,
        env=_env(env_extra),
        timeout=timeout,
        preexec_fn=limit if address_space else None,
    )


# (golden file, expected exit code, argv)
GOLDEN_CASES = [
    ("one_or_two.dict.json", 0,
     ["dict", "--rule", f"{RULES}/one_or_two.rule"]),
    ("if_then.dict.json", 0,
     ["dict", "--rule", f"{RULES}/if_then.rule"]),
    ("one_or_two_if_then.dict.json", 0,
     ["dict", "--rule", f"{RULES}/one_or_two_if_then.rule"]),
    ("free_selection.dict.json", 0,
     ["dict", "--rule", f"{RULES}/free_selection.rule"]),
    ("group_pairs.dict.json", 0,
     ["dict", "--rule", f"{RULES}/group_pairs.rule"]),
    ("within_groups.dict.json", 0,
     ["dict", "--rule", f"{RULES}/within_groups.rule"]),
    ("sparse_groups.stage_ab.dict.json", 0,
     ["dict", "--rule", f"{RULES}/sparse_groups.rule", "--stage", "{A,B}"]),
    ("staged_completion.stage_ab.dict.json", 0,
     ["dict", "--rule", f"{RULES}/staged_completion.rule", "--stage", "{A,B}"]),
    ("strong_heredity.dict.json", 0,
     ["dict", "--rule", f"{RULES}/strong_heredity.rule"]),
    ("strong_heredity.dict.json", 0,
     ["dict", "--rule", f"{RULES}/strong_heredity.rule.json"]),
    ("weak_heredity.dict.json", 0,
     ["dict", "--rule", f"{RULES}/weak_heredity.rule"]),
    ("quad_interaction.dict.json", 0,
     ["dict", "--rule", f"{RULES}/quad_interaction.rule"]),
    ("equiv_one_or_two_alt.json", 0,
     ["equiv", "--rule", f"{RULES}/one_or_two.rule",
      "--rule2", f"{RULES}/one_or_two_alt.rule"]),
    ("equiv_one_or_two_if_then.json", 1,
     ["equiv", "--rule", f"{RULES}/one_or_two.rule",
      "--rule2", f"{RULES}/one_or_two_if_then.rule"]),
    ("check_log_strong.json", 0,
     ["check", "--rule", f"{RULES}/strong_heredity.rule",
      "--grouping", f"{GROUPS}/strong_heredity.groups", "--method", "log"]),
    ("check_log_weak.json", 0,
     ["check", "--rule", f"{RULES}/weak_heredity.rule",
      "--grouping", f"{GROUPS}/weak_heredity.groups", "--method", "log"]),
    ("check_log_quad.json", 1,
     ["check", "--rule", f"{RULES}/quad_interaction.rule",
      "--grouping", f"{GROUPS}/quad_interaction_candidate.groups",
      "--method", "log"]),
    ("check_ogl_pairs.json", 0,
     ["check", "--rule", f"{RULES}/group_pairs.rule",
      "--grouping", f"{GROUPS}/pairs.groups", "--method", "ogl"]),
    ("synthesize_strong.json", 0,
     ["synthesize", "--rule", f"{RULES}/strong_heredity.rule"]),
    ("synthesize_within.json", 1,
     ["synthesize", "--rule", f"{RULES}/within_groups.rule"]),
    ("select_bic.json", 0,
     ["select", "--rule", f"{RULES}/one_or_two.rule",
      "--data", f"{DATA}/linear_abc.csv", "--outcome", "Y",
      "--criterion", "bic"]),
    ("select_cv.json", 0,
     ["select", "--rule", f"{RULES}/one_or_two.rule",
      "--data", f"{DATA}/linear_abc.csv", "--outcome", "Y",
      "--criterion", "cv", "--folds", "5"]),
    ("select_interaction_bic.json", 0,
     ["select", "--rule", f"{RULES}/strong_heredity.rule",
      "--data", f"{DATA}/interaction_signal.csv", "--outcome", "Y",
      "--criterion", "bic"]),
    ("from_dict_strong.json", 0,
     ["from-dict", "--dict", f"{DICTS}/strong_heredity.dict",
      "--vars", "A,B1,B2,AB1,AB2"]),
]

# fixture files exercised outside the golden table
EXTRA_FIXTURES = [
    f"{GROUPS}/singleton.groups",
]


@pytest.mark.parametrize(
    "golden,code,argv", GOLDEN_CASES, ids=[f"{g}-{i}" for i, (g, _, _) in enumerate(GOLDEN_CASES)]
)
def test_golden_output(golden, code, argv):
    with open(os.path.join(ROOT, GOLDEN, golden), "rb") as fh:
        want = fh.read()
    proc = run_cli(*argv)
    assert proc.returncode == code, proc.stderr.decode()
    assert proc.stdout == want


def test_repeat_runs_are_byte_identical():
    for golden, code, argv in (GOLDEN_CASES[0], GOLDEN_CASES[-4], GOLDEN_CASES[-1]):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first.returncode == second.returncode == code
        assert first.stdout == second.stdout


def _python310_env():
    """The variables under which ``python3.10 -c pass`` exits 0, or None if none do.

    A pyenv shim runs a command only from a selected version, so each
    installed version that ``pyenv whence`` names is tried too.
    """
    try:
        versions = subprocess.run(["pyenv", "whence", "python3.10"], capture_output=True, text=True).stdout
    except OSError:
        versions = ""
    for extra in [{}] + [{"PYENV_VERSION": v} for v in versions.split()]:
        try:
            if subprocess.run(["python3.10", "-c", "pass"], env=_env(extra), capture_output=True).returncode == 0:
                return extra
        except OSError:
            return None
    return None


def test_numpy_free_goldens_on_the_oldest_declared_python():
    # pyproject.toml declares requires-python >= 3.10; select needs numpy, which that interpreter may lack.
    extra = _python310_env()
    if extra is None:
        pytest.skip("no python3.10 runs here")
    env = _env({**extra, "PYTHONPATH": os.path.join(ROOT, "src")})
    for golden, code, argv in GOLDEN_CASES:
        if argv[0] == "select":
            continue
        proc = subprocess.run(["python3.10", "-m", "ruledict.cli", *argv], capture_output=True, cwd=ROOT, env=env)
        with open(os.path.join(ROOT, GOLDEN, golden), "rb") as fh:
            assert (proc.returncode, proc.stdout) == (code, fh.read()), (argv, proc.stderr.decode()[-600:])


def test_every_fixture_file_is_exercised():
    referenced = {path for _, _, argv in GOLDEN_CASES for path in argv if "/" in path}
    referenced |= {os.path.join(GOLDEN, g) for g, _, _ in GOLDEN_CASES}
    referenced |= set(EXTRA_FIXTURES)
    on_disk = set()
    for dirpath, _, files in os.walk(os.path.join(ROOT, "fixtures")):
        for name in files:
            full = os.path.join(dirpath, name)
            on_disk.add(os.path.relpath(full, ROOT))
    assert on_disk == referenced


class TestDictCommand:
    def test_incoherent_rule_reports_empty_dictionary(self, tmp_path):
        rule = tmp_path / "r.rule"
        rule.write_text("vars: A, B\nselect {3} of {A,B}\n")
        proc = run_cli("dict", "--rule", str(rule))
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["size"] == 0
        assert payload["dictionary"] == []

    def test_vars_flag_overrides_preamble(self):
        proc = run_cli(
            "dict", "--rule", f"{RULES}/one_or_two.rule", "--vars", "A,B,C,Z"
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["universe"] == ["A", "B", "C", "Z"]
        assert payload["size"] == 12

    def test_sequential_rule_without_stage(self):
        proc = run_cli("dict", "--rule", f"{RULES}/sparse_groups.rule")
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"error:")

    @pytest.mark.parametrize("warnings_filter", ["", "error"])
    def test_scope_warning_keeps_the_exit_contract(self, tmp_path, warnings_filter):
        # The two stages select over different variables, which warns.
        rule = tmp_path / "r.rule"
        rule.write_text("vars: A, B\nselect {1} of {A} => select {0} of {B}\n")
        env = {"PYTHONWARNINGS": warnings_filter}
        proc = run_cli("dict", "--rule", str(rule), env_extra=env)
        assert proc.stdout == b""
        _assert_one_error_line(proc.returncode, proc.stderr)
        assert b"needs the outcome chosen by its first stage" in proc.stderr
        proc = run_cli("dict", "--rule", str(rule), "--stage", "{A}", env_extra=env)
        if warnings_filter:
            assert proc.stdout == b""
            _assert_one_error_line(proc.returncode, proc.stderr)
            assert b"different variables" in proc.stderr
        else:
            assert proc.returncode == 0
            assert json.loads(proc.stdout)["dictionary"] == [[], ["A"]]
            assert b"SequentialScopeWarning" in proc.stderr

    def test_huge_count_range_is_a_parse_error(self, tmp_path):
        # A billion counts would fill the capped address space before the parse ends.
        rule = tmp_path / "r.rule"
        rule.write_text("vars: A\nselect 0..1000000000 of {A} and\n")
        proc = run_cli("dict", "--rule", str(rule), address_space=256 * 2**20, timeout=60)
        assert proc.stdout == b""
        _assert_one_error_line(proc.returncode, proc.stderr)
        assert b"count range 0..1000000000 ends above 10000000" in proc.stderr

    def test_stage_not_permitted_by_first_stage(self):
        proc = run_cli(
            "dict", "--rule", f"{RULES}/sparse_groups.rule", "--stage", "{A}"
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["error"] == "invalid-stage-result"

    def test_too_many_stages(self):
        proc = run_cli(
            "dict", "--rule", f"{RULES}/sparse_groups.rule",
            "--stage", "{A,B}", "--stage", "{}",
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith(b"error:")

    def test_equal_operators_need_equal_stages(self, tmp_path):
        rule = tmp_path / "r.rule"
        seq = "select 0..1 of {A} => select 0..1 of {A}"
        rule.write_text(f"vars: A, B\n({seq}) or ({seq})\n")
        proc = run_cli("dict", "--rule", str(rule), "--stage", "{A}", "--stage", "{}")
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"error:") and proc.stderr.count(b"\n") == 1
        proc = run_cli("dict", "--rule", str(rule), "--stage", "{A}", "--stage", "{A}")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["stages"] == [["A"], ["A"]]

    def test_stages_go_to_the_outermost_operator_first(self, tmp_path):
        # In (R => S) => T the first --stage belongs to the second arrow.
        rule = tmp_path / "r.rule"
        rule.write_text(
            "vars: A, B\n(select {1} of {A} => select 0..2 of {A,B}) => select 0..2 of {A,B}\n"
        )
        proc = run_cli("dict", "--rule", str(rule), "--stage", "{A}", "--stage", "{A,B}")
        assert proc.returncode == 0, proc.stderr.decode()
        payload = json.loads(proc.stdout)
        assert payload["dictionary"] == [[], ["A"]]
        assert payload["stages"] == [["A"], ["A", "B"]]
        # Swapped, the outer stage {A,B} is outside the inner arrow's {[], [A]}.
        proc = run_cli("dict", "--rule", str(rule), "--stage", "{A,B}", "--stage", "{A}")
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["error"] == "invalid-stage-result"

    def test_thousands_of_staged_operators(self, tmp_path):
        # Each stage lookup hashes its operator's subtree; built once per
        # node, those hashes keep the lookups linear in the operator count.
        k = 2000
        unit = "select {0,1} of {A} and select {0} of {B}"
        rule = tmp_path / "r.rule"
        rule.write_text("vars: A, B\n" + " => ".join([f"({unit})"] * (k + 1)) + "\n")
        proc = run_cli("dict", "--rule", str(rule), *["--stage", "{A}"] * k)
        assert proc.returncode == 0, proc.stderr.decode()[-300:]
        payload = json.loads(proc.stdout)
        assert payload["dictionary"] == [[], ["A"]]
        assert payload["stages"] == [["A"]] * k

    def test_missing_rule_file(self):
        proc = run_cli("dict", "--rule", "fixtures/rules/no_such.rule")
        assert proc.returncode == 2
        assert proc.stderr.startswith(b"error:")

    def test_rule_without_universe(self, tmp_path):
        rule = tmp_path / "r.rule"
        rule.write_text("select {1} of {A}\n")
        proc = run_cli("dict", "--rule", str(rule))
        assert proc.returncode == 2
        assert proc.stderr.startswith(b"error:")

    def test_enumeration_cap_env(self):
        proc = run_cli(
            "dict", "--rule", f"{RULES}/free_selection.rule",
            env_extra={"RULEDICT_MAX_ENUM": "8"},
        )
        assert proc.returncode == 2
        assert b"error:" in proc.stderr

    def test_enumeration_cap_env_invalid(self):
        proc = run_cli(
            "dict", "--rule", f"{RULES}/free_selection.rule",
            env_extra={"RULEDICT_MAX_ENUM": "lots"},
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith(b"error:")


class TestMalformedRuleJson:
    UNIT = {"op": "unit", "counts": [1], "scope": ["A"]}

    @pytest.mark.parametrize(
        "doc",
        [
            {"vars": ["A", "B"], "rule": {"op": "unit"}},
            {"vars": ["A", "B"], "rule": [1]},
            {"vars": ["A", "B"], "rule": {"counts": [1], "scope": ["A"]}},
            {"vars": ["A", "B"], "rule": {"op": "and", "left": UNIT}},
            {"vars": ["A", "B"], "rule": {"op": "not", "child": 3}},
            {"vars": ["A", "B"], "rule": {"op": "unit", "counts": [1], "scope": "A"}},
            {"vars": ["A", "B"], "rule": {"op": "unit", "counts": [[1]], "scope": ["A"]}},
            {"vars": ["A", "B"], "rule": {"op": "unit", "counts": [1.9], "scope": ["A"]}},
            {"vars": 5, "rule": UNIT},
        ],
        ids=["no-scope", "array-node", "no-op", "no-right", "number-child",
             "string-scope", "nested-count", "fractional-count", "number-vars"],
    )
    def test_exits_2_with_one_error_line(self, tmp_path, doc):
        rule = tmp_path / "r.rule.json"
        rule.write_text(json.dumps(doc))
        proc = run_cli("dict", "--rule", str(rule))
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"error:")
        assert proc.stderr.count(b"\n") == 1


class TestMalformedDictJson:
    """A dictionary JSON file is an array of arrays of names, or an input error."""

    @pytest.mark.parametrize(
        "doc", [[1], 5, [["A"], "AB"], {"AB": 1}],
        ids=["number-entry", "number", "string-entry", "object"],
    )
    def test_exits_2_with_one_error_line(self, tmp_path, doc):
        path = tmp_path / "x.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("from-dict", "--dict", str(path), "--vars", "A,B")
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr == b"error: dictionary JSON must be an array of name arrays\n"


class TestInputEncoding:
    """Rule, grouping and dictionary files are read as UTF-8, a byte order mark dropped."""

    # argv with FILE for the input under test, and that input's fixture
    CASES = {
        "rule": (["dict", "--rule", "FILE"], f"{RULES}/strong_heredity.rule"),
        "rule-json": (["dict", "--rule", "FILE"], f"{RULES}/strong_heredity.rule.json"),
        "grouping": (["check", "--rule", f"{RULES}/strong_heredity.rule", "--grouping", "FILE",
                      "--method", "log"], f"{GROUPS}/strong_heredity.groups"),
        "dict": (["from-dict", "--dict", "FILE", "--vars", "A,B1,B2,AB1,AB2"],
                 f"{DICTS}/strong_heredity.dict"),
        "dict-json": (["from-dict", "--dict", "FILE", "--vars", "A,B1,B2,AB1,AB2"],
                      f"{GOLDEN}/strong_heredity.dict.json"),
    }

    def _run(self, case, path):
        argv, _ = self.CASES[case]
        return run_cli(*[str(path) if arg == "FILE" else arg for arg in argv])

    def _copy(self, tmp_path, case, prefix=b"", suffix=b""):
        fixture = self.CASES[case][1]
        with open(os.path.join(ROOT, fixture), "rb") as fh:
            text = fh.read()
        path = tmp_path / os.path.basename(fixture)
        path.write_bytes(prefix + text + suffix)
        return path

    @pytest.mark.parametrize("case", CASES)
    def test_byte_order_mark_is_dropped(self, tmp_path, case):
        plain = self._run(case, self.CASES[case][1])
        with_bom = self._run(case, self._copy(tmp_path, case, prefix=b"\xef\xbb\xbf"))
        assert with_bom.returncode == plain.returncode == 0, with_bom.stderr.decode()
        assert with_bom.stdout == plain.stdout

    @pytest.mark.parametrize("case", CASES)
    def test_undecodable_byte_is_one_error_line(self, tmp_path, case):
        path = self._copy(tmp_path, case, suffix=b"\xff\n")
        proc = self._run(case, path)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr == f"error: {path}: not UTF-8 text (invalid start byte)\n".encode()


def _dict_stdout(u, text, stage_specs=()):
    """What ``dict`` must print, built from the library and ``json.dumps``."""
    expr = parse_rule(text, u)
    stages = {
        node: StageResult(parse_braced_names(u, spec))
        for node, spec in zip(sequential_nodes(expr), stage_specs)
    }
    d = eval_rule(u, expr, stages=stages or None)
    payload = {
        "universe": list(u.names),
        "rule": format_rule(expr),
        "size": len(d),
        "dictionary": d.to_json_obj(),
    }
    if stages:
        payload["stages"] = [list(s.chosen) for s in stages.values()]
    return (json.dumps(payload, indent=2) + "\n").encode()


ESCAPED_VARS = 'A,B,C,D,q"x,\u00e9'


def _names_of(u, masks):
    """The JSON value of a family of masks, built from the masks alone."""
    return [[u.names[i] for i in range(u.size) if m >> i & 1] for m in sorted(masks)]


def _random_family(rng, n):
    """Masks over ``n`` variables: a few high halves, each with a random share of a few low halves."""
    k = (n + 1) // 2
    highs = rng.sample(range(1 << (n - k)), min(1 << (n - k), rng.randint(1, 12)))
    lows = rng.sample(range(1 << k), min(1 << k, rng.randint(1, 40)))
    masks = {h << k | low for h in highs for low in lows if rng.random() < 0.6}
    return masks | {0} if rng.random() < 0.5 else masks - {0}


#: 64 names of 25 characters.
LONG_NAMES = [f"long_variable_name_{i:06d}" for i in range(64)]


def _record_writes(monkeypatch, stream):
    """The texts written to ``sys.stdout`` or ``sys.stderr`` from now on, one item per write."""
    target, writes = getattr(sys, stream), []
    write = target.write
    monkeypatch.setattr(target, "write", lambda text: writes.append(text) or write(text))
    return writes


_PEAK_LAUNCHER = textwrap.dedent("""
    import os, sys
    pid = os.fork()
    if pid == 0:
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        os.execv(sys.executable, [sys.executable, "-m", "ruledict.cli", *sys.argv[1:]])
    _, status, usage = os.wait4(pid, 0)
    print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
""")


def _peak_mb(*argv):
    """The peak RSS in MB of the command ``argv``, its stdout sent to ``/dev/null``.

    A child's peak starts from the size of the process that forked it, so a
    small launcher, not this test process, forks the command and reads its peak.
    """
    proc = subprocess.run([sys.executable, "-S", "-c", _PEAK_LAUNCHER, *argv],
                          capture_output=True, cwd=ROOT, env=_env(), check=True)
    code, peak_kb = map(int, proc.stdout.split())
    assert code == 0, proc.stderr.decode()
    return peak_kb / 1024


def _dict_peak_mb(tmp_path, rule_text):
    """The peak RSS in MB of ``dict`` on ``rule_text``."""
    rule = tmp_path / "r.rule"
    rule.write_text(rule_text)
    return _peak_mb("dict", "--rule", str(rule))


class TestDictionaryWriter:
    """Streamed dictionary output is byte-identical to ``json.dumps(indent=2)``."""

    @pytest.mark.parametrize(
        "text,stages",
        [
            ("select {3} of {A,B}", []),
            ("select {0} of {A,B,C,D}", []),
            ("select {1,2} of {A,B} or not select {1} of {C,D}", []),
            ("(select {0,2} of {A,B} and select {0,2} of {C,D})\n"
             "  => (select {0,1,2} of {A,B} and select {0,1,2} of {C,D})", ["{A,B}"]),
        ],
        ids=["empty", "only-empty-set", "escaped-names", "with-stage"],
    )
    def test_dict(self, tmp_path, text, stages):
        u = make_universe(ESCAPED_VARS.split(","))
        rule = tmp_path / "r.rule"
        rule.write_text(text + "\n")
        argv = ["dict", "--rule", str(rule), "--vars", ESCAPED_VARS]
        for spec in stages:
            argv += ["--stage", spec]
        proc = run_cli(*argv)
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout == _dict_stdout(u, text, stages)

    def test_dict_on_64_variables(self, tmp_path):
        names = [f"v{i}" for i in range(64)]
        u = make_universe(names)
        scope = names[6:]
        text = f"select {{0,1,58}} of {{{','.join(scope)}}}"
        rule = tmp_path / "r.rule"
        rule.write_text(f"vars: {', '.join(names)}\n{text}\n")
        proc = run_cli("dict", "--rule", str(rule))
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout == _dict_stdout(u, text)
        payload = json.loads(proc.stdout)
        assert payload["size"] == (1 + 58 + 1) << 6
        masks = [sum(1 << u.index(name) for name in entry) for entry in payload["dictionary"]]
        assert masks == sorted(set(masks))
        assert all(sum(1 for name in entry if name in scope) in (0, 1, 58)
                   for entry in payload["dictionary"])

    def test_several_write_batches(self, monkeypatch, capsys):
        from ruledict import cli
        from ruledict.core import powerset

        u = make_universe([f"v{i}" for i in range(13)] + ESCAPED_VARS.split(",")[-2:])
        d = powerset(u)
        writes = _record_writes(monkeypatch, "stdout")
        cli._emit({"size": len(d), "dictionary": d})
        expected = {"size": len(d), "dictionary": d.to_json_obj()}
        assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"
        assert len("".join(writes)) > 2 * cli._WRITE_BYTES
        assert max(map(len, writes)) <= 2 * cli._WRITE_BYTES

    @pytest.mark.parametrize("budget", [5, 300, None], ids=["batch-5", "budget-300", "default-batch"])
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n", [*range(1, 9), 21, 22, 64])
    def test_random_family(self, monkeypatch, n, seed, budget):
        # Up to 20 variables a Dictionary is a bitmap, above that a mask tuple.
        # At 64 the high halves span all six ten-name slices past the low half.
        names = [f"v{i}" for i in range(n)]
        self._check(monkeypatch, names, _random_family(random.Random(1000 * n + seed), n), budget)

    @pytest.mark.parametrize(
        "names,masks",
        [
            (5, set()),
            (5, {0}),
            (5, {0, 1, 2, 5, 8, 12, 31}),
            (5, {1, 2, 5, 8, 12, 31}),
            (6, {h << 3 | h % 7 for h in range(8)}),
            (21, {h << 11 | h % 2047 for h in range(1 << 10)}),
            (26, {*range(1, 5000), *(1 << 13 | low for low in range(6000)), 1 << 25}),
            (13, set(range(1 << 13))),
            (ESCAPED_VARS.split(","), {m for m in range(64) if m % 3}),
            (1, {0}),
            (16, {0}),
            (20, {0}),
            (21, {0}),
            (17, set(range(1 << 17))),
        ],
        ids=["empty", "only-empty-set", "with-empty-set", "without-empty-set",
             "one-entry-per-high-half", "one-entry-per-high-half-21", "runs-longer-than-a-batch",
             "powerset-13", "escaped-names", "only-empty-set-1", "only-empty-set-16",
             "only-empty-set-20", "only-empty-set-21", "powerset-17"],
    )
    def test_edge_family(self, monkeypatch, names, masks):
        names = [f"v{i}" for i in range(names)] if isinstance(names, int) else names
        self._check(monkeypatch, names, masks)

    @pytest.mark.parametrize("budget", [5, None], ids=["batch-5", "default-batch"])
    @pytest.mark.parametrize("n", range(1, 6))
    def test_runs_under_a_byte(self, monkeypatch, n, budget):
        """Every family over up to 3 variables, and 64 seeded ones over 4 and 5 (runs of 2, 4 and 8 bits)."""
        rng = random.Random(n)
        if n <= 3:
            families = [{m for m in range(1 << n) if f >> m & 1} for f in range(1 << (1 << n))]
        else:
            families = [{m for m in range(1 << n) if rng.random() < p} for p in (0.1, 0.5, 0.9) * 21 + (1.0,)]
        for masks in families:
            self._check(monkeypatch, [f"v{i}" for i in range(n)], masks, budget)

    @pytest.mark.parametrize("budget", [5, None], ids=["batch-5", "default-batch"])
    @pytest.mark.parametrize("shape", ["empty-high-halves", "one-entry-per-run", "full-runs"])
    @pytest.mark.parametrize("n", range(17, 21))
    def test_wide_bitmaps(self, monkeypatch, n, shape, budget):
        """Runs of 2**9 and 2**10 bits: most high halves empty, one entry in each, or six whole runs, over a budget."""
        k, rng = (n + 1) // 2, random.Random(n)
        if shape == "empty-high-halves":
            masks = {h << k | rng.randrange(1 << k) for h in range(0, 1 << (n - k), 7) for _ in range(3)}
        elif shape == "one-entry-per-run":
            masks = {h << k | h * 7919 % (1 << k) for h in range(1 << (n - k))}
        else:
            masks = {h << k | low for h in (0, 1, 2, 5, 6, (1 << (n - k)) - 1) for low in range(1 << k)}
        self._check(monkeypatch, [f"v{i}" for i in range(n)], masks | {0} if rng.random() < 0.5 else masks, budget)

    @pytest.mark.parametrize("budget", [5, None], ids=["batch-5", "default-batch"])
    @pytest.mark.parametrize("seed", range(4))
    def test_storages_through_phi(self, monkeypatch, seed, budget):
        """An 8-variable family (bitmap) and its φ lifting into 21 variables (mask tuple)."""
        rng = random.Random(seed)
        masks8 = {m for m in range(1 << 8) if rng.random() < (0.05, 0.3, 0.7, 1.0)[seed]}
        for n, masks in ((8, masks8), (21, set(map(lift, masks8)))):
            self._check(monkeypatch, [f"v{i}" for i in range(n)], masks, budget)

    @pytest.mark.parametrize("budget", [5, None], ids=["batch-5", "default-batch"])
    @pytest.mark.parametrize("high_zero", [True, False], ids=["with-high-half-0", "without-high-half-0"])
    @pytest.mark.parametrize("low_zero", [True, False], ids=["with-low-half-0", "without-low-half-0"])
    @pytest.mark.parametrize("n", [16, 20, 21, 26])
    def test_repeated_runs(self, monkeypatch, n, low_zero, high_zero, budget):
        """Five low-half patterns, each repeated under several high halves; two outgrow a budget at 26 variables."""
        k, rng = (n + 1) // 2, random.Random(n)
        patterns = [set(rng.sample(range(1 << k), min(size, 1 << k))) for size in (1, 3, 150, 900, 5000)]
        for lows in patterns:
            (lows.add if low_zero else lows.discard)(0)
        highs = [0] * high_zero + rng.sample(range(1, 1 << (n - k)), 15)
        masks = {h << k | low for h in highs for low in rng.choice(patterns)}
        self._check(monkeypatch, [f"v{i}" for i in range(n)], masks, budget)

    @pytest.mark.parametrize("budget", [5, None], ids=["batch-5", "default-batch"])
    @pytest.mark.parametrize("n", [20, 26])
    def test_runs_repeating_after_the_kept_runs_are_dropped(self, monkeypatch, n, budget):
        """24 patterns of 1,000 entries in turn: more than are kept, so each is seen again after being dropped."""
        k, rng = (n + 1) // 2, random.Random(n)
        patterns = [rng.sample(range(1 << k), 1000) for _ in range(24)]
        masks = {h << k | low for i, h in enumerate(range(0, 48 << (n - k - 6), 1 << (n - k - 6)))
                 for low in patterns[i % 24]}
        self._check(monkeypatch, [f"v{i}" for i in range(n)], masks, budget)

    def test_each_distinct_run_is_decoded_once(self, monkeypatch):
        """The cap rule's 1,024 runs hold 11 distinct ones; a 16-variable rule decodes each distinct run once."""
        from ruledict import cli, core

        calls = []
        decode = core._bit_positions
        monkeypatch.setattr(core, "_bit_positions", lambda bits: calls.append(bits) or decode(bits))
        u = make_universe([f"v{i}" for i in range(20)])
        cli._write_dictionary(lambda text: None, Dictionary.of_counts(u, u.full_mask, range(11)))
        assert len(calls) == 11
        names = [f"v{i}" for i in range(16)]
        u = make_universe(names)
        d = eval_rule(u, parse_rule("(select {0,2} of {v0,v1,v2,v9} and select {1} of {v3,v10,v11})"
                                    " or not select {2,3} of {v5,v12,v13}", u))
        runs = {}
        for m in d.masks():
            runs.setdefault(m >> 8, []).append(m & 255)
        distinct = {tuple(lows) for lows in runs.values()}
        assert 1 < len(distinct) < len(runs)
        calls.clear()
        cli._write_dictionary(lambda text: None, d)
        assert len(calls) == len(distinct)

    def test_runs_that_never_repeat(self, monkeypatch):
        """1,024 distinct runs over 20 variables: the text is ``json.dumps``, and the kept runs cost under 0.5 MB.

        The reference is the peak of a family of the same size whose runs
        all repeat one pattern, so that keeps only one run.
        """
        import tracemalloc

        from ruledict import cli

        names, rng = [f"v{i}" for i in range(20)], random.Random(20)
        runs = [rng.sample(range(1024), 64) for _ in range(1024)]
        assert len({frozenset(lows) for lows in runs}) == 1024
        distinct = {h << 10 | low for h, lows in enumerate(runs) for low in lows}
        self._check(monkeypatch, names, distinct)
        peaks = []
        for masks in ({h << 10 | low for h in range(1024) for low in runs[0]}, distinct):
            d = Dictionary.from_masks(make_universe(names), masks)
            tracemalloc.start()
            cli._write_dictionary(lambda text: None, d)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] - peaks[0] < 0.5 * 2**20, peaks

    @staticmethod
    def _check(monkeypatch, names, masks, budget=None):
        """The written text is ``json.dumps`` of the family, in writes of one budget to two.

        The last write may be shorter. Under a budget shorter than an
        entry, a write may hold two entries' text instead.
        """
        from ruledict import cli

        if budget is not None:
            monkeypatch.setattr(cli, "_WRITE_BYTES", budget)
        u = make_universe(names)
        chunks = []
        cli._write_dictionary(chunks.append, Dictionary.from_masks(u, masks))
        expected = json.dumps(_names_of(u, masks), indent=2).replace("\n", "\n  ")
        assert "".join(chunks) == expected
        longest = max(map(len, expected.split("\n    ["))) + len("\n    [")
        assert max(map(len, chunks)) <= 2 * max(cli._WRITE_BYTES, longest)
        assert min(map(len, chunks[:-1]), default=cli._WRITE_BYTES) >= cli._WRITE_BYTES

    @pytest.mark.parametrize("budget", [5, 3000, None], ids=["budget-5", "budget-3000", "default-budget"])
    @pytest.mark.parametrize("scope", [slice(None, 58), slice(6, None)], ids=["first-58", "last-58"])
    def test_long_names_on_64_variables(self, monkeypatch, scope, budget):
        """``select {0,1,58}`` of 58 of 64 names of 25 characters: 3,840 entries, about 700 KB of text."""
        u = make_universe(LONG_NAMES)
        d = eval_rule(u, parse_rule(f"select {{0,1,58}} of {{{','.join(LONG_NAMES[scope])}}}", u))
        self._check(monkeypatch, LONG_NAMES, set(d.masks()), budget)

    def test_writer_memory_on_long_names(self):
        """The writer peaks under 0.6 MiB on 3,840 entries of long names, about 700 KB of text."""
        import tracemalloc

        from ruledict import cli

        u = make_universe(LONG_NAMES)
        d = eval_rule(u, parse_rule(f"select {{0,1,58}} of {{{','.join(LONG_NAMES[:58])}}}", u))
        tracemalloc.start()
        cli._write_dictionary(lambda text: None, d)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 0.6 * 2**20, peak

    @pytest.mark.parametrize("budget", [5, None], ids=["budget-5", "default-budget"])
    @pytest.mark.parametrize("scope", [slice(16, None), slice(None, 48)], ids=["last-48", "first-48"])
    def test_64_variables_at_both_extremes(self, monkeypatch, scope, budget):
        """``select {0}`` of 48 of 64 names: every subset of the first 16 (1,024-entry runs), or of the last 16.

        The last 16 are a high half over three ten-name slices, in runs of one entry.
        """
        names = [f"v{i}" for i in range(64)]
        u = make_universe(names)
        d = eval_rule(u, parse_rule(f"select {{0}} of {{{','.join(names[scope])}}}", u))
        assert len(d) == 1 << 16
        self._check(monkeypatch, names, set(d.masks()), budget)

    def test_writer_memory_on_64_variables(self):
        """The writer peaks under 1 MiB on ``select {0} of {v16,...,v63}``: 2**16 entries, each in the first 16 of 64.

        Cut at 32 variables, with a text kept for each low half, it peaked at 14.7 MiB.
        """
        import tracemalloc

        from ruledict import cli

        names = [f"v{i}" for i in range(64)]
        u = make_universe(names)
        d = eval_rule(u, parse_rule(f"select {{0}} of {{{','.join(names[16:])}}}", u))
        tracemalloc.start()
        cli._write_dictionary(lambda text: None, d)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 2**20, peak

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kilobytes on Linux only")
    def test_peak_memory_does_not_grow_with_the_family(self, tmp_path):
        """``dict`` on a 616,666-entry family over 20 variables peaks within 8 MB of a one-entry ``dict``.

        A mask tuple of the whole family costs about 35 MB more.
        """
        names = ",".join(f"v{i}" for i in range(20))
        peaks = [_dict_peak_mb(tmp_path, f"vars: {names}\nselect {counts} of {{{names}}}\n")
                 for counts in ("{0}", "0..10")]
        assert peaks[1] - peaks[0] < 8, peaks

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kilobytes on Linux only")
    def test_peak_memory_on_64_long_names(self, tmp_path):
        """``dict`` on 3,840 entries of long names over 64 variables peaks within 1 MB of a one-entry ``dict``.

        Written in one piece, their 700 KB of text cost about 1.9 MB more.
        """
        names = ",".join(LONG_NAMES)
        peaks = [_dict_peak_mb(tmp_path, f"vars: {names}\nselect {counts} of {{{scope}}}\n")
                 for counts, scope in (("{0}", names), ("{0,1,58}", ",".join(LONG_NAMES[:58])))]
        assert peaks[1] - peaks[0] < 1, peaks

    @pytest.mark.parametrize("n", [6, 21])
    def test_ogl_payload(self, capsys, n):
        from ruledict import cli

        rng = random.Random(n)
        u = make_universe([f"v{i}" for i in range(n - 2)] + ESCAPED_VARS.split(",")[-2:])
        families = {key: _random_family(rng, n) for key in ("missing", "extra", "rule_family", "method_family")}
        cli._emit({"method": "ogl", "congruent": False,
                   **{key: Dictionary.from_masks(u, f) for key, f in families.items()}})
        expected = {"method": "ogl", "congruent": False,
                    **{key: _names_of(u, f) for key, f in families.items()}}
        assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"

    @pytest.mark.parametrize(
        "text,groups",
        [
            ("select {0,2} of {A,B} and select {0,2} of {C,D}",
             [["A", "B"], ["C", "D"], ['q"x'], ["\u00e9"]]),
            ("select {1,2} of {A,B}", [["A"], ["B", "C", "D"], ['q"x', "\u00e9"]]),
        ],
        ids=["congruent", "not-congruent"],
    )
    def test_check_ogl(self, tmp_path, text, groups):
        u = make_universe(ESCAPED_VARS.split(","))
        rule = tmp_path / "r.rule"
        rule.write_text(text + "\n")
        grouping = tmp_path / "g.json"
        grouping.write_text(json.dumps(groups))
        proc = run_cli("check", "--rule", str(rule), "--vars", ESCAPED_VARS,
                       "--grouping", str(grouping), "--method", "ogl")
        report = check_ogl_necessary(
            eval_rule(u, parse_rule(text, u)), GroupingStructure.of_names(u, groups)
        )
        payload = {
            "method": "ogl",
            "congruent": report.congruent,
            "missing": report.missing.to_json_obj(),
            "extra": report.extra.to_json_obj(),
            "rule_family": report.rule_family.to_json_obj(),
            "method_family": report.method_family.to_json_obj(),
        }
        assert proc.returncode == (0 if report.congruent else 1), proc.stderr.decode()
        assert proc.stdout == (json.dumps(payload, indent=2) + "\n").encode()


def _assert_one_error_line(code, stderr):
    assert code == 2, stderr.decode()
    assert b"Traceback" not in stderr and b"Exception ignored" not in stderr
    lines = stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


def _large_rule(tmp_path):
    """A rule whose dictionary has 63,019 entries, about 6 MB of output."""
    names = ",".join(f"v{i}" for i in range(16))
    rule = tmp_path / "large.rule"
    rule.write_text(f"vars: {names}\nselect 0..11 of {{{names}}}\n")
    return str(rule)


class TestExitPath:
    """``python -m ruledict.cli`` leaves by ``os._exit`` after flushing both streams.

    Each child runs once with buffered streams (an empty
    ``PYTHONUNBUFFERED``), where output not flushed before the exit would
    be lost, and once unbuffered.
    """

    COMMANDS = {
        "dict": ["dict", "--rule", f"{RULES}/strong_heredity.rule"],
        "select": ["select", "--rule", f"{RULES}/one_or_two.rule", "--data", f"{DATA}/linear_abc.csv",
                   "--outcome", "Y", "--criterion", "cv", "--folds", "5"],
    }

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_files_hold_the_in_process_bytes(self, tmp_path, monkeypatch, capsys, command, unbuffered):
        from ruledict import cli

        argv = self.COMMANDS[command]
        with open(tmp_path / "out", "wb") as out, open(tmp_path / "err", "wb") as err:
            proc = subprocess.run([sys.executable, "-m", "ruledict.cli", *argv], stdout=out, stderr=err,
                                  cwd=ROOT, env=_env({"PYTHONUNBUFFERED": unbuffered}), timeout=60)
        monkeypatch.chdir(ROOT)
        assert cli.main(argv) == proc.returncode == 0
        got = capsys.readouterr()
        assert (tmp_path / "out").read_bytes() == got.out.encode()
        assert (tmp_path / "err").read_bytes() == got.err.encode()
        assert got.out and (got.err if command == "select" else not got.err)

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("size", ["small", "large"])
    def test_pipe_without_reader(self, tmp_path, size, unbuffered):
        rule = f"{RULES}/one_or_two.rule" if size == "small" else _large_rule(tmp_path)
        r, w = os.pipe()
        os.close(r)
        try:
            proc = subprocess.run([sys.executable, "-m", "ruledict.cli", "dict", "--rule", rule],
                                  stdout=w, stderr=subprocess.PIPE, cwd=ROOT,
                                  env=_env({"PYTHONUNBUFFERED": unbuffered}), timeout=60)
        finally:
            os.close(w)
        _assert_one_error_line(proc.returncode, proc.stderr)

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_reader_closes_early(self, tmp_path, unbuffered):
        r, w = os.pipe()
        with subprocess.Popen([sys.executable, "-m", "ruledict.cli", "dict", "--rule", _large_rule(tmp_path)],
                              stdout=w, stderr=subprocess.PIPE, cwd=ROOT,
                              env=_env({"PYTHONUNBUFFERED": unbuffered})) as proc:
            os.close(w)
            with open(r, "rb") as reader:
                assert reader.read(10) == b'{\n  "unive'
            stderr = proc.stderr.read()
            code = proc.wait(timeout=60)
        _assert_one_error_line(code, stderr)

    @pytest.mark.parametrize(
        "argv",
        [GOLDEN_CASES[0][2], GOLDEN_CASES[13][2], COMMANDS["select"], ["dict", "--rule", "no/such.rule"]],
        ids=["dict", "equiv-not-equivalent", "select", "missing-file"],
    )
    def test_console_script_route(self, argv):
        script = subprocess.run([sys.executable, "-c", "from ruledict.cli import entry; entry()", *argv],
                                capture_output=True, cwd=ROOT, env=_env(), timeout=60)
        module = run_cli(*argv, timeout=60)
        assert (script.returncode, script.stdout, script.stderr) == (
            module.returncode, module.stdout, module.stderr)


class TestEquivCommand:
    def test_sequential_rules_rejected(self):
        proc = run_cli(
            "equiv", "--rule", f"{RULES}/sparse_groups.rule",
            "--rule2", f"{RULES}/sparse_groups.rule",
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith(b"error:")


    @pytest.mark.parametrize("names", [["a,b", "c"], [" a", "b "]], ids=["comma", "edge-space"])
    def test_names_only_json_can_hold(self, tmp_path, names):
        # Rule 2 is read against rule 1's universe itself, not a re-split list of its names.
        rule = tmp_path / "r.rule.json"
        rule.write_text(json.dumps(
            {"vars": names, "rule": {"op": "unit", "counts": [1], "scope": names[:1]}}))
        proc = run_cli("equiv", "--rule", str(rule), "--rule2", str(rule))
        assert proc.returncode == 0, proc.stderr.decode()
        payload = json.loads(proc.stdout)
        assert payload["equivalent"] is True and payload["universe"] == names


class TestCheckCommand:
    def test_singleton_grouping_matches_free_selection(self):
        proc = run_cli(
            "check", "--rule", f"{RULES}/free_selection.rule",
            "--grouping", f"{GROUPS}/singleton.groups", "--method", "log",
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["congruent"] is True
        assert payload["missing"] == [] and payload["extra"] == []

    def test_log_report_omits_family_fields(self):
        proc = run_cli(
            "check", "--rule", f"{RULES}/strong_heredity.rule",
            "--grouping", f"{GROUPS}/strong_heredity.groups", "--method", "log",
        )
        payload = json.loads(proc.stdout)
        assert "rule_family" not in payload

    def test_grouping_text_error_names_its_line(self, tmp_path):
        # A grouping file and a dictionary file are read the same way.
        path = tmp_path / "bad.groups"
        path.write_text("{A}\n# {B}\nA,B\n")
        error = b"error: expected a brace-delimited set at line 3, got 'A,B'\n"
        proc = run_cli("check", "--rule", f"{RULES}/group_pairs.rule", "--grouping", str(path),
                       "--method", "log")
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", error)
        proc = run_cli("from-dict", "--dict", str(path), "--vars", "A,B,C,D")
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", error)

    @pytest.mark.parametrize("method", ["log", "ogl"])
    def test_no_groups_on_the_empty_universe(self, tmp_path, method):
        rule = tmp_path / "empty.rule"
        rule.write_text("select {0} of {}\n")
        grouping = tmp_path / "empty.groups"
        grouping.write_text("")
        proc = run_cli("check", "--rule", str(rule), "--vars", ",", "--grouping", str(grouping),
                       "--method", method)
        assert proc.returncode == 0, proc.stderr.decode()
        payload = json.loads(proc.stdout)
        assert payload["congruent"] is True
        assert payload["missing"] == [] and payload["extra"] == []

    def test_bad_method_choice(self):
        proc = run_cli(
            "check", "--rule", f"{RULES}/group_pairs.rule",
            "--grouping", f"{GROUPS}/pairs.groups", "--method", "latent",
        )
        assert proc.returncode == 2


class TestSynthesizeCommand:
    def test_eighteen_variables(self, tmp_path):
        # 71,680 entries: checking every pair of them runs far past the timeout.
        names = ["A", "B", "AB", "C", "D", "CD", "P", "Q"] + [f"F{i}" for i in range(10)]
        rule = tmp_path / "r.rule"
        rule.write_text(
            f"vars: {', '.join(names)}\n"
            "(select {1} of {AB} -> select {2} of {A,B})\n"
            "and (select {1} of {CD} -> select {1,2} of {C,D})\n"
            "and select {0,2} of {P,Q}\n"
        )
        proc = run_cli("synthesize", "--rule", str(rule), timeout=20)
        assert proc.returncode == 0, proc.stderr.decode()
        groups = json.loads(proc.stdout)["groups"]
        assert groups == [
            ["A"], ["B"], ["A", "B", "AB"], ["C"], ["D"], ["C", "CD"], ["D", "CD"], ["P", "Q"],
        ] + [[f"F{i}"] for i in range(10)]
        grouping = tmp_path / "g.groups"
        grouping.write_text("".join("{" + ",".join(g) + "}\n" for g in groups))
        proc = run_cli(
            "check", "--rule", str(rule), "--grouping", str(grouping), "--method", "log",
            timeout=20,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert json.loads(proc.stdout)["congruent"] is True

    def test_empty_universe(self, tmp_path):
        # The dictionary {∅} holds ∅ and the full universe and is union-closed:
        # the grouping with no groups generates it.
        rule = tmp_path / "empty.rule"
        rule.write_text("select {0} of {}\n")
        proc = run_cli("synthesize", "--rule", str(rule), "--vars", ",")
        assert proc.returncode == 0, proc.stderr.decode()
        assert json.loads(proc.stdout) == {"universe": [], "rule": "select {0} of {}", "groups": []}

    def test_twenty_one_variables(self, tmp_path):
        # 2**20 entries in a mask tuple: a pairwise closedness test compares 5.5e11 pairs.
        rule = tmp_path / "r.rule"
        rule.write_text(f"vars: {', '.join(f'v{i}' for i in range(21))}\nselect {{0,2}} of {{v19,v20}}\n")
        proc = run_cli("synthesize", "--rule", str(rule), timeout=60)
        assert proc.returncode == 0, proc.stderr.decode()
        assert json.loads(proc.stdout)["groups"] == [[f"v{i}"] for i in range(19)] + [["v19", "v20"]]


class TestSelectCommand:
    def test_ranking_table_on_stderr(self):
        proc = run_cli(
            "select", "--rule", f"{RULES}/one_or_two.rule",
            "--data", f"{DATA}/linear_abc.csv", "--outcome", "Y",
            "--criterion", "bic",
        )
        assert proc.returncode == 0
        table = proc.stderr.decode()
        assert "criterion: bic" in table
        assert "{A,B}" in table

    def test_seeded_cv_runs(self):
        proc = run_cli(
            "select", "--rule", f"{RULES}/one_or_two.rule",
            "--data", f"{DATA}/linear_abc.csv", "--outcome", "Y",
            "--criterion", "cv", "--folds", "5", "--seed", "3",
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert len(payload) == 6

    def test_empty_dictionary_is_a_domain_verdict(self, tmp_path):
        rule = tmp_path / "r.rule"
        rule.write_text("vars: A, B\nselect {3} of {A,B}\n")
        proc = run_cli(
            "select", "--rule", str(rule),
            "--data", f"{DATA}/linear_abc.csv", "--outcome", "Y",
            "--criterion", "bic",
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["error"] == "empty-dictionary"

    def test_missing_outcome_column(self):
        proc = run_cli(
            "select", "--rule", f"{RULES}/one_or_two.rule",
            "--data", f"{DATA}/linear_abc.csv", "--outcome", "Z",
            "--criterion", "bic",
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith(b"error:")

    def test_folds_without_cv(self):
        proc = run_cli(
            "select", "--rule", f"{RULES}/one_or_two.rule",
            "--data", f"{DATA}/linear_abc.csv", "--outcome", "Y",
            "--criterion", "bic", "--folds", "5",
        )
        assert proc.returncode == 2

    def test_seed_without_cv(self):
        proc = run_cli(
            "select", "--rule", f"{RULES}/one_or_two.rule",
            "--data", f"{DATA}/linear_abc.csv", "--outcome", "Y",
            "--criterion", "bic", "--seed", "1",
        )
        assert proc.returncode == 2

    def test_flag_errors_are_one_line(self):
        for extra in (["bic", "--seed", "1"], ["aic", "--folds", "5"], ["cv"],
                      ["cv", "--folds", "1"]):
            proc = run_cli(
                "select", "--rule", f"{RULES}/one_or_two.rule",
                "--data", f"{DATA}/linear_abc.csv", "--outcome", "Y", "--criterion", *extra,
            )
            assert proc.returncode == 2
            assert proc.stdout == b""
            assert proc.stderr.startswith(b"error:") and proc.stderr.count(b"\n") == 1

    def test_negative_seed_is_named(self):
        proc = run_cli(
            "select", "--rule", f"{RULES}/one_or_two.rule",
            "--data", f"{DATA}/linear_abc.csv", "--outcome", "Y",
            "--criterion", "cv", "--folds", "5", "--seed", "-3",
        )
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr == b"error: seed must be non-negative, got -3\n"

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call here")
    def test_same_bytes_on_one_cpu(self, tmp_path):
        from ruledict.select import _CHUNK

        names = [f"x{i}" for i in range(9)]
        data_path, _ = _write_select_inputs(tmp_path, names, 60, 9)
        rule = tmp_path / "all.rule"
        rule.write_text(f"vars: {', '.join(names)}\nselect 0..9 of {{{','.join(names)}}}\n")
        argv = [sys.executable, "-m", "ruledict.cli", "select", "--rule", str(rule),
                "--data", data_path, "--outcome", "Y", "--criterion", "cv", "--folds", "3"]
        one_cpu = {min(os.sched_getaffinity(0))}
        runs = [
            subprocess.run(argv, capture_output=True, cwd=ROOT, env=_env(), preexec_fn=pin)
            for pin in (None, lambda: os.sched_setaffinity(0, one_cpu))
        ]
        assert runs[0].returncode == runs[1].returncode == 0, runs[0].stderr.decode()[-600:]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stderr == runs[1].stderr
        assert len(json.loads(runs[0].stdout)) == 512 > 2 * _CHUNK

    def test_overlong_field_is_one_error_line(self, tmp_path):
        data = tmp_path / "long.csv"
        data.write_text("A,B,C,Y\n1,2,3,4\n5,6," + "7" * 200_000 + ",8\n1,2,3,5\n")
        proc = run_cli("select", "--rule", f"{RULES}/one_or_two.rule", "--data", str(data),
                       "--outcome", "Y", "--criterion", "bic")
        assert proc.stdout == b""
        _assert_one_error_line(proc.returncode, proc.stderr)
        assert proc.stderr.startswith(f"error: {data}: row 3: field larger than field limit".encode())

    def test_cv_without_folds(self):
        proc = run_cli(
            "select", "--rule", f"{RULES}/one_or_two.rule",
            "--data", f"{DATA}/linear_abc.csv", "--outcome", "Y",
            "--criterion", "cv",
        )
        assert proc.returncode == 2

    def test_single_fold_rejected(self):
        proc = run_cli(
            "select", "--rule", f"{RULES}/one_or_two.rule",
            "--data", f"{DATA}/linear_abc.csv", "--outcome", "Y",
            "--criterion", "cv", "--folds", "1",
        )
        assert proc.returncode == 2

    def test_bad_criterion(self):
        proc = run_cli(
            "select", "--rule", f"{RULES}/one_or_two.rule",
            "--data", f"{DATA}/linear_abc.csv", "--outcome", "Y",
            "--criterion", "mdl",
        )
        assert proc.returncode == 2

    def test_constant_outcome_with_adjr2_is_one_error_line(self, tmp_path):
        data = tmp_path / "flat.csv"
        data.write_text("A,B,C,Y\n" + "".join(f"{i},{i * i % 7},{-i},2\n" for i in range(12)))
        proc = run_cli(
            "select", "--rule", f"{RULES}/one_or_two.rule",
            "--data", str(data), "--outcome", "Y", "--criterion", "adjr2",
        )
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"error:") and proc.stderr.count(b"\n") == 1
        assert b"Traceback" not in proc.stderr

    def test_utf8_bom_in_csv(self, tmp_path):
        with open(os.path.join(ROOT, DATA, "linear_abc.csv"), "rb") as fh:
            text = fh.read()
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + text)
        argv = ["select", "--rule", f"{RULES}/one_or_two.rule", "--outcome", "Y",
                "--criterion", "bic"]
        plain = run_cli(*argv, "--data", f"{DATA}/linear_abc.csv")
        with_bom = run_cli(*argv, "--data", str(bom))
        assert with_bom.returncode == plain.returncode == 0, with_bom.stderr.decode()
        assert with_bom.stdout == plain.stdout


    @pytest.mark.parametrize("criterion", [["aic"], ["adjr2"], ["cv", "--folds", "3"]])
    def test_outcome_whose_sum_of_squares_overflows(self, tmp_path, criterion):
        # Finite cells near 1e160: their squares pass the float64 range.
        rows = [f"{i % 3},{i % 2},{i % 5},{(-1) ** i * (1 + i / 10)}e160" for i in range(12)]
        data = tmp_path / "big.csv"
        data.write_text("A,B,C,Y\n" + "\n".join(rows) + "\n")
        proc = run_cli(
            "select", "--rule", f"{RULES}/one_or_two.rule",
            "--data", str(data), "--outcome", "Y", "--criterion", *criterion,
        )
        assert proc.stdout == b""
        _assert_one_error_line(proc.returncode, proc.stderr)
        assert b"Warning" not in proc.stderr and b"'Y'" in proc.stderr


def _select_streams(data, D, criterion, **kwargs):
    """What ``select`` must write to stdout and stderr for the library's ranking."""
    from ruledict.select import select_best

    return _ranking_streams(select_best(data, D, criterion, **kwargs))


def _ranking_streams(ranked):
    """What ``select`` must write to stdout and stderr for ``ranked``,
    built from its models with a list of dicts, ``json.dumps`` and one joined table."""
    payload = [
        {
            "subset": list(m.subset),
            "score": "-inf" if m.score == float("-inf") else m.score,
            "intercept": m.intercept,
            "coefficients": dict(zip(m.subset, m.coefficients)),
        }
        for m in ranked.models
    ]
    lines = [f"criterion: {ranked.criterion}", f"{'rank':>4}  {'score':>14}  subset"]
    lines += [f"{i:>4}  {m.score:>14.6g}  {m.subset.to_text()}"
              for i, m in enumerate(ranked.models, start=1)]
    return json.dumps(payload, indent=2) + "\n", "\n".join(lines) + "\n"


def _write_select_inputs(tmp_path, names, rows, seed, zero_outcome=False):
    """A CSV over ``names`` and outcome Y whose cells read back exactly, and its Dataset."""
    import numpy as np

    from ruledict.select import Dataset

    rng = np.random.default_rng(seed)
    X = rng.normal(size=(rows, len(names)))
    y = np.zeros(rows) if zero_outcome else X[:, 0] - 0.5 * X[:, -1] + rng.normal(size=rows)
    path = tmp_path / "data.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(names + ["Y"])
        out.writerows([row + [target] for row, target in zip(X.tolist(), y.tolist())])
    return str(path), Dataset(universe=make_universe(names), outcome="Y", X=X, y=y)


class TestRankingWriter:
    """Streamed ``select`` output is byte-identical to the list-of-dicts encoding."""

    @pytest.mark.parametrize(
        "names,text,criterion,extra,zero_outcome",
        [
            (ESCAPED_VARS, "select {1,2} of {A,B} or not select {1} of {C,D}", "bic", [], False),
            (ESCAPED_VARS, "select {1,2} of {A,B} or not select {1} of {C,D}", "cv",
             ["--folds", "4"], False),
            (ESCAPED_VARS, "select {0,1} of {A,B}", "aic", [], True),
            ("A,B,C,D", "select {0} of {A,B,C,D}", "adjr2", [], False),
            ("A,B", "select {2} of {A,B}", "bic", [], False),
        ],
        ids=["escaped-names", "escaped-names-cv", "perfect-fit", "only-empty-subset", "single-model"],
    )
    def test_select(self, tmp_path, names, text, criterion, extra, zero_outcome):
        data_path, data = _write_select_inputs(tmp_path, names.split(","), 40, 7, zero_outcome)
        rule = tmp_path / "r.rule"
        rule.write_text(text + "\n")
        proc = run_cli("select", "--rule", str(rule), "--vars", names, "--data", data_path,
                       "--outcome", "Y", "--criterion", criterion, *extra)
        assert proc.returncode == 0, proc.stderr.decode()
        D = eval_rule(data.universe, parse_rule(text, data.universe))
        folds = int(extra[1]) if extra else None
        out, err = _select_streams(data, D, criterion, folds=folds)
        assert proc.stdout.decode() == out
        assert proc.stderr.decode() == err
        if zero_outcome:
            assert '"score": "-inf"' in out and "-inf  {}" in err
        if text.startswith("select {0} of"):
            assert '"subset": [],' in out and '"coefficients": {}' in out

    def test_several_write_batches(self, tmp_path, monkeypatch, capsys):
        self._check_powerset(tmp_path, monkeypatch, capsys, [f"v{i}" for i in range(11)], ESCAPED_VARS.split(",")[-2:])

    def test_long_names(self, tmp_path, monkeypatch, capsys):
        """4,096 models over 12 names of 25 characters."""
        self._check_powerset(tmp_path, monkeypatch, capsys, LONG_NAMES[:12], [])

    @staticmethod
    def _check_powerset(tmp_path, monkeypatch, capsys, scope, others):
        """``select`` on every subset of ``scope + others``: each stream spans over two budgets, in writes of at most two."""
        from ruledict import cli
        from ruledict.core import powerset

        names = scope + others
        data_path, data = _write_select_inputs(tmp_path, names, 40, 8)
        D = powerset(data.universe)
        rule = tmp_path / "r.rule"
        rule.write_text(f"select 0..{len(scope)} of {{{','.join(scope)}}}\n")
        writes = [_record_writes(monkeypatch, stream) for stream in ("stdout", "stderr")]
        code = cli.main(["select", "--rule", str(rule), "--vars", ",".join(names),
                         "--data", data_path, "--outcome", "Y", "--criterion", "bic"])
        assert code == 0
        got = capsys.readouterr()
        assert (got.out, got.err) == _select_streams(data, D, "bic")
        for chunks in writes:
            assert len("".join(chunks)) > 2 * cli._WRITE_BYTES
            assert max(map(len, chunks)) <= 2 * cli._WRITE_BYTES

    def test_non_finite_numbers(self):
        from ruledict import cli

        for value in (float("nan"), float("inf"), float("-inf"), -0.0, 0.1, 1e300, 5e-324):
            assert cli._number(value) == json.dumps(value)

    def test_non_finite_values_in_the_block(self, monkeypatch, capsys):
        """Scores, intercepts and coefficients that are ``inf``, ``-inf`` or NaN, beside finite ones, in writes of one budget to two."""
        import numpy as np

        from ruledict import cli
        from ruledict.select import RankedModels

        u = make_universe(ESCAPED_VARS.split(","))
        masks = tuple(range(1 << u.size))
        rng = np.random.default_rng(5)
        odd = [np.inf, -np.inf, np.nan, 1e300, -0.0]
        block = np.concatenate([
            [rng.choice([-np.inf, np.nan, np.inf, 2.5, -1.0]),
             *np.where(rng.random(1 + m.bit_count()) < 0.2, rng.choice(odd, 1 + m.bit_count()),
                       rng.normal(size=1 + m.bit_count()))]
            for m in masks
        ])
        ranked = RankedModels._of_block("aic", u, masks, block)
        monkeypatch.setattr(cli, "_WRITE_BYTES", 1000)
        writes = [_record_writes(monkeypatch, stream) for stream in ("stdout", "stderr")]
        cli._write_ranking(u, ranked)
        got = capsys.readouterr()
        assert (got.out, got.err) == _ranking_streams(ranked)
        for text in ('"score": "-inf"', '"score": NaN', '"score": Infinity', '"intercept": NaN', ": -Infinity"):
            assert text in got.out
        for chunks in writes:
            assert len("".join(chunks)) > 2 * cli._WRITE_BYTES
            assert max(map(len, chunks)) <= 2 * cli._WRITE_BYTES

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kilobytes on Linux only")
    def test_peak_memory_per_model(self, tmp_path):
        """``select`` over 16,384 models (14 variables, 300 rows) peaks within 6 MB of one over 1,024 (10 of the columns).

        A Python float per value and a record per model, between the fits and
        the output, put the gap at about 10 MB.
        """
        names = [f"x{i}" for i in range(14)]
        data_path, _ = _write_select_inputs(tmp_path, names, 300, 13)
        peaks = []
        for p in (10, 14):
            rule = tmp_path / f"all{p}.rule"
            rule.write_text(f"select 0..{p} of {{{','.join(names[:p])}}}\n")
            peaks.append(_peak_mb("select", "--rule", str(rule), "--vars", ",".join(names[:p]),
                                  "--data", data_path, "--outcome", "Y", "--criterion", "bic"))
        assert peaks[1] - peaks[0] < 6, peaks


class TestArgumentErrors:
    def test_unknown_subcommand(self):
        assert run_cli("frobnicate").returncode == 2

    def test_no_subcommand(self):
        assert run_cli().returncode == 2

    def test_missing_required_flag(self):
        assert run_cli("dict").returncode == 2


IMPORT_GUARD = textwrap.dedent(
    """
    import contextlib, io, sys
    import ruledict.cli

    def main(*argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert ruledict.cli.main(list(argv)) == 0, argv
        return argv

    def absent(argv, *modules):
        loaded = sorted(set(modules) & set(sys.modules))
        assert not loaded, f"{' '.join(argv)} loaded {loaded}"

    # Loaded by select alone, or by no command at all.
    SELECT_ONLY = ("numpy", "ruledict.select", "pickle", "mmap", "multiprocessing",
                   "concurrent.futures", "subprocess")
    NEVER = ("dataclasses", "inspect")
    R, G = "fixtures/rules", "fixtures/groupings"
    for argv in [
        ("dict", "--rule", f"{R}/strong_heredity.rule"),
        ("dict", "--rule", f"{R}/sparse_groups.rule", "--stage", "{A,B}"),
        ("equiv", "--rule", f"{R}/one_or_two.rule", "--rule2", f"{R}/one_or_two_alt.rule"),
        ("from-dict", "--dict", "fixtures/dicts/strong_heredity.dict", "--vars", "A,B1,B2,AB1,AB2"),
    ]:
        absent(main(*argv), "ruledict.grouping", *SELECT_ONLY, *NEVER)
    for argv in [
        ("check", "--rule", f"{R}/strong_heredity.rule",
         "--grouping", f"{G}/strong_heredity.groups", "--method", "log"),
        ("check", "--rule", f"{R}/group_pairs.rule", "--grouping", f"{G}/pairs.groups", "--method", "ogl"),
        ("synthesize", "--rule", f"{R}/strong_heredity.rule"),
    ]:
        absent(main(*argv), *SELECT_ONLY, *NEVER)
    assert "ruledict.grouping" in sys.modules

    argv = main("select", "--rule", f"{R}/one_or_two.rule", "--data", "fixtures/data/linear_abc.csv",
                "--outcome", "Y", "--criterion", "bic")
    assert "numpy" in sys.modules
    absent(argv, "dataclasses")
    argv = main("select", "--rule", f"{R}/one_or_two.rule", "--data", "fixtures/data/linear_abc.csv",
                "--outcome", "Y", "--criterion", "cv", "--folds", "5", "--seed", "3")
    absent(argv, "numpy.random", "dataclasses")
    import ruledict
    assert ruledict.select_best is ruledict.select.select_best
    assert vars(ruledict)["GroupingStructure"] is ruledict.grouping.GroupingStructure
    assert ruledict.GroupingStructure is ruledict.grouping.GroupingStructure
    names = {}
    exec("from ruledict import *", names)
    assert set(ruledict.__all__) <= set(names), set(ruledict.__all__) - set(names)
    try:
        ruledict.no_such_name
    except AttributeError:
        pass
    else:
        raise AssertionError("ruledict.no_such_name resolved")
    print("ok")
    """
)


def test_only_select_imports_numpy():
    proc = subprocess.run([sys.executable, "-c", IMPORT_GUARD], capture_output=True, cwd=ROOT, env=_env())
    assert proc.returncode == 0, proc.stderr.decode()[-600:]
    assert proc.stdout == b"ok\n"


# The names perfbench/trace_run.py rebinds on ruledict.cli to time a layer,
# each with a command that must call it as rebound.
REBOUND = {
    "read_rule_document": ["dict", "--rule", f"{RULES}/strong_heredity.rule"],
    "format_rule": ["dict", "--rule", f"{RULES}/strong_heredity.rule"],
    "eval_rule": ["dict", "--rule", f"{RULES}/strong_heredity.rule"],
    "json": ["dict", "--rule", f"{RULES}/strong_heredity.rule"],
    "synthesize_log_grouping": ["synthesize", "--rule", f"{RULES}/strong_heredity.rule"],
    "check_log_congruence": ["check", "--rule", f"{RULES}/strong_heredity.rule",
                             "--grouping", f"{GROUPS}/strong_heredity.groups", "--method", "log"],
    "check_ogl_necessary": ["check", "--rule", f"{RULES}/group_pairs.rule",
                            "--grouping", f"{GROUPS}/pairs.groups", "--method", "ogl"],
    "load_dataset": ["select", "--rule", f"{RULES}/one_or_two.rule", "--data", f"{DATA}/linear_abc.csv",
                     "--outcome", "Y", "--criterion", "bic"],
    "select_best": ["select", "--rule", f"{RULES}/one_or_two.rule", "--data", f"{DATA}/linear_abc.csv",
                    "--outcome", "Y", "--criterion", "bic"],
}


@pytest.mark.parametrize("name", REBOUND)
def test_main_calls_a_rebound_name(monkeypatch, capsys, name):
    from ruledict import cli

    calls = []

    def counted(fn):
        return lambda *args, **kwargs: calls.append(fn) or fn(*args, **kwargs)

    if name == "json":
        wrapper = types.ModuleType("json")
        wrapper.__dict__.update(json.__dict__)
        wrapper.dumps = counted(json.dumps)
    else:
        wrapper = counted(getattr(cli, name))
    monkeypatch.setattr(cli, name, wrapper)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", os.environ.get("OPENBLAS_NUM_THREADS", "1"))
    monkeypatch.chdir(ROOT)
    assert cli.main(REBOUND[name]) == 0, capsys.readouterr().err
    assert calls
    # The lazy names come from the package's one list, and the name blocks of
    # the dictionary writer from a functools cache.
    assert not hasattr(cli, "_LAZY") and not hasattr(cli, "_Heads")
    with pytest.raises(AttributeError):
        cli.union_closure_of_nothing
