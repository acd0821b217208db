"""End-to-end command checks against the stored golden outputs.

Each golden file is the byte-exact stdout of one command run from the
repository root. The table below reproduces those commands; a meta test
walks the fixture tree and fails if any fixture file stops being
exercised here.
"""

import csv
import json
import os
import subprocess
import sys
import textwrap

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
from ruledict.core import parse_braced_names

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


def run_cli(*argv, env_extra=None, cwd=ROOT, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "ruledict.cli", *argv],
        capture_output=True,
        cwd=cwd,
        env=_env(env_extra),
        timeout=timeout,
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

    def test_several_write_batches(self, capsys):
        from ruledict import cli
        from ruledict.core import powerset

        u = make_universe([f"v{i}" for i in range(13)] + ESCAPED_VARS.split(",")[-2:])
        d = powerset(u)
        assert len(d) > 2 * cli._WRITE_BATCH
        cli._emit({"size": len(d), "dictionary": d})
        expected = {"size": len(d), "dictionary": d.to_json_obj()}
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


class TestEquivCommand:
    def test_sequential_rules_rejected(self):
        proc = run_cli(
            "equiv", "--rule", f"{RULES}/sparse_groups.rule",
            "--rule2", f"{RULES}/sparse_groups.rule",
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith(b"error:")


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


def _select_streams(data, D, criterion, **kwargs):
    """What ``select`` must write to stdout and stderr, built from the
    library with a list of dicts, ``json.dumps`` and one joined table."""
    from ruledict.select import select_best

    ranked = select_best(data, D, criterion, **kwargs)
    payload = [
        {
            "subset": list(m.subset),
            "score": "-inf" if m.score == float("-inf") else m.score,
            "intercept": m.intercept,
            "coefficients": dict(zip(m.subset, m.coefficients)),
        }
        for m in ranked.models
    ]
    lines = [f"criterion: {criterion}", f"{'rank':>4}  {'score':>14}  subset"]
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

    def test_several_write_batches(self, tmp_path, capsys):
        from ruledict import cli
        from ruledict.core import powerset

        names = [f"v{i}" for i in range(11)] + ESCAPED_VARS.split(",")[-2:]
        data_path, data = _write_select_inputs(tmp_path, names, 40, 8)
        D = powerset(data.universe)
        assert len(D) > cli._WRITE_BATCH
        rule = tmp_path / "r.rule"
        rule.write_text(f"select 0..11 of {{{','.join(names[:11])}}}\n")
        code = cli.main(["select", "--rule", str(rule), "--vars", ",".join(names),
                         "--data", data_path, "--outcome", "Y", "--criterion", "bic"])
        assert code == 0
        got = capsys.readouterr()
        assert (got.out, got.err) == _select_streams(data, D, "bic")

    def test_non_finite_numbers(self):
        from ruledict import cli

        for value in (float("nan"), float("inf"), float("-inf"), -0.0, 0.1, 1e300, 5e-324):
            assert cli._number(value) == json.dumps(value)


class TestArgumentErrors:
    def test_unknown_subcommand(self):
        assert run_cli("frobnicate").returncode == 2

    def test_no_subcommand(self):
        assert run_cli().returncode == 2

    def test_missing_required_flag(self):
        assert run_cli("dict").returncode == 2


NUMPY_GUARD = textwrap.dedent(
    """
    import contextlib, io, sys
    import ruledict.cli

    def main(*argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return ruledict.cli.main(list(argv))

    R, G = "fixtures/rules", "fixtures/groupings"
    assert main("dict", "--rule", f"{R}/strong_heredity.rule") == 0
    assert main("dict", "--rule", f"{R}/sparse_groups.rule", "--stage", "{A,B}") == 0
    assert main("equiv", "--rule", f"{R}/one_or_two.rule", "--rule2", f"{R}/one_or_two_alt.rule") == 0
    assert main("check", "--rule", f"{R}/strong_heredity.rule",
                "--grouping", f"{G}/strong_heredity.groups", "--method", "log") == 0
    assert main("check", "--rule", f"{R}/group_pairs.rule",
                "--grouping", f"{G}/pairs.groups", "--method", "ogl") == 0
    assert main("synthesize", "--rule", f"{R}/strong_heredity.rule") == 0
    assert main("from-dict", "--dict", "fixtures/dicts/strong_heredity.dict",
                "--vars", "A,B1,B2,AB1,AB2") == 0
    assert "numpy" not in sys.modules, "a command other than select imported numpy"
    loaded = {"ruledict.select", "pickle", "mmap", "multiprocessing", "concurrent.futures",
              "subprocess"} & set(sys.modules)
    assert not loaded, f"commands other than select loaded {sorted(loaded)}"

    assert main("select", "--rule", f"{R}/one_or_two.rule", "--data", "fixtures/data/linear_abc.csv",
                "--outcome", "Y", "--criterion", "bic") == 0
    assert "numpy" in sys.modules
    import ruledict
    assert ruledict.select_best is ruledict.select.select_best
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
    proc = subprocess.run([sys.executable, "-c", NUMPY_GUARD], capture_output=True, cwd=ROOT, env=_env())
    assert proc.returncode == 0, proc.stderr.decode()[-600:]
    assert proc.stdout == b"ok\n"
