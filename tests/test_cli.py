"""Command-line entry points: exit codes, output schemas, check modes."""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import io
import json
import os
import re
import tracemalloc
from pathlib import Path

import pytest

import fibcascade.adversary
import fibcascade.cli
import fibcascade.instrumentation
from fibcascade import POLICY_TAGS, Heap, Policy
from fibcascade.cli import (
    _k_spec,
    _parse_policies,
    build_parser,
    gen_graph,
    main,
)
from fibcascade.instrumentation import OpRecord
from fibcascade.oracle import OracleHeap, format_trace, gen_trace
from fibcascade.policies import RULES, _one_cut

from _shaping import guarded_increasing_rank, toggle_walk_without_unmark
from test_policies import FLOOR_REGRESSIONS


def run_cli(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# usage errors

# every nonnegative count flag, given a negative value (the flag is second
# to last)
NEGATIVE_COUNTS = [
    ("dijkstra", "--vertices", "10", "--edges", "-5"),
    ("verify", "--traces", "-1"),
    ("verify", "--ops", "-3"),
]

# counts that must be positive, given zero (the flag is second to last)
ZERO_COUNTS = [
    ("adversary", "--k", "10", "--rounds", "0"),
    ("adversary", "--policy", "simple", "--k", "10", "--rounds", "0"),
]

# count flags given a value that is no integer (the flag is second to last)
NON_NUMERIC_COUNTS = [
    ("verify", "--traces", "ten"),
    ("verify", "--ops", "2.5"),
    ("dijkstra", "--edges", "1e3"),
]

# flags with a range of their own, given a value that is no integer: the
# message states that range (the flag is second to last)
NON_NUMERIC_RANGED = [
    ("adversary", "--k", "10", "--rounds", "x"),
    ("adversary", "--m", "x"),
]

# the same flags given a negative value: the message states the same range
NEGATIVE_RANGED = [
    ("adversary", "--rounds", "-1"),
    ("adversary", "--m", "-10"),
]

# stage sweeps that are no range of stages: descending, zero, not a number
BAD_K_SPECS = [
    ("adversary", "--k", "10..5"),
    ("adversary", "--k", "0"),
    ("adversary", "--k", "10..x"),
]

# integer flags given text that bare int() takes but that is no ASCII
# decimal: an underscore, full-width and Arabic-Indic digits
NON_ASCII_DECIMALS = [
    ("verify", "--ops", "1_0"),
    ("verify", "--traces", "\uff12"),
    ("verify", "--seed", "\uff13"),
    ("dijkstra", "--seed", "1_0"),
    ("replay", "--seed", "\u0663", "t.trace"),
    ("adversary", "--k", "1_0"),
    ("adversary", "--k", "1_0..2_0:1_0"),
    ("adversary", "--m", "100_000"),
]

# a --policy that names no tag, alone or in a comma list
EMPTY_POLICIES = [
    ("verify", "--policy", ""),
    ("dijkstra", "--policy", ","),
    ("replay", "--policy", "", "t.trace"),
]

# flags that do not combine: a whole --m schedule takes no stage sweep or
# round count
EXCLUSIVE_FLAGS = [
    ("adversary", "--m", "2000", "--k", "10..20"),
    ("adversary", "--m", "2000", "--rounds", "3"),
]


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("frobnicate",),
        ("bench", "--ops", "200"),
        ("verify", "--policy", "bogus"),
        ("dijkstra", "--format", "xml"),
        ("adversary", "--policy", "classic"),  # schedule needs exact shapes
        ("adversary", "--m", "3000", "--policy", "simple"),  # non-cascading only
        ("replay", "--policy", "bogus", "t.trace"),
        ("replay", "--policy", "simple,classic", "t.trace"),
        ("dijkstra", "--vertices", "1"),
        *NEGATIVE_COUNTS,
        *NEGATIVE_RANGED,
        *ZERO_COUNTS,
        *BAD_K_SPECS,
        ("verify", "--check"),  # verify always runs the full battery
        ("dijkstra", "--check"),  # and dijkstra all of its checks
        ("adversary", "--m", "0"),  # a schedule needs at least 12 operations
        ("adversary", "--m", "11"),
        ("adversary", "--m", "3000", "--check"),  # the gate holds from 10^5
        # an exponent fit needs three sizes: two are neither expanded nor fitted
        ("adversary", "--m", "100000", "--m", "100001", "--check"),
        ("adversary", "--k", "10..20:10", "--rounds", "2", "--check"),
        *EXCLUSIVE_FLAGS,
        *NON_NUMERIC_COUNTS,
        *NON_NUMERIC_RANGED,
        ("adversary", "--seed", "3"),  # the schedule draws no coin
        ("dijkstra", "--vertices", "x"),
        *NON_ASCII_DECIMALS,
        *EMPTY_POLICIES,
    ],
)
def test_usage_errors_exit_2(argv, capsys, tmp_path, monkeypatch):
    # a readable trace, so that only the flags are at fault
    (tmp_path / "t.trace").write_text("newheap h0 simple\n")
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        run_cli(*argv)
    code = err.value.code
    assert (code if isinstance(code, int) else 2) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", NEGATIVE_COUNTS + ZERO_COUNTS + NON_NUMERIC_COUNTS)
def test_negative_counts_name_their_flag(argv, capsys):
    want = "a positive" if argv in ZERO_COUNTS else "a nonnegative"
    with pytest.raises(SystemExit):
        run_cli(*argv)
    assert f"argument {argv[-2]}: expected {want} integer" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize(
    "argv, want",
    zip(
        NON_NUMERIC_RANGED + NEGATIVE_RANGED,
        ["a positive integer", "at least 12 operations"] * 2,
    ),
)
def test_non_numeric_values_state_the_flags_range(argv, want, capsys):
    # and so do negative ones: a flag states one range for every bad value
    with pytest.raises(SystemExit) as err:
        run_cli(*argv)
    assert err.value.code == 2
    assert f"argument {argv[-2]}: expected {want}, got {argv[-1]!r}" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize("value", ["x", "1"])
def test_vertices_states_its_range(value, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli("dijkstra", "--vertices", value)
    assert err.value.code == 2
    assert (
        f"argument --vertices: expected at least 2 vertices, got {value!r}"
        in capsys.readouterr().err
    )


def test_too_many_edges_is_the_graphs_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        run_cli("dijkstra", "--vertices", "3", "--edges", "7")
    assert err.value.code == 2
    assert "--vertices 3 --edges 7: impossible graph dimensions" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize(
    "argv, want",
    [
        (("verify", "--ops", "1_0"), "--ops: expected a nonnegative integer"),
        (("verify", "--seed", "\uff13"), "--seed: expected an integer"),
        (("adversary", "--m", "100_000"), "--m: expected at least 12 operations"),
        (("adversary", "--k", "1_0..2_0:1_0"), "--k: expected K, LO..HI"),
    ],
    ids=["count", "seed", "ranged-count", "k-spec"],
)
def test_integer_flags_take_only_ascii_decimals(argv, want, capsys):
    # one message per kind of flag: count, seed, ranged count, stage sweep
    with pytest.raises(SystemExit) as err:
        run_cli(*argv)
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert f"argument {want}" in message and repr(argv[-1]) in message


@pytest.mark.parametrize("value", ["-3", "+3", "0"])
def test_seed_takes_signed_ascii_decimals(value):
    assert build_parser().parse_args(["verify", "--seed", value]).seed == int(value)


@pytest.mark.parametrize("argv", BAD_K_SPECS)
def test_bad_k_specs_say_what_is_allowed(argv, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(*argv)
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert "argument --k: expected" in message and "LO..HI" in message


@pytest.mark.parametrize(
    "argv",
    [
        ("adversary", "--m", "0"),
        ("adversary", "--m", "11"),
        ("adversary", "--m", "3000", "--check"),
        ("adversary", "--m", "50000", "--m", "99999", "--check"),
        ("adversary", "--m", "100000", "--m", "100001", "--check"),
    ],
)
def test_adversary_m_out_of_range_names_the_flag(argv, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(*argv)
    assert err.value.code == 2
    assert "--m" in capsys.readouterr().err


@pytest.mark.parametrize("argv", EXCLUSIVE_FLAGS)
def test_flags_that_do_not_combine_are_named(argv, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(*argv)
    assert err.value.code == 2
    message = capsys.readouterr().err
    flags = [a for a in argv if a.startswith("--") and a != "--policy"]
    assert len(flags) == 2 and all(flag in message for flag in flags)


def test_adversary_check_with_fewer_than_three_k_names_the_flag(capsys):
    with pytest.raises(SystemExit) as err:
        run_cli("adversary", "--k", "10..20:10", "--rounds", "2", "--check")
    assert err.value.code == 2
    assert "--k" in capsys.readouterr().err


def _readme_cli_lines() -> list[str]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```", 2)[1]
    return [line for line in block.splitlines() if line.startswith("fibcascade ")]


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    subparsers = next(
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return subparsers.choices


def test_readme_cli_block_lists_the_subcommands():
    documented = {line.split()[1] for line in _readme_cli_lines()}
    assert documented == set(_subcommands())


def test_readme_cli_block_lists_each_subcommands_flags():
    # a subcommand may take several lines; together they name every flag
    documented: dict[str, set[str]] = {}
    for line in _readme_cli_lines():
        flags = set(re.findall(r"--[a-z][a-z-]*", line))
        documented.setdefault(line.split()[1], set()).update(flags)
    for name, parser in _subcommands().items():
        options = {
            option
            for action in parser._actions
            for option in action.option_strings
            if option.startswith("--")
        } - {"--help"}
        assert documented[name] == options, name


def test_parse_policies_expands_lists_and_all():
    assert [p.value for p in _parse_policies(["simple,classic"], ["all"])] == [
        "simple",
        "classic",
    ]
    assert len(_parse_policies(["all"], ["simple"])) == 10
    assert [p.value for p in _parse_policies(None, ["simple"])] == ["simple"]


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--traces", "1", "--ops", "50"),
        ("adversary", "--k", "10..30:10", "--rounds", "2"),
        ("replay", "t.trace"),
    ],
    ids=["verify", "adversary", "replay"],
)
def test_a_repeated_policy_tag_runs_once(argv, tmp_path, monkeypatch, capsys):
    (tmp_path / "t.trace").write_text(TRACE)
    monkeypatch.chdir(tmp_path)
    runs = []
    for flags in (
        ("--policy", "simple"),
        ("--policy", "simple,simple"),
        ("--policy", "simple", "--policy", "simple"),
    ):
        code = run_cli(*argv, *flags)
        logged = re.sub(r"wall \d+ ns", "wall", "".join(capsys.readouterr()))
        runs.append((code, logged))
    assert runs[0][0] == 0
    assert runs[1:] == runs[:1] * 2


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--traces", "1", "--ops", "10"),
        ("dijkstra", "--vertices", "10", "--edges", "20"),
        ("adversary", "--k", "1", "--rounds", "1"),
        ("replay", "t.trace"),
    ],
    ids=["verify", "dijkstra", "adversary", "replay"],
)
@pytest.mark.parametrize("tags", ["all,bogus", "bogus,all", "simple,bogus"])
def test_an_unknown_policy_tag_fails_even_next_to_all(
    argv, tags, tmp_path, monkeypatch, capsys
):
    (tmp_path / "t.trace").write_text(TRACE)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        run_cli(*argv, "--policy", tags)
    assert err.value.code == 2
    choices = ", ".join(POLICY_TAGS)
    want = f"unknown policy 'bogus' (choose from {choices})\n"
    assert capsys.readouterr() == ("", want)


@pytest.mark.parametrize("values", [[""], [","], [",", ""]])
def test_parse_policies_names_the_flag_when_no_tag_is_given(values, capsys):
    with pytest.raises(SystemExit) as err:
        _parse_policies(values, [])
    assert err.value.code == 2
    assert "--policy names no policy" in capsys.readouterr().err


def test_parse_k_spec():
    assert _k_spec("25") == [25]
    assert _k_spec("10..40") == [10, 20, 30, 40]
    assert _k_spec("10..20:5") == [10, 15, 20]
    with pytest.raises(argparse.ArgumentTypeError):
        _k_spec("20..10")


# ---------------------------------------------------------------------------
# verify

def test_verify_clean_policy_exits_0(capsys):
    assert run_cli("verify", "--policy", "simple", "--traces", "4", "--ops", "200") == 0
    out = capsys.readouterr().out
    assert "0 divergences" in out and "[ok]" in out


def test_verify_builds_no_records_without_out(monkeypatch, capsys):
    # with no row to write, a policy without the auditor needs no sink, and
    # without a sink no operation opens a record
    def no_records(*args):
        raise AssertionError("an op record was opened")

    monkeypatch.setattr(fibcascade.instrumentation.Telemetry, "op_begin", no_records)
    code = run_cli("verify", "--policy", "classic", "--traces", "2", "--ops", "200")
    assert code == 0
    assert "[ok]" in capsys.readouterr().out


def test_verify_builds_only_the_total_row(tmp_path, monkeypatch, capsys):
    # verify writes one total row per trace and policy, and no row per op kind
    def no_kind_rows(*args):
        raise AssertionError("rows per op kind were built")

    monkeypatch.setattr(fibcascade.cli.RowSums, "kind_rows", no_kind_rows)
    monkeypatch.chdir(tmp_path)
    code = run_cli(
        "verify", "--policy", "simple,classic", "--traces", "2", "--ops", "200",
        "--out", "rows",
    )
    assert code == 0
    capsys.readouterr()
    with (tmp_path / "rows").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["policy"], row["op-kind"]) for row in rows] == [
        ("simple", "all"), ("simple", "all"), ("classic", "all"), ("classic", "all"),
    ]


def test_verify_audits_the_records_it_sums(tmp_path, monkeypatch, capsys):
    # under --out one sink sums the rows and hands each record to the auditor
    real = Heap.peek

    def comparing_peek(self):
        self.universe.telemetry.comparisons += 1
        return real(self)

    monkeypatch.setattr(Heap, "peek", comparing_peek)
    argv = ("verify", "--policy", "simple", "--traces", "1", "--ops", "200")
    assert run_cli(*argv) == 1
    alone = capsys.readouterr().out
    assert "find-min: comparisons 1 != links 0" in alone
    assert run_cli(*argv, "--out", str(tmp_path / "rows")) == 1
    assert capsys.readouterr().out == alone


def test_verify_detects_the_undersized_trees(monkeypatch, capsys):
    monkeypatch.setitem(
        RULES,
        Policy.INCREASING_RANK,
        RULES[Policy.INCREASING_RANK]._replace(walk=guarded_increasing_rank),
    )
    code = run_cli(
        "verify", "--policy", "increasing-rank", "--traces", "6", "--ops", "1000"
    )
    assert code == 1
    capsys.readouterr()


def _count_gen_trace(monkeypatch):
    calls = []
    real = fibcascade.cli.gen_trace

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(fibcascade.cli, "gen_trace", counted)
    return calls


def test_verify_generates_each_trace_once(monkeypatch, capsys):
    calls = _count_gen_trace(monkeypatch)
    code = run_cli(
        "verify", "--policy", "simple,classic", "--traces", "3", "--ops", "200"
    )
    assert code == 0
    assert len(calls) == 3
    assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()] == [
        "verify simple", "verify classic",
    ]


def test_verify_flags_a_comparison_that_makes_no_link(monkeypatch, capsys):
    # claim (iii): on simple every comparison is kept as a link; a find-min
    # that compares is a comparison no link accounts for
    real = Heap.peek

    def comparing_peek(self):
        self.universe.telemetry.comparisons += 1
        return real(self)

    monkeypatch.setattr(Heap, "peek", comparing_peek)
    code = run_cli("verify", "--policy", "simple", "--traces", "1", "--ops", "200")
    assert code == 1
    out = capsys.readouterr().out
    assert "find-min: comparisons 1 != links 0" in out and "[FAIL]" in out


def test_verify_tallies_a_divergence_from_the_reference(monkeypatch, capsys):
    real = OracleHeap.decrease_key

    def skewed(self, uid, key):
        real(self, uid, key + 1)

    monkeypatch.setattr(OracleHeap, "decrease_key", skewed)
    code = run_cli("verify", "--policy", "simple", "--traces", "1", "--ops", "100")
    assert code == 1
    out = capsys.readouterr().out
    assert "1 divergences" in out and "[FAIL]" in out


def test_verify_tallies_a_find_min_off_the_reference(monkeypatch, capsys):
    # the item a find-min returns is checked, not only the heap's root
    monkeypatch.setattr(Heap, "peek", lambda self: self.root and self.root.child)
    code = run_cli("verify", "--policy", "simple", "--traces", "1", "--ops", "200")
    assert code == 1
    out = capsys.readouterr().out
    assert "1 divergences" in out and "[FAIL] (find-min on h" in out


def test_verify_fault_injection_trips_the_audits(monkeypatch, capsys):
    monkeypatch.setitem(
        RULES,
        Policy.SIMPLE,
        RULES[Policy.SIMPLE]._replace(walk=_one_cut(toggle_walk_without_unmark)),
    )
    code = run_cli("verify", "--policy", "simple", "--traces", "2", "--ops", "400")
    assert code == 1
    assert "audit" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# adversary

def test_adversary_k_sweep_with_checks(tmp_path, capsys):
    out = tmp_path / "adv.csv"
    code = run_cli(
        "adversary", "--k", "10..30:10", "--rounds", "5",
        "--out", str(out), "--check",
    )
    assert code == 0
    assert "exponent" in capsys.readouterr().out
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 15  # 3 stages x 5 rounds
    assert {row["policy"] for row in rows} == {"non-cascading"}
    for row in rows:
        assert row["op-kind"] == "delete-min"
        assert int(row["fair_links"]) == int(row["workload"].split("steady-k")[1])


def test_adversary_reports_a_broken_shape(monkeypatch, capsys):
    monkeypatch.setattr(
        fibcascade.adversary, "verify_t_shape", lambda *args: ["a planted problem"]
    )
    code = run_cli("adversary", "--k", "10..30:10", "--rounds", "3")
    assert code == 1
    # the rows go to stdout, so the log lines go to stderr
    assert "FAIL: a planted problem" in capsys.readouterr().err


def test_adversary_control_replay_on_simple(tmp_path, capsys):
    code = run_cli(
        "adversary", "--k", "10..30:10", "--rounds", "5",
        "--policy", "simple", "--out", str(tmp_path / "ctl.csv"), "--check",
    )
    assert code == 0
    assert "exponent" in capsys.readouterr().out


@pytest.mark.parametrize("policy", ["non-cascading", "simple"])
def test_adversary_steady_rows_carry_no_wall_time(policy, tmp_path, capsys):
    out = tmp_path / "steady.csv"
    code = run_cli(
        "adversary", "--k", "10..20:10", "--rounds", "3",
        "--policy", policy, "--out", str(out),
    )
    assert code == 0
    logged = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in logged] == [
        "adversary k=10", "adversary k=20",
    ]
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6  # 2 stages x 3 rounds
    assert {row["policy"] for row in rows} == {policy}
    assert {row["wall_time_ns"] for row in rows} == {"0"}


def test_adversary_replay_keeps_only_the_records_it_writes(
    monkeypatch, tmp_path, capsys
):
    # on simple the replayed schedule's build makes thousands of records;
    # only the last --rounds delete-min records, the rows, may stay alive
    real = fibcascade.cli.replay_ops
    grown = []

    def live_records():
        gc.collect()
        return sum(isinstance(o, OpRecord) for o in gc.get_objects())

    def counted(*args, **kwargs):
        before = live_records()
        result = real(*args, **kwargs)
        grown.append(live_records() - before)
        return result

    monkeypatch.setattr(fibcascade.cli, "replay_ops", counted)
    code = run_cli(
        "adversary", "--k", "10..20:10", "--rounds", "5",
        "--policy", "simple", "--out", str(tmp_path / "steady.csv"),
    )
    assert code == 0
    assert grown == [5, 5]
    capsys.readouterr()


def test_adversary_m_schedule_reports_totals(tmp_path, capsys):
    code = run_cli(
        "adversary", "--m", "2000", "--out", str(tmp_path / "m.csv")
    )
    assert code == 0
    capsys.readouterr()


def test_adversary_repeated_m_runs_once(tmp_path, capsys):
    out = tmp_path / "m.csv"
    code = run_cli(
        "adversary", "--m", "1000", "--m", "1000", "--m", "1000",
        "--out", str(out),
    )
    assert code == 0
    with out.open() as fh:
        assert len(list(csv.DictReader(fh))) == 1
    logged = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in logged] == ["adversary m=1000"]


def test_adversary_repeated_m_counts_once_in_the_fit(tmp_path, capsys):
    runs = []
    for i, ms in enumerate([(1000, 2000, 3000), (1000, 2000, 2000, 3000)]):
        out = tmp_path / f"m{i}.csv"
        argv = [arg for m in ms for arg in ("--m", str(m))]
        assert run_cli("adversary", *argv, "--out", str(out)) == 0
        logged = capsys.readouterr().out.splitlines()
        assert logged[-1].startswith("adversary total-cost exponent vs m: ")
        runs.append((out.read_text(), logged))
    assert runs[0] == runs[1]


def test_adversary_repeated_m_is_one_distinct_size_under_check(
    monkeypatch, capsys
):
    # one distinct size expands to three, however often it is given; the
    # exponent at 3000 (1.2380) falls short of the gate, so both exit 1
    monkeypatch.setattr(fibcascade.cli, "CHECK_MIN_M", 3000)
    runs = []
    for argv in (("--m", "3000"), ("--m", "3000", "--m", "3000")):
        code = run_cli("adversary", *argv, "--check")
        runs.append((code, capsys.readouterr()))
    assert runs[0][0] == 1
    assert runs[1] == runs[0]


def test_adversary_m_check_passes_the_total_cost_gate(capsys):
    assert run_cli("adversary", "--m", "100000", "--check") == 0
    logged = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in logged] == [
        "adversary m=10000",
        "adversary m=30000",
        "adversary m=100000",
        "adversary total-cost exponent vs m",
    ]
    assert logged[-1].endswith(": 1.2561")


@pytest.mark.parametrize(
    "argv, want",
    [
        (("--m", "100000"), "FAIL: exponent 1.0000 < 1.25"),
        (("--k", "10..30:10", "--rounds", "3"),
         "FAIL: exponent 1.0000 outside [0.45, 0.55]"),
        (("--k", "10..30:10", "--rounds", "3", "--policy", "simple"),
         "FAIL: exponent 1.0000 outside <= 0.1"),
    ],
    ids=["total-cost", "links-per-delete-min", "links-per-delete-min-simple"],
)
def test_adversary_check_fails_an_exponent_off_its_gate(
    argv, want, monkeypatch, capsys
):
    monkeypatch.setattr(fibcascade.cli, "fit_exponent", lambda points: 1.0)
    assert run_cli("adversary", *argv, "--check") == 1
    assert capsys.readouterr().err.splitlines()[-1] == want


# ---------------------------------------------------------------------------
# dijkstra

def test_gen_graph_is_simple_and_deterministic():
    adj = gen_graph(50, 400, seed=9)
    assert adj == gen_graph(50, 400, seed=9)
    edges = [(u, v, w) for u, arcs in enumerate(adj) for v, w in arcs]
    assert len(edges) == 400
    seen = set()
    for u, v, w in edges:
        assert u != v
        assert (u, v) not in seen
        seen.add((u, v))
        assert 0 <= w < 2**32
    with pytest.raises(ValueError):
        gen_graph(1, 0, seed=0)
    with pytest.raises(ValueError):
        gen_graph(3, 7, seed=0)  # more than n(n-1) arcs


def test_dijkstra_all_policies_agree(tmp_path):
    out = tmp_path / "dij.csv"
    code = run_cli(
        "dijkstra", "--vertices", "120", "--edges", "900",
        "--policy", "all", "--out", str(out),
    )
    assert code == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10
    assert {row["policy"] for row in rows} == set(
        p.value for p in _parse_policies(["all"], ["all"])
    )
    for row in rows:
        assert row["op-kind"] == "all"
        assert int(row["n"]) == 120


def test_dijkstra_check_flags_a_comparison_that_makes_no_link(monkeypatch, capsys):
    # claim (iii) on the audited row: a cut that compares breaks it
    real = Heap._relink

    def comparing_relink(self, x):
        self.universe.telemetry.comparisons += 1
        real(self, x)

    monkeypatch.setattr(Heap, "_relink", comparing_relink)
    code = run_cli(
        "dijkstra", "--vertices", "60", "--edges", "300", "--policy", "simple"
    )
    assert code == 1
    assert re.search(
        r"dijkstra simple: FAIL comparisons \d+ != links \d+",
        capsys.readouterr().err,
    )


@pytest.mark.parametrize(
    "count, want",
    [
        ("decrease_calls", "more decrease-keys than edges"),
        ("delete_calls", "more delete-mins than vertices"),
    ],
)
def test_dijkstra_check_flags_a_call_count_over_its_bound(
    count, want, monkeypatch, capsys
):
    real = fibcascade.cli.dijkstra_policy

    def overcounted(adj, policy, seed):
        dist, stats, phi = real(adj, policy, seed)
        stats[count] = 301  # above both --vertices and --edges
        return dist, stats, phi

    monkeypatch.setattr(fibcascade.cli, "dijkstra_policy", overcounted)
    code = run_cli(
        "dijkstra", "--vertices", "60", "--edges", "300", "--policy", "simple"
    )
    assert code == 1
    assert capsys.readouterr().err == f"dijkstra simple: FAIL {want}\n"


def test_dijkstra_flags_a_distance_off_the_reference(monkeypatch, capsys):
    real = fibcascade.cli.dijkstra_reference

    def shifted(adj):
        dist = real(adj)
        dist[7] += 1
        return dist

    monkeypatch.setattr(fibcascade.cli, "dijkstra_reference", shifted)
    code = run_cli(
        "dijkstra", "--vertices", "60", "--edges", "300", "--policy", "simple"
    )
    assert code == 1
    assert re.fullmatch(
        r"dijkstra simple: FAIL distance mismatch at vertex 7: (\d+) != (\d+)\n",
        capsys.readouterr().err,
    )


# ---------------------------------------------------------------------------
# replay

TRACE = """\
newheap h0 simple
insert h0 x0 5
insert h0 x1 3
decreasekey x0 1
deletemin h0
findmin h0
"""


def test_replay_file_ok(tmp_path, capsys):
    path = tmp_path / "t.trace"
    path.write_text(TRACE)
    assert run_cli("replay", str(path), "--check", "--strict") == 0
    assert "ops ok" in capsys.readouterr().out


def test_strict_replay_fails_a_tied_delete_min_on_simple(tmp_path, capsys):
    path = tmp_path / "dup.trace"
    path.write_text(
        "newheap h0 simple\ninsert h0 a 5\ninsert h0 b 5\ndeletemin h0\n"
    )
    assert run_cli("replay", str(path), "--strict", "--policy", "simple") == 1
    assert capsys.readouterr().out == (
        "replay dup.trace: FAIL at op 3: delete-min on h0 removed item 1,"
        " reference minimum is item 0\n"
    )
    assert run_cli("replay", str(path), "--policy", "simple") == 0
    assert "4 ops ok (simple)" in capsys.readouterr().out


def test_replay_check_names_the_failing_op(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(
        RULES,
        Policy.INCREASING_RANK,
        RULES[Policy.INCREASING_RANK]._replace(walk=guarded_increasing_rank),
    )
    path = tmp_path / "tied.trace"
    path.write_text(FLOOR_REGRESSIONS["tied-rank-cut"])
    code = run_cli("replay", str(path), "--check", "--policy", "increasing-rank")
    assert code == 1
    assert "replay tied.trace: FAIL at op 12: h0/structure:" in (
        capsys.readouterr().out
    )


def test_replay_builds_no_records_without_out(tmp_path, monkeypatch, capsys):
    # with no row to write, a replay needs no sink, and without a sink no
    # operation opens a record
    def no_records(*args):
        raise AssertionError("an op record was opened")

    path = tmp_path / "t.trace"
    path.write_text(TRACE)
    monkeypatch.setattr(fibcascade.instrumentation.Telemetry, "op_begin", no_records)
    assert run_cli("replay", str(path), "--policy", "classic", "--check") == 0
    assert "6 ops ok (classic)" in capsys.readouterr().out


def test_replay_rejects_a_broken_trace(tmp_path, capsys):
    path = tmp_path / "bad.trace"
    path.write_text("newheap h0 simple\ndeletemin h0\n")
    assert run_cli("replay", str(path)) == 1
    assert "error:" in capsys.readouterr().err


def test_replay_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, capsys):
    # a file decodes as stdin does: the bad byte reaches the parser, which
    # names its line, not a position in a read buffer
    path = tmp_path / "t.trace"
    path.write_bytes(TRACE.encode() + b"\xffbad\n")
    assert run_cli("replay", str(path)) == 1
    assert capsys.readouterr() == (
        "", "error: line 7: unknown verb '\\udcffbad'\n"
    )


def test_replay_out_may_name_its_own_trace(tmp_path, capsys):
    # the trace streams, so its rows file opens only after the replay
    path = tmp_path / "t.trace"
    path.write_text(TRACE)
    assert run_cli("replay", str(path), "--out", str(path)) == 0
    assert capsys.readouterr().out == "replay t.trace: 6 ops ok (recorded)\n"
    with path.open() as fh:
        rows = list(csv.DictReader(fh))
    assert [row["op-kind"] for row in rows] == [
        "decrease-key", "delete-min", "find-min", "insert", "make-heap", "all",
    ]


def _replay_source(source, text, tmp_path, monkeypatch):
    """The replay argument naming ``text``: a file, or stdin holding it."""
    if source == "stdin":
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        return "-"
    (tmp_path / "t.trace").write_text(text)
    return "t.trace"


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_replay_stops_at_a_malformed_last_line(source, tmp_path, monkeypatch, capsys):
    # the lines above it run first, yet no result line is printed and no
    # rows file is opened
    monkeypatch.chdir(tmp_path)
    trace = _replay_source(source, TRACE + "deletemin h0 h1\n", tmp_path, monkeypatch)
    assert run_cli("replay", trace, "--check", "--out", "rows") == 1
    assert capsys.readouterr() == (
        "", "error: line 7: deletemin takes 1 arguments, got 2\n"
    )
    assert not (tmp_path / "rows").exists()


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_replay_reports_a_divergence_above_a_malformed_line(
    source, tmp_path, monkeypatch, capsys
):
    # a streamed trace diverges before its bad line is read
    monkeypatch.chdir(tmp_path)
    text = "newheap h0 simple\ninsert h0 a 5\ninsert h0 b 5\ndeletemin h0\nbad\n"
    trace = _replay_source(source, text, tmp_path, monkeypatch)
    assert run_cli("replay", trace, "--strict", "--policy", "simple") == 1
    name = "stdin" if source == "stdin" else "t.trace"
    assert capsys.readouterr() == (
        f"replay {name}: FAIL at op 3: delete-min on h0 removed item 1,"
        " reference minimum is item 0\n",
        "",
    )


def test_replay_out_keeps_no_record_per_operation(tmp_path, capsys):
    # rows sum as records arrive: --out adds a few totals, not a list the
    # length of the trace
    path = tmp_path / "t.trace"
    path.write_text(format_trace(gen_trace(10000, seed=3)))
    argv = ["replay", str(path), "--policy", "simple"]
    peaks = []
    for extra in ([], ["--out", os.devnull]):
        gc.collect()
        tracemalloc.start()
        try:
            assert run_cli(*argv, *extra) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    capsys.readouterr()
    assert peaks[1] - peaks[0] < 1 << 20, peaks


def test_replay_missing_file(capsys):
    assert run_cli("replay", "/nonexistent/path.trace") == 1
    assert "error:" in capsys.readouterr().err


def test_replay_reads_stdin(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(TRACE))
    assert run_cli("replay", "-") == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# row values

# one small run of each row-writing path
PINNED_RUNS = [
    ("adversary", "--k", "10..30:10", "--rounds", "3"),
    ("adversary", "--k", "10..30:10", "--rounds", "3", "--policy", "simple"),
    ("adversary", "--m", "2000"),
    ("dijkstra", "--vertices", "60", "--edges", "300", "--policy", "all"),
    ("verify", "--policy", "simple,classic", "--traces", "2", "--ops", "200"),
    ("replay", "t.trace", "--check", "--strict"),
]


def test_cli_rows_are_pinned(tmp_path, monkeypatch, capsys):
    # every row these runs write, in both formats, with the wall time zeroed:
    # the digest was taken before the rows were built by one helper
    (tmp_path / "t.trace").write_text(TRACE)
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    for argv in PINNED_RUNS:
        for fmt in ("csv", "jsonl"):
            assert run_cli(*argv, "--out", "rows", "--format", fmt) == 0, argv
            text = (tmp_path / "rows").read_text()
            if fmt == "csv":
                rows = list(csv.reader(io.StringIO(text)))
                at = rows[0].index("wall_time_ns")
                for row in rows[1:]:
                    row[at] = "0"
                lines = [",".join(row) for row in rows]
            else:
                lines = []
                for line in text.splitlines():
                    rec = json.loads(line)
                    rec["wall_time_ns"] = 0
                    lines.append(json.dumps(rec))
            digest.update(f"{' '.join(argv)} {fmt}\n".encode())
            digest.update("\n".join(lines).encode() + b"\n")
    capsys.readouterr()
    assert digest.hexdigest() == (
        "fbdfd32eb43e13cad9ed3a40f951a8763e16c44dd285824583728a75886be831"
    )
