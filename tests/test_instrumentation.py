"""Counters, the potential ledger, cost formulas, audits, and fits."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from fibcascade import (
    PHI,
    Policy,
    SLACK,
    Universe,
    audit_violations,
    fib,
    log_phi,
)
from fibcascade.instrumentation import (
    COUNTER_FIELDS,
    AmortizedAuditor,
    OpRecord,
    Telemetry,
    degree,
    fit_exponent,
)
from fibcascade.oracle import run_checks

from _reference import (
    compute_potential,
    fib_dominates_phi_power,
    lucas,
    potential_violations,
    rank_bound_violations,
    structure_violations,
    subtree_sizes,
)


def test_fibonacci_numbers():
    want = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377]
    assert [fib(i) for i in range(15)] == want


def test_fib_refuses_a_negative_index():
    with pytest.raises(ValueError) as err:
        fib(-1)
    assert str(err.value) == "negative Fibonacci index: -1"


def test_lucas_numbers():
    assert [lucas(i) for i in range(8)] == [2, 1, 3, 4, 7, 11, 18, 29]


def test_lucas_fibonacci_identity():
    # L_n = F_{n-1} + F_{n+1}
    for n in range(1, 40):
        assert lucas(n) == fib(n - 1) + fib(n + 1)


def test_log_phi():
    assert log_phi(1) == 0
    assert math.isclose(log_phi(PHI**7), 7.0, rel_tol=1e-12)


def test_phi_power_domination_matches_floats_at_small_sizes():
    for k in range(0, 31):
        assert fib_dominates_phi_power(k) == (fib(k + 2) >= PHI**k)


def test_fit_exponent_recovers_exact_power_laws():
    xs = [3, 10, 47, 200]
    assert abs(fit_exponent([(x, 3 * x**2) for x in xs]) - 2.0) < 1e-9
    assert abs(fit_exponent([(x, 5 * math.sqrt(x)) for x in xs]) - 0.5) < 1e-9
    assert abs(fit_exponent([(x, 7.0) for x in xs]) - 0.0) < 1e-9


def test_fit_exponent_rejects_degenerate_input():
    with pytest.raises(ValueError):
        fit_exponent([(1, 1), (2, 2)])  # too few points
    with pytest.raises(ValueError):
        fit_exponent([(1, 1), (2, 0), (3, 3)])  # non-positive cost
    with pytest.raises(ValueError):
        fit_exponent([(0, 1), (2, 2), (3, 3)])  # non-positive size
    with pytest.raises(ValueError):
        fit_exponent([(2, 1), (2, 2), (2, 3)])  # no x spread


def test_fit_exponent_rejects_one_n_whatever_its_mean_rounds_to():
    # the mean of three log(6) is not log(6) in floating point, so a spread
    # computed from the mean is not zero
    with pytest.raises(ValueError, match="two distinct n"):
        fit_exponent([(6, 1), (6, 2), (6, 3)])


@given(
    st.floats(0.1, 3.0),
    st.floats(0.5, 100.0),
    st.lists(st.integers(2, 10**6), unique=True, min_size=3, max_size=12),
)
def test_fit_exponent_on_generated_power_laws(slope, scale, xs):
    points = [(x, scale * x**slope) for x in xs]
    assert abs(fit_exponent(points) - slope) < 1e-6


def _record(kind, n=10, **kw):
    fields = dict(
        fair_links=0,
        naive_links=0,
        comparisons=0,
        iterations=0,
        cuts=0,
        markings=0,
        unmarkings=0,
        rank_clamps=0,
        d_phi=0.0,
    )
    fields.update(kw)
    return OpRecord(kind=kind, n_before=n, **fields)


def test_estimated_time_formulas():
    assert _record("make-heap").estimated_time == 1
    assert _record("find-min").estimated_time == 1
    assert _record("meld").estimated_time == 1
    assert _record("insert").estimated_time == 1
    assert _record("decrease-key", iterations=3).estimated_time == 4
    rec = _record("delete-min", n=8, fair_links=2, naive_links=1)
    assert math.isclose(rec.estimated_time, 1 + log_phi(8) + 3)


def test_amortized_time_adds_the_potential_change():
    rec = _record("decrease-key", iterations=2, d_phi=1.5)
    assert math.isclose(rec.amortized_time, 3 + 1.5)


def test_audit_accepts_the_exact_bounds():
    assert audit_violations(_record("insert", d_phi=1.0)) == []
    assert audit_violations(_record("meld", d_phi=0.0)) == []
    assert audit_violations(_record("decrease-key", iterations=3, d_phi=1.0)) == []
    dm = _record(
        "delete-min", n=8, fair_links=2, d_phi=2 * log_phi(8) - 1 - 2
    )
    assert audit_violations(dm) == []
    # size-1 delete-min: the bound is -1 and the drop is exactly -1
    lone = _record("delete-min", n=1, d_phi=-1.0)
    assert audit_violations(lone) == []


def test_audit_flags_everything_beyond_slack():
    assert audit_violations(_record("make-heap", d_phi=0.5)) == [
        "make-heap: d_phi 0.5 exceeds 0"
    ]
    assert audit_violations(_record("insert", d_phi=1.0 + 3 * SLACK)) == [
        "insert: d_phi 1.000000003 exceeds 1"
    ]
    assert audit_violations(
        _record("decrease-key", iterations=3, d_phi=1.0 + 3 * SLACK)
    ) == [
        "decrease-key: d_phi 1.000000003 exceeds 1",
        "decrease-key: amortized 5.000000003 exceeds 5",
    ]
    assert audit_violations(_record("delete-min", n=1, d_phi=-1.0 + 3 * SLACK)) == [
        "delete-min: d_phi -0.999999997 exceeds -1",
        "delete-min: amortized 3.00000002618e-09 exceeds 0",
    ]
    assert audit_violations(_record("delete-min", n=8, fair_links=30, d_phi=20)) == [
        "delete-min: d_phi 20 exceeds -22.3574794575",
        "delete-min: amortized 55.3212602712 exceeds 12.9637808137",
    ]
    # within slack is accepted
    assert not audit_violations(_record("insert", d_phi=1.0 + SLACK / 2))


def test_auditor_streams_and_keeps_a_sample():
    auditor = AmortizedAuditor()
    bad = AmortizedAuditor.KEEP + 3
    for _ in range(bad):
        auditor(_record("insert", d_phi=2.0))
    auditor(_record("insert", d_phi=0.0))
    assert auditor.ops == bad + 1
    assert not auditor.ok
    assert auditor.violation_count == bad
    assert len(auditor.violations) == AmortizedAuditor.KEEP


def test_auditor_asserts_claim_iii_after_the_bounds():
    # claim (iii): a comparison that no link keeps is a violation, listed
    # after the record's bound messages and under the same cap
    auditor = AmortizedAuditor()
    auditor(_record("find-min", comparisons=1))
    auditor(_record("delete-min", n=8, fair_links=2, comparisons=2))
    auditor(_record("make-heap", d_phi=0.5, comparisons=3, naive_links=1))
    assert auditor.ops == 3 and auditor.violation_count == 3
    assert auditor.violations == [
        "find-min: comparisons 1 != links 0",
        "make-heap: d_phi 0.5 exceeds 0",
        "make-heap: comparisons 3 != links 1",
    ]
    for _ in range(AmortizedAuditor.KEEP):
        auditor(_record("insert", comparisons=1))
    assert auditor.violation_count == 3 + AmortizedAuditor.KEEP
    assert len(auditor.violations) == AmortizedAuditor.KEEP


def test_telemetry_op_records_flow_to_the_sink():
    u = Universe()
    h = u.make_heap(Policy.SIMPLE)
    seen = []
    u.telemetry.record_sink = seen.append
    h.insert(u.make_item(4))
    h.insert(u.make_item(9))
    h.find_min()
    h.delete_min()
    assert [r.kind for r in seen] == ["insert", "insert", "find-min", "delete-min"]
    assert seen[0].d_phi == 1  # fresh root
    assert seen[2].estimated_time == 1


def test_each_record_field_holds_the_delta_of_its_own_counter():
    # distinct powers of two per counter: a delta taken against another
    # counter's snapshot, or stored in another field, cannot match by chance
    tele = Telemetry()
    names = COUNTER_FIELDS + ("phi",)
    for i, name in enumerate(names):
        setattr(tele, name, 3**i)
    seen = []
    tele.record_sink = seen.append
    tele.op_begin("insert", 7)
    for i, name in enumerate(names):
        setattr(tele, name, getattr(tele, name) + 2**i)
    tele.op_end()
    (rec,) = seen
    assert (rec.kind, rec.n_before) == ("insert", 7)
    for i, name in enumerate(names):
        assert getattr(rec, "d_phi" if name == "phi" else name) == 2**i, name


def test_live_audit_over_a_real_workload():
    u = Universe()
    auditor = AmortizedAuditor()
    u.telemetry.record_sink = auditor
    h = u.make_heap(Policy.SIMPLE)
    nodes = [u.make_item(3 * i + 1) for i in range(120)]
    for n in nodes:
        h.insert(n)
    for n in nodes[::3]:
        h.decrease_key(n, n.key - 1)
    while len(h):
        h.delete_min()
    assert auditor.ok, auditor.violations[:3]


def test_potential_matches_a_manual_count():
    u = Universe()
    h = u.make_heap(Policy.SIMPLE)
    for k in (0, 1, 2, 3):
        h.insert(u.make_item(k))
    # one root with three naive children: sum(degree - rank) + 1 root
    assert compute_potential(h.iter_roots()) == 4
    assert u.telemetry.phi == 4


def test_subtree_sizes_bottom_up():
    u = Universe()
    h = u.make_heap(Policy.SIMPLE)
    for k in range(6):
        h.insert(u.make_item(k))
    h.delete_min()
    sizes = subtree_sizes(h.root)
    assert sizes[h.root] == 5
    assert min(sizes.values()) == 1


def test_checkers_pass_on_a_clean_heap():
    u = Universe()
    h = u.make_heap(Policy.SIMPLE)
    for k in range(40):
        h.insert(u.make_item(k * 7 % 40))
    for _ in range(10):
        h.delete_min()
    for checker in (structure_violations, rank_bound_violations, potential_violations):
        report = checker(h)
        assert report.ok, (checker.__name__, report.violations[:3])
        assert report.asserted


def test_checkers_catch_a_corrupted_rank():
    u = Universe()
    h = u.make_heap(Policy.SIMPLE)
    for k in range(20):
        h.insert(u.make_item(k))
    for _ in range(5):
        h.delete_min()
    victim = h.root.child
    victim.rank += 5

    assert not structure_violations(h).ok
    assert not rank_bound_violations(h).ok
    assert not potential_violations(h).ok  # tracked phi no longer matches


def test_rank_bound_is_exponential_for_the_weaker_policies():
    u = Universe()
    h = u.make_heap(Policy.EAGER_MARKING)
    for k in range(32):
        h.insert(u.make_item(k))
    h.delete_min()
    report = rank_bound_violations(h)
    assert report.ok and report.asserted


def test_rank_bound_is_report_only_for_non_cascading():
    u = Universe()
    h = u.make_heap(Policy.NON_CASCADING)
    for k in range(8):
        h.insert(u.make_item(k))
    h.delete_min()
    report = rank_bound_violations(h)
    assert not report.asserted


def test_structure_check_reports_rank_above_degree_on_every_policy():
    # one contract: no policy's row exempts it from degree >= rank
    for policy in Policy:
        u = Universe()
        h = u.make_heap(policy)
        for k in range(10):
            h.insert(u.make_item(k))
        h.delete_min()
        node = next(r for r in h.iter_roots() if r.child is not None).child
        node.rank = degree(node) + 1
        want = f"node {node.uid}: degree {node.rank - 1} < rank {node.rank}"
        assert want in structure_violations(h).violations, policy
        assert f"{h.name}/structure: {want}" in run_checks(u), policy
